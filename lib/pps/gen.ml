open Pak_rational

type params = {
  n_agents : int;
  depth : int;
  max_branching : int;
  label_alphabet : int;
  act_alphabet : int;
  max_weight : int;
  early_stop_pct : int;
  deterministic_acts : bool;
}

let default_params =
  { n_agents = 2;
    depth = 3;
    max_branching = 2;
    label_alphabet = 2;
    act_alphabet = 3;
    max_weight = 5;
    early_stop_pct = 15;
    deterministic_acts = false
  }

(* Gen's stream salt (Simulate uses another, so equal seeds give
   independent streams). *)
let prng seed = Prng.create ~salt:0x9E3779B9 seed

let normalized_weights rng ~max_weight k =
  let ws = List.init k (fun _ -> 1 + Prng.int rng max_weight) in
  let total = Q.of_int (List.fold_left ( + ) 0 ws) in
  List.map (fun w -> Q.div (Q.of_int w) total) ws

(* Protocol-consistent generation: agent i's action distribution is a
   memoized function of i's local state (time, label), exactly as a
   probabilistic protocol P_i : L_i -> ∆(Act_i) prescribes. This is the
   class of systems the paper's Section 2.2 considers, and it is what
   makes Lemma 4.3(b) (past-based => local-state independent) true; on
   trees with per-node action probabilities the lemma genuinely fails.
   The environment's choice distribution is free per node, and runs
   have uniform length, so generated action labels (which embed their
   depth) are always proper. *)
let tree ?(params = default_params) seed =
  let p = params in
  let rng = prng seed in
  let b = Tree.Builder.create ~n_agents:p.n_agents in
  let fresh_labels depth =
    Array.init p.n_agents (fun _ ->
        Printf.sprintf "s%d_%d" depth (Prng.int rng p.label_alphabet))
  in
  (* P_i(ℓ): memoized per (agent, depth, label). *)
  let protocol_memo : (int * int * string, (string * Q.t) list) Hashtbl.t =
    Hashtbl.create 32
  in
  let agent_dist agent depth label =
    match Hashtbl.find_opt protocol_memo (agent, depth, label) with
    | Some d -> d
    | None ->
      let d =
        if p.deterministic_acts then
          [ (Printf.sprintf "a%d_%d" depth (Hashtbl.hash (agent, label) mod p.act_alphabet),
             Q.one) ]
        else begin
          let support = 1 + Prng.int rng (min 2 p.act_alphabet) in
          let first = Prng.int rng p.act_alphabet in
          let labels =
            List.init support (fun k ->
                Printf.sprintf "a%d_%d" depth ((first + k) mod p.act_alphabet))
          in
          List.combine labels (normalized_weights rng ~max_weight:p.max_weight support)
        end
      in
      Hashtbl.add protocol_memo (agent, depth, label) d;
      d
  in
  let rec expand node depth labels =
    if depth < p.depth then begin
      let env_choices = 1 + Prng.int rng p.max_branching in
      let env_probs = normalized_weights rng ~max_weight:p.max_weight env_choices in
      let dists = Array.init p.n_agents (fun i -> agent_dist i depth labels.(i)) in
      (* Cartesian product of the agents' action choices. *)
      let combos =
        Array.fold_right
          (fun d acc ->
            List.concat_map (fun (a, q) -> List.map (fun (rest, qr) -> (a :: rest, Q.mul q qr)) acc) d)
          dists
          [ ([], Q.one) ]
      in
      List.iteri
        (fun j env_p ->
          List.iter
            (fun (agent_acts, acts_p) ->
              let acts = Array.of_list (Printf.sprintf "e%d_%d" depth j :: agent_acts) in
              let child_labels = fresh_labels (depth + 1) in
              let state =
                Gstate.make
                  ~env:(Printf.sprintf "env%d_%d" (depth + 1) (Prng.int rng p.label_alphabet))
                  ~locals:(Array.to_list child_labels)
              in
              let child =
                Tree.Builder.add_child b ~parent:node ~prob:(Q.mul env_p acts_p) ~acts state
              in
              expand child (depth + 1) child_labels)
            combos)
        env_probs
    end
  in
  let k0 = 1 + Prng.int rng p.max_branching in
  let ws0 = normalized_weights rng ~max_weight:p.max_weight k0 in
  List.iter
    (fun w ->
      let labels = fresh_labels 0 in
      let state =
        Gstate.make
          ~env:(Printf.sprintf "env0_%d" (Prng.int rng p.label_alphabet))
          ~locals:(Array.to_list labels)
      in
      let node = Tree.Builder.add_initial b ~prob:w state in
      expand node 0 labels)
    ws0;
  Tree.Builder.finalize b

(* Arbitrary (not necessarily protocol-consistent) pps: per-node edge
   probabilities and per-edge action labels, with optional early
   leaves. Useful for measure-level properties and for exhibiting that
   protocol-level lemmas can fail outside the protocol-generated
   class. *)
let tree_arbitrary ?(params = default_params) seed =
  let p = params in
  let rng = prng (seed lxor 0x3C6EF372) in
  let b = Tree.Builder.create ~n_agents:p.n_agents in
  let fresh_labels depth =
    Array.init p.n_agents (fun _ ->
        Printf.sprintf "s%d_%d" depth (Prng.int rng p.label_alphabet))
  in
  let rec expand node depth =
    if depth < p.depth && not (depth > 0 && Prng.int rng 100 < p.early_stop_pct) then begin
      let k = 1 + Prng.int rng p.max_branching in
      let ws = normalized_weights rng ~max_weight:p.max_weight k in
      List.iteri
        (fun j w ->
          let acts =
            Array.init (p.n_agents + 1) (fun slot ->
                if slot = 0 then Printf.sprintf "e%d_%d" depth j
                else Printf.sprintf "a%d_%d" depth (Prng.int rng p.act_alphabet))
          in
          let child_labels = fresh_labels (depth + 1) in
          let state =
            Gstate.make
              ~env:(Printf.sprintf "env%d_%d" (depth + 1) (Prng.int rng p.label_alphabet))
              ~locals:(Array.to_list child_labels)
          in
          let child = Tree.Builder.add_child b ~parent:node ~prob:w ~acts state in
          expand child (depth + 1))
        ws
    end
  in
  let k0 = 1 + Prng.int rng p.max_branching in
  let ws0 = normalized_weights rng ~max_weight:p.max_weight k0 in
  List.iter
    (fun w ->
      let labels = fresh_labels 0 in
      let state =
        Gstate.make
          ~env:(Printf.sprintf "env0_%d" (Prng.int rng p.label_alphabet))
          ~locals:(Array.to_list labels)
      in
      let node = Tree.Builder.add_initial b ~prob:w state in
      expand node 0)
    ws0;
  Tree.Builder.finalize b

let past_based_fact tree ~seed =
  let rng = prng (seed lxor 0x5DEECE66D) in
  let per_node = Array.init (Tree.n_nodes tree) (fun _ -> Prng.int rng 2 = 0) in
  Fact.of_pred tree (fun ~run ~time -> per_node.(Tree.run_node tree ~run ~time))

let transient_fact tree ~seed =
  let rng = prng (seed lxor 0x2545F491) in
  (* Pre-draw one bit per point, in a fixed iteration order. *)
  let bits = Hashtbl.create 64 in
  Tree.iter_points tree (fun ~run ~time ->
      Hashtbl.replace bits (run, time) (Prng.int rng 2 = 0));
  Fact.of_pred tree (fun ~run ~time -> Hashtbl.find bits (run, time))

let run_fact tree ~seed =
  let rng = prng (seed lxor 0x41C64E6D) in
  let per_run = Array.init (Tree.n_runs tree) (fun _ -> Prng.int rng 2 = 0) in
  Fact.of_run_pred tree (fun run -> per_run.(run))

let proper_actions tree =
  let pairs = ref [] in
  for agent = 0 to Tree.n_agents tree - 1 do
    List.iter
      (fun act -> if Action.is_proper tree ~agent ~act then pairs := (agent, act) :: !pairs)
      (Tree.agent_actions tree ~agent)
  done;
  List.sort compare !pairs

let pick_proper_action tree ~seed =
  match proper_actions tree with
  | [] -> None
  | actions ->
    let rng = prng (seed lxor 0x6C078965) in
    Some (List.nth actions (Prng.int rng (List.length actions)))
