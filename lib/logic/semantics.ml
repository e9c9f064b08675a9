open Pak_rational
open Pak_pps

module Obs = Pak_obs.Obs
module Budget = Pak_guard.Budget

let c_memo_hits = Obs.counter "semantics.memo_hits"
let c_memo_misses = Obs.counter "semantics.memo_misses"
let c_gfp_iters = Obs.counter "semantics.gfp_iters"
let c_gfp_iters_ck = Obs.counter "semantics.gfp_iters.common_knowledge"
let c_gfp_iters_cb = Obs.counter "semantics.gfp_iters.common_belief"

(* Memo effectiveness as a sampled gauge: hits / (hits + misses).
   Deterministic — both inputs are exact work counters — so snapshot
   diffs can hold it to tolerance like any other gauge. Reported only
   once any lookup happened, so unrelated workloads snapshot clean. *)
let () =
  Obs.register_gauges (fun () ->
      let hits = Obs.value c_memo_hits and misses = Obs.value c_memo_misses in
      let total = hits + misses in
      if total = 0 then []
      else [ ("semantics.memo_hit_rate", float_of_int hits /. float_of_int total) ])

(* Span label per syntactic operator, so traces show where evaluation
   time goes by connective rather than by (unbounded) formula text. *)
let op_tag : Formula.t -> string = function
  | True -> "true"
  | False -> "false"
  | Atom _ -> "atom"
  | Not _ -> "not"
  | And _ -> "and"
  | Or _ -> "or"
  | Implies _ -> "implies"
  | Iff _ -> "iff"
  | Does _ -> "does"
  | Eventually _ -> "eventually"
  | Globally _ -> "globally"
  | Next _ -> "next"
  | Once _ -> "once"
  | Historically _ -> "historically"
  | Knows _ -> "K"
  | Believes _ -> "B"
  | EveryoneKnows _ -> "E"
  | CommonKnows _ -> "C"
  | EveryoneBelieves _ -> "Ep"
  | CommonBelief _ -> "CB"

type valuation = string -> Gstate.t -> bool

let generic_valuation atom g =
  (* generic atoms: "a<i>_<label>" tests agent i's label. The agent
     index is the decimal digits up to the first underscore — no sign
     and no 0x/0o/0b/0u prefix, which int_of_string_opt alone would
     accept — so the valuation works for systems with any number of
     agents. *)
  match String.index_opt atom '_' with
  | Some sep when sep > 1 && atom.[0] = 'a' ->
    let digits = String.sub atom 1 (sep - 1) in
    (match int_of_string_opt digits with
     | Some i
       when String.for_all (fun c -> c >= '0' && c <= '9') digits && i < Gstate.n_agents g ->
       Gstate.local g i = String.sub atom (sep + 1) (String.length atom - sep - 1)
     | _ -> false)
  | _ -> false

(* A fact from a per-local-state boolean: true at (r,t) iff the bit for
   the local state of [agent] at (r,t) is set. Used for K and B, whose
   truth value only depends on the agent's local state. *)
let fact_of_lstate_pred tree ~agent pred =
  let cache : (Tree.lkey, bool) Hashtbl.t = Hashtbl.create 32 in
  Fact.of_pred tree (fun ~run ~time ->
      let key = Tree.lkey tree ~agent ~run ~time in
      match Hashtbl.find_opt cache key with
      | Some v -> v
      | None ->
        let v = pred key in
        Hashtbl.add cache key v;
        v)

let knows_fact tree ~agent inner =
  fact_of_lstate_pred tree ~agent (fun key ->
      let time = Tree.lkey_time key in
      Bitset.for_all
        (fun run -> Fact.holds inner ~run ~time)
        (Tree.lstate_runs tree key))

let satisfies_cmp (c : Formula.cmp) degree threshold =
  match c with
  | Formula.Geq -> Q.geq degree threshold
  | Formula.Gt -> Q.gt degree threshold
  | Formula.Leq -> Q.leq degree threshold
  | Formula.Lt -> Q.lt degree threshold
  | Formula.Eq -> Q.equal degree threshold

let believes_fact tree ~agent ~cmp ~threshold inner =
  fact_of_lstate_pred tree ~agent (fun key ->
      satisfies_cmp cmp (Belief.degree_at_lstate inner key) threshold)

let check_group = function
  | [] -> invalid_arg "Semantics: empty agent group"
  | g -> g

(* Greatest fixpoint of a monotone (decreasing-from-top) operator on
   facts, by iteration; terminates because each step removes points
   from a finite set. Equality of facts is tested extensionally. *)
let facts_equal tree a b =
  Tree.fold_points tree ~init:true ~f:(fun acc ~run ~time ->
      acc && Fact.holds a ~run ~time = Fact.holds b ~run ~time)

let gfp tree ~counter step =
  let rec iterate x =
    Obs.incr c_gfp_iters;
    Obs.incr counter;
    (* Fuel + deadline: the fixpoint is the coarsest loop the budget
       must be able to interrupt (each step sweeps every point). *)
    Budget.charge_iters 1;
    let x' = step x in
    if facts_equal tree x x' then x else iterate x'
  in
  iterate (Fact.tt tree)

(* The recursive engine: the reference oracle that eval_vec is tested
   against. No production path calls it. *)
let eval tree ~valuation formula =
  let memo : (Formula.t, Fact.t) Hashtbl.t = Hashtbl.create 32 in
  let check_agent i =
    if i < 0 || i >= Tree.n_agents tree then
      invalid_arg (Printf.sprintf "Semantics.eval: agent %d out of range" i)
  in
  let rec go (f : Formula.t) =
    match Hashtbl.find_opt memo f with
    | Some fact ->
      Obs.incr c_memo_hits;
      fact
    | None ->
      Obs.incr c_memo_misses;
      let fact =
        Obs.span ("semantics.eval." ^ op_tag f) @@ fun () ->
        match f with
        | True -> Fact.tt tree
        | False -> Fact.ff tree
        | Atom a -> Fact.of_state_pred tree (valuation a)
        | Not g -> Fact.not_ (go g)
        | And (a, b) -> Fact.and_ (go a) (go b)
        | Or (a, b) -> Fact.or_ (go a) (go b)
        | Implies (a, b) -> Fact.implies (go a) (go b)
        | Iff (a, b) -> Fact.iff (go a) (go b)
        | Does (i, act) ->
          check_agent i;
          Fact.does tree ~agent:i ~act
        | Eventually g -> Fact.eventually (go g)
        | Globally g -> Fact.globally (go g)
        | Next g -> Fact.next (go g)
        | Once g -> Fact.once (go g)
        | Historically g -> Fact.historically (go g)
        | Knows (i, g) ->
          check_agent i;
          knows_fact tree ~agent:i (go g)
        | Believes (i, cmp, threshold, g) ->
          check_agent i;
          believes_fact tree ~agent:i ~cmp ~threshold (go g)
        | EveryoneKnows (grp, g) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          let inner = go g in
          Fact.conj tree (List.map (fun i -> knows_fact tree ~agent:i inner) grp)
        | CommonKnows (grp, g) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          let inner = go g in
          (* gfp X. E_G(inner ∧ X) *)
          gfp tree ~counter:c_gfp_iters_ck (fun x ->
              let body = Fact.and_ inner x in
              Fact.conj tree (List.map (fun i -> knows_fact tree ~agent:i body) grp))
        | EveryoneBelieves (grp, threshold, g) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          let inner = go g in
          Fact.conj tree
            (List.map
               (fun i -> believes_fact tree ~agent:i ~cmp:Formula.Geq ~threshold inner)
               grp)
        | CommonBelief (grp, threshold, g) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          let inner = go g in
          (* Monderer–Samet common p-belief as the greatest fixpoint
             X = E^p_G(inner) ∧ E^p_G(X): the largest "p-evident" event
             within everyone-p-believes-ϕ. *)
          let ep fact =
            Fact.conj tree
              (List.map
                 (fun i -> believes_fact tree ~agent:i ~cmp:Formula.Geq ~threshold fact)
                 grp)
          in
          let base = ep inner in
          gfp tree ~counter:c_gfp_iters_cb (fun x -> Fact.and_ base (ep x))
      in
      Hashtbl.add memo f fact;
      fact
  in
  Obs.span "semantics.eval" (fun () -> go formula)

(* ------------------------------------------------------------------ *)
(* The production evaluator: closure table + packed truth vectors      *)
(* ------------------------------------------------------------------ *)

module Pool = Pak_par.Pool

let c_vec_evals = Obs.counter "eval_vec.evals"
let c_vec_entries = Obs.counter "eval_vec.entries"
let c_vec_cells = Obs.counter "eval_vec.cells"

(* One pass = one packed Bitset.t over point indices per closure
   entry, filled bottom-up (children first — the closure's bit order is
   a valid schedule). Point (r,t) gets the dense index offsets.(r) + t.
   Counter contract with the recursive oracle [eval]:
   semantics.memo_misses = closure entries (one "miss" per distinct
   subformula), semantics.memo_hits = hash-consed duplicate
   occurrences, and the gfp iteration counters are bumped step-for-step
   identically — so the memo and fixpoint telemetry is the same for
   both, while bitset.*/eval_vec.*/closure.* profile the vector work. *)
let eval_closure ?pool ?on_gfp_step tree ~valuation clo =
  Obs.incr c_vec_evals;
  let n_runs = Tree.n_runs tree in
  let offsets = Array.make (max 1 n_runs) 0 in
  let total = ref 0 in
  for r = 0 to n_runs - 1 do
    offsets.(r) <- !total;
    total := !total + Tree.run_length tree r
  done;
  let n = !total in
  let run_of = Array.make (max 1 n) 0 and time_of = Array.make (max 1 n) 0 in
  for r = 0 to n_runs - 1 do
    for t = 0 to Tree.run_length tree r - 1 do
      run_of.(offsets.(r) + t) <- r;
      time_of.(offsets.(r) + t) <- t
    done
  done;
  let check_agent i =
    if i < 0 || i >= Tree.n_agents tree then
      invalid_arg (Printf.sprintf "Semantics.eval: agent %d out of range" i)
  in
  (* Per-indistinguishability-cell sweeps (K/B and their group forms):
     each of the agent's local states is one independent cell, so the
     cell array shards on the pool when one is given. The pool
     re-installs the caller's budget scope in its workers, so charges
     made inside a cell count against the same budget at any job
     count; results are assembled in cell order, so the outcome is
     jobs-invariant. *)
  let shard cells f =
    match pool with
    | Some p when Array.length cells > 1 -> Pool.map p f cells
    | _ -> Array.map f cells
  in
  let cellwise ~agent holds_at =
    let cells = Array.of_list (Tree.lstates tree ~agent) in
    Obs.add c_vec_cells (Array.length cells);
    let holds = shard cells holds_at in
    let out = Array.make (max 1 n) false in
    Array.iteri
      (fun c key ->
        if holds.(c) then begin
          let time = Tree.lkey_time key in
          Bitset.iter
            (fun run -> out.(offsets.(run) + time) <- true)
            (Tree.lstate_runs tree key)
        end)
      cells;
    Bitset.init n (Array.get out)
  in
  let kvec ~agent inner =
    cellwise ~agent (fun key ->
        let time = Tree.lkey_time key in
        Bitset.for_all
          (fun run -> Bitset.mem inner (offsets.(run) + time))
          (Tree.lstate_runs tree key))
  in
  let bvec ~agent ~cmp ~threshold inner =
    cellwise ~agent (fun key ->
        let time = Tree.lkey_time key in
        let cell = Tree.lstate_runs tree key in
        (* [inner@ℓ] as an event, then the same conditional measure the
           recursive engine takes via Belief.degree_at_lstate. *)
        let sat =
          Bitset.init n_runs (fun run ->
              Bitset.mem cell run && Bitset.mem inner (offsets.(run) + time))
        in
        satisfies_cmp cmp (Tree.cond tree sat ~given:cell) threshold)
  in
  let inter_all = function
    | [] -> invalid_arg "Semantics: empty agent group"
    | v :: rest -> List.fold_left Bitset.inter v rest
  in
  let evec grp inner = inter_all (List.map (fun i -> kvec ~agent:i inner) grp) in
  let epvec grp threshold x =
    inter_all (List.map (fun i -> bvec ~agent:i ~cmp:Formula.Geq ~threshold x) grp)
  in
  let fact_of v = Fact.of_pred tree (fun ~run ~time -> Bitset.mem v (offsets.(run) + time)) in
  (* Same counting discipline as [gfp]: one iteration = one step
     application, bumped before the step so an exhausted --max-iters
     budget trips identically; the whole-vector equality test charges
     the points [facts_equal] would have folded over. The approximant
     sequences of the two engines are extensionally equal (both start
     at ⊤ and apply pointwise-equal steps), so the iteration counts
     match exactly. *)
  let gfp_vec ~bit ~counter step =
    let rec iterate x =
      Obs.incr c_gfp_iters;
      Obs.incr counter;
      Budget.charge_iters 1;
      let x' = step x in
      Option.iter (fun f -> f bit (fact_of x')) on_gfp_step;
      Budget.charge_points n;
      if Bitset.equal x x' then x else iterate x'
    in
    iterate (Bitset.full n)
  in
  let per_run fill =
    let out = Array.make (max 1 n) false in
    for r = 0 to n_runs - 1 do
      fill r (Tree.run_length tree r) offsets.(r) out
    done;
    Bitset.init n (Array.get out)
  in
  let nvec = Array.make (Closure.size clo) (Bitset.create 0) in
  Array.iter
    (fun (e : Closure.entry) ->
      Obs.incr c_vec_entries;
      Obs.incr c_memo_misses;
      (* One whole-vector pass per entry. *)
      Budget.charge_points n;
      let v =
        Obs.span ("semantics.eval_vec." ^ op_tag e.formula) @@ fun () ->
        let child k = nvec.(e.children.(k)) in
        match e.formula with
        | True -> Bitset.full n
        | False -> Bitset.create n
        | Atom a ->
          (* Node-memoized like Fact.of_state_pred: points sharing a
             prefix query the valuation once. *)
          let cache : (int, bool) Hashtbl.t = Hashtbl.create 64 in
          Bitset.init n (fun i ->
              let node = Tree.run_node tree ~run:run_of.(i) ~time:time_of.(i) in
              match Hashtbl.find_opt cache node with
              | Some v -> v
              | None ->
                let v = valuation a (Tree.node_state tree node) in
                Hashtbl.add cache node v;
                v)
        | Not _ -> Bitset.complement (child 0)
        | And _ -> Bitset.inter (child 0) (child 1)
        | Or _ -> Bitset.union (child 0) (child 1)
        | Implies _ -> Bitset.union (Bitset.complement (child 0)) (child 1)
        | Iff _ -> Bitset.complement (Bitset.symdiff (child 0) (child 1))
        | Does (i, act) ->
          check_agent i;
          Bitset.init n (fun p ->
              Tree.action_at tree ~agent:i ~run:run_of.(p) ~time:time_of.(p) = Some act)
        | Eventually _ ->
          let c = child 0 in
          per_run (fun _ len off out ->
              let any = ref false in
              for t = 0 to len - 1 do
                if Bitset.mem c (off + t) then any := true
              done;
              if !any then for t = 0 to len - 1 do out.(off + t) <- true done)
        | Globally _ ->
          let c = child 0 in
          per_run (fun _ len off out ->
              let all = ref true in
              for t = 0 to len - 1 do
                if not (Bitset.mem c (off + t)) then all := false
              done;
              if !all then for t = 0 to len - 1 do out.(off + t) <- true done)
        | Next _ ->
          let c = child 0 in
          per_run (fun _ len off out ->
              for t = 0 to len - 2 do
                out.(off + t) <- Bitset.mem c (off + t + 1)
              done)
        | Once _ ->
          let c = child 0 in
          per_run (fun _ len off out ->
              let seen = ref false in
              for t = 0 to len - 1 do
                if Bitset.mem c (off + t) then seen := true;
                out.(off + t) <- !seen
              done)
        | Historically _ ->
          let c = child 0 in
          per_run (fun _ len off out ->
              let sofar = ref true in
              for t = 0 to len - 1 do
                if not (Bitset.mem c (off + t)) then sofar := false;
                out.(off + t) <- !sofar
              done)
        | Knows (i, _) ->
          check_agent i;
          kvec ~agent:i (child 0)
        | Believes (i, cmp, threshold, _) ->
          check_agent i;
          bvec ~agent:i ~cmp ~threshold (child 0)
        | EveryoneKnows (grp, _) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          evec grp (child 0)
        | CommonKnows (grp, _) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          let inner = child 0 in
          gfp_vec ~bit:e.bit ~counter:c_gfp_iters_ck (fun x -> evec grp (Bitset.inter inner x))
        | EveryoneBelieves (grp, threshold, _) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          epvec grp threshold (child 0)
        | CommonBelief (grp, threshold, _) ->
          let grp = check_group grp in
          List.iter check_agent grp;
          let base = epvec grp threshold (child 0) in
          gfp_vec ~bit:e.bit ~counter:c_gfp_iters_cb (fun x -> Bitset.inter base (epvec grp threshold x))
      in
      nvec.(e.bit) <- v)
    (Closure.entries clo);
  Obs.add c_memo_hits (Closure.duplicates clo);
  fun bit -> fact_of nvec.(bit)

let eval_vec ?pool tree ~valuation formula =
  Obs.span "semantics.eval_vec" @@ fun () ->
  let clo = Closure.of_formula formula in
  eval_closure ?pool tree ~valuation clo (Closure.root_bit clo)

let sat tree ~valuation formula ~run ~time =
  Fact.holds (eval_vec tree ~valuation formula) ~run ~time

let valid tree ~valuation formula =
  Fact.sat_points (eval_vec tree ~valuation formula) = Tree.n_points tree

let valid_initially tree ~valuation formula =
  Bitset.cardinal (Fact.initially (eval_vec tree ~valuation formula)) = Tree.n_runs tree

let probability tree ~valuation formula =
  let fact = eval_vec tree ~valuation formula in
  Fact.prob fact (Fact.initially fact)
