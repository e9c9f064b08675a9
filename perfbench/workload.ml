(* Seeded workload generator: built-in system documents, formulas over
   their local-state atoms, and the request stream [pak serve] reads.

   Queries draw from a [Random.State] seeded by (seed, workload), so a
   seed always yields the same bytes; documents draw from a fixed state
   (see [serve]). Requests are built with the program's own encoders
   ([Serve.Sexp], [Serve.Frame], [Tree_io.to_string]). *)

open Pak
module Sexp = Serve.Sexp

type doc = {
  tree : Tree.t;
  text : string;  (* Tree_io.to_string tree *)
  atoms : string array;  (* "a<i>_<label>" atoms the parser accepts *)
}

type degraded = { samples : int; sample_seed : int; max_points : int }

type op =
  | Eval
  | Belief of { agent : int; run : int; time : int; degraded : degraded option }

type req = { id : int; doc : int; formula : string; op : op }

(* A serve workload: its documents, untimed warm-up requests, the
   saturation-phase requests (offered all at once) and the open-loop
   requests (sent at [rate] per second). Request ids run 1.. across the
   three phases. *)
type serve = {
  docs : doc array;
  warmup : req array;
  sat : req array;
  open_ : req array;
  rate : float;
  encoded : (int * string * op, string) Hashtbl.t;  (* see [frame] *)
}

(* ------------------------------------------------------------------ *)
(* Workload constants                                                  *)
(* ------------------------------------------------------------------ *)

(* Per workload, constants of the workload so that later versions of
   the program see the same load: the saturation phase's size, in
   requests per second of --seconds, and the open-loop rate, set at
   about a third of the saturated throughput of the code this
   benchmark was written against, held for [open_share] of --seconds. *)
type shape = { sat_per_s : float; open_rps : float; open_share : float }

let shape = function
  | "serve_cold" -> { sat_per_s = 900.; open_rps = 450.; open_share = 0.25 }
  | "serve_warm" -> { sat_per_s = 1600.; open_rps = 900.; open_share = 0.25 }
  | "serve_degraded" -> { sat_per_s = 36.; open_rps = 14.; open_share = 0.25 }
  | w -> invalid_arg ("Workload.shape: " ^ w)

(* Monte-Carlo samples per degraded belief request. *)
let degraded_samples = 500

let workload_tag = function
  | "sweep_d6" -> 1
  | "serve_cold" -> 2
  | "serve_warm" -> 3
  | "serve_degraded" -> 4
  | w -> invalid_arg ("Workload.workload_tag: " ^ w)

let rng ~workload ~seed = Random.State.make [| seed; workload_tag workload |]

(* ------------------------------------------------------------------ *)
(* Documents                                                           *)
(* ------------------------------------------------------------------ *)

(* A probability strictly between 0 and 1 with a small denominator. *)
let prob st =
  let d = 3 + Random.State.int st 18 in
  Q.of_ints (1 + Random.State.int st (d - 1)) d

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')
  || c = '_' || c = '\''

(* Atoms for every local-state label whose "a<i>_<label>" spelling is a
   parser identifier (labels such as "a:cc" are not). *)
let atoms_of tree =
  let acc = ref [] in
  for a = Tree.n_agents tree - 1 downto 0 do
    List.iter
      (fun key ->
        let l = Tree.lkey_label key in
        if l <> "" && String.for_all is_ident_char l then
          acc := Printf.sprintf "a%d_%s" a l :: !acc)
      (Tree.lstates tree ~agent:a)
  done;
  Array.of_list (List.sort_uniq compare !acc)

(* Parameterised built-in systems, 3 KB to 25 KB as documents; the
   size of each as a document is noted. *)
let templates =
  let open Systems in
  [|
    (fun st ->
      (* 0: firing squad, 3 KB *)
      let v = if Random.State.bool st then Firing_squad.Original else Firing_squad.Improved in
      Firing_squad.tree ~loss:(prob st) ~p_go:(prob st) v);
    (fun st -> Coordinated_attack.tree ~loss:(prob st) ~p_go:(prob st) ~rounds:3 ()) (* 1: 7 KB *);
    (fun st -> Coordinated_attack.tree ~loss:(prob st) ~p_go:(prob st) ~rounds:4 ()) (* 2: 24 KB *);
    (fun st -> Consensus.tree ~loss:(prob st) ~p_one:(prob st) ~rounds:2 ()) (* 3: 4 KB *);
    (fun st -> Consensus.tree ~loss:(prob st) ~p_one:(prob st) ~rounds:3 ()) (* 4: 9 KB *);
    (fun st -> Interactive_proof.tree ~p_true:(prob st) ~cheat:(prob st) ~rounds:4 ()) (* 5: 5 KB *);
    (fun st -> Interactive_proof.tree ~p_true:(prob st) ~cheat:(prob st) ~rounds:6 ()) (* 6: 20 KB *);
    (fun st -> Judge.tree ~p_guilt:(prob st) ~accuracy:(prob st) ~rounds:3 ~convict_at:2 ())
    (* 7: 5 KB *);
    (fun st -> Judge.tree ~p_guilt:(prob st) ~accuracy:(prob st) ~rounds:5 ~convict_at:3 ())
    (* 8: 19 KB *);
    (fun st -> Mutex.tree ~p_req:(prob st) ~err:(prob st) ()) (* 9: 3.5 KB *);
  |]

(* [n] pairwise distinct documents, the i-th from template
   [pick.(i mod |pick|)] with parameters drawn from [st]. *)
let make_docs st ~n ~pick =
  let seen = Hashtbl.create n in
  let docs = ref [] in
  while List.length !docs < n do
    let mk = templates.(pick.(List.length !docs mod Array.length pick)) in
    let tree = mk st in
    let text = Tree_io.to_string tree in
    if not (Hashtbl.mem seen text) then begin
      Hashtbl.add seen text ();
      docs := { tree; text; atoms = atoms_of tree } :: !docs
    end
  done;
  Array.of_list (List.rev !docs)

(* ------------------------------------------------------------------ *)
(* Formulas                                                            *)
(* ------------------------------------------------------------------ *)

let thresholds = [| (1, 4); (1, 3); (1, 2); (2, 3); (3, 4); (9, 10) |]

let threshold st =
  let n, d = thresholds.(Random.State.int st (Array.length thresholds)) in
  Q.of_ints n d

(* Formula shapes mixing knowledge, graded and common belief and
   temporal operators. A request takes its shape from its position, so
   every seed has the same mix of shapes; the seed picks the atoms,
   agents and thresholds. *)
let shapes =
  let open Formula in
  [|
    (fun ~a ~b:_ ~i ~j:_ ~q:_ ~all:_ -> Knows (i, a));
    (fun ~a ~b:_ ~i ~j:_ ~q ~all:_ -> Believes (i, Geq, q, Eventually a));
    (fun ~a ~b:_ ~i:_ ~j:_ ~q ~all -> CommonBelief (all, q, a));
    (fun ~a ~b ~i ~j:_ ~q:_ ~all:_ -> Globally (Implies (a, Knows (i, b))));
    (fun ~a ~b ~i ~j:_ ~q ~all:_ -> Believes (i, Lt, q, And (a, Next b)));
    (fun ~a ~b:_ ~i ~j:_ ~q:_ ~all:_ -> Once (Knows (i, a)));
    (fun ~a ~b ~i ~j:_ ~q ~all:_ -> Historically (Or (Believes (i, Geq, q, a), b)));
    (fun ~a ~b ~i ~j:_ ~q:_ ~all:_ -> Not (Knows (i, Or (a, b))));
    (fun ~a ~b ~i ~j ~q ~all:_ -> Eventually (And (Believes (i, Geq, q, a), Believes (j, Geq, q, b))));
    (fun ~a ~b:_ ~i:_ ~j:_ ~q ~all -> CommonBelief (all, q, Eventually a));
    (fun ~a ~b ~i ~j:_ ~q ~all:_ -> Next (Implies (a, Believes (i, Geq, q, b))));
    (fun ~a ~b:_ ~i ~j:_ ~q:_ ~all:_ -> Knows (i, Globally a));
  |]

let formula_text st doc ~shape =
  let n = Tree.n_agents doc.tree in
  let atom () = Formula.Atom doc.atoms.(Random.State.int st (Array.length doc.atoms)) in
  let agent () = Random.State.int st n in
  let a = atom () in
  let b = atom () in
  let i = agent () in
  let j = agent () in
  let q = threshold st in
  Formula.to_string
    (shapes.(shape mod Array.length shapes) ~a ~b ~i ~j ~q ~all:(List.init n Fun.id))

let random_point st tree =
  let run = Random.State.int st (Tree.n_runs tree) in
  let time = Random.State.int st (Tree.run_length tree run) in
  (Random.State.int st (Tree.n_agents tree), run, time)

let exact_belief st tree =
  let agent, run, time = random_point st tree in
  Belief { agent; run; time; degraded = None }

(* The key the server's result cache would use, up to spelling: the
   closure digest canonicalises formulas the way the cache does. *)
let key_of r =
  let f = Pak_logic.Closure.digest (Pak_logic.Closure.of_formula (Parser.parse r.formula)) in
  match r.op with
  | Eval -> Printf.sprintf "%d|eval|%s" r.doc f
  | Belief { agent; run; time; _ } ->
      Printf.sprintf "%d|belief:%d:%d:%d|%s" r.doc agent run time f

(* ------------------------------------------------------------------ *)
(* The three serve workloads                                           *)
(* ------------------------------------------------------------------ *)

let counts ~workload ~seconds =
  let s = shape workload in
  let n x = max 20 (int_of_float (Float.round x)) in
  (n (s.sat_per_s *. seconds), n (s.open_rps *. s.open_share *. seconds), s.open_rps)

(* Distinct eval and exact belief queries over 48 documents: more
   documents than the tree cache holds (32) and more keys than the
   result cache holds (256), so every request misses the result cache.
   Three in four requests go to 24 hot documents and the rest to 24
   cold ones, so most hit the tree cache and some miss it. *)
let cold st ~doc_st ~total =
  let docs = make_docs doc_st ~n:48 ~pick:(Array.init (Array.length templates) Fun.id) in
  let seen = Hashtbl.create total in
  let reqs = ref [] and made = ref 0 and retry = ref false in
  while !made < total do
    (* Position i fixes the formula shape and, three times in five, an
       eval. A shape with few atoms runs out of distinct evals on a
       document, so a repeated key is retried as a belief query at a
       fresh point. *)
    let i = !made in
    let doc = (if i mod 4 = 3 then 24 else 0) + Random.State.int st 24 in
    let d = docs.(doc) in
    let formula = formula_text st d ~shape:i in
    let op = if i / 12 mod 5 < 3 && not !retry then Eval else exact_belief st d.tree in
    let r = { id = i + 1; doc; formula; op } in
    let key = key_of r in
    retry := Hashtbl.mem seen key;
    if not !retry then begin
      Hashtbl.add seen key ();
      reqs := r :: !reqs;
      incr made
    end
  done;
  (docs, Array.of_list (List.rev !reqs))

(* Four documents and six queries on each: 24 keys, all resident in
   both caches after their first touch. The documents are the largest
   templates (9-25 KB), so each hit's frame read, parse and digest work
   outweighs the per-request pipe and wake-up costs, which on a shared
   VM swing with the neighbours' load. *)
let warm st ~doc_st ~total =
  let docs = make_docs doc_st ~n:4 ~pick:[| 2; 4; 6; 8 |] in
  let combos =
    Array.init 24 (fun i ->
        let doc = i / 6 in
        let d = docs.(doc) in
        let op = if i mod 2 = 0 then Eval else exact_belief st d.tree in
        (doc, formula_text st d ~shape:i, op))
  in
  let reqs =
    Array.init total (fun i ->
        let doc, formula, op = combos.(Random.State.int st (Array.length combos)) in
        { id = i + 1; doc; formula; op })
  in
  (docs, reqs)

let valuation = Semantics.generic_valuation

(* Points the formula evaluation charges, probed through the public
   Budget API with the engine the server uses. A max-points cap of
   exactly this lets the evaluation finish and makes the first exact
   measure of the belief degree run out. *)
let eval_points tree formula =
  match
    Budget.with_budget
      (Budget.limits ~max_points:max_int ())
      (fun () ->
        ignore (Semantics.eval_auto tree ~valuation (Parser.parse formula));
        List.assoc "points" (Budget.spent ()))
  with
  | Ok n -> n
  | Error e -> failwith ("points probe: " ^ Error.to_string e)

(* True when, under [max_points], the evaluation fits and the exact
   degree does not: the request will be answered ESTIMATED. *)
let degrades tree formula ~agent ~run ~time ~max_points =
  match
    Budget.with_budget (Budget.limits ~max_points ()) (fun () ->
        let fact = Semantics.eval_auto tree ~valuation (Parser.parse formula) in
        Budget.attempt (fun () -> Belief.degree fact ~agent ~run ~time))
  with
  | Ok (Error _) -> true
  | Ok (Ok _) | Error _ -> false

(* Belief requests over six documents, each with explicit samples and
   seed and a per-request max-points cap that forces the Monte-Carlo
   fallback. *)
let degraded st ~doc_st ~total =
  let docs = make_docs doc_st ~n:6 ~pick:[| 0; 1; 3; 5; 7; 9 |] in
  let reqs = ref [] and made = ref 0 and tries = ref 0 in
  while !made < total do
    let doc = !made mod Array.length docs in
    let d = docs.(doc) in
    let formula = formula_text st d ~shape:(!made / Array.length docs) in
    incr tries;
    if !tries > 100 * (total + 10) then failwith "degraded workload: no capped query degrades";
    let agent, run, time = random_point st d.tree in
    let max_points = eval_points d.tree formula in
    if max_points > 0 && degrades d.tree formula ~agent ~run ~time ~max_points then begin
      let degraded =
        Some { samples = degraded_samples; sample_seed = 1 + Random.State.int st 1_000_000;
               max_points }
      in
      reqs := { id = !made + 1; doc; formula; op = Belief { agent; run; time; degraded } } :: !reqs;
      incr made
    end
  done;
  (docs, Array.of_list (List.rev !reqs))

(* Loading a document charges the request's budget, so capped requests
   must find their document in the tree cache: one uncapped eval per
   document puts it there first. *)
let preload docs =
  Array.mapi (fun i d -> { id = i + 1; doc = i; formula = d.atoms.(0); op = Eval }) docs

(* Documents come from a fixed generator state, so every seed serves the
   same documents: one document's exact-arithmetic cost can differ from
   another's of the same template several times over, and a seeded
   draw of a few documents would move a run's totals by more than any
   bound. The seed picks the queries and their order. *)
let serve ~workload ~seed ~seconds =
  let st = rng ~workload ~seed in
  let doc_st = rng ~workload ~seed:0 in
  let n_sat, n_open, rate = counts ~workload ~seconds in
  let total = n_sat + n_open in
  let docs, reqs =
    match workload with
    | "serve_cold" -> cold st ~doc_st ~total
    | "serve_warm" -> warm st ~doc_st ~total
    | "serve_degraded" -> degraded st ~doc_st ~total
    | w -> invalid_arg ("Workload.serve: " ^ w)
  in
  let warmup = if workload = "serve_degraded" then preload docs else [||] in
  let w = Array.length warmup in
  let reqs = Array.map (fun r -> { r with id = r.id + w }) reqs in
  {
    docs; warmup; sat = Array.sub reqs 0 n_sat; open_ = Array.sub reqs n_sat n_open; rate;
    encoded = Hashtbl.create 64;
  }

(* ------------------------------------------------------------------ *)
(* Encoding                                                            *)
(* ------------------------------------------------------------------ *)

let field k v = Sexp.List [ Sexp.Atom k; v ]
let int_field k v = field k (Sexp.Atom (string_of_int v))

let request_sexp docs r =
  let op, extras =
    match r.op with
    | Eval -> ("eval", [])
    | Belief { agent; run; time; degraded } ->
        ( "belief",
          [ int_field "agent" agent; int_field "run" run; int_field "time" time ]
          @
          match degraded with
          | None -> []
          | Some d ->
              [ int_field "samples" d.samples; int_field "seed" d.sample_seed;
                int_field "max-points" d.max_points ] )
  in
  Sexp.List
    (Sexp.Atom "request" :: int_field "id" r.id
    :: field "op" (Sexp.Atom op)
    :: field "system" (Sexp.Str docs.(r.doc).text)
    :: field "formula" (Sexp.Str r.formula)
    :: extras)

(* The frame of request [r]: Sexp.to_string of [request_sexp], with
   everything after the id memoised for the last few queries. A warm
   workload repeats 24 queries of 3-7 KB, and encoding each afresh
   would make the generator, not the server, the bottleneck. *)
let frame w r =
  let key = (r.doc, r.formula, r.op) in
  let rest =
    match Hashtbl.find_opt w.encoded key with
    | Some rest -> rest
    | None ->
        let fields =
          match request_sexp w.docs r with
          | Sexp.List (_request :: _id :: fields) -> fields
          | _ -> assert false
        in
        let rest = String.concat " " (List.map Sexp.to_string fields) in
        if Hashtbl.length w.encoded >= 64 then Hashtbl.reset w.encoded;
        Hashtbl.add w.encoded key rest;
        rest
  in
  Serve.Frame.encode (Printf.sprintf "(request (id %d) %s)" r.id rest)

let ping_frame id = Serve.Frame.encode (Printf.sprintf "(ping (id %d))" id)

(* The bytes of a whole phase as a byte source, encoding each request
   only when the reader reaches it. *)
let source w reqs =
  let i = ref 0 and cur = ref "" and off = ref 0 in
  fun buf pos len ->
    if !off >= String.length !cur && !i < Array.length reqs then begin
      cur := frame w reqs.(!i);
      off := 0;
      incr i
    end;
    let n = min len (String.length !cur - !off) in
    Bytes.blit_string !cur !off buf pos n;
    off := !off + n;
    n

(* ------------------------------------------------------------------ *)
(* The sweep workload                                                  *)
(* ------------------------------------------------------------------ *)

(* The depth-6 Theorem 6.2 sweep over generator seeds 1..20, the
   ROADMAP's headline command. Per-system cost is heavy-tailed (5 ms to
   1.3 s), so a window chosen by the seed would swing the total by
   several times; the corpus is fixed and the seed permutes the order
   in which its systems are checked. *)
let sweep_depth = 6
let sweep_corpus = Array.init 20 (fun i -> i + 1)

let sweep_order ~seed =
  let st = rng ~workload:"sweep_d6" ~seed in
  let a = Array.copy sweep_corpus in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a
