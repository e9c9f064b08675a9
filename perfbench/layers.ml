(* The traced pass: in-process, the benchmark calls each layer's public
   functions itself, in the order the program does, and times every
   call from here. Work counts come from the program's own Obs counters
   and Budget fuel. The layer times are exclusive (no timed call
   contains another timed call), so they add up, with the unattributed
   remainder, to the whole traced time. *)

open Pak
module Sexp = Serve.Sexp
module Frame = Serve.Frame

let now = Proc.now

(* Milliseconds per layer, in first-use order. *)
type t = { ms : (string, float ref) Hashtbl.t; mutable order : string list }

let create () = { ms = Hashtbl.create 32; order = [] }

let cell t name =
  match Hashtbl.find_opt t.ms name with
  | Some r -> r
  | None ->
      let r = ref 0. in
      Hashtbl.add t.ms name r;
      t.order <- t.order @ [ name ];
      r

let time t name f =
  let r = cell t name in
  let t0 = now () in
  let v = f () in
  r := !r +. ((now () -. t0) *. 1000.);
  v

(* Take [ms] back out of a layer: time a timed call spent in the
   benchmark's own work. *)
let discount t name ms =
  let r = cell t name in
  r := !r -. ms

let total t = Hashtbl.fold (fun _ r acc -> acc +. !r) t.ms 0.
let get t name = match Hashtbl.find_opt t.ms name with Some r -> !r | None -> 0.

(* The layer that took the most time, with its share of [traced_ms]. *)
let largest t ~traced_ms =
  List.fold_left
    (fun (bn, bv) n -> if get t n > bv then (n, get t n) else (bn, bv))
    ("none", 0.) t.order
  |> fun (n, v) -> (n, v /. traced_ms)

let spent name = match List.assoc_opt name (Budget.spent ()) with Some v -> v | None -> 0

let unlimited_fuel = Budget.limits ~max_points:max_int ~max_limbs:max_int ()

type result = {
  layers : t;
  traced_ms : float;
  counts : (string * float) list;  (* work counts and ratios *)
}

(* ------------------------------------------------------------------ *)
(* sweep_d6                                                            *)
(* ------------------------------------------------------------------ *)

(* The Theorem 6.2 check of one seed, as Sweep and
   Theorems.expectation_identity run it. *)
let sweep_seed t ~params seed =
  match
    time t "gen" (fun () ->
        let tree = Gen.tree ~params seed in
        Option.map
          (fun aa -> (aa, Gen.past_based_fact tree ~seed))
          (Gen.pick_proper_action tree ~seed))
  with
  | None -> true
  | Some ((agent, act), fact) ->
      let mu = time t "constr" (fun () -> Constr.mu_given_action fact ~agent ~act) in
      let eb = time t "belief" (fun () -> Belief.expected_at_action fact ~agent ~act) in
      let ind = time t "independence" (fun () -> Independence.holds fact ~agent ~act) in
      (not ind) || Q.equal mu eb

(* The Tree.cond / Tree.measure queries the same check issues (inside
   Constr, Belief and Independence, out of reach of a timer placed
   here), re-issued through Tree's public API with only the measure
   calls timed. Reported as tree.measure_ms; it is nested in the
   layers above, so it is not added to them. *)
let measure_probe ~params seeds =
  let t = create () in
  Array.iter
    (fun seed ->
      match Sweep.seed_instance ~params seed with
      | None -> ()
      | Some (tree, (agent, act), fact) ->
          let m ev = ignore (time t "measure" (fun () -> Tree.measure tree ev)) in
          let c ev given = ignore (time t "measure" (fun () -> Tree.cond tree ev ~given)) in
          let r_alpha = Action.runs_performing tree ~agent ~act in
          c (Fact.at_action fact ~agent ~act) r_alpha;
          m r_alpha;
          List.iter
            (fun key ->
              c (Fact.at_lstate fact key) (Tree.lstate_runs tree key);
              m (Action.performed_at_lstate tree ~agent ~act key))
            (Action.performing_lstates tree ~agent ~act);
          List.iter
            (fun key ->
              let given = Tree.lstate_runs tree key in
              c (Fact.at_lstate fact key) given;
              c (Action.performed_at_lstate tree ~agent ~act key) given;
              c (Fact.and_action_at_lstate fact ~agent ~act key) given)
            (Tree.lstates tree ~agent))
    seeds;
  get t "measure"

(* The traced check of [seeds], with whether each satisfied Theorem 6.2. *)
let sweep seeds =
  let params = { Gen.default_params with Gen.depth = Workload.sweep_depth } in
  let t = create () in
  Obs.enable ();
  Obs.reset ();
  let ok, traced_ms, points, limbs =
    match
      Budget.with_budget unlimited_fuel (fun () ->
          let t0 = now () in
          let ok = Array.for_all (fun s -> sweep_seed t ~params s) seeds in
          let traced_ms = (now () -. t0) *. 1000. in
          (ok, traced_ms, spent "points", spent "limbs"))
    with
    | Ok v -> v
    | Error e -> failwith ("traced sweep: " ^ Error.to_string e)
  in
  let counts =
    [
      ("tree.measure_runs", float_of_int (Obs.counter_value "tree.measure_runs"));
      ("belief.posterior_evals", float_of_int (Obs.counter_value "belief.posterior_evals"));
      ("budget.points", float_of_int points);
      ("rational.limbs", float_of_int limbs);
    ]
  in
  Obs.disable ();
  let probe_ms = measure_probe ~params seeds in
  ({ layers = t; traced_ms; counts = ("tree.measure_ms", probe_ms) :: counts }, ok)

(* ------------------------------------------------------------------ *)
(* serve workloads                                                     *)
(* ------------------------------------------------------------------ *)

(* A FIFO-bounded table, like the server's result and tree caches. *)
type 'a fifo = { tbl : (string, 'a) Hashtbl.t; order : string Queue.t; cap : int }

let fifo cap = { tbl = Hashtbl.create 64; order = Queue.create (); cap }

let fifo_put c k v =
  if not (Hashtbl.mem c.tbl k) then begin
    Hashtbl.add c.tbl k v;
    Queue.add k c.order;
    while Hashtbl.length c.tbl > c.cap do
      Hashtbl.remove c.tbl (Queue.pop c.order)
    done
  end

type fields = {
  id : int;
  op : string;
  system : string;
  formula : string;
  agent : int;
  run : int;
  ptime : int;
  samples : int option;
  seed : int option;
  max_points : int option;
}

let fields_of = function
  | Sexp.List (Sexp.Atom "request" :: kvs) ->
      let text k =
        List.find_map
          (function
            | Sexp.List [ Sexp.Atom k'; (Sexp.Atom v | Sexp.Str v) ] when k' = k -> Some v
            | _ -> None)
          kvs
      in
      let int k = Option.map int_of_string (text k) in
      let get k = Option.value (text k) ~default:"" in
      let geti k = Option.value (int k) ~default:0 in
      Some
        {
          id = geti "id"; op = get "op"; system = get "system"; formula = get "formula";
          agent = geti "agent"; run = geti "run"; ptime = geti "time";
          samples = int "samples"; seed = int "seed"; max_points = int "max-points";
        }
  | _ -> None

let ok_exn = function Ok v -> v | Error e -> raise (Error.Error e)

(* One request, from payload to rendered response frame, through the
   functions Serve calls for it at --jobs 1: trace-id digest,
   Sexp.parse, the result-cache key (document digest, Parser, Closure
   digest), then on a miss the tree cache (Tree_io on its misses),
   Parser, eval_vec, and Tree.measure or Belief (Simulate when the
   exact degree runs out of budget), and finally response rendering. *)
let serve_request t ~results ~trees ~seq ~points ~limbs ~out payload =
  let trace =
    time t "trace_id" (fun () ->
        String.sub
          (Digest.to_hex
             (Digest.string (Printf.sprintf "%d:%d:%s" seq 0 (Digest.string payload))))
          0 16)
  in
  let sx = time t "sexp.parse" (fun () -> Sexp.parse payload) in
  match Result.to_option sx |> Option.map fields_of |> Option.join with
  | None -> ()
  | Some r ->
      let doc_hex = time t "cache.key" (fun () -> Digest.to_hex (Digest.string r.system)) in
      let f = time t "parser" (fun () -> Parser.parse_result r.formula) in
      let cdigest =
        time t "closure" (fun () -> Pak_logic.Closure.digest (Pak_logic.Closure.of_formula (ok_exn f)))
      in
      let key =
        time t "cache.key" (fun () ->
            let lim = function None -> "-" | Some v -> string_of_int v in
            let opk =
              if r.op = "eval" then "eval"
              else
                Printf.sprintf "belief:%d:%d:%d:%d:%d" r.agent r.run r.ptime
                  (Option.value r.samples ~default:(-1))
                  (Option.value r.seed ~default:(-1))
            in
            Printf.sprintf "%s|%s|%s:%s|%s,-,-,-,-" doc_hex opk
              (Semantics.engine_name (Semantics.current_engine ()))
              cdigest (lim r.max_points))
      in
      let body =
        match time t "cache.lookup" (fun () -> Hashtbl.find_opt results.tbl key) with
        | Some body -> body
        | None ->
            let compute () =
              let tree =
                match
                  time t "tree_cache.lookup" (fun () ->
                      let d = Digest.string r.system in
                      (d, Hashtbl.find_opt trees.tbl d))
                with
                | _, Some tree -> tree
                | d, None ->
                    let tree =
                      ok_exn (time t "tree_io.parse" (fun () -> Tree_io.of_string_result r.system))
                    in
                    time t "tree_cache.lookup" (fun () -> fifo_put trees d tree);
                    tree
              in
              let f = ok_exn (time t "parser" (fun () -> Parser.parse_result r.formula)) in
              (* eval_auto, as Serve calls it, runs eval_vec by default. *)
              let fact =
                time t "eval_vec" (fun () ->
                    Semantics.eval_auto tree ~valuation:Semantics.generic_valuation f)
              in
              let result =
                if r.op = "eval" then begin
                  let sat, initially =
                    time t "fact" (fun () ->
                        let sat = ref 0 in
                        Tree.iter_points tree (fun ~run ~time ->
                            if Fact.holds fact ~run ~time then incr sat);
                        let initially = ref (Tree.empty_event tree) in
                        for run = 0 to Tree.n_runs tree - 1 do
                          if Fact.holds fact ~run ~time:0 then
                            initially := Bitset.add !initially run
                        done;
                        (!sat, !initially))
                  in
                  let prob = time t "tree.measure" (fun () -> Tree.measure tree initially) in
                  ( Printf.sprintf
                      "(code 0) (status ok) (result (points %d) (sat %d) (valid %b) (prob %s))"
                      (Tree.n_points tree) sat (sat = Tree.n_points tree) (Q.to_string prob),
                    true )
                end
                else
                  (* Belief.degree_graded, one step at a time. *)
                  match
                    time t "belief" (fun () ->
                        Budget.attempt (fun () ->
                            Belief.degree fact ~agent:r.agent ~run:r.run ~time:r.ptime))
                  with
                  | Ok q ->
                      (Printf.sprintf "(code 0) (status ok) (result (degree %s))" (Q.to_string q), true)
                  | Error _ ->
                      let samples = Option.value r.samples ~default:10_000 in
                      let value =
                        time t "simulate" (fun () ->
                            Budget.exempt (fun () ->
                                let key = Tree.lkey tree ~agent:r.agent ~run:r.run ~time:r.ptime in
                                Simulate.estimate_cond tree ~event:(Fact.at_lstate fact key)
                                  ~given:(Tree.lstate_runs tree key) ~samples
                                  ~seed:(Option.value r.seed ~default:1)))
                      in
                      ( Printf.sprintf
                          "(code 0) (status estimated) (result (degree %s) (samples %d))"
                          (Q.to_string (Option.value value ~default:Q.zero)) samples,
                        false )
              in
              points := !points + spent "points";
              limbs := !limbs + spent "limbs";
              result
            in
            let lim = Budget.limits ?max_points:r.max_points () in
            let body, cacheable =
              match Budget.with_budget lim compute with
              | Ok v -> v
              | Error e -> (Printf.sprintf "(error %s)" (Error.to_string e), false)
            in
            if cacheable then time t "cache.lookup" (fun () -> fifo_put results key body);
            body
      in
      time t "sexp.render" (fun () ->
          Buffer.add_string out
            (Frame.encode (Printf.sprintf "(response (id %d) (trace %s) %s)" r.id trace body)))

(* Replay the saturation phase through the layers, after the untimed
   warm-up, then run both once more through Serve.run for the
   program's own cache counters, and check the replay answered exactly
   as Serve. *)
let serve (w : Workload.serve) =
  let cfg = Serve.default_config in
  let results = fifo cfg.Serve.cache_max and trees = fifo cfg.Serve.tree_cache_max in
  let points = ref 0 and limbs = ref 0 and bytes = ref 0 and seq = ref 0 in
  let out = Buffer.create 65536 in
  (* The input is encoded as the reader pulls it. Encoding is the
     benchmark's own work, so its time is taken back out of frame.read
     and of traced_ms. *)
  let encoding_ms = ref 0. in
  let replay t reqs =
    let src = Workload.source w reqs in
    let source buf pos len =
      let t0 = now () in
      let n = src buf pos len in
      encoding_ms := !encoding_ms +. ((now () -. t0) *. 1000.);
      n
    in
    let rd = Frame.reader ~max_frame:cfg.Serve.max_frame source in
    let read () =
      let e0 = !encoding_ms in
      let ev = time t "frame.read" (fun () -> Frame.read rd) in
      discount t "frame.read" (!encoding_ms -. e0);
      ev
    in
    let rec loop () =
      match read () with
      | Frame.Eof -> ()
      | Frame.Junk _ -> failwith "traced replay: junk in the generated stream"
      | Frame.Payload p ->
          bytes := !bytes + String.length p;
          incr seq;
          serve_request t ~results ~trees ~seq:!seq ~points ~limbs ~out p;
          loop ()
    in
    loop ()
  in
  Obs.enable ();
  replay (create ()) w.warmup;
  Obs.reset ();
  points := 0;
  limbs := 0;
  bytes := 0;
  let t = create () in
  encoding_ms := 0.;
  let t0 = now () in
  replay t w.sat;
  let traced_ms = ((now () -. t0) *. 1000.) -. !encoding_ms in
  let c name = float_of_int (Obs.counter_value name) in
  let samples = c "simulate.samples" in
  let layer_counts =
    [
      ("frame.bytes", float_of_int !bytes);
      ("closure.entries", c "closure.entries");
      ("eval_vec.cells", c "eval_vec.cells");
      ("tree.measure_runs", c "tree.measure_runs");
      ("belief.posterior_evals", c "belief.posterior_evals");
      ("simulate.samples", samples);
      ("simulate.accept_ratio", if samples > 0. then c "simulate.accepted" /. samples else 0.);
      ("budget.points", float_of_int !points);
      ("rational.limbs", float_of_int !limbs);
    ]
  in
  Obs.reset ();
  let served = Buffer.create 65536 in
  let code =
    Serve.run cfg ~source:(Workload.source w (Array.append w.warmup w.sat))
      ~write:(Buffer.add_string served)
  in
  if code <> 0 then failwith "traced replay: Serve.run exited non-zero";
  let ratio h m = if h +. m > 0. then h /. (h +. m) else 0. in
  let program_counts =
    [
      ("cache.hit_ratio", ratio (c "serve.cache.hits") (c "serve.cache.misses"));
      ("cache.evictions", c "serve.cache.evictions");
      ("tree_cache.hit_ratio", ratio (c "serve.tree_cache.hits") (c "serve.tree_cache.misses"));
      ("tree_io.calls", c "serve.tree_cache.misses");
    ]
  in
  Obs.disable ();
  Buffer.add_string out (Frame.encode "(bye (reason eof))");
  ({ layers = t; traced_ms; counts = layer_counts @ program_counts },
   String.equal (Buffer.contents served) (Buffer.contents out))
