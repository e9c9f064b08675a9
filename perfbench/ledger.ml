(* ledger --workload W --seed N --seconds S --trace 0|1 --pak PATH [--jobs J]

   One run of one benchmark workload against the real [pak] binary.
   Prints the host record, per-phase request tallies and each metric
   on its own line, then, as the last line, one JSON object:
   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}.
   With --trace 0 the metrics are the end-to-end ones, measured with
   tracing off; with --trace 1 the same run is followed by the traced
   in-process pass and the metrics are the per-layer ones. Exits 1 when
   any answer is wrong, 2 on bad arguments. *)

let workloads = [ "sweep_d6"; "serve_cold"; "serve_warm"; "serve_degraded" ]

let usage msg =
  prerr_endline ("ledger: " ^ msg);
  prerr_endline
    "usage: ledger --workload sweep_d6|serve_cold|serve_warm|serve_degraded --seed N \
     --seconds S --trace 0|1 --pak PATH [--jobs J]";
  exit 2

type args = {
  workload : string;
  seed : int;
  seconds : float;
  trace : bool;
  pak : string;
  jobs : int;
}

let parse_args argv =
  let tbl = Hashtbl.create 8 in
  let rec go = function
    | [] -> ()
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        Hashtbl.replace tbl (String.sub k 2 (String.length k - 2)) v;
        go rest
    | k :: _ -> usage ("unexpected argument " ^ k)
  in
  go (List.tl (Array.to_list argv));
  let get k = match Hashtbl.find_opt tbl k with Some v -> v | None -> usage ("missing --" ^ k) in
  let int k = match int_of_string_opt (get k) with Some v -> v | None -> usage ("--" ^ k ^ ": not an integer") in
  let workload = get "workload" in
  if not (List.mem workload workloads) then usage ("unknown workload " ^ workload);
  let seconds = int "seconds" in
  if seconds < 1 then usage "--seconds must be >= 1";
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage "--trace must be 0 or 1" in
  let jobs = if Hashtbl.mem tbl "jobs" then int "jobs" else 1 in
  let cores = Proc.nproc () in
  if jobs < 1 then usage "--jobs must be >= 1";
  (* A parallel figure from an oversubscribed host measures the host. *)
  if jobs > cores then usage (Printf.sprintf "--jobs %d exceeds the %d cores of this host" jobs cores);
  { workload; seed = int "seed"; seconds = float_of_int seconds; trace; pak = get "pak"; jobs }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;  (* name, value, unit *)
}

let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let print_result o =
  List.iter (fun (n, v, u) -> Printf.printf "metric %-24s %s %s\n" n (json_num v) u) o.metrics;
  Printf.printf "error_rate %s (%d failed of %d attempted)\n"
    (json_num (float_of_int o.failed /. float_of_int (max 1 o.attempted)))
    o.failed o.attempted;
  let ms =
    List.map
      (fun (n, v, u) -> Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (json_num v) u)
      o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0) o.attempted o.failed (String.concat ", " ms)

let phase name ~sent ~failed =
  Printf.printf "phase %-10s sent %d succeeded %d failed %d\n" name sent (sent - failed) failed

let note fmt = Printf.ksprintf (fun s -> prerr_endline ("ledger: " ^ s)) fmt

let mb kb = float_of_int kb /. 1024.

let mwords err =
  match Proc.allocated_words err with
  | Some w -> float_of_int w /. 1e6
  | None -> failwith "no allocated_words in the runtime's exit report"

let print_tail (t : Stats.tail) =
  Printf.printf "tail_ms = p%g over %d samples (%d beyond)\n" t.pct t.n t.beyond

let print_windowed (w : Stats.windowed) =
  if w.windows = 1 then print_tail w.tail
  else
    Printf.printf "tail_ms = median over %d windows of p%g over %d samples (%d beyond)\n"
      w.windows w.tail.pct w.tail.n w.tail.beyond

(* ------------------------------------------------------------------ *)
(* sweep_d6                                                            *)
(* ------------------------------------------------------------------ *)

let sweep_line ~first ~count ~checked ~skipped =
  Printf.sprintf "thm62    (Theorem 6.2): seeds %d..%d: %d checked, %d skipped, 0 violations  %s\n"
    first (first + count - 1) checked skipped
    (if checked > 0 then "OK" else "FAIL")

let sweep_argv a ~first ~count =
  [| a.pak; "sweep"; "--check"; "thm62"; "--depth"; string_of_int Workload.sweep_depth;
     "--count"; string_of_int count; "--first-seed"; string_of_int first;
     "--jobs"; string_of_int a.jobs |]

(* Set-up: the sweep command with no systems to check, which reports
   "0 checked ... FAIL" and exits 1. *)
let sweep_setup a =
  let r = Proc.run (sweep_argv a ~first:a.seed ~count:0) in
  let ok = r.code = 1 && r.out = sweep_line ~first:a.seed ~count:0 ~checked:0 ~skipped:0 in
  if not ok then note "sweep set-up run: exit %d, output %S" r.code r.out;
  (r.wall_s, ok)

(* A pass over the corpus takes 5-8 s on a 2-vCPU host; the median of
   three or more is what wall_s reports. *)
let min_passes = 3

let run_sweep a =
  let order = Workload.sweep_order ~seed:a.seed in
  let params = { Pak.Gen.default_params with Pak.Gen.depth = Workload.sweep_depth } in
  let setups = List.init 21 (fun _ -> sweep_setup a) in
  let setup_failed = List.length (List.filter (fun (_, ok) -> not ok) setups) in
  (* The expected report of each seed: checked, or skipped when its tree
     offers no proper action. *)
  let checked = Hashtbl.create 32 in
  Array.iter
    (fun s -> Hashtbl.replace checked s (if Pak.Sweep.seed_instance ~params s = None then 0 else 1))
    order;
  let lat = ref [] and walls = ref [] and allocs = ref [] and rates = ref [] in
  let rss = ref 0 and failed = ref 0 and passes = ref 0 in
  let t_end = Proc.now () +. a.seconds in
  (* Passes over the corpus until --seconds have gone, at least
     [min_passes] of them. *)
  while !passes < min_passes || Proc.now () < t_end do
    let wall = ref 0. and alloc = ref 0. and pass_cpu = ref 0. in
    Array.iter
      (fun s ->
        let r = Proc.run (sweep_argv a ~first:s ~count:1) in
        let checked = Hashtbl.find checked s in
        let expected = sweep_line ~first:s ~count:1 ~checked ~skipped:(1 - checked) in
        if r.code <> (if checked = 1 then 0 else 1) || r.out <> expected then begin
          incr failed;
          note "sweep seed %d: exit %d, output %S, expected %S" s r.code r.out expected
        end;
        wall := !wall +. r.wall_s;
        alloc := !alloc +. mwords r.err;
        pass_cpu := !pass_cpu +. r.cpu_s;
        lat := (r.wall_s *. 1000.) :: !lat;
        rss := max !rss r.rss_kb)
      order;
    incr passes;
    walls := !wall :: !walls;
    allocs := !alloc :: !allocs;
    rates := (float_of_int (Array.length order) /. !pass_cpu) :: !rates
  done;
  (* wall_s: the corpus's wall time in the median pass. throughput_rps:
     systems per CPU-second of pak, in the median pass. *)
  let wall_s = Stats.median !walls in
  Printf.printf "sweep passes %d: %s s\n" !passes
    (String.concat " " (List.rev_map (Printf.sprintf "%.3f") !walls));
  let tail = Stats.tail !lat in
  let n = !passes * Array.length order in
  phase "setup" ~sent:(List.length setups) ~failed:setup_failed;
  phase "sweep" ~sent:n ~failed:!failed;
  print_tail tail;
  let outcome =
    {
      attempted = n + List.length setups;
      failed = !failed + setup_failed;
      metrics =
        [
          ("setup_s", Stats.median (List.map fst setups), "s");
          ("wall_s", wall_s, "s");
          ("throughput_rps", Stats.median !rates, "1/s");
          ("p50_ms", Stats.median !lat, "ms");
          ("tail_ms", tail.value, "ms");
          ("max_rss_mb", mb !rss, "MiB");
          ("alloc_mwords", Stats.median !allocs, "Mwords");
        ];
    }
  in
  (outcome, wall_s *. 1000.)

(* ------------------------------------------------------------------ *)
(* serve workloads                                                     *)
(* ------------------------------------------------------------------ *)

let serve_argv a = [| a.pak; "serve"; "--jobs"; string_of_int a.jobs |]

(* A server started only to time its set-up: spawn to first pong, then
   a clean end of stream. *)
let serve_setup a =
  let s = Loadgen.start (serve_argv a) in
  match Loadgen.ping s with
  | t ->
      let e = Loadgen.finish s in
      (t, e.code = 0 && e.bye)
  | exception Loadgen.Failed m ->
      Loadgen.abort s;
      note "serve set-up run: %s" m;
      (0., false)

let count_wrong ~expected ~first (rs : Loadgen.response array) =
  let wrong = ref 0 in
  Array.iteri
    (fun i (r : Loadgen.response) ->
      let id = first + i in
      match Oracle.check ~id ~expected:expected.(id - 1) r.text with
      | None -> ()
      | Some why ->
          if !wrong < 3 then note "%s" why;
          incr wrong)
    rs;
  !wrong

let run_serve a =
  let w = Workload.serve ~workload:a.workload ~seed:a.seed ~seconds:a.seconds in
  let n_warm = Array.length w.warmup in
  let n_sat = Array.length w.sat and n_open = Array.length w.open_ in
  let frame phase i = Workload.frame w phase.(i) in
  let setups = List.init 20 (fun _ -> serve_setup a) in
  let s = Loadgen.start (serve_argv a) in
  let session =
    match
      let setup = Loadgen.ping s in
      let warm, _ = Loadgen.saturate s ~frame:(frame w.warmup) ~n:n_warm in
      let c0 = Loadgen.cpu_s s in
      let sat, sat_t0 = Loadgen.saturate s ~frame:(frame w.sat) ~n:n_sat in
      let sat_cpu = Loadgen.cpu_s s -. c0 in
      (* Encoded up front and with the heap tidied, so the generator
         runs on time. *)
      let open_frames = Array.map (Workload.frame w) w.open_ in
      Gc.full_major ();
      let ol = Loadgen.open_loop s ~frame:(Array.get open_frames) ~n:n_open ~rate:w.rate in
      let e = Loadgen.finish s in
      (setup, warm, sat, sat_t0, sat_cpu, ol, e)
    with
    | v -> Ok v
    | exception Loadgen.Failed m ->
        Loadgen.abort s;
        Error m
  in
  match session with
  | Error m ->
      note "serve session failed: %s" m;
      let n = n_warm + n_sat + n_open in
      phase "session" ~sent:n ~failed:n;
      ({ attempted = n; failed = n; metrics = [] }, 0., w)
  | Ok (setup, warm, sat, sat_t0, sat_cpu, ol, e) ->
      let expected = Oracle.expected w.docs (Array.concat [ w.warmup; w.sat; w.open_ ]) in
      let warm_wrong = count_wrong ~expected ~first:1 warm in
      let sat_wrong = count_wrong ~expected ~first:(n_warm + 1) sat in
      let open_wrong = count_wrong ~expected ~first:(n_warm + n_sat + 1) ol.responses in
      let exit_failed = if e.code = 0 && e.bye then 0 else 1 in
      if exit_failed = 1 then note "server exit %d, bye %b" e.code e.bye;
      let setup_failed = List.length (List.filter (fun (_, ok) -> not ok) setups) in
      phase "setup" ~sent:(List.length setups + 1) ~failed:setup_failed;
      if n_warm > 0 then phase "warm-up" ~sent:n_warm ~failed:warm_wrong;
      phase "saturation" ~sent:n_sat ~failed:sat_wrong;
      phase "open-loop" ~sent:n_open ~failed:open_wrong;
      let tail = Stats.windowed_tail ol.latency_ms in
      print_windowed tail;
      let whole = Stats.tail (Array.to_list ol.latency_ms) in
      Printf.printf "whole open-loop phase: p%g = %.3f ms over %d samples (%d beyond)\n" whole.pct
        whole.value whole.n whole.beyond;
      let late_p99 = (Stats.tail (Array.to_list ol.late_ms)).value in
      Printf.printf "open-loop rate %g/s, generator late p99 %.3f ms, backlog max %d\n" w.rate
        late_p99 ol.backlog_max;
      let sat_ms = (sat.(n_sat - 1).t_recv -. sat_t0) *. 1000. in
      let outcome =
        {
          attempted = n_warm + n_sat + n_open + List.length setups + 1;
          failed = warm_wrong + sat_wrong + open_wrong + exit_failed + setup_failed;
          metrics =
            [
              ("setup_s", Stats.median (setup :: List.map fst setups), "s");
              ("wall_s", sat_ms /. 1000., "s");
              ("throughput_rps", float_of_int (n_sat - sat_wrong) /. sat_cpu, "1/s");
              ("p50_ms", Stats.median (Array.to_list ol.latency_ms), "ms");
              ("tail_ms", tail.tail.value, "ms");
              ("max_rss_mb", mb e.rss_kb, "MiB");
              ("alloc_mwords", mwords e.stderr, "Mwords");
              ("loadgen.late_p99_ms", late_p99, "ms");
              ("loadgen.backlog_max", float_of_int ol.backlog_max, "count");
            ];
        }
      in
      (outcome, sat_ms, w)

(* ------------------------------------------------------------------ *)
(* The traced pass                                                     *)
(* ------------------------------------------------------------------ *)

(* Every per-layer metric, in the order BENCHMARK.json lists them; a
   layer a workload does not reach reads 0. *)
let per_layer =
  [
    ("p50_ms", "ms"); ("tail_ms", "ms");
    ("loadgen.late_p99_ms", "ms"); ("loadgen.backlog_max", "count");
    ("frame.read_ms", "ms"); ("frame.bytes", "bytes");
    ("trace_id.ms", "ms");
    ("sexp.parse_ms", "ms"); ("sexp.render_ms", "ms");
    ("cache.key_ms", "ms"); ("cache.lookup_ms", "ms"); ("cache.hit_ratio", "ratio");
    ("cache.evictions", "count"); ("tree_cache.lookup_ms", "ms");
    ("tree_cache.hit_ratio", "ratio");
    ("tree_io.parse_ms", "ms"); ("tree_io.calls", "count");
    ("parser.ms", "ms"); ("closure.ms", "ms"); ("closure.entries", "count");
    ("eval_vec.ms", "ms"); ("eval_vec.cells", "count");
    ("fact.ms", "ms");
    ("tree.measure_ms", "ms"); ("tree.measure_runs", "count");
    ("belief.ms", "ms"); ("belief.posterior_evals", "count");
    ("constr.ms", "ms"); ("independence.ms", "ms"); ("gen.ms", "ms");
    ("simulate.ms", "ms"); ("simulate.samples", "count"); ("simulate.accept_ratio", "ratio");
    ("budget.points", "count"); ("rational.limbs", "count");
    ("traced_ms", "ms"); ("unattributed_share", "ratio"); ("trace_overhead", "ratio");
  ]

(* Timer names in Layers, by the metric they feed. *)
let timer_metric = function
  | "tree.measure" -> "tree.measure_ms"
  | "tree_io.parse" | "sexp.parse" | "sexp.render" | "cache.key" | "cache.lookup"
  | "tree_cache.lookup" | "frame.read" as n -> n ^ "_ms"
  | n -> n ^ ".ms"

(* The untraced run's figures that BENCHMARK.json lists per layer. *)
let is_per_layer n = List.mem_assoc n per_layer

let traced_metrics (r : Layers.result) ~untraced ~untraced_ms =
  let values = Hashtbl.create 64 in
  List.iter (fun (n, v, _) -> if is_per_layer n then Hashtbl.replace values n v) untraced;
  List.iter
    (fun n -> Hashtbl.replace values (timer_metric n) (Layers.get r.layers n))
    r.layers.order;
  List.iter (fun (n, v) -> Hashtbl.replace values n v) r.counts;
  let attributed = Layers.total r.layers in
  Hashtbl.replace values "traced_ms" r.traced_ms;
  Hashtbl.replace values "unattributed_share" ((r.traced_ms -. attributed) /. r.traced_ms);
  Hashtbl.replace values "trace_overhead" ((r.traced_ms /. untraced_ms) -. 1.);
  let name, share = Layers.largest r.layers ~traced_ms:r.traced_ms in
  Printf.printf "largest layer %s (%.1f%% of traced time); unattributed %.1f%%\n"
    (timer_metric name) (100. *. share)
    (100. *. (r.traced_ms -. attributed) /. r.traced_ms);
  List.map
    (fun (n, u) -> (n, Option.value (Hashtbl.find_opt values n) ~default:0., u))
    per_layer

let host_record a =
  Printf.printf
    "host {\"nproc\": %d, \"recommended_domain_count\": %d, \"ocaml\": %S, \"profile\": %S, \
     \"workload\": %S, \"seed\": %d, \"seconds\": %g, \"jobs\": %d, \"trace\": %b}\n"
    (Proc.nproc ()) (Domain.recommended_domain_count ()) Sys.ocaml_version Build_info.profile
    a.workload a.seed a.seconds a.jobs a.trace

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let a = parse_args Sys.argv in
  if not (Sys.file_exists a.pak) then usage ("no pak binary at " ^ a.pak);
  host_record a;
  let outcome, traced =
    if a.workload = "sweep_d6" then begin
      let o, untraced_ms = run_sweep a in
      let traced () =
        let r, ok = Layers.sweep (Workload.sweep_order ~seed:a.seed) in
        if not ok then note "the traced sweep found a Theorem 6.2 violation";
        (traced_metrics r ~untraced:o.metrics ~untraced_ms, ok)
      in
      (o, traced)
    end
    else begin
      let o, untraced_ms, w = run_serve a in
      let traced () =
        let r, matches = Layers.serve w in
        (* The replay stands in for Serve's request path; when its
           answers drift from Serve.run's, the layer figures describe
           code the program no longer runs. *)
        if not matches then note "the traced replay's responses differ from Serve.run's";
        (traced_metrics r ~untraced:o.metrics ~untraced_ms, matches)
      in
      (o, traced)
    end
  in
  let outcome =
    if a.trace && outcome.failed = 0 then
      let metrics, ok = traced () in
      let failed = if ok then 0 else 1 in
      phase "traced" ~sent:1 ~failed;
      { attempted = outcome.attempted + 1; failed; metrics }
    else { outcome with metrics = List.filter (fun (n, _, _) -> not (is_per_layer n)) outcome.metrics }
  in
  print_result outcome;
  exit (if outcome.failed = 0 then 0 else 1)
