(* Checks of the benchmark itself: generator determinism, the tail
   percentile rule, parsing of the runtime's GC exit report and of
   /proc CPU times, the oracle rejecting a tampered response, and the
   traced replay agreeing with Serve.run. Run with
   dune build @perfbench/selftest or python3 perfbench/run.py --self-test. *)

let failures = ref 0

let check name ok =
  Printf.printf "%s %s\n" (if ok then "ok  " else "FAIL") name;
  if not ok then incr failures

let stream_bytes (w : Workload.serve) =
  String.concat ""
    (List.map (fun reqs -> String.concat "" (Array.to_list (Array.map (Workload.frame w) reqs)))
       [ w.warmup; w.sat; w.open_ ])

let generator () =
  List.iter
    (fun workload ->
      let gen seed = stream_bytes (Workload.serve ~workload ~seed ~seconds:1.) in
      let a = gen 7 in
      check (workload ^ ": same seed, same bytes") (String.equal a (gen 7));
      check (workload ^ ": other seed, other bytes") (not (String.equal a (gen 8))))
    [ "serve_cold"; "serve_warm"; "serve_degraded" ];
  check "sweep_d6: same seed, same order"
    (Workload.sweep_order ~seed:3 = Workload.sweep_order ~seed:3);
  check "sweep_d6: the order is a permutation of the corpus"
    (let a = Array.copy (Workload.sweep_order ~seed:3) in
     Array.sort compare a;
     a = Workload.sweep_corpus);
  (* The lazy byte source yields exactly the encoded frames. *)
  let w = Workload.serve ~workload:"serve_warm" ~seed:7 ~seconds:1. in
  let src = Workload.source w w.sat in
  let b = Buffer.create 4096 and chunk = Bytes.create 1000 in
  let rec drain () =
    let n = src chunk 0 1000 in
    if n > 0 then begin
      Buffer.add_subbytes b chunk 0 n;
      drain ()
    end
  in
  drain ();
  check "byte source = concatenated frames"
    (Buffer.contents b = String.concat "" (Array.to_list (Array.map (Workload.frame w) w.sat)));
  (* The memoised encoding is the program's own encoder's output. *)
  let plain (w : Workload.serve) r =
    Pak.Serve.Frame.encode (Pak.Serve.Sexp.to_string (Workload.request_sexp w.docs r))
  in
  check "memoised frames = Sexp.to_string frames"
    (List.for_all
       (fun (w : Workload.serve) ->
         Array.for_all (fun r -> Workload.frame w r = plain w r) (Array.sub w.sat 0 100))
       [ w; Workload.serve ~workload:"serve_degraded" ~seed:7 ~seconds:5. ])

let percentiles () =
  let ramp n = List.init n (fun i -> float_of_int (i + 1)) in
  let t = Stats.tail (ramp 1000) in
  check "1000 samples: p99 with 10 beyond" (t.pct = 99. && t.beyond = 10 && t.value = 990.);
  let t = Stats.tail (ramp 500) in
  check "500 samples: p98 with 10 beyond" (t.pct = 98. && t.beyond = 10 && t.value = 490.);
  let t = Stats.tail (ramp 999) in
  check "999 samples: p98, since p99 leaves 9 beyond" (t.pct = 98. && t.beyond >= 10);
  let t = Stats.tail (ramp 100) in
  check "100 samples: p90" (t.pct = 90. && t.beyond = 10 && t.value = 90.);
  let t = Stats.tail (ramp 19) in
  check "19 samples: the median" (t.pct = 50.);
  let w = Stats.windowed_tail (Array.init 600 (fun i -> float_of_int (i mod 200))) in
  check "three windows of a repeated ramp: p95 of each" (w.windows = 3 && w.tail.pct = 95. && w.tail.value = 189.);
  check "median" (Stats.median [ 3.; 1.; 2.; 10. ] = 2.5)

let gc_report () =
  let report =
    "allocated_words: 236721374\nminor_words: 236622304\npromoted_words: 2737679\n\
     major_words: 2836749\nminor_collections: 911\n"
  in
  check "allocated_words parsed" (Proc.allocated_words report = Some 236721374);
  check "no report, no value" (Proc.allocated_words "thm62 ... OK\n" = None);
  check "pak runs with the exit report on"
    (Array.exists (String.equal "OCAMLRUNPARAM=v=0x400") (Proc.pak_env ()));
  check "CPU time read from /proc"
    (match Proc.cpu_s (Unix.getpid ()) with Some c -> c >= 0. | None -> false)

let oracle () =
  let w = Workload.serve ~workload:"serve_cold" ~seed:5 ~seconds:1. in
  let reqs = Array.sub w.sat 0 8 in
  let input = String.concat "" (Array.to_list (Array.map (Workload.frame w) reqs)) in
  let out, code = Pak.Serve.run_string input in
  let rd = Pak.Serve.Frame.reader (Pak.Serve.Frame.source_of_string out) in
  let responses =
    List.filter_map
      (fun _ -> match Pak.Serve.Frame.read rd with Pak.Serve.Frame.Payload p -> Some p | _ -> None)
      (List.init 8 Fun.id)
  in
  let expected = Oracle.expected w.docs reqs in
  check "in-process server exits 0" (code = 0);
  check "oracle accepts the server's answers"
    (List.length responses = 8
    && List.for_all2
         (fun (r : Workload.req) text -> Oracle.check ~id:r.id ~expected:expected.(r.id - 1) text = None)
         (Array.to_list reqs) responses);
  let first = List.hd responses in
  let tampered =
    let b = Bytes.of_string first in
    let i = String.length first - 3 in
    Bytes.set b i (if first.[i] = '1' then '2' else '1');
    Bytes.to_string b
  in
  check "oracle rejects a tampered answer"
    (Oracle.check ~id:1 ~expected:expected.(0) tampered <> None);
  check "oracle rejects an answer out of order"
    (Oracle.check ~id:2 ~expected:expected.(1) first <> None);
  check "oracle rejects a malformed frame" (Oracle.check ~id:1 ~expected:expected.(0) "(pong (id 0))" <> None)

(* The traced pass replays requests through its own copy of Serve's
   request path; its responses must be Serve.run's, byte for byte. *)
let replay () =
  List.iter
    (fun workload ->
      let _, matches = Layers.serve (Workload.serve ~workload ~seed:7 ~seconds:1.) in
      check (workload ^ ": traced replay answers as Serve.run") matches)
    [ "serve_cold"; "serve_warm"; "serve_degraded" ]

let () =
  generator ();
  percentiles ();
  gc_report ();
  oracle ();
  replay ();
  if !failures > 0 then begin
    Printf.printf "%d self-test(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all self-tests passed"
