(* Deterministic journal replay (see replay.mli for the contract).

   The whole scheme rests on serve's responses being a pure function
   of the input byte stream: trace ids are digests of (frame seq, item
   index, payload), shed boundaries are batch-exact at every --jobs,
   and Monte-Carlo degradation is seeded. The only impurities are the
   observability fields — (trace ...) / (metrics ...) groups and the
   (result ...) of introspection ops — which [normalize] drops from the
   parsed response before the byte comparison. *)

module Journal = Pak_journal.Journal
module Budget = Pak_guard.Budget

type divergence = {
  d_seq : int;
  d_trace : string;
  d_want : string;
  d_got : string;
}

type report = {
  rp_requests : int;
  rp_skipped_junk : int;
  rp_compared : int;
  rp_matched : int;
  rp_divergences : divergence list;
  rp_missing : int;
  rp_extra : int;
  rp_tail : string option;
}

(* ------------------------------------------------------------------ *)
(* Meta: the recorded serve configuration                              *)
(* ------------------------------------------------------------------ *)

let meta_of_config (cfg : Serve.config) =
  let lim = function None -> "none" | Some v -> string_of_int v in
  let l = cfg.Serve.limits in
  Printf.sprintf
    "(serve-config (version 1) (jobs %d) (max-pending %d) \
     (batch %d) (max-frame %d) (cache-max %d) (tree-cache-max %d) \
     (drain-ms %s) (retry-after-ms %d) (max-points %s) (max-nodes %s) \
     (max-limbs %s) (max-iters %s) (timeout-ms %s))"
    cfg.Serve.jobs cfg.Serve.max_pending cfg.Serve.batch cfg.Serve.max_frame
    cfg.Serve.cache_max cfg.Serve.tree_cache_max
    (lim cfg.Serve.drain_ms)
    cfg.Serve.retry_after_ms
    (lim l.Budget.max_points)
    (lim l.Budget.max_nodes)
    (lim l.Budget.max_limbs)
    (lim l.Budget.max_iters)
    (lim l.Budget.timeout_ms)

let config_of_meta s =
  let cfg = ref Serve.default_config in
  let set f = cfg := f !cfg in
  let set_limits f = set (fun c -> { c with Serve.limits = f c.Serve.limits }) in
  (match Serve.Sexp.parse s with
  | Ok (Serve.Sexp.List (Serve.Sexp.Atom "serve-config" :: fields)) ->
      List.iter
        (fun field ->
          match field with
          | Serve.Sexp.List [ Serve.Sexp.Atom key; Serve.Sexp.Atom v ] -> (
              let int_v f =
                match int_of_string_opt v with Some n -> f n | None -> ()
              in
              let opt_v f =
                if v = "none" then f None
                else
                  match int_of_string_opt v with
                  | Some n -> f (Some n)
                  | None -> ()
              in
              match key with
              | "jobs" -> int_v (fun n -> set (fun c -> { c with Serve.jobs = n }))
              | "max-pending" ->
                  int_v (fun n -> set (fun c -> { c with Serve.max_pending = n }))
              | "batch" ->
                  int_v (fun n -> set (fun c -> { c with Serve.batch = n }))
              | "max-frame" ->
                  int_v (fun n -> set (fun c -> { c with Serve.max_frame = n }))
              | "cache-max" ->
                  int_v (fun n -> set (fun c -> { c with Serve.cache_max = n }))
              | "tree-cache-max" ->
                  int_v (fun n ->
                      set (fun c -> { c with Serve.tree_cache_max = n }))
              | "drain-ms" ->
                  opt_v (fun n -> set (fun c -> { c with Serve.drain_ms = n }))
              | "retry-after-ms" ->
                  int_v (fun n ->
                      set (fun c -> { c with Serve.retry_after_ms = n }))
              | "max-points" ->
                  opt_v (fun n ->
                      set_limits (fun l -> { l with Budget.max_points = n }))
              | "max-nodes" ->
                  opt_v (fun n ->
                      set_limits (fun l -> { l with Budget.max_nodes = n }))
              | "max-limbs" ->
                  opt_v (fun n ->
                      set_limits (fun l -> { l with Budget.max_limbs = n }))
              | "max-iters" ->
                  opt_v (fun n ->
                      set_limits (fun l -> { l with Budget.max_iters = n }))
              | "timeout-ms" ->
                  opt_v (fun n ->
                      set_limits (fun l -> { l with Budget.timeout_ms = n }))
              | _ -> ()
              (* a newer recorder's field, or an older one's (engine E),
                 which no longer selects anything: ignore *))
          | _ -> ())
        fields
  | _ -> ());
  !cfg

(* ------------------------------------------------------------------ *)
(* Normalization                                                       *)
(* ------------------------------------------------------------------ *)

(* Parse, drop the named lists at any depth, print again. Serve
   renders its responses in the reader's own dialect, so the reprint
   of a clean response is the response minus those groups. *)
let normalize ~disp s =
  let drop =
    if disp = "metrics" || disp = "status" then [ "trace"; "metrics"; "result" ]
    else [ "trace"; "metrics" ]
  in
  let rec strip = function
    | Serve.Sexp.List xs ->
        Serve.Sexp.List
          (List.filter_map
             (function
               | Serve.Sexp.List (Serve.Sexp.Atom head :: _) when List.mem head drop -> None
               | x -> Some (strip x))
             xs)
    | x -> x
  in
  match Serve.Sexp.parse s with
  | Ok sx -> Serve.Sexp.to_string (strip sx)
  | Error _ -> s

(* ------------------------------------------------------------------ *)
(* Replay                                                              *)
(* ------------------------------------------------------------------ *)

(* Split a response byte stream back into frame payloads. The stream
   is our own output, so junk here would itself be a bug — surface it
   as a payload so it shows up as a divergence, not silently. *)
let decode_frames bytes =
  let rd = Serve.Frame.reader (Serve.Frame.source_of_string bytes) in
  let rec go acc =
    match Serve.Frame.read rd with
    | Serve.Frame.Eof -> List.rev acc
    | Serve.Frame.Payload p -> go (p :: acc)
    | Serve.Frame.Junk _ -> go ("<unframed bytes in replay output>" :: acc)
  in
  go []

let run ?jobs ?clock ?limits (rr : Journal.read_result) =
  let cfg = config_of_meta rr.Journal.r_meta in
  let cfg =
    {
      cfg with
      Serve.journal = None;
      telemetry = None;
      telemetry_every = 0;
      clock;
    }
  in
  let cfg = match jobs with Some j -> { cfg with Serve.jobs = j } | None -> cfg in
  let cfg =
    match limits with Some l -> { cfg with Serve.limits = l } | None -> cfg
  in
  match Serve.validate_config cfg with
  | Result.Error m ->
      Result.Error ("journal meta yields an invalid configuration: " ^ m)
  | Ok () ->
      let requests, junk_requests =
        List.partition
          (fun e -> e.Journal.e_disp <> "junk")
          (List.filter
             (fun e -> e.Journal.e_kind = Journal.Request)
             rr.Journal.r_entries)
      in
      let expected, junk_responses =
        List.partition
          (fun e -> e.Journal.e_disp <> "junk")
          (List.filter
             (fun e -> e.Journal.e_kind = Journal.Response)
             rr.Journal.r_entries)
      in
      let input = Buffer.create 4096 in
      List.iter
        (fun e ->
          Buffer.add_string input (Serve.Frame.encode e.Journal.e_payload))
        requests;
      let out, _code = Serve.run_string ~config:cfg (Buffer.contents input) in
      let got = decode_frames out in
      let rec pair exp got compared matched divs =
        match (exp, got) with
        | [], rest ->
            (compared, matched, List.rev divs, 0, List.length rest)
        | rest, [] ->
            (compared, matched, List.rev divs, List.length rest, 0)
        | e :: exp', g :: got' ->
            let want = normalize ~disp:e.Journal.e_disp e.Journal.e_payload in
            let got_n = normalize ~disp:e.Journal.e_disp g in
            if want = got_n then pair exp' got' (compared + 1) (matched + 1) divs
            else
              pair exp' got' (compared + 1) matched
                ({
                   d_seq = e.Journal.e_seq;
                   d_trace = e.Journal.e_trace;
                   d_want = want;
                   d_got = got_n;
                 }
                :: divs)
      in
      let compared, matched, divergences, missing, extra =
        pair expected got 0 0 []
      in
      Ok
        {
          rp_requests = List.length requests;
          rp_skipped_junk = List.length junk_requests + List.length junk_responses;
          rp_compared = compared;
          rp_matched = matched;
          rp_divergences = divergences;
          rp_missing = missing;
          rp_extra = extra;
          rp_tail = rr.Journal.r_tail;
        }
