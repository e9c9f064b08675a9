(* The load generator: one process, one select loop, talking to a real
   [pak serve] over its stdin/stdout pipes. *)

let now = Proc.now

exception Failed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Failed m)) fmt

type session = {
  pid : int;
  argv0 : string;
  to_srv : Unix.file_descr;  (* non-blocking *)
  from_srv : Unix.file_descr;
  err : Unix.file_descr;
  t_spawn : float;
  mutable inbuf : Bytes.t;  (* unparsed bytes from the server: [lo, hi) *)
  mutable lo : int;
  mutable hi : int;
  errbuf : Buffer.t;
  mutable out_eof : bool;
  mutable err_eof : bool;
  out_queue : string Queue.t;  (* frames accepted for sending, not yet written *)
  mutable out_off : int;  (* bytes of the head frame already written *)
  mutable out_bytes : int;  (* bytes queued, not yet written *)
  deadline : float;  (* the session is abandoned past this instant *)
}

(* A session still running this long after its spawn is abandoned. *)
let timeout_s = 150.

let start argv =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let t_spawn = now () in
  let pid = Proc.spawn argv ~stdin:in_r ~stdout:out_w ~stderr:err_w in
  List.iter Unix.close [ in_r; out_w; err_w ];
  Unix.set_nonblock in_w;
  {
    pid; argv0 = argv.(0); to_srv = in_w; from_srv = out_r; err = err_r; t_spawn;
    inbuf = Bytes.create 65536; lo = 0; hi = 0; errbuf = Buffer.create 1024;
    out_eof = false; err_eof = false; out_queue = Queue.create (); out_off = 0; out_bytes = 0;
    deadline = t_spawn +. timeout_s;
  }

let send s bytes =
  Queue.add bytes s.out_queue;
  s.out_bytes <- s.out_bytes + String.length bytes

let sending s = s.out_bytes > 0

(* One complete frame at the head of [inbuf], if any. *)
let take_frame s =
  let magic = Pak.Serve.Frame.magic in
  let ml = String.length magic in
  let avail = s.hi - s.lo in
  if avail < ml then None
  else begin
    if Bytes.sub_string s.inbuf s.lo ml <> magic then
      fail "server stream out of frame at %S" (Bytes.sub_string s.inbuf s.lo (min avail 40));
    match Bytes.index_from_opt s.inbuf (s.lo + ml) '\n' with
    | Some nl when nl < s.hi -> (
        match int_of_string_opt (Bytes.sub_string s.inbuf (s.lo + ml) (nl - s.lo - ml)) with
        | None -> fail "bad frame length from server"
        | Some len ->
            if nl + 1 + len > s.hi then None
            else begin
              let payload = Bytes.sub_string s.inbuf (nl + 1) len in
              s.lo <- nl + 1 + len;
              Some payload
            end)
    | _ -> None
  end

let chunk = Bytes.create 65536

let read_into s fd =
  match Unix.read fd chunk 0 (Bytes.length chunk) with
  | 0 -> if fd == s.from_srv then s.out_eof <- true else s.err_eof <- true
  | n ->
      if fd == s.err then Buffer.add_subbytes s.errbuf chunk 0 n
      else begin
        if s.hi + n > Bytes.length s.inbuf then begin
          let live = s.hi - s.lo in
          let b = Bytes.create (max (2 * Bytes.length s.inbuf) (live + n)) in
          Bytes.blit s.inbuf s.lo b 0 live;
          s.inbuf <- b;
          s.lo <- 0;
          s.hi <- live
        end;
        Bytes.blit chunk 0 s.inbuf s.hi n;
        s.hi <- s.hi + n
      end
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()

(* Wait at most [timeout] seconds (until something happens), write what
   the pipe accepts, read what the server sent, and hand every complete
   frame to [on_frame] with its arrival time. *)
let pump s ~timeout ~on_frame =
  let t = now () in
  if t > s.deadline then fail "server did not answer in time";
  let timeout = Float.min timeout (s.deadline -. t) in
  let rd = (if s.out_eof then [] else [ s.from_srv ]) @ if s.err_eof then [] else [ s.err ] in
  let wr = if sending s then [ s.to_srv ] else [] in
  let r, w, _ =
    try Unix.select rd wr [] timeout with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  if w <> [] then begin
    let head = Queue.peek s.out_queue in
    match Unix.single_write_substring s.to_srv head s.out_off (String.length head - s.out_off) with
    | n ->
        s.out_bytes <- s.out_bytes - n;
        s.out_off <- s.out_off + n;
        if s.out_off = String.length head then begin
          ignore (Queue.pop s.out_queue);
          s.out_off <- 0
        end
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()
    | exception Unix.Unix_error (Unix.EPIPE, _, _) -> fail "server closed its input"
  end;
  List.iter (read_into s) r;
  if List.mem s.from_srv r then begin
    let t_recv = now () in
    let rec frames () =
      match take_frame s with
      | Some p ->
          on_frame p t_recv;
          frames ()
      | None -> ()
    in
    frames ();
    if s.lo = s.hi then begin
      s.lo <- 0;
      s.hi <- 0
    end
  end;
  if s.out_eof && sending s then fail "server closed its output"

(* Spawn to first pong, in seconds. *)
let ping s =
  send s (Workload.ping_frame 0);
  let pong = ref None in
  while !pong = None do
    if s.out_eof then fail "server exited before answering ping";
    pump s ~timeout:1. ~on_frame:(fun p t ->
        if p = "(pong (id 0))" then pong := Some t
        else fail "expected pong, got %S" p)
  done;
  Option.get !pong -. s.t_spawn

(* The server's CPU time so far, in seconds. *)
let cpu_s s =
  match Proc.cpu_s s.pid with Some c -> c | None -> fail "no CPU time for the server"

type response = { text : string; t_recv : float }

(* Saturation: the whole phase is offered at once and the pipe applies
   backpressure; request [i] is encoded by [frame i] once fewer than
   64 KiB wait to be written. Returns the responses and the instant the
   first byte was offered. *)
let saturate s ~frame ~n =
  if n = 0 then ([||], now ()) else
  let got = Array.make n { text = ""; t_recv = 0. } in
  let k = ref 0 and next = ref 0 in
  let t0 = now () in
  while !k < n do
    if s.out_eof then fail "server exited after %d of %d responses" !k n;
    while !next < n && s.out_bytes < 65536 do
      send s (frame !next);
      incr next
    done;
    pump s ~timeout:1. ~on_frame:(fun p t ->
        if !k < n then got.(!k) <- { text = p; t_recv = t };
        incr k)
  done;
  (got, t0)

type open_loop = {
  responses : response array;
  latency_ms : float array;  (* response time minus scheduled send time *)
  late_ms : float array;  (* offer time minus scheduled send time *)
  backlog_max : int;  (* most requests sent and not yet answered *)
}

(* Open loop: request i is due at t0 + i / rate whatever the server is
   doing. The generator never waits for the server: a request offered
   while the pipe is full waits in [out_queue]. Latency runs from the
   instant the request was due, so a stall also charges the requests
   due behind it. How late the generator offered each request is kept
   in [late_ms], to tell its own lateness from the server's. *)
let open_loop s ~frame ~n ~rate =
  let got = Array.make n { text = ""; t_recv = 0. } in
  let late = Array.make n 0. in
  let t0 = now () +. 0.01 in
  let due i = t0 +. (float_of_int i /. rate) in
  let sent = ref 0 and k = ref 0 and backlog = ref 0 in
  while !k < n do
    if s.out_eof then fail "server exited after %d of %d responses" !k n;
    let t = now () in
    while !sent < n && t >= due !sent do
      late.(!sent) <- (t -. due !sent) *. 1000.;
      send s (frame !sent);
      incr sent
    done;
    backlog := max !backlog (!sent - !k);
    let timeout = if !sent < n then Float.max 0. (due !sent -. now ()) else 1. in
    pump s ~timeout ~on_frame:(fun p t ->
        if !k < n then got.(!k) <- { text = p; t_recv = t };
        incr k)
  done;
  {
    responses = got;
    latency_ms = Array.mapi (fun i r -> (r.t_recv -. due i) *. 1000.) got;
    late_ms = late;
    backlog_max = !backlog;
  }

type ended = {
  code : int;
  rss_kb : int;
  stderr : string;
  wall_s : float;  (* spawn to exit *)
  bye : bool;  (* the server said (bye (reason eof)) *)
}

(* Close the server's input, read to end of stream and reap it. The
   peak RSS is read just before: every request has been answered. *)
let finish s =
  let rss_kb =
    Option.value ~default:0
      (Proc.peak_rss_kb s.pid ~name:(Filename.basename s.argv0))
  in
  Unix.close s.to_srv;
  Queue.clear s.out_queue;
  s.out_bytes <- 0;
  let bye = ref false in
  while not (s.out_eof && s.err_eof) do
    pump s ~timeout:1. ~on_frame:(fun p _ ->
        if p = "(bye (reason eof))" then bye := true
        else fail "unexpected frame after the last response: %S" p)
  done;
  let code = Proc.wait s.pid in
  let wall_s = now () -. s.t_spawn in
  Unix.close s.from_srv;
  Unix.close s.err;
  { code; rss_kb; stderr = Buffer.contents s.errbuf; wall_s; bye = !bye }

(* On any failure: stop the server and reap it. *)
let abort s =
  (try Unix.kill s.pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try Unix.close s.to_srv with Unix.Unix_error _ -> ());
  ignore (Proc.wait s.pid);
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ s.from_srv; s.err ]
