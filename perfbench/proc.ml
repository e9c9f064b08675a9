(* Child processes of the benchmark: spawn the real [pak] binary with
   the runtime's exit report switched on, collect its output, its exit
   code and its peak resident set size. *)

external nproc : unit -> int = "perfbench_nproc"

let now = Unix.gettimeofday

(* OCAMLRUNPARAM=v=0x400 makes the OCaml runtime print its GC counters
   (allocated_words, minor_words, ...) to stderr at exit, so the
   program's allocation is measured without changing the program. *)
let pak_env () =
  let inherited =
    Array.to_list (Unix.environment ())
    |> List.filter (fun kv ->
           not (String.length kv >= 14 && String.sub kv 0 14 = "OCAMLRUNPARAM="))
  in
  Array.of_list ("OCAMLRUNPARAM=v=0x400" :: inherited)

(* The value of the first "key: value" line for [key] in [text]. *)
let field text key =
  List.find_map
    (fun line ->
      match String.index_opt line ':' with
      | Some i when String.trim (String.sub line 0 i) = key ->
          Some (String.trim (String.sub line (i + 1) (String.length line - i - 1)))
      | _ -> None)
    (String.split_on_char '\n' text)

(* The [allocated_words] line of the runtime's exit report. *)
let allocated_words report = Option.bind (field report "allocated_words") int_of_string_opt

(* Exit code, or 128 + the signal number. *)
let wait pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED c -> c
  | Unix.WSIGNALED n | Unix.WSTOPPED n -> 128 + abs n

(* The peak RSS (VmHWM, KiB) of a live child, once it runs the program
   named [name]. Before its exec the child still shares the parent's
   memory, which getrusage would charge to it. *)
let peak_rss_kb pid ~name =
  let name = if String.length name > 15 then String.sub name 0 15 else name in
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | status ->
      if field status "Name" <> Some name then None
      else
        (* "VmHWM:     1234 kB" *)
        Option.bind (field status "VmHWM") (fun v ->
            int_of_string_opt (String.trim (List.hd (String.split_on_char 'k' v))))

(* The CPU time (user + system, s) a live child has used so far, from
   /proc/PID/stat, whose times are in 1/100 s on Linux. Time the host
   took from a virtual CPU (steal) is not in it. *)
let cpu_s pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
  | exception Sys_error _ -> None
  | stat -> (
      (* "pid (comm) state ppid ...": utime and stime are the 12th and
         13th fields after the comm's closing parenthesis. *)
      let after = String.rindex stat ')' + 2 in
      match String.split_on_char ' ' (String.sub stat after (String.length stat - after)) with
      | _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: u :: s :: _ -> (
          match (int_of_string_opt u, int_of_string_opt s) with
          | Some u, Some s -> Some (float_of_int (u + s) /. 100.)
          | _ -> None)
      | _ -> None)

(* CPU time (user + system, s) of the children reaped so far. *)
let children_cpu_s () =
  let t = Unix.times () in
  t.tms_cutime +. t.tms_cstime

type finished = {
  code : int;
  rss_kb : int;
  out : string;
  err : string;
  wall_s : float;  (* spawn to exit *)
  cpu_s : float;  (* user + system *)
}

let spawn argv ~stdin ~stdout ~stderr =
  Unix.create_process_env argv.(0) argv (pak_env ()) stdin stdout stderr

(* Read [fds] until each reaches end of file, one buffer per fd,
   calling [tick] at least every 2 ms meanwhile. *)
let drain_all ~tick fds =
  let bufs = List.map (fun fd -> (fd, Buffer.create 256)) fds in
  let chunk = Bytes.create 65536 in
  let rec loop open_fds =
    if open_fds <> [] then begin
      let ready, _, _ =
        try Unix.select open_fds [] [] 0.002 with
        | Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      let still =
        List.filter
          (fun fd ->
            if not (List.mem fd ready) then true
            else
              match Unix.read fd chunk 0 (Bytes.length chunk) with
              | 0 -> false
              | n ->
                  Buffer.add_subbytes (List.assoc fd bufs) chunk 0 n;
                  true
              | exception Unix.Unix_error (Unix.EINTR, _, _) -> true)
          open_fds
      in
      tick ();
      loop still
    end
  in
  loop fds;
  List.map (fun (_, b) -> Buffer.contents b) bufs

(* Run [argv] to completion with stdin closed, capturing stdout and
   stderr; no other child may be reaped meanwhile, or its CPU time is
   counted in this one's. The peak RSS is polled while the child runs,
   so growth in its last 2 ms may be missed. *)
let run argv =
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let err_r, err_w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let t0 = now () and c0 = children_cpu_s () in
  let pid = spawn argv ~stdin:null ~stdout:out_w ~stderr:err_w in
  List.iter Unix.close [ null; out_w; err_w ];
  let rss_kb = ref 0 in
  let name = Filename.basename argv.(0) in
  let tick () = Option.iter (fun k -> rss_kb := max !rss_kb k) (peak_rss_kb pid ~name) in
  let outs = drain_all ~tick [ out_r; err_r ] in
  let code = wait pid in
  let rss_kb = !rss_kb in
  let wall_s = now () -. t0 in
  let cpu_s = children_cpu_s () -. c0 in
  List.iter Unix.close [ out_r; err_r ];
  match outs with
  | [ out; err ] -> { code; rss_kb; out; err; wall_s; cpu_s }
  | _ -> assert false
