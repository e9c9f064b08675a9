(* The answer oracle. Each expected response body is recomputed
   directly through Semantics / Tree.measure / Belief, bypassing the
   server's frame, parse, cache and rendering layers, and compared with
   what the binary sent. Exact bodies evaluate the formula with the
   recursive engine ([Semantics.eval]), not the vectorized one the
   server runs, so a defect in eval_vec or Closure shows as a wrong
   answer instead of being repeated on both sides. *)

open Pak

let valuation = Semantics.generic_valuation

let eval_body tree formula =
  let fact = Semantics.eval tree ~valuation (Parser.parse formula) in
  let sat = ref 0 in
  Tree.iter_points tree (fun ~run ~time -> if Fact.holds fact ~run ~time then incr sat);
  let initially = ref (Tree.empty_event tree) in
  for r = 0 to Tree.n_runs tree - 1 do
    if Fact.holds fact ~run:r ~time:0 then initially := Bitset.add !initially r
  done;
  Printf.sprintf "(code 0) (status ok) (result (points %d) (sat %d) (valid %b) (prob %s))"
    (Tree.n_points tree) !sat
    (!sat = Tree.n_points tree)
    (Q.to_string (Tree.measure tree !initially))

let belief_body tree formula ~agent ~run ~time =
  let fact = Semantics.eval tree ~valuation (Parser.parse formula) in
  Printf.sprintf "(code 0) (status ok) (result (degree %s))"
    (Q.to_string (Belief.degree fact ~agent ~run ~time))

(* The degraded path under the same per-request budget the server
   installs: the graded degree must come back ESTIMATED, with exactly
   the value the seeded fallback estimator gives. The formula goes
   through [eval_auto], as in the server, because the points it spends
   decide where the budget runs out. *)
let degraded_body tree formula ~agent ~run ~time (d : Workload.degraded) =
  match
    Budget.with_budget (Budget.limits ~max_points:d.max_points ()) (fun () ->
        let fact = Semantics.eval_auto tree ~valuation (Parser.parse formula) in
        Belief.degree_graded ~samples:d.samples ~seed:d.sample_seed fact ~agent ~run ~time)
  with
  | Ok (Graded.Estimated { value; samples }) ->
      Printf.sprintf "(code 0) (status estimated) (result (degree %s) (samples %d))"
        (Q.to_string value) samples
  | Ok (Graded.Exact _) -> "oracle: degraded query stayed exact"
  | Error e -> "oracle: " ^ Error.to_string e

let body (docs : Workload.doc array) (r : Workload.req) =
  let tree = docs.(r.doc).tree in
  match r.op with
  | Workload.Eval -> eval_body tree r.formula
  | Workload.Belief { agent; run; time; degraded = None } ->
      belief_body tree r.formula ~agent ~run ~time
  | Workload.Belief { agent; run; time; degraded = Some d } ->
      degraded_body tree r.formula ~agent ~run ~time d

(* Expected bodies, memoised on the request's content: warm workloads
   repeat a few queries many times. *)
let expected docs reqs =
  let memo = Hashtbl.create 64 in
  Array.map
    (fun (r : Workload.req) ->
      let k = (r.doc, r.formula, r.op) in
      match Hashtbl.find_opt memo k with
      | Some b -> b
      | None ->
          let b = body docs r in
          Hashtbl.add memo k b;
          b)
    reqs

(* A response frame is "(response (id N) (trace T) BODY)" with T
   16 hex digits. Returns (N, BODY). *)
let split_response text =
  let prefix = "(response (id " in
  let pl = String.length prefix in
  let n = String.length text in
  if n < pl || String.sub text 0 pl <> prefix || text.[n - 1] <> ')' then None
  else
    match String.index_from_opt text pl ')' with
    | None -> None
    | Some close -> (
        match int_of_string_opt (String.sub text pl (close - pl)) with
        | None -> None
        | Some id ->
            let rest = String.sub text (close + 1) (n - close - 2) in
            let tp = " (trace " in
            let tl = String.length tp in
            let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
            if
              String.length rest >= tl + 18
              && String.sub rest 0 tl = tp
              && String.for_all hex (String.sub rest tl 16)
              && String.sub rest (tl + 16) 2 = ") "
            then Some (id, String.sub rest (tl + 18) (String.length rest - tl - 18))
            else None)

(* Why a response is wrong for request [id] with [expected] body, or
   None when it is right. *)
let check ~id ~expected text =
  match split_response text with
  | None -> Some (Printf.sprintf "request %d: malformed response %S" id text)
  | Some (got_id, _) when got_id <> id ->
      Some (Printf.sprintf "request %d: response for id %d (out of order)" id got_id)
  | Some (_, body) when body <> expected ->
      Some (Printf.sprintf "request %d: got %S, expected %S" id body expected)
  | Some _ -> None
