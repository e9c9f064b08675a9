(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank value at percentile [p] (0 < p <= 100) of a sorted,
   non-empty array. *)
let rank a p =
  let n = Array.length a in
  let k = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (k - 1)))

let median xs =
  match xs with
  | [] -> invalid_arg "Stats.median: no samples"
  | _ ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* The percentiles a tail figure may be reported at, highest first. *)
let ladder = [ 99.; 98.; 95.; 90.; 80.; 75.; 50. ]

type tail = { pct : float; value : float; beyond : int; n : int }

(* The highest percentile of the ladder with at least 10 samples beyond
   it: p99 from 1000 samples up, p98 from 500, ... The median when
   fewer than 20 samples exist, with [beyond] saying how thin it is. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.tail: no samples";
  let beyond p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  let pct =
    match List.find_opt (fun p -> beyond p >= 10) ladder with
    | Some p -> p
    | None -> 50.
  in
  { pct; value = rank a pct; beyond = beyond pct; n }

(* Timer wake-ups on a shared host are themselves late by milliseconds
   at their p99, in bursts, so the p99 of a whole phase mostly says how
   noisy the neighbours were during it. [windowed_tail] cuts the
   samples, in arrival order, into consecutive windows of [window],
   takes the tail of each by the rule above (p95 for 200 samples) and
   reports the median over windows, with the tail of the first full
   window as the example of its percentile and sample count. Fewer than
   two windows' worth is one window. *)
type windowed = { tail : tail; windows : int }

let window = 200

let windowed_tail samples =
  let n = Array.length samples in
  let k = max 1 (n / window) in
  let tails =
    List.init k (fun i ->
        let len = if i = k - 1 then n - (i * window) else window in
        tail (Array.to_list (Array.sub samples (i * window) len)))
  in
  { tail = { (List.hd tails) with value = median (List.map (fun t -> t.value) tails) };
    windows = k }
