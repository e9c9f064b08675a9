open Pak_rational

module Obs = Pak_obs.Obs

let c_samples = Obs.counter "simulate.samples"
let c_accepted = Obs.counter "simulate.accepted"

(* Simulate's stream salt (Gen uses another, so equal seeds give
   independent streams). *)
let prng seed = Prng.create ~salt:0x51D2B4C7 seed

(* Draw a uniform rational in [0,1) with denominator 2^30 — plenty of
   resolution against the edge probabilities that occur in practice. *)
let uniform rng =
  let bits = Prng.next rng land ((1 lsl 30) - 1) in
  Q.of_ints bits (1 lsl 30)

let pick rng choices =
  (* choices: (weight, value) list with weights summing to 1. *)
  let u = uniform rng in
  let rec go acc = function
    | [] -> invalid_arg "Simulate.pick: weights below 1"
    | [ (_, v) ] -> v
    | (w, v) :: rest ->
      let acc = Q.add acc w in
      if Q.lt u acc then v else go acc rest
  in
  go Q.zero choices

(* Leaf node -> run index. Runs are enumerated depth-first at finalize,
   but recomputing the map here keeps Simulate independent of that
   ordering detail. *)
let leaf_index tree =
  let map = Hashtbl.create (Tree.n_runs tree) in
  for run = 0 to Tree.n_runs tree - 1 do
    let last = Tree.run_length tree run - 1 in
    Hashtbl.replace map (Tree.run_node tree ~run ~time:last) run
  done;
  map

let walk tree rng leaves =
  let node =
    ref (pick rng (List.map (fun (p, id) -> (p, id)) (Tree.initial_nodes tree)))
  in
  let rec descend () =
    match Tree.node_children tree !node with
    | [] -> ()
    | children ->
      node := pick rng (List.map (fun (p, _, id) -> (p, id)) children);
      descend ()
  in
  descend ();
  Hashtbl.find leaves !node

let sample_run tree ~seed =
  let rng = prng seed in
  Obs.incr c_samples;
  walk tree rng (leaf_index tree)

let sample_runs tree ~samples ~seed =
  if samples < 0 then invalid_arg "Simulate.sample_runs: negative sample count";
  let rng = prng seed in
  let leaves = leaf_index tree in
  Obs.add c_samples samples;
  Array.init samples (fun _ -> walk tree rng leaves)

let estimate tree ~event ~samples ~seed =
  if samples <= 0 then invalid_arg "Simulate.estimate: need at least one sample";
  let runs = sample_runs tree ~samples ~seed in
  let hits = Array.fold_left (fun acc r -> if Bitset.mem event r then acc + 1 else acc) 0 runs in
  Q.of_ints hits samples

let estimate_cond tree ~event ~given ~samples ~seed =
  if samples <= 0 then invalid_arg "Simulate.estimate_cond: need at least one sample";
  let runs = sample_runs tree ~samples ~seed in
  let hits = ref 0 and given_hits = ref 0 in
  Array.iter
    (fun r ->
      if Bitset.mem given r then begin
        incr given_hits;
        if Bitset.mem event r then incr hits
      end)
    runs;
  Obs.add c_accepted !given_hits;
  if !given_hits = 0 then None else Some (Q.of_ints !hits !given_hits)

(* ------------------------------------------------------------------ *)
(* Parallel estimation with splittable seeds                           *)
(* ------------------------------------------------------------------ *)

module Pool = Pak_par.Pool

let sample_block = 1024

(* SplitMix-style finalizer over (seed, block): every fixed-size block
   of samples gets its own independent stream, derived from the block
   INDEX rather than from whichever domain runs it. The estimate is
   therefore a pure function of (seed, samples) — the same for every
   pool size, including no pool at all. *)
let mix_seed seed b =
  let z = (seed + ((b + 1) * 0x9E3779B9)) land max_int in
  let z = (z lxor (z lsr 16)) * 0x85EBCA6B land max_int in
  let z = (z lxor (z lsr 13)) * 0xC2B2AE35 land max_int in
  (z lxor (z lsr 16)) land max_int

let block_counts tree ~event ~given leaves ~seed ~n =
  let rng = prng seed in
  let hits = ref 0 and given_hits = ref 0 in
  for _ = 1 to n do
    let r = walk tree rng leaves in
    match given with
    | None -> if Bitset.mem event r then incr hits
    | Some g ->
      if Bitset.mem g r then begin
        incr given_hits;
        if Bitset.mem event r then incr hits
      end
  done;
  (!hits, !given_hits)

let par_counts ?pool tree ~event ~given ~samples ~seed =
  let leaves = leaf_index tree in
  let nblocks = (samples + sample_block - 1) / sample_block in
  let blocks =
    Array.init nblocks (fun b ->
        (b, min sample_block (samples - (b * sample_block))))
  in
  let count (b, n) = block_counts tree ~event ~given leaves ~seed:(mix_seed seed b) ~n in
  let combine (h1, g1) (h2, g2) = (h1 + h2, g1 + g2) in
  Obs.add c_samples samples;
  match pool with
  | Some pool -> Pool.map_reduce pool ~map:count ~reduce:combine ~init:(0, 0) blocks
  | None -> Array.fold_left (fun acc bn -> combine acc (count bn)) (0, 0) blocks

let estimate_par ?pool tree ~event ~samples ~seed =
  if samples <= 0 then invalid_arg "Simulate.estimate_par: need at least one sample";
  let hits, _ = par_counts ?pool tree ~event ~given:None ~samples ~seed in
  Q.of_ints hits samples

let estimate_cond_par ?pool tree ~event ~given ~samples ~seed =
  if samples <= 0 then invalid_arg "Simulate.estimate_cond_par: need at least one sample";
  let hits, given_hits = par_counts ?pool tree ~event ~given:(Some given) ~samples ~seed in
  Obs.add c_accepted given_hits;
  if given_hits = 0 then None else Some (Q.of_ints hits given_hits)

let standard_error ~p ~samples =
  let pf = Q.to_float p in
  sqrt (pf *. (1. -. pf) /. float_of_int samples)
