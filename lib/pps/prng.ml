type t = { mutable state : int }

let create ~salt seed = { state = (seed * 2_654_435_769) lxor salt }

(* SplitMix constants truncated to fit OCaml's 63-bit int literals;
   multiplication wraps modulo 2^63, which is what we want. *)
let next g =
  g.state <- (g.state + 0x1E3779B97F4A7C15) land max_int;
  let z = g.state in
  let z = (z lxor (z lsr 30)) * 0x1F58476D1CE4E5B9 in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB in
  (z lxor (z lsr 31)) land max_int

let int g bound = if bound <= 0 then 0 else next g mod bound
