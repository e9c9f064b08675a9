(** The deterministic pseudo-random generator behind {!Gen} and
    {!Simulate}: SplitMix64-style on the 63-bit native int. Quality is
    ample for structural test-case generation and Monte-Carlo
    estimates; what matters is that a seed fixes the stream on every
    platform and at every [--jobs]. *)

type t

val create : salt:int -> int -> t
(** [create ~salt seed]. Each client passes its own constant [salt], so
    the same seed yields independent streams in different modules. *)

val next : t -> int
(** The next non-negative value. *)

val int : t -> int -> int
(** [int g bound] is [next g mod bound] for [bound > 0], and [0]
    (consuming nothing) otherwise. *)
