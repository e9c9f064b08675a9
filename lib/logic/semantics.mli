(** Model checking of {!Formula.t} over a pps.

    A formula is evaluated to a {!Pak_pps.Fact.t} — its set of
    satisfying points — given a valuation interpreting atoms at global
    states. Knowledge [K_i] quantifies over the points the agent cannot
    distinguish (same local state, hence by synchrony the same time);
    graded belief [B_i^{⋈q}] compares the agent's posterior degree of
    belief against [q]; the group fixpoints [C_G]/[CB_G^q] are computed
    by finite iteration, which terminates because the lattice of point
    sets is finite. *)

open Pak_pps

type valuation = string -> Gstate.t -> bool
(** [valuation atom state] decides the atom at a global state.
    Unknown atoms should raise or return [false] consistently. *)

val generic_valuation : valuation
(** The label-testing valuation shared by the CLI and the provenance
    layer: atom ["a<i>_<label>"] holds iff agent [i]'s current
    local-state label is [label] (any agent count). [<i>] must be
    decimal digits; every other atom (["a0x1_l"], ["a+1_l"], ...) is
    false. *)

val eval : Tree.t -> valuation:valuation -> Formula.t -> Fact.t
(** The {e recursive} engine: structural recursion with a
    formula-keyed memo. No production path calls it; it is the
    reference oracle that {!eval_vec} is tested against (the
    cross-engine qcheck in [test/test_logic.ml], [tools/fuzz.exe
    --mode eval-vec] and the benchmark's answer oracle). *)

val eval_closure :
  ?pool:Pak_par.Pool.t ->
  ?on_gfp_step:(int -> Fact.t -> unit) ->
  Tree.t ->
  valuation:valuation ->
  Closure.t ->
  int ->
  Fact.t
(** The closure pass behind {!eval_vec}: one packed truth vector
    ({!Pak_pps.Bitset.t} over dense point indices) per entry of the
    closure, filled bottom-up — connectives are bulk bitset operations,
    [K_i]/[E_G] and [B_i^{⋈q}]/[EB_G^q] are per-indistinguishability-cell
    sweeps (sharded on [pool] when given), and the [C_G]/[CB_G^q]
    fixpoints iterate whole vectors. [eval_closure tree ~valuation clo]
    runs the whole pass and returns the fact of the entry at a given
    bit, materialised on demand.

    [on_gfp_step bit x] is called after every fixpoint step of the
    entry at [bit] with the new approximant [x] (the last call of a
    fixpoint repeats its result), so a caller can record the
    approximant sequence without re-evaluating.

    Bumps [semantics.memo_hits]/[_misses] and the
    [semantics.gfp_iters*] counters exactly as {!eval} does on the
    closure's formula (one miss per entry, one hit per hash-consed
    duplicate, one iteration per fixpoint step); the vector work is
    profiled by the [eval_vec.*] and [bitset.*] counters and the
    [semantics.eval_vec.<op>] spans. Charges the points budget one
    whole vector per entry and per fixpoint equality test, and the
    iterations budget one per fixpoint step.
    @raise Invalid_argument on an agent out of range or an empty
    group, as {!eval} does. *)

val eval_vec : ?pool:Pak_par.Pool.t -> Tree.t -> valuation:valuation -> Formula.t -> Fact.t
(** The production evaluator: build the {!Closure} of the formula and
    return the root of {!eval_closure}, under a [semantics.eval_vec]
    span. Extensionally equal to {!eval} — same fact, same raised
    errors, same engine-invariant counters. See [doc/EVALUATION.md]
    for the pipeline spec. *)

val op_tag : Formula.t -> string
(** Label of a formula's top connective (["K"], ["CB"], ["atom"], ...):
    the suffix of the per-operator spans, and the certificate's node
    kind. *)

val satisfies_cmp : Formula.cmp -> Pak_rational.Q.t -> Pak_rational.Q.t -> bool
(** [satisfies_cmp cmp degree threshold] is [degree ⋈ threshold]. *)

(** {1 Queries}

    Each evaluates the formula once with {!eval_vec}. *)

val sat : Tree.t -> valuation:valuation -> Formula.t -> run:int -> time:int -> bool
(** [(T, r, t) ⊨ ϕ]. *)

val valid : Tree.t -> valuation:valuation -> Formula.t -> bool
(** True at every point of the system. *)

val valid_initially : Tree.t -> valuation:valuation -> Formula.t -> bool
(** True at time 0 of every run. *)

val probability : Tree.t -> valuation:valuation -> Formula.t -> Pak_rational.Q.t
(** [µ_T] of the runs whose time-0 point satisfies the formula. For
    formulas whose fact is a fact about runs this is the probability of
    the formula; exposed for reporting. *)
