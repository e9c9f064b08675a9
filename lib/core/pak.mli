(** Probably Approximately Knowing — umbrella API.

    One-stop entry point re-exporting the whole library, plus a
    convenience analysis that runs every theorem checker on a single
    (fact, agent, action) triple at once.

    Layers (bottom-up):
    - {!Error}, {!Budget}, {!Graded}: the guardrails — typed errors,
      resource budgets, and graceful degradation to marked estimates;
    - {!Q}, {!Bignat}, {!Bigint}: exact rational arithmetic;
    - {!Dist}: finite distributions with rational weights;
    - {!Obs}: counters, span timers and trace sinks threaded through
      the checker, measure and constraint engines;
    - {!Pool}, {!Sweep}: Domain-based parallelism — a deterministic
      worker pool and parallel theorem sweeps over generated families;
    - {!Gstate}, {!Tree}, {!Bitset}: purely probabilistic systems;
    - {!Fact}, {!Action}, {!Belief}, {!Independence}, {!Constr},
      {!Theorems}, {!Gen}: the paper's Sections 3–7, executable;
    - {!Formula}, {!Parser}, {!Semantics}: probabilistic epistemic
      logic with a model checker;
    - {!Cert}: evaluation provenance — witness certificates for every
      verdict and an independent certificate checker;
    - {!Serve}: the fault-isolated batch/server front end behind
      [pak serve] — framed requests, budgets, backpressure, caching;
    - {!Protocol}, {!Network}: joint protocols compiled to pps;
    - {!Systems}: every example system of the paper. *)

module Error = Pak_guard.Error
module Budget = Pak_guard.Budget
module Graded = Pak_guard.Graded
module Q = Pak_rational.Q
module Bignat = Pak_rational.Bignat
module Bigint = Pak_rational.Bigint
module Dist = Pak_dist.Dist
module Obs = Pak_obs.Obs
module Pool = Pak_par.Pool
module Bitset = Pak_pps.Bitset
module Gstate = Pak_pps.Gstate
module Tree = Pak_pps.Tree
module Fact = Pak_pps.Fact
module Action = Pak_pps.Action
module Belief = Pak_pps.Belief
module Independence = Pak_pps.Independence
module Constr = Pak_pps.Constr
module Theorems = Pak_pps.Theorems
module Gen = Pak_pps.Gen
module Jeffrey = Pak_pps.Jeffrey
module Aumann = Pak_pps.Aumann
module Appendix = Pak_pps.Appendix
module Reference = Pak_pps.Reference
module Policy = Pak_pps.Policy
module Kripke = Pak_pps.Kripke
module Simulate = Pak_pps.Simulate
module Sweep = Pak_pps.Sweep
module Tree_io = Pak_pps.Tree_io
module Formula = Pak_logic.Formula
module Parser = Pak_logic.Parser

(** {!Pak_logic.Semantics}, plus three constants kept only for
    [perfbench/], which predates the single production evaluator.
    They will be removed; use {!Pak_logic.Semantics.eval_vec}. *)
module Semantics : sig
  include module type of Pak_logic.Semantics

  val eval_auto :
    ?pool:Pak_par.Pool.t -> Pak_pps.Tree.t -> valuation:valuation -> Pak_logic.Formula.t ->
    Pak_pps.Fact.t
  (** [eval_vec]. *)

  val current_engine : unit -> unit
  val engine_name : unit -> string
  (** Always ["vectorized"]. *)
end

module Cert = Pak_cert.Cert
module Serve = Pak_serve.Serve
module Journal = Pak_journal.Journal
module Replay = Pak_serve.Replay
module Axioms = Pak_logic.Axioms
module Simplify = Pak_logic.Simplify
module Protocol = Pak_protocol.Protocol
module Network = Pak_protocol.Network

module Systems : sig
  module Firing_squad = Pak_systems.Firing_squad
  module Figure_one = Pak_systems.Figure_one
  module Threshold_gap = Pak_systems.Threshold_gap
  module Coordinated_attack = Pak_systems.Coordinated_attack
  module Mutex = Pak_systems.Mutex
  module Judge = Pak_systems.Judge
  module Monderer_samet = Pak_systems.Monderer_samet
  module Consensus = Pak_systems.Consensus
  module Aloha = Pak_systems.Aloha
  module Interactive_proof = Pak_systems.Interactive_proof
end

(** Everything the paper says about one probabilistic constraint, in
    one record. *)
type constraint_analysis = {
  report : Constr.report;                        (** Definition 3.2 *)
  expectation : Theorems.expectation_report;     (** Theorem 6.2 *)
  sufficiency : Theorems.sufficiency_report;     (** Theorem 4.2 at the threshold *)
  necessity : Theorems.necessity_report;         (** Lemma 5.1 at the threshold *)
  lemma43 : Theorems.lemma43_report;             (** Lemma 4.3 *)
  kop : Theorems.kop_report;                     (** Lemma F.1 *)
}

val analyze_constraint :
  fact:Fact.t -> agent:int -> act:string -> threshold:Q.t -> constraint_analysis
(** Run every checker on the constraint [µ(fact@act | act) ≥ threshold].
    @raise Action.Not_proper if the action is not proper. *)

val pp_constraint_analysis : Format.formatter -> constraint_analysis -> unit
