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
module Closure = Pak_logic.Closure

module Semantics = struct
  include Pak_logic.Semantics

  (* Compatibility constants for perfbench/, which still calls the
     engine-selection API that no longer exists: there is one
     production evaluator, [eval_vec]. Delete them when perfbench is
     next updated. *)
  let eval_auto = eval_vec
  let current_engine () = ()
  let engine_name () = "vectorized"
end

module Cert = Pak_cert.Cert
module Serve = Pak_serve.Serve
module Journal = Pak_journal.Journal
module Replay = Pak_serve.Replay
module Axioms = Pak_logic.Axioms
module Simplify = Pak_logic.Simplify
module Protocol = Pak_protocol.Protocol
module Network = Pak_protocol.Network

module Systems = struct
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

type constraint_analysis = {
  report : Constr.report;
  expectation : Theorems.expectation_report;
  sufficiency : Theorems.sufficiency_report;
  necessity : Theorems.necessity_report;
  lemma43 : Theorems.lemma43_report;
  kop : Theorems.kop_report;
}

let analyze_constraint ~fact ~agent ~act ~threshold =
  let constr = Constr.make ~agent ~act ~fact ~threshold in
  { report = Constr.report constr;
    expectation = Theorems.expectation_identity fact ~agent ~act;
    sufficiency = Theorems.sufficiency fact ~agent ~act ~p:threshold;
    necessity = Theorems.necessity_exists fact ~agent ~act ~p:threshold;
    lemma43 = Theorems.lemma43 fact ~agent ~act;
    kop = Theorems.kop fact ~agent ~act
  }

let pp_constraint_analysis fmt a =
  Format.fprintf fmt "@[<v>%a@ %a@ %a@ %a@ %a@ %a@]" Constr.pp_report a.report
    Theorems.pp_expectation a.expectation Theorems.pp_sufficiency a.sufficiency
    Theorems.pp_necessity a.necessity Theorems.pp_lemma43 a.lemma43 Theorems.pp_kop a.kop
