(* A tour of the supporting tooling around the core theory:

   - Policy: the Section 8 belief-threshold improvement, derived from
     the original FS protocol rather than re-implemented;
   - Belief.distribution_at_action: Definition 6.1 made inspectable;
   - Aumann: no agreeing to disagree under the common prior of a pps;
   - Simulate: Monte-Carlo cross-check of the exact measures;
   - Tree_io / Kripke: serialization and the extracted S5 frame.

   Run with: dune exec examples/tooling_tour.exe *)

open Pak
module FS = Systems.Firing_squad

let dec q = Q.to_decimal_string q

let () =
  let t = FS.tree FS.Original in
  let fireb = FS.fire_b_fact t in

  (* 1. The distribution of Alice's belief at firing time. *)
  Printf.printf "Distribution of β_A(fire_B)@fire_A (Definition 6.1):\n";
  Printf.printf "%-22s %-14s %-10s\n" "information state" "weight" "belief";
  List.iter
    (fun (key, w, b) ->
      Printf.printf "%-22s %-14s %-10s\n" (Tree.lkey_label key) (Q.to_string w) (dec b))
    (Belief.distribution_at_action fireb ~agent:FS.alice ~act:FS.fire);
  let expected = Belief.expected_at_action fireb ~agent:FS.alice ~act:FS.fire in
  Printf.printf "expectation = %s  (= µ(fire_B@fire_A | fire_A), Theorem 6.2)\n\n" (dec expected);

  (* 2. Section 8 as policy improvement on the ORIGINAL system. *)
  Printf.printf "Belief-threshold frontier (Section 8):\n";
  Printf.printf "%-12s %-22s %-16s\n" "threshold" "µ(ϕ@α | α)" "µ(still fires)";
  List.iter
    (fun (thr, mu, mass) ->
      Printf.printf "%-12s %-22s %-16s\n" (Q.to_string thr) (dec mu) (Q.to_string mass))
    (Policy.frontier fireb ~agent:FS.alice ~act:FS.fire);
  let r = Policy.restrict fireb ~agent:FS.alice ~act:FS.fire ~min_belief:Q.half in
  Printf.printf "skip on 'No' => µ = %s — the paper's 0.99899\n\n"
    (match r.Policy.restricted_mu with Some m -> Q.to_string m | None -> "-");

  (* 3. Aumann: agents with the common prior µ_T cannot agree to
     disagree about fire_B. *)
  let disagreements = Aumann.disagreement_points fireb ~group:[ FS.alice; FS.bob ] in
  let agreements = Aumann.check fireb ~group:[ FS.alice; FS.bob ] in
  Printf.printf
    "Aumann: %d points where belief values are common knowledge, 0 disagreements (%b)\n\n"
    (List.length agreements)
    (disagreements = []);

  (* 4. Monte-Carlo cross-check of the headline number. *)
  let given = Action.runs_performing t ~agent:FS.alice ~act:FS.fire in
  let event = Fact.at_action (FS.phi_both t) ~agent:FS.alice ~act:FS.fire in
  (match Simulate.estimate_cond t ~event ~given ~samples:50_000 ~seed:2026 with
   | Some est ->
     Printf.printf "Simulation: µ(ϕ_both | fire_A) ≈ %s (exact 0.99) from 50k samples\n\n"
       (dec est)
   | None -> ());

  (* 5. Serialization round-trip and the Kripke frame. *)
  let t' = Result.get_ok (Tree_io.of_string_result (Tree_io.to_string t)) in
  Printf.printf "Serialization round-trip: %d runs -> %d runs, total measure %s\n"
    (Tree.n_runs t) (Tree.n_runs t')
    (Q.to_string (Tree.measure t' (Tree.all_runs t')));
  let k = Kripke.of_tree t in
  Printf.printf
    "Kripke frame: %d worlds; S5 for Alice: %b; S5 for Bob: %b; synchronous: %b\n"
    (Kripke.n_worlds k)
    (Kripke.is_equivalence k ~agent:FS.alice)
    (Kripke.is_equivalence k ~agent:FS.bob)
    (Kripke.synchronous k);
  Printf.printf "Alice's information partition has %d cells\n"
    (List.length (Kripke.equivalence_classes k ~agent:FS.alice))
