(** Textual serialization of pps trees.

    A tree serializes to a small s-expression document:

    {v
    (pps (agents 2)
      (node (parent -1) (prob 1/2) (acts) (env "e") (locals "a" "b"))
      (node (parent 0) (prob 9/10) (acts "env" "x" "y") (env "e") (locals "a" "c")))
    v}

    Nodes appear in id order (so parents always precede children), with
    [parent -1] marking initial states. Labels are quoted strings with
    ["\\"]-escapes for quotes and backslashes; probabilities are exact
    rationals. Documents are read by {!Sexp}, so they share its syntax
    and its nesting cap with serve frames. Parsing rebuilds the tree through {!Tree.Builder}, so
    every structural invariant is re-validated on load; a parsed tree
    is observationally identical to the original (same runs, measures,
    labels, actions — checked in the test suite). *)

val to_string : Tree.t -> string

val of_string_result : string -> (Tree.t, Pak_guard.Error.t) result
(** The typed boundary for untrusted documents: never raises. Returns
    [Error] with kind [Parse] for malformed text, [Invalid_system] for
    well-formed documents violating a tree invariant (bad
    probabilities, duplicate joint actions, wrong arities — the checks
    {!Tree.Builder} enforces), and [Budget_exceeded] when an installed
    {!Pak_guard.Budget} runs out while building the tree. *)
