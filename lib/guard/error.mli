(** The typed error boundary of pak.

    Every untrusted-input boundary ({!Pak_logic.Parser},
    {!Pak_pps.Tree_io}, the protocol compiler, CLI file loading) and
    every budget-enforced engine reports failure as a value of
    {!t}: a {e kind} for dispatch (exit codes, retry policy), a
    human-readable message, and a context trail recording the layers
    the error crossed. Boundaries expose [_result] variants returning
    [('a, Error.t) result]; their raising forms (such as
    {!Pak_logic.Parser.parse}) raise the same value as {!exception-Error}. *)

type kind =
  | Parse  (** malformed textual input: formulas, pps documents *)
  | Invalid_system
      (** structurally well-formed input violating a semantic
          invariant: probabilities not summing to 1, agent indices out
          of range, improper actions, divisions by zero *)
  | Budget_exceeded
      (** a resource budget (points, nodes, limbs, fixpoint
          iterations, deadline) was exhausted — see {!Budget} *)
  | Io  (** the outside world: unreadable files, write failures *)

type t = {
  kind : kind;
  msg : string;  (** human-readable description of the failure *)
  context : string list;
      (** layers crossed, innermost first — e.g.
          [["Tree.Builder.add_child"; "Tree_io.of_string"]] *)
}

val make : kind -> string -> t

val makef : kind -> ('a, Format.formatter, unit, t) format4 -> 'a
(** [makef kind fmt ...] builds the message with a format string. *)

val with_context : string -> t -> t
(** Push a layer name onto the context trail (innermost first). *)

val kind_name : kind -> string
(** ["parse"], ["invalid-system"], ["budget-exceeded"], ["io"]. *)

val to_string : t -> string
(** ["kind: msg (via inner < outer)"] — one line, no newlines. *)

val pp : Format.formatter -> t -> unit

exception Division_by_zero of string
(** The one division-by-zero error of the whole codebase. The payload
    names the operation and operand context
    (["Q.inv: inverse of zero"]). Replaces the historical mix of
    [Stdlib.Division_by_zero] and bare [Invalid_argument] across
    [Q]/[Bigint]/[Bignat] and the measure-conditioning paths. *)

exception Error of t
(** Carrier used by code that must signal a typed error across an
    exception boundary (e.g. budget enforcement deep inside a
    fixpoint). Prefer the [_result] interfaces where available. *)

val of_exn : exn -> t option
(** Classify the exceptions this library owns ({!Division_by_zero},
    {!Error}) plus the stdlib ones every boundary maps the same way
    ([Invalid_argument], [Failure], [Stdlib.Division_by_zero],
    [Sys_error], [Stack_overflow], [Out_of_memory]). [None] for
    anything unrecognized — callers decide whether to re-raise. *)
