(** The s-expression dialect shared by pps documents ({!Tree_io}),
    serve request/response frames and journal metas: atoms, quoted
    strings with backslash escapes for the quote and backslash
    characters, and lists. *)

type t = Atom of string | Str of string | List of t list

val max_nesting : int
(** Deepest list nesting {!parse} accepts (200). Every legitimate form
    is a few levels deep; deeper input is rejected as malformed. *)

val parse : string -> (t, string) result
(** Exactly one toplevel form, surrounded by optional whitespace.
    Never raises: malformed input (unbalanced parentheses, an
    unterminated string or escape, trailing data, empty input, nesting
    beyond {!max_nesting}) is [Error message]. Runs in constant OCaml
    stack. *)

val quote : Buffer.t -> string -> unit
(** Append a string as a quoted, escaped {!Str} literal. *)

val add_to_buffer : Buffer.t -> t -> unit
val to_string : t -> string
(** Print in the dialect {!parse} reads: [parse (to_string x) = Ok x]
    for every [x] within the nesting bound whose atoms are non-empty
    and free of whitespace, parentheses and quotes. *)
