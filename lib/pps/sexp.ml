(* The one s-expression reader and printer: request and response
   frames (lib/serve), pps documents (Tree_io) and journal metas all
   go through it. *)

type t = Atom of string | Str of string | List of t list

(* Nesting bound: input is untrusted, and the depth of every
   legitimate form (a request, a pps document, a journal meta) is a
   small constant, so deeply nested input is garbage. Parsing keeps an
   explicit stack, so neither depth nor list length can overflow the
   OCaml stack. *)
let max_nesting = 200

exception Bad of string

let quote buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let rec add_to_buffer buf = function
  | Atom s -> Buffer.add_string buf s
  | Str s -> quote buf s
  | List xs ->
      Buffer.add_char buf '(';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ' ';
          add_to_buffer buf x)
        xs;
      Buffer.add_char buf ')'

let to_string x =
  let buf = Buffer.create 64 in
  add_to_buffer buf x;
  Buffer.contents buf

let is_space c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

(* One left-to-right pass with no token list, so each element costs
   its own block and one cons: [items] holds the innermost open list's
   elements in reverse, [stack] the enclosing lists' [items]. The first
   malformation in reading order is the one reported. *)
let parse input =
  let n = String.length input in
  let i = ref 0 in
  let items = ref [] and stack = ref [] and depth = ref 0 in
  let result = ref None in
  let push v =
    if !depth > 0 then items := v :: !items
    else
      match !result with
      | None -> result := Some v
      | Some _ -> raise (Bad "trailing data after toplevel form")
  in
  try
    while !i < n do
      let c = input.[!i] in
      if is_space c then incr i
      else if c = '(' then begin
        if !depth >= max_nesting then raise (Bad "nesting too deep");
        incr depth;
        stack := !items :: !stack;
        items := [];
        incr i
      end
      else if c = ')' then begin
        (match !stack with
        | [] -> raise (Bad "unbalanced ')'")
        | outer :: rest ->
            let l = List (List.rev !items) in
            decr depth;
            items := outer;
            stack := rest;
            push l);
        incr i
      end
      else if c = '"' then begin
        let buf = Buffer.create 16 in
        incr i;
        let closed = ref false in
        while (not !closed) && !i < n do
          (match input.[!i] with
          | '"' -> closed := true
          | '\\' ->
              if !i + 1 >= n then raise (Bad "dangling escape in string");
              incr i;
              Buffer.add_char buf input.[!i]
          | c -> Buffer.add_char buf c);
          incr i
        done;
        if not !closed then raise (Bad "unterminated string");
        push (Str (Buffer.contents buf))
      end
      else begin
        let start = !i in
        while
          !i < n
          &&
          let c = input.[!i] in
          not (is_space c || c = '(' || c = ')' || c = '"')
        do
          incr i
        done;
        push (Atom (String.sub input start (!i - start)))
      end
    done;
    if !stack <> [] then raise (Bad "unbalanced '('");
    match !result with None -> raise (Bad "empty input") | Some v -> Ok v
  with Bad m -> Result.Error m
