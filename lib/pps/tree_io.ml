open Pak_rational
module Error = Pak_guard.Error

exception Parse_error of string

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

let to_string tree =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (Printf.sprintf "(pps (agents %d)\n" (Tree.n_agents tree));
  (* Emit nodes in id order. Initial nodes carry parent -1; every other
     node's incoming edge is found through its parent's children. *)
  let incoming = Hashtbl.create 64 in
  List.iter
    (fun (prob, id) -> Hashtbl.replace incoming id (prob, [||], -1))
    (Tree.initial_nodes tree);
  for id = 0 to Tree.n_nodes tree - 1 do
    List.iter
      (fun (prob, acts, child) -> Hashtbl.replace incoming child (prob, acts, id))
      (Tree.node_children tree id)
  done;
  for id = 0 to Tree.n_nodes tree - 1 do
    let prob, acts, parent =
      match Hashtbl.find_opt incoming id with
      | Some v -> v
      | None -> invalid_arg "Tree_io.to_string: orphan node"
    in
    let state = Tree.node_state tree id in
    Buffer.add_string buf
      (Printf.sprintf "  (node (parent %d) (prob %s) (acts" parent (Q.to_string prob));
    Array.iter
      (fun a ->
        Buffer.add_char buf ' ';
        Sexp.quote buf a)
      acts;
    Buffer.add_string buf ") (env ";
    Sexp.quote buf state.Gstate.env;
    Buffer.add_string buf ") (locals";
    Array.iter
      (fun l ->
        Buffer.add_char buf ' ';
        Sexp.quote buf l)
      state.Gstate.locals;
    Buffer.add_string buf "))\n"
  done;
  Buffer.add_string buf ")\n";
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Document interpretation                                             *)
(* ------------------------------------------------------------------ *)

let field name = function
  | Sexp.List (Sexp.Atom key :: rest) when key = name -> rest
  | _ -> raise (Parse_error (Printf.sprintf "expected (%s ...)" name))

let as_int what = function
  | Sexp.Atom a ->
    (match int_of_string_opt a with
     | Some v -> v
     | None -> raise (Parse_error (what ^ ": not an integer")))
  | _ -> raise (Parse_error (what ^ ": not an integer"))

let as_string what = function
  | Sexp.Str s -> s
  | _ -> raise (Parse_error (what ^ ": not a string"))

let as_q what = function
  | Sexp.Atom a ->
    (try Q.of_string a
     with _ -> raise (Parse_error (what ^ ": not a rational")))
  | _ -> raise (Parse_error (what ^ ": not a rational"))

let interpret input =
  match Sexp.parse input with
  | Error msg -> raise (Parse_error msg)
  | Ok (Sexp.List (Sexp.Atom "pps" :: header :: nodes)) ->
    let n_agents =
      match field "agents" header with
      | [ v ] -> as_int "agents" v
      | _ -> raise (Parse_error "(agents n) expected")
    in
    let b = Tree.Builder.create ~n_agents in
    List.iter
      (fun node ->
        match node with
        | Sexp.List (Sexp.Atom "node" :: fields) ->
          (match fields with
           | [ parent_f; prob_f; acts_f; env_f; locals_f ] ->
             let parent =
               match field "parent" parent_f with
               | [ v ] -> as_int "parent" v
               | _ -> raise (Parse_error "(parent id) expected")
             in
             let prob =
               match field "prob" prob_f with
               | [ v ] -> as_q "prob" v
               | _ -> raise (Parse_error "(prob q) expected")
             in
             let acts =
               field "acts" acts_f |> List.map (as_string "acts") |> Array.of_list
             in
             let env =
               match field "env" env_f with
               | [ v ] -> as_string "env" v
               | _ -> raise (Parse_error "(env label) expected")
             in
             let locals = field "locals" locals_f |> List.map (as_string "locals") in
             let state = Gstate.make ~env ~locals in
             if parent = -1 then ignore (Tree.Builder.add_initial b ~prob state)
             else ignore (Tree.Builder.add_child b ~parent ~prob ~acts state)
           | _ -> raise (Parse_error "node: expected (parent)(prob)(acts)(env)(locals)"))
        | _ -> raise (Parse_error "expected (node ...)"))
      nodes;
    Tree.Builder.finalize b
  | Ok _ -> raise (Parse_error "expected (pps (agents n) (node ...) ...)")

(* The typed boundary. Lexical/grammatical failures are [Parse];
   well-formed documents violating a tree invariant (bad probabilities,
   duplicate joint actions, wrong arities — historically escaping as
   [Invalid_argument]) are [Invalid_system]; budget errors pass
   through. *)
let of_string_result input =
  match interpret input with
  | tree -> Ok tree
  | exception Parse_error msg ->
    Result.Error (Error.with_context "Tree_io.of_string" (Error.make Error.Parse msg))
  | exception Error.Error e -> Result.Error (Error.with_context "Tree_io.of_string" e)
  | exception Invalid_argument msg ->
    Result.Error (Error.with_context "Tree_io.of_string" (Error.make Error.Invalid_system msg))
  | exception Error.Division_by_zero ctx ->
    Result.Error
      (Error.with_context "Tree_io.of_string"
         (Error.make Error.Invalid_system ("division by zero: " ^ ctx)))
  | exception Stack_overflow ->
    Result.Error
      (Error.with_context "Tree_io.of_string"
         (Error.make Error.Budget_exceeded "stack overflow (document nested too deeply)"))

(* Deprecated shim: every failure — including builder-invariant
   violations that used to escape as [Invalid_argument] — surfaces as
   [Parse_error], as the interface always documented callers should
   expect. Budget exhaustion still propagates as the typed error. *)
let of_string input =
  match of_string_result input with
  | Ok tree -> tree
  | Result.Error ({ Error.kind = Error.Budget_exceeded; _ } as e) -> raise (Error.Error e)
  | Result.Error e -> raise (Parse_error (Error.to_string e))
