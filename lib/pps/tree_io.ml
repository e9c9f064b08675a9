open Pak_rational
module Error = Pak_guard.Error

exception Malformed of string

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
  | _ -> raise (Malformed (Printf.sprintf "expected (%s ...)" name))

let as_int what = function
  | Sexp.Atom a ->
    (match int_of_string_opt a with
     | Some v -> v
     | None -> raise (Malformed (what ^ ": not an integer")))
  | _ -> raise (Malformed (what ^ ": not an integer"))

let as_string what = function
  | Sexp.Str s -> s
  | _ -> raise (Malformed (what ^ ": not a string"))

let as_q what = function
  | Sexp.Atom a ->
    (try Q.of_string a
     with _ -> raise (Malformed (what ^ ": not a rational")))
  | _ -> raise (Malformed (what ^ ": not a rational"))

let interpret input =
  match Sexp.parse input with
  | Error msg -> raise (Malformed msg)
  | Ok (Sexp.List (Sexp.Atom "pps" :: header :: nodes)) ->
    let n_agents =
      match field "agents" header with
      | [ v ] -> as_int "agents" v
      | _ -> raise (Malformed "(agents n) expected")
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
               | _ -> raise (Malformed "(parent id) expected")
             in
             let prob =
               match field "prob" prob_f with
               | [ v ] -> as_q "prob" v
               | _ -> raise (Malformed "(prob q) expected")
             in
             let acts =
               field "acts" acts_f |> List.map (as_string "acts") |> Array.of_list
             in
             let env =
               match field "env" env_f with
               | [ v ] -> as_string "env" v
               | _ -> raise (Malformed "(env label) expected")
             in
             let locals = field "locals" locals_f |> List.map (as_string "locals") in
             let state = Gstate.make ~env ~locals in
             if parent = -1 then ignore (Tree.Builder.add_initial b ~prob state)
             else ignore (Tree.Builder.add_child b ~parent ~prob ~acts state)
           | _ -> raise (Malformed "node: expected (parent)(prob)(acts)(env)(locals)"))
        | _ -> raise (Malformed "expected (node ...)"))
      nodes;
    Tree.Builder.finalize b
  | Ok _ -> raise (Malformed "expected (pps (agents n) (node ...) ...)")

(* The typed boundary. Lexical/grammatical failures are [Parse];
   well-formed documents violating a tree invariant (bad probabilities,
   duplicate joint actions, wrong arities — historically escaping as
   [Invalid_argument]) are [Invalid_system]; budget errors pass
   through. *)
let of_string_result input =
  (* The context label is part of every diagnostic returned here, so
     it keeps its historical spelling. *)
  let fail e = Result.Error (Error.with_context "Tree_io.of_string" e) in
  match interpret input with
  | tree -> Ok tree
  | exception Malformed msg -> fail (Error.make Error.Parse msg)
  | exception Error.Error e -> fail e
  | exception Invalid_argument msg -> fail (Error.make Error.Invalid_system msg)
  | exception Error.Division_by_zero ctx ->
    fail (Error.make Error.Invalid_system ("division by zero: " ^ ctx))
  | exception Stack_overflow ->
    fail (Error.make Error.Budget_exceeded "stack overflow (document nested too deeply)")
