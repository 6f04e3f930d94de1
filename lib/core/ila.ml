open Ilv_expr

type state_kind = Output | Internal

type state = {
  state_name : string;
  sort : Sort.t;
  kind : state_kind;
  init : Value.t option;
}

type instruction = {
  instr_name : string;
  parent : string option;
  decode : Expr.t;
  updates : (string * Expr.t) list;
}

type t = {
  name : string;
  inputs : (string * Sort.t) list;
  states : state list;
  instructions : instruction list;
}

exception Invalid_ila of string

let fail fmt = Format.kasprintf (fun s -> raise (Invalid_ila s)) fmt

let state state_name sort ?(kind = Output) ?init () =
  { state_name; sort; kind; init }

let instr instr_name ?parent ~decode ~updates () =
  { instr_name; parent; decode; updates }

module Str_map = Map.Make (String)

let make ~name ~inputs ~states ~instructions =
  let state_sorts =
    List.fold_left
      (fun m s -> Str_map.add s.state_name s.sort m)
      Str_map.empty states
  in
  let all_sorts =
    List.fold_left (fun m (n, s) -> Str_map.add n s m) state_sorts inputs
  in
  (* unique names *)
  let seen = Hashtbl.create 32 in
  List.iter
    (fun n ->
      if Hashtbl.mem seen n then fail "%s: duplicate name %s" name n
      else Hashtbl.add seen n ())
    (List.map fst inputs @ List.map (fun s -> s.state_name) states);
  let seen_instr = Hashtbl.create 32 in
  List.iter
    (fun i ->
      if Hashtbl.mem seen_instr i.instr_name then
        fail "%s: duplicate instruction %s" name i.instr_name
      else Hashtbl.add seen_instr i.instr_name ())
    instructions;
  let check_expr context e =
    List.iter
      (fun (v, s) ->
        match Str_map.find_opt v all_sorts with
        | None -> fail "%s: %s references undeclared name %s" name context v
        | Some s' ->
          if not (Sort.equal s s') then
            fail "%s: %s uses %s at sort %a, declared %a" name context v
              Sort.pp s Sort.pp s')
      (Expr.vars e)
  in
  List.iter
    (fun i ->
      let context = "instruction " ^ i.instr_name in
      if not (Sort.is_bool (Expr.sort i.decode)) then
        fail "%s: %s decode is not boolean" name context;
      check_expr (context ^ " decode") i.decode;
      (match i.parent with
      | Some p ->
        if not (Hashtbl.mem seen_instr p) then
          fail "%s: %s has unknown parent %s" name context p
      | None -> ());
      List.iter
        (fun (target, e) ->
          (match Str_map.find_opt target state_sorts with
          | None -> fail "%s: %s updates non-state %s" name context target
          | Some s ->
            if not (Sort.equal s (Expr.sort e)) then
              fail "%s: %s updates %s (%a) with sort %a" name context target
                Sort.pp s Sort.pp (Expr.sort e));
          check_expr (context ^ " update of " ^ target) e)
        i.updates;
      (* no duplicate update targets *)
      let targets = List.map fst i.updates in
      if List.length targets <> List.length (List.sort_uniq compare targets)
      then fail "%s: %s updates a state twice" name context)
    instructions;
  List.iter
    (fun s ->
      match s.init with
      | Some v when not (Sort.equal (Value.sort v) s.sort) ->
        fail "%s: state %s init has wrong sort" name s.state_name
      | Some _ | None -> ())
    states;
  { name; inputs; states; instructions }

let zero_command ~name ~states ~updates =
  make ~name
    ~inputs:[ ("power_on", Sort.Bool) ]
    ~states
    ~instructions:
      [ instr "START" ~decode:(Expr.var "power_on" Sort.Bool) ~updates () ]

let find_state ila n = List.find_opt (fun s -> s.state_name = n) ila.states

let find_instruction ila n =
  List.find_opt (fun i -> i.instr_name = n) ila.instructions

let sub_instructions ila parent_name =
  List.filter (fun i -> i.parent = Some parent_name) ila.instructions

(* An instruction is an atomic unit ("leaf") unless it is a pure
   grouping header: it has sub-instructions and no updates of its own
   (like the decoder's "process").  An instruction with both updates and
   sub-instructions (like the AXI slave's RD_ADDR_COMMIT, whose data
   steps are its sub-instructions) is atomic in its own right. *)
let leaf_instructions ila =
  let group_header i =
    i.updates = [] && sub_instructions ila i.instr_name <> []
  in
  List.filter (fun i -> not (group_header i)) ila.instructions

let next_state_fn ila i =
  List.map
    (fun s ->
      match List.assoc_opt s.state_name i.updates with
      | Some e -> (s.state_name, e)
      | None -> (s.state_name, Expr.var s.state_name s.sort))
    ila.states

let state_bits ila =
  List.fold_left (fun acc s -> acc + Sort.bit_count s.sort) 0 ila.states

let updated_state_names i = List.map fst i.updates

let init_env ila =
  Eval.env_of_list
    (List.map
       (fun s ->
         ( s.state_name,
           match s.init with
           | Some v -> v
           | None -> Value.default_of_sort s.sort ))
       ila.states)

let pp_sketch fmt ila =
  let open Format in
  let names l = String.concat ", " l in
  fprintf fmt "@[<v>%s-ILA@," ila.name;
  fprintf fmt "  W (inputs):        %s@," (names (List.map fst ila.inputs));
  let outs, others =
    List.partition (fun s -> s.kind = Output) ila.states
  in
  fprintf fmt "  S (output states): %s@,"
    (names (List.map (fun s -> s.state_name) outs));
  fprintf fmt "  S (other states):  %s@,"
    (names (List.map (fun s -> s.state_name) others));
  fprintf fmt "  I (instructions):@,";
  List.iter
    (fun i ->
      let tag = match i.parent with Some p -> p ^ " / " | None -> "" in
      fprintf fmt "    %-28s updates: %s@," (tag ^ i.instr_name)
        (names (updated_state_names i)))
    ila.instructions;
  fprintf fmt "@]"
