open Ilv_expr

type writer = { port : string; instr : string; update : Expr.t }

type conflict = {
  state : string;
  combined_instr : string;
  writers : writer list;
}

type gap = conflict
type resolver = conflict -> Expr.t option

let union ~name ports = Module_ila.make ~name ports

let shared_states (a : Ila.t) (b : Ila.t) =
  List.filter_map
    (fun s ->
      let n = s.Ila.state_name in
      if Ila.find_state b n <> None then Some n else None)
    a.Ila.states

let fail fmt = Format.kasprintf (fun s -> raise (Ila.Invalid_ila s)) fmt

(* Union of declarations, requiring shared names to agree. *)
let merge_inputs name ports =
  List.fold_left
    (fun acc (port : Ila.t) ->
      List.fold_left
        (fun acc (n, sort) ->
          match List.assoc_opt n acc with
          | None -> acc @ [ (n, sort) ]
          | Some sort' ->
            if not (Sort.equal sort sort') then
              fail "%s: shared input %s has conflicting sorts" name n
            else acc)
        acc port.Ila.inputs)
    [] ports

let merge_states name ports =
  List.fold_left
    (fun acc (port : Ila.t) ->
      List.fold_left
        (fun acc (s : Ila.state) ->
          match
            List.find_opt
              (fun (s' : Ila.state) -> s'.Ila.state_name = s.Ila.state_name)
              acc
          with
          | None -> acc @ [ s ]
          | Some s' ->
            if not (Sort.equal s.Ila.sort s'.Ila.sort) then
              fail "%s: shared state %s has conflicting sorts" name
                s.Ila.state_name
            else if s.Ila.kind <> s'.Ila.kind then
              fail "%s: shared state %s has conflicting kinds" name
                s.Ila.state_name
            else begin
              let init_of (x : Ila.state) =
                match x.Ila.init with
                | Some v -> v
                | None -> Value.default_of_sort x.Ila.sort
              in
              if not (Value.equal (init_of s) (init_of s')) then
                fail "%s: shared state %s has conflicting initial values" name
                  s.Ila.state_name
              else acc
            end)
        acc port.Ila.states)
    [] ports

(* Cartesian product of the ports' leaf instruction lists. *)
let tuples ports =
  List.fold_left
    (fun acc (port : Ila.t) ->
      let leaves = Ila.leaf_instructions port in
      List.concat_map
        (fun prefix ->
          List.map (fun i -> prefix @ [ (port.Ila.name, i) ]) leaves)
        acc)
    [ [] ] ports

let integrate ~name ?(resolve = fun _ -> None) ports =
  if List.length ports < 2 then
    invalid_arg "Compose.integrate: need at least two ports";
  let inputs = merge_inputs name ports in
  let states = merge_states name ports in
  let gaps = ref [] in
  let instructions =
    List.map
      (fun tuple ->
        let combined_name =
          String.concat " & "
            (List.map (fun (_, (i : Ila.instruction)) -> i.Ila.instr_name) tuple)
        in
        let decode =
          Build.and_list
            (List.map (fun (_, (i : Ila.instruction)) -> i.Ila.decode) tuple)
        in
        (* group updates by target state, in first-writer order *)
        let updates = ref [] in
        List.iter
          (fun (port, (i : Ila.instruction)) ->
            List.iter
              (fun (target, e) ->
                let w = { port; instr = i.Ila.instr_name; update = e } in
                match List.assoc_opt target !updates with
                | None -> updates := !updates @ [ (target, [ w ]) ]
                | Some _ ->
                  updates :=
                    List.map
                      (fun (t, l) ->
                        if t = target then (t, l @ [ w ]) else (t, l))
                      !updates)
              i.Ila.updates)
          tuple;
        let merged =
          List.map
            (fun (target, writers) ->
              match writers with
              | [] -> assert false
              | [ w ] -> (target, w.update)
              | w :: rest ->
                if List.for_all (fun w' -> Expr.equal w'.update w.update) rest
                then (target, w.update)
                else begin
                  let c =
                    { state = target; combined_instr = combined_name; writers }
                  in
                  match resolve c with
                  | Some e -> (target, e)
                  | None ->
                    gaps := c :: !gaps;
                    (target, w.update) (* placeholder; result is Error *)
                end)
            !updates
        in
        Ila.instr combined_name ~decode ~updates:merged ())
      (tuples ports)
  in
  if !gaps <> [] then Error (List.rev !gaps)
  else Ok (Ila.make ~name ~inputs ~states ~instructions)

let map_instructions f (ila : Ila.t) =
  Ila.make ~name:ila.Ila.name ~inputs:ila.Ila.inputs ~states:ila.Ila.states
    ~instructions:(List.map f ila.Ila.instructions)

module Resolve = struct
  let priority_value v c =
    let const_equals w =
      match (v, Expr.node w.update) with
      | Value.V_bv bv, Expr.Bv_const bv' -> Bitvec.equal bv bv'
      | Value.V_bool b, Expr.Bool_const b' -> b = b'
      | (Value.V_bool _ | Value.V_bv _ | Value.V_mem _), _ -> false
    in
    match List.find_opt const_equals c.writers with
    | Some w -> Some w.update
    | None -> (
      match c.writers with
      | w :: rest
        when List.for_all (fun w' -> Expr.equal w'.update w.update) rest ->
        Some w.update
      | _ -> None)

  let port_priority order c =
    let rank w =
      let rec go i = function
        | [] -> max_int
        | p :: rest -> if p = w.port then i else go (i + 1) rest
      in
      go 0 order
    in
    match c.writers with
    | [] -> None
    | w :: rest ->
      let best =
        List.fold_left (fun b w' -> if rank w' < rank b then w' else b) w rest
      in
      if rank best = max_int then None else Some best.update

  let round_robin ~counter ~port_index c =
    let indexed =
      List.filter_map
        (fun w ->
          match port_index w.port with
          | Some i -> Some (i, w)
          | None -> None)
        c.writers
    in
    if List.length indexed <> List.length c.writers then None
    else begin
      let sorted = List.sort (fun (i, _) (j, _) -> compare i j) indexed in
      match sorted with
      | [] -> None
      | (_, first) :: rest ->
        Some
          (List.fold_left
             (fun acc (i, w) ->
               Build.ite (Build.eq_int counter i) w.update acc)
             first.update rest)
    end
end
