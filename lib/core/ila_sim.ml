open Ilv_expr

type t = { ila : Ila.t; mutable state : Eval.env }

type step_outcome =
  | Stepped of string
  | No_instruction
  | Ambiguous of string list

let create ila = { ila; state = Ila.init_env ila }
let ila sim = sim.ila

let state sim name =
  match Eval.env_find name sim.state with
  | Some v -> v
  | None -> raise Not_found

let state_env sim = sim.state

let set_state sim env =
  List.iter
    (fun (st : Ila.state) ->
      match Eval.env_find st.Ila.state_name env with
      | None ->
        invalid_arg
          (Printf.sprintf "Ila_sim.set_state: missing state %s"
             st.Ila.state_name)
      | Some v ->
        if not (Sort.equal (Value.sort v) st.Ila.sort) then
          invalid_arg
            (Printf.sprintf "Ila_sim.set_state: state %s has wrong sort"
               st.Ila.state_name))
    sim.ila.Ila.states;
  let filtered =
    List.fold_left
      (fun acc (st : Ila.state) ->
        match Eval.env_find st.Ila.state_name env with
        | Some v -> Eval.env_add st.Ila.state_name v acc
        | None -> acc)
      Eval.env_empty sim.ila.Ila.states
  in
  sim.state <- filtered

let env_with_inputs sim command =
  let env =
    List.fold_left
      (fun env (name, sort) ->
        match List.assoc_opt name command with
        | None ->
          invalid_arg (Printf.sprintf "Ila_sim.step: missing input %s" name)
        | Some v ->
          if not (Sort.equal (Value.sort v) sort) then
            invalid_arg
              (Printf.sprintf "Ila_sim.step: input %s has wrong sort" name)
          else Eval.env_add name v env)
      sim.state sim.ila.Ila.inputs
  in
  List.iter
    (fun (name, _) ->
      if List.assoc_opt name sim.ila.Ila.inputs = None then
        invalid_arg (Printf.sprintf "Ila_sim.step: unknown input %s" name))
    command;
  env

let triggered sim command =
  let env = env_with_inputs sim command in
  List.filter_map
    (fun i ->
      if Eval.eval_bool env i.Ila.decode then Some i.Ila.instr_name else None)
    (Ila.leaf_instructions sim.ila)

let step sim command =
  let env = env_with_inputs sim command in
  let hot =
    List.filter
      (fun i -> Eval.eval_bool env i.Ila.decode)
      (Ila.leaf_instructions sim.ila)
  in
  match hot with
  | [] -> No_instruction
  | [ i ] ->
    let next =
      List.map
        (fun (name, e) -> (name, Eval.eval env e))
        (Ila.next_state_fn sim.ila i)
    in
    sim.state <- Eval.env_of_list next;
    Stepped i.Ila.instr_name
  | several -> Ambiguous (List.map (fun i -> i.Ila.instr_name) several)
