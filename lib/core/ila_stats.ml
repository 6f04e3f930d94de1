
type t = {
  loc : int;
  state_bits : int;
  n_ports : int;
  n_instructions : int;
  n_inputs : int;
}

let of_port (ila : Ila.t) =
  {
    (* exact line count of the model's textual form (Ila_text) *)
    loc = Ila_text.loc ila;
    state_bits = Ila.state_bits ila;
    n_ports = 1;
    n_instructions = List.length (Ila.leaf_instructions ila);
    n_inputs = List.length ila.Ila.inputs;
  }

let of_module (m : Module_ila.t) =
  (* a state or input shared between ports (read-only sharing) counts
     once toward the architectural footprint *)
  let seen_states = Hashtbl.create 32 in
  let seen_inputs = Hashtbl.create 32 in
  let distinct_state_bits (port : Ila.t) =
    List.fold_left
      (fun acc (st : Ila.state) ->
        if Hashtbl.mem seen_states st.Ila.state_name then acc
        else begin
          Hashtbl.add seen_states st.Ila.state_name ();
          acc + Ilv_expr.Sort.bit_count st.Ila.sort
        end)
      0 port.Ila.states
  in
  let distinct_inputs (port : Ila.t) =
    List.fold_left
      (fun acc (n, _) ->
        if Hashtbl.mem seen_inputs n then acc
        else begin
          Hashtbl.add seen_inputs n ();
          acc + 1
        end)
      0 port.Ila.inputs
  in
  List.fold_left
    (fun acc port ->
      let s = of_port port in
      {
        loc = acc.loc + s.loc;
        state_bits = acc.state_bits + distinct_state_bits port;
        n_ports = acc.n_ports + 1;
        n_instructions = acc.n_instructions + s.n_instructions;
        n_inputs = acc.n_inputs + distinct_inputs port;
      })
    { loc = 0; state_bits = 0; n_ports = 0; n_instructions = 0; n_inputs = 0 }
    m.Module_ila.ports
