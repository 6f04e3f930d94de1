open Ilv_expr

type t = {
  loc : int;
  state_bits : int;
  n_inputs : int;
  n_registers : int;
  n_wires : int;
  n_expr_nodes : int;
}

let of_design (d : Rtl.t) =
  (* "RTL Size (LoC)": the design's actual Verilog line count when the
     exporter supports it, else a structural pseudo-LoC *)
  let loc =
    match Verilog.emit d with
    | verilog ->
      String.split_on_char '\n' verilog
      |> List.filter (fun l -> String.trim l <> "")
      |> List.length
    | exception Verilog.Unsupported _ ->
      List.length d.Rtl.inputs
      + List.length d.Rtl.registers
      + List.length d.Rtl.outputs
      + 2
      + List.fold_left
          (fun acc (_, e) -> acc + Pp_expr.line_count e)
          0 d.Rtl.wires
      + List.fold_left
          (fun acc r -> acc + Pp_expr.line_count r.Rtl.next)
          0 d.Rtl.registers
  in
  (* count distinct DAG nodes across the whole design *)
  let seen = Hashtbl.create 256 in
  let count e =
    Expr.fold
      (fun () sub ->
        if not (Hashtbl.mem seen (Expr.id sub)) then
          Hashtbl.add seen (Expr.id sub) ())
      () e
  in
  List.iter (fun (_, e) -> count e) d.Rtl.wires;
  List.iter (fun r -> count r.Rtl.next) d.Rtl.registers;
  {
    loc;
    state_bits = Rtl.state_bits d;
    n_inputs = List.length d.Rtl.inputs;
    n_registers = List.length d.Rtl.registers;
    n_wires = List.length d.Rtl.wires;
    n_expr_nodes = Hashtbl.length seen;
  }
