(** Size metrics for RTL designs (the paper's "Design Statistics").

    "RTL Size (LoC)" is the non-empty line count of the design's
    Verilog export ({!Verilog.emit}) — actual Verilog lines, directly
    comparable with the paper's column.  (For designs the exporter
    cannot express, a structural pseudo-LoC is used instead; none of
    the case studies needs the fallback.) *)

type t = {
  loc : int;  (** Verilog line count (see above) *)
  state_bits : int;  (** total register bits *)
  n_inputs : int;
  n_registers : int;
  n_wires : int;
  n_expr_nodes : int;  (** distinct expression DAG nodes in the design *)
}

val of_design : Rtl.t -> t
