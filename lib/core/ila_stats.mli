(** Size metrics for ILA models (the paper's "ILA Model Statistics").

    "ILA Size (LoC)" is the exact line count of the model's textual
    form ({!Ila_text.print}) — the analogue of the ILAng program that
    describes the model. *)

type t = {
  loc : int;
  state_bits : int;
  n_ports : int;
  n_instructions : int;  (** leaf (sub-)instructions over all ports *)
  n_inputs : int;
}

val of_port : Ila.t -> t
val of_module : Module_ila.t -> t
