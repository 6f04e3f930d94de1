(** Instruction-level execution of an ILA.

    Each step: evaluate every leaf (sub-)instruction's decode function
    under the current state and the given command; the triggered
    instruction's next-state function updates the architectural state.
    The paper's operational semantics requires exactly one leaf
    instruction per port to trigger for a deterministic model;
    violations are reported. *)

open Ilv_expr

type t

type step_outcome =
  | Stepped of string  (** the (sub-)instruction that executed *)
  | No_instruction  (** no decode function was true: a model gap *)
  | Ambiguous of string list  (** several decodes true simultaneously *)

val create : Ila.t -> t
val ila : t -> Ila.t

val state : t -> string -> Value.t
(** @raise Not_found for unknown state names. *)

val state_env : t -> Eval.env

val set_state : t -> Eval.env -> unit
(** Overrides the architectural state (used by co-simulation harnesses
    to align the ILA with an implementation state).
    @raise Invalid_argument if a state is missing or ill-sorted. *)

val step : t -> (string * Value.t) list -> step_outcome
(** [step t command] presents one command at the port.  On [Stepped],
    the architectural state has been updated; otherwise it is unchanged.
    @raise Invalid_argument on missing or ill-sorted inputs. *)

val triggered : t -> (string * Value.t) list -> string list
(** Names of all leaf instructions whose decode holds for this command
    in the current state (without stepping). *)
