(** Instruction-Level Abstractions (ILAs) for general hardware modules.

    An ILA is the five-element tuple ⟨S, W, S₀, D, N⟩ of the paper:
    architectural states [S], inputs [W], initial values [S₀], and per
    instruction a decode function [D_i] (when does this command trigger)
    and a next-state function [N_i] (how the architectural state
    updates).

    Sub-instructions — the atomic, architecturally visible steps of a
    multi-step instruction — are ordinary instructions whose [parent]
    names the instruction they belong to.  Verification and composition
    operate at the sub-instruction level, the atomic unit.

    A module with several command interfaces is modeled as one ILA per
    port (a "port-ILA"); see {!Compose} for forming the module-ILA. *)

open Ilv_expr

type state_kind =
  | Output  (** architectural state visible as an output pin *)
  | Internal  (** persistent but not a pin ("other states") *)

type state = {
  state_name : string;
  sort : Sort.t;
  kind : state_kind;
  init : Value.t option;  (** S₀ entry; all-zeros when [None] *)
}

type instruction = {
  instr_name : string;
  parent : string option;
      (** [Some i] marks this as a sub-instruction of instruction [i] *)
  decode : Expr.t;  (** D_i: boolean over states and inputs *)
  updates : (string * Expr.t) list;
      (** N_i: new value of each updated state, over states and inputs;
          states not listed are unchanged *)
}

type t = {
  name : string;
  inputs : (string * Sort.t) list;  (** W *)
  states : state list;  (** S with S₀ *)
  instructions : instruction list;  (** D and N *)
}

exception Invalid_ila of string

val make :
  name:string ->
  inputs:(string * Sort.t) list ->
  states:state list ->
  instructions:instruction list ->
  t
(** Validates and builds an ILA: unique names; decode functions boolean
    over declared states/inputs; updates target declared states with
    matching sorts; sub-instruction parents exist.
    @raise Invalid_ila when malformed. *)

val state : string -> Sort.t -> ?kind:state_kind -> ?init:Value.t -> unit -> state
(** State declaration helper; [kind] defaults to [Output]. *)

val instr :
  string ->
  ?parent:string ->
  decode:Expr.t ->
  updates:(string * Expr.t) list ->
  unit ->
  instruction

val zero_command :
  name:string -> states:state list -> updates:(string * Expr.t) list -> t
(** A "0"-command-interface module (Sec. III-A3 of the paper): a module
    with no explicit command interface, such as a clock generator or a
    transaction initiator.  It is modeled with a single [START]
    instruction triggered by an implicit [power_on] input, whose
    next-state function [updates] describes the free-running step.
    Verify it under the interface assumption [power_on = true]. *)

(** {1 Observation} *)

val find_state : t -> string -> state option
val find_instruction : t -> string -> instruction option

val sub_instructions : t -> string -> instruction list
(** Sub-instructions of a given instruction, in declaration order. *)

val leaf_instructions : t -> instruction list
(** The atomic units over which composition and verification run: every
    instruction except pure grouping headers (an instruction with
    sub-instructions but no updates of its own, like the decoder's
    [process]).  A parent with updates {e and} sub-instructions is
    itself atomic — the AXI slave's address-commit step, whose data
    beats are its sub-instructions, is the canonical example. *)

val next_state_fn : t -> instruction -> (string * Expr.t) list
(** The complete next-state map of an instruction: every architectural
    state, mapped to its update expression or to itself if unchanged. *)

val state_bits : t -> int
(** Total architectural state bits (the paper's "# of Arch. State Bits"). *)

val updated_state_names : instruction -> string list

val init_env : t -> Eval.env
(** S₀ as an evaluation environment. *)

val pp_sketch : Format.formatter -> t -> unit
(** Renders the ILA in the style of the paper's Figs. 1-3: inputs,
    output states, other states, and the instruction table with updated
    states. *)
