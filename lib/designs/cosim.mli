(** Random co-simulation of a design's RTL against its port-ILAs.

    Each cycle, random values are driven into every RTL input; each
    port-ILA receives the command mapped through its interface map and
    steps alongside the RTL.  After every architectural step, the
    refinement map must still relate the ILA state to the RTL state
    (for the states the port owns); a port whose command triggers no
    instruction is re-synchronised from the RTL.  This validates models
    and maps by dynamic execution, independently of the SAT-based
    checker.

    Lockstep applies only when every instruction retires in one cycle:
    every instruction map of every port must finish [After_cycles 1].
    Otherwise (the UART's SEND spans a whole frame, the L2 cache's
    pipeline takes several cycles) the outcome is [Inapplicable], never
    a divergence.

    {!compile} turns the RTL's wires and register nexts, and each port's
    decodes, next-state functions, state map and interface map, into
    straight-line programs ({!Ilv_expr.Eval.compile}) once per (design,
    RTL); {!simulate} then runs them for any number of seeds.  Random
    inputs are drawn in RTL input declaration order, each bitvector bit
    by bit from the least significant, so a seed names one input
    sequence. *)

type outcome =
  | Agree of { cycles : int; steps : int }
      (** steps = architectural steps taken across all ports *)
  | Diverged of { cycle : int; port : string; state : string; detail : string }
  | Inapplicable of string
      (** why lockstep does not apply: an instruction that does not
          retire in one cycle *)

type t
(** A co-simulation compiled for one design and RTL. *)

val inapplicable : Design.t -> Ilv_rtl.Rtl.t -> string option
(** The reason {!simulate} would answer [Inapplicable], if any. *)

val compile : Design.t -> Ilv_rtl.Rtl.t -> t
(** Builds the refinement maps against [rtl] and compiles them with the
    RTL and the port-ILAs.
    @raise Ilv_expr.Eval.Unbound_variable if a state map reads something
    other than a register, or an interface map something other than an
    RTL input. *)

val simulate : ?cycles:int -> seed:int -> t -> outcome
(** [cycles] (default 300) cycles from reset under the inputs of
    [seed]; stops at the first divergence. *)
