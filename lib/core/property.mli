(** Automatically generated refinement properties.

    One property is generated per leaf (sub-)instruction.  It has the
    shape of the paper's Fig. 5: {e starting from corresponding
    equivalent states, after executing the specified instruction, the
    corresponding states are again equivalent at the finish cycle.}

    A property is a set of closed formulas over base variables
    ([ila.*] for the ILA start state and inputs, [rtl.*@c] for the
    unrolled RTL): assumptions plus one or more obligations.  The
    property holds iff for every obligation, [assumptions ∧ guard ∧
    ¬goal] is unsatisfiable. *)

open Ilv_expr

type obligation = {
  at_cycle : int;
  guard : Expr.t;
      (** e.g. "the finish condition first holds at this cycle" *)
  goal : Expr.t;  (** the architectural equivalence at this cycle *)
  label : string;
}

type display = {
  equal_states : (string * string) list;
  corresponding_inputs : (string * string) list;
  start_condition : string;
  finish_condition : string;
  checked_states : (string * string) list;
}
(** Human-readable pieces, mirroring the coloured regions of Fig. 5. *)

type t = {
  prop_name : string;
  port : string;
  instr : Ila.instruction;
  assumptions : Expr.t list;
  obligations : obligation list;
  n_cycles : int;  (** deepest cycle referenced *)
  ila_bindings : (string * Expr.t) list;
      (** each ILA state/input, as the cycle-0 RTL expression it was
          substituted with — the generator eliminates ILA variables by
          substituting the refinement map (sound and complete, since the
          start-state constraints are pure equalities), which lets the
          bit-blaster share structure between the two sides; these
          bindings let counterexample traces recover the ILA view *)
  display : display;
}

val pp : Format.formatter -> t -> unit
(** Renders the property in the style of the paper's example: assumed
    equivalences and conditions, then the implication to be checked. *)

val specialize : t -> t
(** The property with its literal assumptions folded in.  The literal
    conjuncts [x], [¬x] and [x = c] of the assumptions' [And] trees are
    substituted into every assumption, guard and goal, repeatedly while
    a rewrite exposes a new one, and are asserted again as assumptions
    of their own: for every obligation, [assumptions ∧ guard ∧ ¬goal]
    is the same formula over every variable before and after, so a
    model of one is a model of the other.  A decode function is such a
    conjunction, so the solver starts from the instruction's constants
    instead of rediscovering them.  Obligations keep their order and
    labels; a property with no literal assumption is returned as it
    is. *)
