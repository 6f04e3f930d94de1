(** Symbolic unrolling of an RTL design over time.

    Cycle-0 registers and every cycle's inputs become free base
    variables (namespaced ["rtl.<name>@<cycle>"]); wires and later-cycle
    registers become expressions over those.  The refinement checker
    evaluates RTL-side refinement-map expressions "at cycle c" by
    substituting through this unrolling. *)

open Ilv_rtl

open Ilv_expr

type t

val create : Rtl.t -> t

val base_var : string -> int -> string
(** [base_var name cycle] is the namespaced base-variable name. *)

val net : t -> cycle:int -> string -> Expr.t
(** The symbolic value of an input, register or wire at a cycle.
    @raise Not_found for unknown names. *)

val at_cycle : t -> cycle:int -> Expr.t -> Expr.t
(** Substitutes every RTL name in an expression (a refinement-map
    right-hand side) with its symbolic value at the cycle.  Each cycle
    keeps the substitutions it has made, so subterms met again (in a
    later call, or in the next cycle's register updates) are not
    rebuilt. *)

val base_vars_used : t -> (string * Sort.t) list
(** Base variables materialized so far (registers at cycle 0, inputs at
    every unrolled cycle), for model decoding. *)
