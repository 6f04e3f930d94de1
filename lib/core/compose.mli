(** Composition of port-ILAs (Section III-C of the paper).

    - {!union} composes ports that are fully independent: the module-ILA
      is just the list of port-ILAs, each accepting and decoding its
      command separately.

    - {!integrate} composes ports that {e share state}.  The integrated
      port's inputs and states are the unions; its instruction set is
      the cross product of the ports' instruction sets, {e taken at the
      sub-instruction level} (the atomic unit), so every interleaving of
      steps is represented.  A combined instruction triggers when all of
      its component instructions trigger: D = ⋀ D_i.

      When several components update the same shared state with
      different expressions, the update conflicts.  The informal
      specification must resolve it (e.g. "an update to 1 has priority",
      or a round-robin arbiter); the [resolve] callback encodes that
      resolution.  A conflict the resolver declines is a
      {e specification gap} and integration fails with the offending
      cases — exactly the paper's gap-flagging behaviour. *)

open Ilv_expr

type writer = {
  port : string;  (** port-ILA name *)
  instr : string;  (** component (sub-)instruction *)
  update : Expr.t;
}

type conflict = {
  state : string;  (** the shared state with clashing updates *)
  combined_instr : string;  (** name of the cross-product instruction *)
  writers : writer list;
}

type gap = conflict
(** An unresolved conflict: a specification gap. *)

type resolver = conflict -> Expr.t option
(** Returns the merged update expression, or [None] to flag a gap. *)

val union : name:string -> Ila.t list -> Module_ila.t
(** The module-ILA of independent ports.
    @raise Module_ila.Not_independent if they share state or inputs. *)

val shared_states : Ila.t -> Ila.t -> string list
(** State names common to both ports (the reason to integrate). *)

val integrate :
  name:string -> ?resolve:resolver -> Ila.t list -> (Ila.t, gap list) result
(** Cross-product integration of two or more port-ILAs.  Shared states
    must agree on sort, kind and initial value; shared inputs on sort.
    Returns the integrated single port-ILA, or the list of
    specification gaps if any conflict is unresolved.
    @raise Ila.Invalid_ila on incompatible shared declarations. *)

val map_instructions : (Ila.instruction -> Ila.instruction) -> Ila.t -> Ila.t
(** Rebuilds an ILA with transformed instructions (revalidated).  Used
    e.g. to weave an arbiter counter's advance into every integrated
    instruction. *)

(** Ready-made resolvers for the specification idioms in the paper. *)
module Resolve : sig
  val priority_value : Value.t -> resolver
  (** "An update to value [v] has higher priority": if some writer
      updates to constant [v], the merged update is [v]; otherwise, if
      all writers agree syntactically, that update; otherwise a gap.
      This is the 8051 memory-interface [mem_wait] rule. *)

  val port_priority : string list -> resolver
  (** The writer whose port appears earliest in the list wins. *)

  val round_robin : counter:Expr.t -> port_index:(string -> int option) -> resolver
  (** Arbiter: writer of port [i] wins when [counter] equals [i]; the
      merged update is the ite-chain over the present writers (the
      lowest-indexed present writer is the default arm).  [counter] is
      an expression over the integrated states (usually a state
      variable); advancing it is the design's job, via
      {!map_instructions}. *)
end
