(** Memory abstraction with counterexample-guided refinement (CEGAR).

    Rewrites a group of properties so that no memory-sorted subterm
    survives: each [Sort.Mem] is represented by a bounded {e window}
    of active addresses (syntactic read addresses, one witness
    variable per memory equality, plus refinement constants) with one
    data variable per (base memory, slot).  Reads become window muxes
    with an unconstrained havoc fallback, writes and initializers
    update the window pointwise, and memory equality becomes slot-wise
    equality.

    UNSAT answers on the abstraction are sound proofs for the
    concrete encoding (every concrete model extends canonically to an
    abstract one).  SAT answers are replayed concretely through
    {!Ilv_expr.Eval}; genuine counterexamples yield a trace over the
    {e concrete} property, spurious ones concretize the offending read
    addresses into the window for a re-encode (see {!replay}). *)

open Ilv_expr

(** {1 Abstraction state} *)

type t

val create : ?label:string -> Property.t list -> t option
(** Builds abstraction state for a property group sharing one solver
    frame, or [None] when no property mentions a memory {e worth
    abstracting} (callers then use the concrete encoding unchanged).
    A memory qualifies when its array is larger than the window —
    [2^addr_width > window] — since below that, bit-blasting the whole
    array is both smaller and exact; smaller memories stay concrete in
    the rewritten properties even when a wide one triggers the
    abstraction.  The window admits at most 12 syntactic read
    addresses per memory sort; witness variables and
    refinement constants always ride on top.  The window is global to
    the group — data-slot variables are shared across properties,
    which is what makes the rewritten properties safe to encode into
    one shared context. *)

val property_has_mem : Property.t -> bool

val abstract_properties : t -> Property.t array
(** The rewritten (memory-free) properties for the current window
    generation, index-aligned with the input list.  Re-call after a
    refinement (see {!generation}) to obtain the re-encoded group. *)

val concrete_properties : t -> Property.t array

val generation : t -> int
(** Bumped by every successful refinement; a solver frame built from
    {!abstract_properties} is stale once the generation moves. *)

val refinements : t -> int
(** Total window addresses added by refinement so far. *)

val window_sizes : t -> (string * int) list
(** Current [(sort, slots)] per window, for diagnostics. *)

val replay :
  t ->
  prop_index:int ->
  ob_index:int ->
  (string -> Sort.t -> Value.t) ->
  Checker.verdict option
(** Replays an abstract SAT model concretely.  [Some verdict] is a
    genuine [Failed] carrying a trace over the concrete property.
    [None] means the model was spurious: if {!generation} advanced the
    window was refined and the caller should re-encode and retry;
    otherwise no refinement was possible and the caller should fall
    back to the concrete encoding. *)

val hook : t -> Checker.sat_hook
(** {!replay} packaged as the checker's SAT-model hook. *)

val max_rounds : int
(** The CEGAR refinement ceiling per obligation, enforced by the one
    refinement loop behind both checking modes
    ({!Verify.check_port_instr} and {!Verify.check_property}): each
    round adds at least one concrete address, so it only trips on
    pathological window churn, and the concrete fallback then still
    decides. *)
