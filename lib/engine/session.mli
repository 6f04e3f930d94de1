(** The one place where an obligation is keyed, looked up in the
    persistent {!Proof_cache}, decided and stored — in both solving
    modes.  A shared-frame session binds a prepared obligation group
    ({!Ilv_core.Verify.prepared_port}) to the cache: {!Engine.run}'s
    groups and the daemon's resident frames both check through
    {!check}; the daemon only puts its in-memory memo in front (keyed
    by {!key}).  Fresh mode checks one property on its own solver
    through {!check_property}.  Both go through the same
    lookup→decide→store step. *)

open Ilv_core

type t

val create : ?cache:Proof_cache.t -> Verify.prepared_port -> t
(** A session checking against [cache], when given.  With a cache the
    generation-0 frame is canonicalized once, and its keys and the
    frame blob stored beside the entries share that one result; without
    one the session keeps only the frame's digest. *)

val prepared : t -> Verify.prepared_port

val key : t -> string -> string option
(** The proof-cache key of one entry ({!Proof_cache.key_of_shared}),
    taken from the {e generation-0} frozen frame
    ({!Verify.key_frame}) with the ["abstract"] mode tag under the
    memory abstraction — deterministic however CEGAR refinement
    unfolds.  The frame digest is computed once per session.  [None]
    for an entry that cannot be keyed (generation or encoding
    failed). *)

val check :
  ?budget:Checker.budget ->
  design:string ->
  instr:string ->
  t ->
  string ->
  Checker.verdict * Checker.stats * string * bool
(** Decides one entry; the flag is true for a cache hit.  A hit answers
    with the stored verdict and rung ["cache"]; a miss decides through
    {!Verify.check_port_instr} (same rung vocabulary) and stores a
    definitive verdict in the session's cache under {!key} together
    with the {e decision-time} frame's canonical CNF and selectors, so {!Proof_cache.validate}
    re-solves to the stored verdict shape.  Verdicts of rungs that are
    not {!Verify.is_cacheable_rung} (the concrete fallback) are not
    stored.  [design] and [instr] only label the stored entry. *)

val check_property :
  ?budget:Checker.budget ->
  ?cache:Proof_cache.t ->
  memory_abstraction:bool ->
  design:string ->
  instr:string ->
  Property.t ->
  Checker.verdict * Checker.stats * string * bool
(** {!check} for one property on its own solver (fresh mode), with the
    same result shape.  The key ({!Proof_cache.key_of_cnf}) is taken
    from the generation-0 encoding before any solving: the concrete
    {!Checker.prepare}, or — when [memory_abstraction] rewrites the
    property — the first abstract property with the ["abstract"] mode
    tag.  A miss decides the concrete property with
    {!Checker.check_prepared} on the keyed context (rung ["sat"]) or
    through {!Verify.check_property}.  Concrete definitive verdicts are
    always stored; abstract ones only from the rung that is exactly
    ["abstract"], since only generation 0's stored CNF re-solves to the
    stored verdict shape. *)
