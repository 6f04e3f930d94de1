(** The one place where an obligation is keyed, looked up, decided and
    stored.  A session binds a prepared obligation group
    ({!Ilv_core.Verify.prepared_port}) to the persistent {!Proof_cache}
    and, for a long-lived caller, to an in-memory {!memo}:
    {!Engine.run}'s incremental groups check through {!check}, resident
    ones (the daemon's) included, in one lookup→decide→store step:
    memo, then proof cache, then the solver.  Fresh mode is the
    uncached reference and does not use a session
    ({!Ilv_core.Verify.check_property}). *)

open Ilv_core

type memo
(** Definitive verdicts by proof-cache key, in memory: the tier in
    front of the proof cache.  A hit answers with rung ["memo"], no
    cache-hit flag and zero stats — nothing was read or solved. *)

val memo : unit -> memo
(** An empty memo. *)

type t

val create : ?cache:Proof_cache.t -> ?memo:memo -> Verify.prepared_port -> t
(** A session checking against [memo] and [cache], when given.  With a
    cache the generation-0 frame is canonicalized once, and its keys
    and the frame blob stored beside the entries share that one result;
    without one the session keeps only the frame's digest. *)

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
(** Decides one entry; the flag is true for a cache hit.  A memo hit
    answers with rung ["memo"] ({!memo}); a cache hit with the stored
    verdict and rung ["cache"]; a miss decides through
    {!Verify.check_port_instr} (same rung vocabulary) and stores a
    definitive verdict in the session's cache under {!key} together
    with the {e decision-time} frame's canonical CNF and selectors, so {!Proof_cache.validate}
    re-solves to the stored verdict shape.  Verdicts of rungs that are
    not {!Verify.is_cacheable_rung} (the concrete fallback) are not
    stored.  Every definitive verdict, however it was reached, is
    memoized under {!key}.  [design] and [instr] only label the stored
    entry. *)
