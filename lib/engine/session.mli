(** A prepared obligation session ({!Ilv_core.Verify.prepared_port})
    bound to the persistent {!Proof_cache}: the one place where a
    shared-frame obligation is keyed, looked up, decided and stored.
    {!Engine.run}'s groups and the daemon's resident frames both check
    through {!check}; the daemon only puts its in-memory memo in front
    (keyed by {!key}). *)

open Ilv_core

type t

val create : Verify.prepared_port -> t

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
  ?cache:Proof_cache.t ->
  design:string ->
  instr:string ->
  t ->
  string ->
  Checker.verdict * Checker.stats * string * bool
(** Decides one entry; the flag is true for a cache hit.  A hit answers
    with the stored verdict and rung ["cache"]; a miss decides through
    {!Verify.check_port_instr} (same rung vocabulary) and stores a
    definitive verdict under {!key} together with the {e decision-time}
    frame's canonical CNF and selectors, so {!Proof_cache.validate}
    re-solves to the stored verdict shape.  Verdicts of rungs that are
    not {!Verify.is_cacheable_rung} (the concrete fallback) are not
    stored.  [design] and [instr] only label the stored entry. *)
