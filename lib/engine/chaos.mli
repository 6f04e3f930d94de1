(** The chaos harness: seeded fault injection into a real sweep, with
    verdict equality against an undisturbed baseline as the oracle.

    Resilience code that is never exercised is resilience theatre.
    This module runs one catalog sweep three times over the same job
    list:

    + {e baseline} — no cache, no faults: the oracle;
    + {e chaos} — {!Ilv_obs.Inject} armed: workers are SIGKILLed
      mid-job (["pool.kill"]), solver calls return injected [Unknown]s
      (["solver.stall"]), and a cold proof cache fills along the way;
    + {e warm} — a deterministic subset of the cache entries and frame
      blobs written by the chaos sweep is damaged (torn writes and
      bit-rot), then the sweep runs again against the damaged cache.

    The campaign passes iff every verdict of the chaos and warm sweeps
    has the same shape (proved / failed / unknown) as the baseline's,
    and after {!Proof_cache.recover} no corrupt entry or blob remains
    outside the quarantine directory.

    All injection is a pure function of the seed (see
    {!Ilv_obs.Inject}), so a failing campaign replays exactly. *)

type report = {
  designs : string list;
  n_jobs : int;
  kills : int;  (** workers SIGKILLed by the ["pool.kill"] point *)
  stalls : int;  (** solver calls stalled by ["solver.stall"] *)
  corrupted : int;  (** cache entry and blob files deliberately damaged *)
  corrupted_frames : int;  (** of which frame blobs *)
  quarantined : int;  (** files in the cache's quarantine directory *)
  unquarantined_corrupt : int;
      (** corrupt entries and blobs still in the key space after
          {!Proof_cache.recover} — must be 0 *)
  mismatches : string list;
      (** human-readable verdict-shape disagreements vs baseline *)
  baseline_wall_s : float;
  chaos_wall_s : float;
  warm_wall_s : float;
}

val run :
  ?jobs:int ->
  ?seed:int ->
  ?kill_p:float ->
  ?stall_p:float ->
  ?corrupt_p:float ->
  scratch:string ->
  (string * (unit -> Engine.job list)) list ->
  report
(** [run ~scratch suites] executes the three-sweep campaign over the
    concatenation of every suite's jobs (thunks are forced once; ids
    are renumbered into one deterministic sequence).  [scratch] holds
    the campaign's proof cache ([scratch/cache]) and the one-shot
    fault ledger ([scratch/markers]); reusing a scratch directory
    reuses its ledger, so start fresh for a fresh schedule.

    [jobs] (default 2, minimum 2 — kills need forked workers to land
    in) is the worker count for every sweep; [seed] (default 1) fixes
    the fault schedule; [kill_p], [stall_p] and [corrupt_p] are the
    per-site firing probabilities (defaults 0.3 / 0.2 / 0.3); the
    ["cache.corrupt"] point picks entry and blob files alike.  At
    least one cache file is always damaged even if the seed selects
    none.

    The sweeps run in incremental mode: the degradation ladder — the
    recovery path for injected stalls — only guards the shared-frame
    backend. *)

val passed : report -> bool
(** No verdict mismatches and no un-quarantined corrupt entries or
    blobs. *)

val pp_report : Format.formatter -> report -> unit
