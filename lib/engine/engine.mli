(** The verification orchestration engine.

    The paper's flow (Fig. 4) discharges one refinement obligation per
    (sub-)instruction, and those obligations are independent by
    construction.  This module turns a sweep — one design, a Table-I
    suite, a mutation campaign — into an explicit {e job list}, then
    discharges it on a {!Pool} of parallel worker processes, consulting
    the persistent {!Proof_cache} before any solving.  Incremental mode
    checks each group through one {!Session} (the shared-frame driver
    of {!Ilv_core.Verify} bound to the cache and memo); fresh mode, the
    uncached reference, decides each job on its own solver through
    {!Ilv_core.Verify.check_property}.

    Determinism: job ids follow {!Ilv_core.Verify.enumerate} order and
    results are returned sorted by id, so the verdicts and their order
    are identical for any worker count (times, of course, vary).
    Failure isolation: a job whose property generation or checking
    raises — or whose worker process dies — yields an ["engine:"]
    [Unknown] verdict for that job only; the sweep continues. *)

open Ilv_core

type job = {
  id : int;  (** position in the deterministic enumeration *)
  design : string;  (** with the bug label or mutant description, if any *)
  port : string;
  instr : string;
  property : Property.t Lazy.t;
      (** forced inside the worker — property generation is part of the
          parallelised work *)
}

val jobs_of :
  ?only_ports:string list ->
  name:string ->
  Module_ila.t ->
  Ilv_rtl.Rtl.t ->
  refmap_for:(string -> Refmap.t) ->
  unit ->
  job list
(** One job per leaf (sub-)instruction, in {!Verify.enumerate} order,
    ids from 0.  To concatenate several designs into one sweep,
    renumber the concatenation ([{ j with id = i }] at position [i]). *)

type result = {
  job_id : int;
  r_design : string;
  r_port : string;
  r_instr : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  time_s : float;  (** wall clock of the whole job, captured once *)
  backend : string;
      (** what produced the verdict: in incremental mode the rung of
          {!Ilv_core.Verify.check_port_instr} (["incremental"],
          ["fresh"], ["degraded"], with a ["+abstract"] or ["+cegarN"]
          suffix under the memory abstraction, or
          ["abstract>concrete"]), ["memo"] ({!resident} runs) or
          ["cache"]; in fresh mode ["sat"], or
          {!Ilv_core.Verify.check_property}'s ["abstract"] rungs; and
          ["error"] or ["poisoned"] (quarantined by pool supervision)
          in either mode *)
  cache_hit : bool;
}

type summary = {
  n_jobs : int;
  n_proved : int;
  n_failed : int;
  n_unknown : int;
  n_errors : int;  (** jobs that errored or whose worker crashed *)
  n_poisoned : int;
      (** jobs quarantined after killing two distinct workers *)
  n_degraded : int;
      (** jobs whose verdict came from a lower rung of the degradation
          ladder (fresh retry or final give-up —
          {!Ilv_core.Verify.is_degraded_rung}); the CEGAR concrete
          fallback is not one *)
  cache_hits : int;
  cache_misses : int;  (** jobs that went to a solver (cache enabled) *)
  fresh_sat_attempts : int;
      (** SAT queries issued by this run — cache and memo hits
          contribute zero *)
  wall_s : float;
  jobs_used : int;
}

type resident
(** State a long-lived caller keeps between runs: one entry per
    obligation group, identified by the jobs' design label, the
    encoding ([memory_abstraction]) and the group's instruction list,
    and one {!Session.memo} in front of the proof cache shared by all
    of them.  A group is {e live} — its {!Session}, with the
    incremental solver and frame — until a run ends with every one of
    its jobs [Proved]/[Failed] and memoized; it is then {e decided}
    and keeps only its jobs' memo keys. *)

val resident : unit -> resident
(** Empty resident state. *)

val resident_groups : resident -> int
(** Groups currently held, live or decided. *)

val resident_decided : resident -> int
(** Groups held as memo keys only (decided). *)

val run :
  ?jobs:int ->
  ?cache:Proof_cache.t ->
  ?resident:resident ->
  ?budget:Checker.budget ->
  ?timeout_s:float ->
  ?incremental:bool ->
  ?memory_abstraction:bool ->
  job list ->
  result list * summary
(** Discharges every job.  [jobs] (default 1) is the worker count —
    [1] runs in-process with no fork.  With [cache], every job first
    computes its proof-cache key; a hit skips solving entirely, a miss
    solves and stores any definitive verdict.  [budget] bounds every
    SAT query as in {!Checker.check}.

    [timeout_s] sets a wall-clock deadline per obligation group — per
    (design, port) group in incremental mode (the clock starts when a
    worker picks the group up, preparation included), per job in fresh
    mode.  When it passes, remaining obligations yield timestamped
    ["deadline: ..."] [Unknown] verdicts instead of hanging the pool.
    Default: unlimited.

    [incremental] (default [true]) groups jobs by (design, port) and
    discharges each group against one shared bit-blasted frame in one
    incremental solver ({!Ilv_core.Verify.prepare_properties}, checked
    through {!Session.check}): workers are persistent — each worker
    forks once, prepares a group's shared context once, and streams the
    group's jobs against it, so learnt clauses transfer between a
    port's obligations.  A frame is frozen ({!Checker.shared_freeze})
    only when the proof cache keys or stores against it.  Cache keys
    hash the shared frame plus the property's activation selectors
    ({!Proof_cache.key_of_shared}).  [incremental:false] is the
    uncached reference: each job is decided on its own solver through
    {!Ilv_core.Verify.check_property}, and the run raises
    [Invalid_argument] when given [cache] or [resident].  Verdicts and
    their order are identical in both modes.

    [memory_abstraction] (default [false]) encodes memory-mentioning
    properties through the {!Ilv_core.Mem_abstract} CEGAR window
    rewrite instead of bit-blasting whole arrays.  Verdicts are
    unchanged (abstract proofs are sound; counterexamples are replayed
    concretely, with a fresh-solver concrete fallback when refinement
    stalls); cache keys gain an ["abstract"] mode tag so the two
    encodings never serve each other's entries; backends carry the
    rungs recording the refinement work (["+cegarN"],
    ["abstract>concrete"]).

    [resident] keeps state across runs (the daemon's): a group's
    session is looked up before one is built and kept afterwards, and
    the memo answers any obligation a previous run decided
    definitively, with backend ["memo"] — not a cache hit, no cache
    miss, no SAT attempt.  A group whose run leaves every job
    definitive and memoized drops its session and keeps only the
    jobs' memo keys ({!Session.memoized_keys}); its next run answers
    every job from the memo by those keys, building no session and
    computing no key, and a decided group the memo no longer answers
    in full is rebuilt.  A group with any [Unknown] or an unkeyable
    job (an encoding error) stays live.  A group whose results
    include a deadline [Unknown] ({!Checker.is_deadline_reason}) is
    dropped, since its session pins the skipped verdicts; the next run
    rebuilds it.  Raises [Invalid_argument] with [jobs > 1]: sessions
    built in forked workers would be lost with them. *)

val verify :
  ?stop_at_first_failure:bool ->
  ?jobs:int ->
  ?cache:Proof_cache.t ->
  ?budget:Checker.budget ->
  ?timeout_s:float ->
  ?incremental:bool ->
  ?memory_abstraction:bool ->
  ?only_ports:string list ->
  name:string ->
  Module_ila.t ->
  Ilv_rtl.Rtl.t ->
  refmap_for:(string -> Refmap.t) ->
  Verify.report * summary
(** The verification driver (Fig. 4): verifies the RTL against each
    (selected) port-ILA by enumerating its obligations ({!jobs_of}),
    discharging them with {!run} and assembling the report.
    [refmap_for] supplies each port's refinement map; an exception it
    or the property generator raises becomes the affected
    instructions' [Unknown] verdict instead of aborting the report.
    Every selected port has a row list, empty when none of its
    instructions was checked.  Each port's time is its group's wall
    clock, preparation included; the total is this call's wall clock.

    [stop_at_first_failure] (default [true]) skips every job after a
    job that [Failed] (an [Unknown] does not stop the run) and cuts the
    report after the first failure in job order, so it is the same for
    any worker count — the paper's "Time (bug)" runs.  In-process,
    groups after the failing one are neither prepared nor solved; a
    worker skips the jobs after a failure it discharged itself, and
    other workers' groups are cut from the report.  The other options
    are {!run}'s. *)

val pp_summary : Format.formatter -> summary -> unit
