(** A worker pool over [Unix.fork].

    The expression language is hash-consed through global tables, so
    sharing live expression values across OCaml domains is unsafe;
    process workers sidestep that entirely.  Each worker inherits the
    parent's full heap (including the job descriptors) at fork time,
    receives job {e indices} over a pipe, and sends back marshalled
    results — so the work items themselves may capture arbitrary
    closures, while results must be plain (closure-free) data.

    Scheduling is dynamic (a worker gets the next unstarted job as soon
    as it finishes its current one) but the {e result order is
    deterministic}: output position [i] always holds the outcome of
    input item [i], regardless of worker count or completion order.

    {2 Supervision}

    Failure isolation distinguishes three classes.  A {e deterministic
    error} — an exception escaping the job function — is caught inside
    the worker and reported as [Crashed] for that job only, with no
    retry: rerunning deterministic code reproduces the error.  A {e
    worker death} (signal, [exit], allocation failure) is classified
    from the [waitpid] status and does not immediately doom its
    in-flight job: the death may be the environment's fault, so the job
    is requeued once after a capped-exponential-backoff cool-down
    ({!backoff_delay}), charged against the bounded respawn budget.  A
    {e second} death under the same job is taken as the job's fault —
    two distinct processes died running it — and quarantines it as
    [Poisoned], carrying the full kill history; it is never handed to a
    third worker, and the rest of the sweep completes normally.  None
    of this perturbs determinism: output position [i] still holds job
    [i]'s outcome for any worker count.

    Worker lifecycle (spawn / dispatch / retire / crash / respawn /
    retry / poisoned) is reported through {!Ilv_obs.Obs} when a trace
    sink is configured, with per-event classification ([how]), kill
    counts, and backoff delays — the raw material of the per-job
    dispositions [ilaverif profile] aggregates. *)

type 'b outcome =
  | Done of 'b
  | Crashed of string  (** the exception message, or how the worker died *)
  | Poisoned of string
      (** quarantined after killing two distinct workers; carries the
          kill history (how each worker died) *)

val backoff_delay : job:int -> attempt:int -> float
(** The retry cool-down, in seconds: capped exponential backoff
    (~50ms doubling to a 500ms cap) plus deterministic jitter of at
    most 25%, derived from [(job, attempt)].  Pure — the schedule is
    reproducible and exposed so tests can pin its bounds. *)

val select_read : ?deadline:float -> Unix.file_descr list -> Unix.file_descr list
(** [select_read ?deadline fds] waits for any of [fds] to become
    readable and returns the readable subset.  [deadline] is an {e
    absolute} Unix-epoch instant: on [EINTR] the remaining wait is
    recomputed from [Unix.gettimeofday ()], so a stream of signals can
    never stretch the effective wait past the deadline (retrying with
    the original {e relative} timeout — the classic bug — restarts the
    clock on every signal).  Without [deadline] the wait is unbounded
    (still [EINTR]-safe); a deadline already in the past degrades to a
    single poll and may return [[]].  Used by the pool's result loop
    and the verification daemon's accept loop. *)

val in_worker : unit -> bool
(** True when called inside a forked worker process.  Fault-injection
    sites use this as a guard so that a "kill this worker" fault can
    never take down the main process (with [jobs <= 1] jobs run
    in-process). *)

val map : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b outcome list
(** [map ~jobs f items] applies [f] to every item on [jobs] parallel
    worker processes and returns the outcomes in input order.  With
    [jobs <= 1] (the default) everything runs in the calling process —
    no fork, identical outcomes.  Results are transported with
    [Marshal] and must not contain closures. *)
