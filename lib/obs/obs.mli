(** Structured observability for the verification pipeline: events,
    nested spans, monotonic timers and counters, all draining to a
    JSONL trace sink.

    The whole module is a process-global facility deliberately shaped
    like a tracing backend: the CLI calls {!configure} once (from
    [--trace-out] / [--metrics]), libraries emit without knowing
    whether anything listens, and every emission is a no-op costing one
    branch when nothing does.  Guard any field-list construction with
    {!enabled} on hot paths.

    {2 Trace format}

    One JSON object per line.  Common keys: [ts] (seconds since
    {!configure}, monotonic), [pid], [ev] (["event"], ["span_begin"],
    ["span_end"] or ["counter"]) and [name].  Span lines carry [span]
    (the span id) and [parent] (enclosing span id, if any);
    ["span_end"] also carries [dur_s].  Counter lines carry [add] (the
    increment) and [total] (the cumulative value in this process since the last
    {!configure}).
    User fields are flattened into the same object.

    {2 Forked workers}

    The sink's file descriptor is opened in append mode and survives
    {!Unix.fork}: worker processes ({!Ilv_engine.Pool}) inherit it and
    their events land in the same trace, tagged with their own [pid].
    Every line is written and flushed as one buffered chunk, so
    concurrent appenders do not interleave mid-line.  In-memory counters, by contrast, are per-process: the
    [--metrics] summary printed by the parent only aggregates what the
    parent itself emitted, while the trace file sees every process. *)

type value = S of string | I of int | F of float | B of bool
type field = string * value

val configure : ?trace_out:string -> ?metrics:bool -> unit -> unit
(** Opens the JSONL sink at [trace_out] (append; created if missing)
    and/or enables the in-memory metrics aggregation.  Registers an
    [at_exit] hook that flushes the sink and, with [metrics], prints
    the counter summary to stderr.  Each call starts a fresh counter
    session: the in-memory totals restart from zero, so the [total] of
    a ["counter"] line and the [--metrics] summary count only what was
    added since the last [configure].  Calling it again reconfigures. *)

val shutdown : unit -> unit
(** Flushes and closes the sink, prints the metrics summary if enabled,
    and disables everything.  Idempotent; also runs via [at_exit]. *)

val enabled : unit -> bool
(** True when a sink is open or metrics aggregation is on — the guard
    to place before building field lists on hot paths. *)

val now_s : unit -> float
(** Monotonic (never-decreasing) timestamp in seconds.  Backed by the
    wall clock but clamped so a stepped system clock can not make
    spans negative. *)

val allocated_words : unit -> int
(** Words this domain has allocated since it started, minor and major
    heap together (a promoted word counts once), from {!Gc.counters}.
    A span reads it at its start and end for an [alloc_words] field. *)

val event : string -> field list -> unit
(** Emits one ["event"] line under the current span (if any). *)

val span_begin : string -> field list -> int
(** Opens a nested span and returns its id.  Every [span_begin] must be
    matched by {!span_end} in the same process; {!with_span} does the
    pairing for you and is what instrumentation should normally use. *)

val span_end : ?fields:field list -> int -> unit
(** Closes the span, emitting its ["span_end"] line with [dur_s] and
    any extra [fields] (results known only at the end: verdicts,
    escalation levels, backends). *)

val with_span : string -> field list -> (unit -> 'a) -> 'a
(** [with_span name fields f] wraps [f] in a span.  If [f] raises, the
    span is closed with a [raised] field before the exception
    continues. *)

val count : string -> int -> unit
(** Adds to a named monotonic counter (negative increments are
    clamped to 0).  Aggregated in memory for [--metrics] and, when a
    sink is open, also emitted as a ["counter"] line carrying the
    increment and the new per-process total. *)

val counters : unit -> (string * int) list
(** The in-memory counter totals of this process, sorted by name. *)

val pp_metrics : Format.formatter -> unit -> unit
(** Renders {!counters} as the [--metrics] summary block. *)
