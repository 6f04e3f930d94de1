(** The persistent verification daemon ([ilaverifd]).

    A long-lived Unix-domain-socket server that keeps the expensive
    state of a verification session resident in one process
    ({!Ilv_engine.Engine.resident}): one prepared obligation group per
    (design or bug variant, port, encoding), an in-memory memo of
    definitive verdicts keyed on the persistent proof cache's shared
    keys ({!Ilv_engine.Proof_cache.key_of_shared}), and the proof cache
    handle.  [verify] and [table] requests are discharged by
    {!Ilv_engine.Engine.run} over that state — the daemon has no
    obligation loop of its own.  Where the fork-per-sweep engine pays
    process setup and cache I/O on every run — which dominates the
    sub-100ms warm path on most designs — the daemon pays preparation
    once and answers repeat obligations from memory.

    {2 Batching and dedup}

    The event loop is single-threaded: each [select] round drains {e
    every} readable connection first, forming one request batch, then
    processes the batch in arrival order.  Identical obligations —
    within one request, across a batch, or across the daemon's lifetime
    — hit the memo after the first solve, so two clients submitting the
    same work observe exactly one solve (the ["memo"] rung, the
    ["dedup"] flag and the ["daemon.dedup_hits"] counter make this
    observable).

    {2 Resilience}

    The resilience machinery applies {e per request}, never per
    process: deadlines are stamped per obligation group from the
    request's (or daemon's) [timeout_s], and a group that hit one is
    dropped from the resident state so the next request rebuilds it;
    stuck incremental queries descend the degradation ladder; an
    exception while generating or checking an obligation is that row's
    labelled [Unknown] (Engine's per-job containment), and any other
    exception a request provokes is answered as an error reply on that
    one connection.  A poisoned job can cost its client an [Unknown];
    it cannot take the daemon down.  Client disconnects mid-job drop
    the undeliverable reply and keep all resident state.

    See [docs/DAEMON.md] for the wire protocol and operational
    guidance. *)

val serve :
  ?cache:Ilv_engine.Proof_cache.t ->
  ?timeout_s:float ->
  ?max_frame:int ->
  socket:string ->
  unit ->
  unit
(** Binds [socket] (an existing socket file is replaced), serves until
    a [stop] request — or until a [drain] request followed by the last
    client disconnecting — then removes the socket file and returns.
    [timeout_s] is the default per-obligation-group deadline applied to
    requests that do not carry their own; [max_frame] (default
    {!Protocol.default_max_frame}) bounds accepted frames.  [SIGPIPE]
    is ignored for the duration (vanishing clients must surface as
    [EPIPE] on one write, not kill the process). *)
