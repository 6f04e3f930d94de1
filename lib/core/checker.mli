(** Discharging generated properties with the SAT backend.

    Each obligation is decided as a separate query: the property holds
    iff [assumptions ∧ guard ∧ ¬goal] is unsatisfiable for every
    obligation.  A satisfying assignment decodes into a counterexample
    trace.

    Checking can be resource-bounded: a {!budget} limits every
    obligation's SAT query, and an exhausted budget is escalated
    (retried with a larger limit) before the obligation — and the
    property — degrades to the explicit {!Unknown} verdict.  This is
    what keeps large campaigns (e.g. mutation testing, {!Ilv_fault})
    free of hangs. *)

type verdict =
  | Proved
  | Failed of Trace.t  (** with the decoded counterexample *)
  | Unknown of string
      (** no verdict within the budget (or a checking error upstream);
          carries the reason *)

type budget = {
  conflicts : int option;  (** initial per-obligation conflict budget *)
  wall_s : float option;  (** initial per-obligation wall clock, seconds *)
  deadline_s : float option;
      (** absolute deadline (Unix epoch seconds) shared by a whole
          obligation group.  Once it passes, remaining obligations are
          reported [Unknown] with a timestamped ["deadline: ..."] reason
          without issuing further solver calls; a query in flight is cut
          off at its next propagation-round check.  Never scaled by
          escalation. *)
  escalations : int;
      (** extra attempts after the first, each with the per-call limits
          ([conflicts], [wall_s]) four times those of the attempt
          before *)
}

val unlimited : budget
(** No bounds: {!check} never returns [Unknown]. *)

val budget :
  ?conflicts:int ->
  ?wall_s:float ->
  ?deadline_s:float ->
  ?escalations:int ->
  unit ->
  budget
(** Default: 2 escalations — so an obligation gets up to three attempts
    at 1x, 4x and 16x the initial limits before giving up.  Learnt clauses persist across attempts, so escalation resumes
    the search rather than restarting it.  A ["deadline: ..."] unknown
    (absolute deadline) is never escalated: the clock that ran out is
    not per-call. *)

val is_unlimited : budget -> bool

val with_deadline : float -> budget -> budget
(** [with_deadline d b] is [b] with the absolute deadline set to [d]
    (Unix epoch seconds) — how callers stamp a per-group wall clock
    onto a shared base budget. *)

val with_timeout : float option -> budget option -> budget option
(** [with_timeout (Some t) b] starts a [t]-second group clock now: [b]
    (or {!unlimited}) with the absolute deadline [now + t].  [None]
    leaves [b] as it is.  How a driver deadlines an obligation group
    when it picks the group up. *)

val deadline_sentinel : string
(** The structured marker (["deadline:"], {!Ilv_sat.Sat.deadline_sentinel})
    stamped onto every unknown an absolute group deadline produces — and
    onto nothing else.  It is
    deliberately distinct from free-form budget prose: a solver- or
    encoder-produced reason that happens to contain ["timeout:"] (e.g.
    a per-call wall-budget message) must never be mistaken for a group
    deadline, which would wrongly suppress escalation and the
    degradation ladder. *)

val is_deadline_reason : string -> bool
(** True when {!deadline_sentinel} — produced when an absolute deadline
    cuts a query or group off — appears anywhere in [r] (encoders may
    wrap it in context).  It tells retry loops (escalation, the
    degradation ladder, pool supervision) not to burn more work against
    a fixed wall clock. *)

val is_spurious_reason : string -> bool
(** True when the reason carries the ["cegar-spurious:"] marker
    (anywhere: reasons get wrapped in context, like the deadline
    sentinel).  It is stamped onto the unknown produced when a SAT-model
    hook rejects an abstract counterexample: the abstraction was refined
    and the encoding the model came from is stale.  The CEGAR driver
    ({!Verify}) catches it, re-encodes and retries; it never surfaces
    as a final verdict.  The degradation ladder short-circuits on it:
    lower rungs would re-solve the same stale abstraction. *)

(** {1 SAT-model hooks (CEGAR)} *)

type sat_hook =
  prop_index:int ->
  ob_index:int ->
  (string -> Ilv_expr.Sort.t -> Ilv_expr.Value.t) ->
  verdict option
(** Interposes on satisfying models before they become [Failed]
    verdicts.  [Some v] is the final verdict for that obligation (a
    genuine counterexample, typically re-traced against a concrete
    property); [None] declares the model spurious — the hook refined
    its abstraction, the current encoding is stale, and checking stops
    with a ["cegar-spurious:"] unknown ({!is_spurious_reason}) for the
    caller to re-encode.
    The model closure reads the live solver assignment: hooks must
    consume it before returning. *)

type stats = {
  time_s : float;
      (** summed wall clock over the obligations actually checked —
          meaningful even when checking stopped early at a failure *)
  obligation_times_s : float list;
      (** per-obligation wall clock, in checking order; shorter than
          [n_obligations] when checking stopped early *)
  n_obligations : int;
  cnf_vars : int;  (** summed over obligations *)
  cnf_clauses : int;
  conflicts : int;
  restarts : int;  (** solver restarts (from {!Ilv_sat.Sat.stats}) *)
  attempts : int;  (** SAT queries issued, counting escalation retries *)
}

val zero_stats : stats
(** All-zero stats, for a verdict no solver produced. *)

val merge_stats : stats -> stats -> stats
(** Accumulates stats across retries/rungs: wall clock, conflicts and
    attempts sum; CNF sizes take the maximum. *)

val check_fresh :
  ?on_sat:(ob_index:int -> (string -> Ilv_expr.Sort.t -> Ilv_expr.Value.t) -> verdict option) ->
  budget:budget ->
  simplify:bool ->
  Property.t ->
  verdict * stats
(** {!check} with exceptions mapped to [Unknown "exception: ..."] — the
    exception-safe single-property retry used by the degradation
    ladder's fresh rung and the CEGAR driver's concrete fallback. *)

val check :
  ?simplify:bool ->
  ?on_sat:(ob_index:int -> (string -> Ilv_expr.Sort.t -> Ilv_expr.Value.t) -> verdict option) ->
  ?budget:budget ->
  Property.t ->
  verdict * stats
(** Checks obligations in order; stops at the first failure.  An
    obligation that exhausts its (escalated) budget yields [Unknown],
    but later obligations are still checked — a definite [Failed] wins
    over [Unknown].  [simplify] (default true) applies the word-level
    simplifier ({!Ilv_expr.Simp}) to every formula before bit-blasting;
    disabling it is only useful for measuring the simplifier's
    effect. *)

val query_cnf : Property.t -> Ilv_sat.Dimacs.problem
(** The whole property as one CNF, for an external solver: the
    assumptions and [⋁ⱼ (guardⱼ ∧ ¬goalⱼ)] over every obligation,
    prepared as {!check} prepares them (specialized, simplified).
    UNSAT iff {!check} proves the property, given an unlimited budget. *)

(** {1 Shared-frame incremental checking}

    All properties of one design are blasted into a {e single}
    incremental context: the per-instruction unrollings share base
    variables ([rtl.<name>@<cycle>]), so hash-consing and the Tseitin
    gate cache encode the common transition-relation frame once.  Each
    obligation's constraints are guarded behind fresh activation
    literals and decided under [Sat.solve ~assumptions] (Eén &
    Sörensson), so learnt clauses about the shared frame transfer
    between obligations and instructions; decided cones are retired by
    unit clauses on their negated activation literals.

    Encoding is lazy per property — with early-stopping callers most
    properties of a failing design are never encoded — and a property
    whose encoding raises poisons only itself (nothing is asserted
    unguarded).  {!shared_freeze} forces everything deterministically,
    which the engine needs for stable cache keys. *)

type shared

val prepare_shared :
  ?label:string -> ?on_sat:sat_hook -> Property.t list -> shared
(** Creates the shared context.  Every formula goes through the
    word-level simplifier.  Between properties the live solver runs
    its retire pass ({!Ilv_sat.Sat.simplify} on a watched context),
    which sheds the retired cones and nothing else; the frame store's
    CNF pass (strengthening, dedup and subsumption) runs only on the
    frozen snapshot ({!shared_freeze}).
    [label] names the frame in observability output (the design, or
    design/port, it belongs to).
    [on_sat] interposes on every satisfying model (see {!sat_hook}); it
    also rides along the degradation ladder's fresh rung. *)

val check_shared : ?budget:budget -> shared -> int -> verdict * stats
(** Decides property [idx]'s obligations in the shared context, with
    the same semantics as {!check} (ordering, early [Failed] stop,
    budget escalation).  Obligations are retired as they are decided;
    results are memoized, so calling twice is safe and returns the
    first verdict.  [stats.conflicts]/[restarts] are per-call deltas of
    the shared solver; [cnf_vars]/[cnf_clauses] report the whole shared
    context. *)

val shared_freeze : shared -> unit
(** Replays the full encoding — every property, in list order — on a
    throwaway frame-only context ({!Ilv_sat.Bitblast.frame}), runs the
    store's CNF pass on it ({!Ilv_sat.Frame_cnf.simplify}), and
    snapshots the CNF
    plus each property's selector lists.  The snapshot is the cache
    address of the frame: built on a pristine context it carries no
    solving residue, and its selector numbering is identical on every
    worker.  The live solver is untouched, so queries keep their lazy
    working set (frame + own cone, never every sibling's).  Idempotent;
    costs one extra encoding pass. *)

val shared_frame : shared -> Ilv_sat.Sat.flat
(** The frozen CNF snapshot (freezes on first use). *)

val shared_cnf : shared -> int * int list list
(** {!shared_frame} as lists. *)

val shared_frame_selectors : shared -> int -> int list list
(** Per obligation of property [idx] (in property order), the
    activation literals of its query in the *frozen* snapshot's
    numbering (freezes on first use) — the selector half of the cache
    key.  Empty for a property whose encoding failed (uncacheable).
    Does not touch the live context. *)

val shared_error : shared -> int -> string option
(** The encoding error of property [idx], if it failed. *)

val check_shared_degrading :
  ?budget:budget -> shared -> int -> verdict * stats * string
(** {!check_shared} wrapped in the degradation ladder: when the
    incremental shared-frame query returns [Unknown], retry once on a
    fresh per-property context ({!check}) under the same budget; when
    that is also [Unknown], give up with
    [Unknown "degraded(incremental->fresh): ..."].  The returned string
    names the rung that produced the verdict (["incremental"],
    ["fresh"] or ["degraded"]).
    Each demotion emits a ["checker.degrade"] {!Ilv_obs.Obs} event and
    bumps the ["checker.degradations"] counter.  A ["deadline: ..."]
    unknown short-circuits the ladder — lower rungs face the same
    absolute deadline.  Stats accumulate across the rungs actually
    run. *)

(** {1 Model decoding helpers}

    Exposed for callers that produce the same [(name -> sort ->
    value)] model shape as {!Ilv_sat.Bitblast} (the memory
    abstraction's concrete replay) and need to decode it into a
    counterexample the same way the checker does. *)

val base_vars :
  Property.t -> Property.obligation -> (string * Ilv_expr.Sort.t) list
(** All base variables of one obligation's query (assumptions, guard,
    goal, and the ILA bindings), sorted by name. *)

val failed_of_model :
  Property.t ->
  Property.obligation ->
  (string -> Ilv_expr.Sort.t -> Ilv_expr.Value.t) ->
  verdict
(** Decodes a satisfying model of [assumptions ∧ guard ∧ ¬goal] into
    the [Failed] verdict with its counterexample trace. *)
