(** A CDCL SAT solver.

    This is the decision procedure behind the refinement checker (the
    stand-in for the commercial model checker used in the paper).  It
    implements the standard modern architecture: two-watched-literal
    propagation, first-UIP conflict analysis with clause learning,
    VSIDS variable activities with phase saving, Luby restarts and
    activity-based deletion of learnt clauses.

    Clauses live in one growable [int array], MiniSat's region layout
    (Eén & Sörensson 2003): a clause is an offset to a header cell
    (size and the learnt, activation and deleted bits), a cell holding
    the index of its activity in an unboxed [float array], then its
    literals inline.  Reasons, watchers and the clause vectors are
    plain [int]s, so propagation reaches a clause's literals with one
    dependent load and the garbage collector never scans a clause.  A
    deleted clause stays in the arena as garbage; once garbage passes
    a fifth of the arena, the live clauses are copied into a fresh one
    and every reference is relocated.

    Propagation uses the MiniSat 2.2 watcher layout: each literal owns
    one growable [int] vector of interleaved (clause, blocker literal)
    watchers.  The blocker is another literal of the clause; while it
    is true the clause is satisfied and propagation skips it without
    reading the clause.  Propagation compacts the vector it scans in
    place.  Deleting a clause marks the vectors that watch it, and
    learnt-DB reduction and {!simplify} then purge the marked vectors
    only.

    Solving is incremental.  Create a solver, allocate variables, add
    clauses, then call {!solve} (or {!solve_bounded}) as often as
    needed, each time under its own assumption literals; clauses and
    variables may be added and {!simplify} run between calls, and
    learnt clauses carry over.  An obligation is typically guarded by
    an activation literal: its clauses carry the literal's negation,
    it is checked by assuming the literal, and it is retired by adding
    the negation as a unit.  Literals are non-zero integers: [+v] for
    variable [v], [-v] for its negation (DIMACS convention). *)

type t

type result = Sat | Unsat

val create : unit -> t

val frame : unit -> t
(** A frame-only context: a CNF accumulated for export, in a store
    ({!Frame_cnf}) that keeps nothing a search needs (no watchers,
    activities, occurrence vectors or per-variable search state) and
    that grows without copying what it holds.  A unit is not propagated
    when it is added.  {!simplify} runs the store's one CNF pass
    (strengthening to the unit closure, dedup and subsumption, normal
    form; see {!Frame_cnf.simplify}).  {!export_flat} is in normal
    form ({!normalize}), a level-0 conflict showing as the empty
    clause.  The context to build a CNF for export, not to search.
    {!solve} and {!solve_bounded} on it raise [Invalid_argument]. *)

val new_var : t -> int
(** Allocates a fresh variable and returns its (positive) index. *)

val new_selector : t -> int
(** Like {!new_var}, for an activation literal.  On a {!create}
    context the solver keeps an occurrence vector of the clauses that
    mention the variable (guard clauses as they are added, and learnt
    clauses), so that when a unit retires the selector {!simplify}
    reads only that vector to delete what the unit satisfied.  The
    search is the same as with {!new_var}.  On a {!frame} context it is
    {!new_var}. *)

val num_vars : t -> int

val num_clauses : t -> int
(** Clauses added so far (excluding learnt clauses): problem clauses
    plus activation clauses. *)

val num_problem_clauses : t -> int
(** Clauses added without [~activation] — the shared problem frame. *)

val num_activation_clauses : t -> int
(** Clauses added with [~activation:true] — per-obligation guards.
    Reported separately so profiles can show how much of a CNF is the
    shared frame vs. activation plumbing. *)

val add_clause : ?activation:bool -> t -> int list -> unit
(** Adds a clause.  Tautologies are dropped and duplicate literals
    merged.  Adding the empty clause makes the instance trivially
    unsatisfiable.  May be called between {!solve} calls (incremental
    use); doing so invalidates the previous model.  [activation]
    (default false) tags the clause as activation-literal plumbing
    rather than problem structure — it only affects the
    {!num_problem_clauses}/{!num_activation_clauses} split and the
    corresponding observability counters.
    @raise Invalid_argument on a literal whose variable was never
    allocated. *)

val age_activity : t -> unit
(** Decays all accumulated branching activity relative to future
    conflict bumps (by raising the bump increment), so the next query
    of an incremental session branches on what *it* learns rather than
    on what earlier, already-retired queries cared about.  Stale
    ranking survives only as a tie-break.  Cheap (O(1) amortised). *)

val simplify : t -> int
(** Level-0 cleanup between queries; returns the number of clauses
    (problem, activation and learnt) removed, net.  Preserves
    satisfiability and all models; invalidates the previous model like
    {!add_clause} does.  The context kind decides what it does.

    On a {!create} context it is the retire pass: it propagates pending
    level-0 units to fixpoint, then, for each level-0 unit since the
    previous call whose variable is a selector ({!new_selector}),
    deletes the clauses in that selector's occurrence vector that a
    unit satisfies, and releases the vector.  It reads nothing else, so
    its cost is proportional to the retired cones.  It never
    strengthens a clause and never removes duplicate or subsumed ones:
    a clause satisfied by a unit on any other variable, or holding a
    literal false at level 0, stays as it is.  That is sound: conflict
    analysis skips level-0 literals, so learnt clauses hold none, and
    {!add_clause} drops literals false at level 0 from new clauses.

    On a {!frame} context it is the store's one CNF pass
    ({!Frame_cnf.simplify}): strengthening to the unit closure,
    duplicate elimination and subsumption over the stored clauses, and
    normal form.  Near-linear in the size of the CNF. *)

val solve : ?assumptions:int list -> t -> result
(** Decides the conjunction of all added clauses, under the optional
    assumption literals (decided first, MiniSat-style).  [Unsat] with
    assumptions means unsatisfiable {e under those assumptions}.
    Learnt clauses persist across calls, so related queries get
    cheaper. *)

(** {1 Resource-bounded solving}

    A single pathological query can hang an entire verification
    campaign; bounded solving turns that hang into an explicit
    [Unknown] verdict that callers can degrade from gracefully. *)

type limit = {
  max_conflicts : int option;  (** per-call conflict budget *)
  max_wall_s : float option;  (** per-call wall-clock deadline, seconds *)
  deadline_s : float option;
      (** absolute wall-clock deadline (Unix epoch seconds) shared by a
          whole obligation group; unlike [max_wall_s] it does not reset
          per call and is never scaled by {!scale_limit} *)
}

val no_limit : limit
(** All fields [None]: {!solve_bounded} behaves exactly like {!solve}. *)

val limit :
  ?conflicts:int -> ?wall_s:float -> ?deadline_s:float -> unit -> limit

val deadline_sentinel : string
(** ["deadline:"], the marker that opens every {!deadline_reason}. *)

val deadline_reason : float -> string
(** [deadline_reason d]: the timestamped [Unknown] reason of a query or
    group cut off by the absolute deadline [d] (Unix epoch seconds) —
    the one producer of the ["deadline: ..."] reasons that
    {!Ilv_core.Checker.is_deadline_reason} recognizes. *)

val scale_limit : int -> limit -> limit
(** [scale_limit k l] multiplies both per-call bounds by [k] (used by
    callers implementing retry-with-larger-budget escalation).
    [deadline_s] is left untouched: escalation may grow a retry's
    budgets, but the group's wall clock is fixed. *)

type outcome =
  | Result of result
  | Unknown of string
      (** the budget ran out before a verdict; carries the reason
          (which bound was hit) *)

val solve_bounded : ?assumptions:int list -> ?limit:limit -> t -> outcome
(** Like {!solve}, but gives up with [Unknown] once any bound of
    [limit] is exceeded.  Limits are per-call and {e soft}: they are
    checked between propagation rounds, so the solver may overshoot by
    one BCP pass.  After [Unknown] the solver remains usable (learnt
    clauses are kept; a later call with a larger budget resumes
    progress), but no model is available. *)

val value : t -> int -> bool
(** [value s v] is the model value of variable [v] after the most
    recent {!solve} returned [Sat].  Variables untouched by the search
    default to [false].
    @raise Invalid_argument if the last result was not [Sat] or the
    formula changed since. *)

type flat = { n_vars : int; offsets : int array; lits : int array }
(** A CNF in one literal arena: clause [i] is
    [lits.(offsets.(i)) .. lits.(offsets.(i + 1) - 1)], in external
    literal convention, so there are [Array.length offsets - 1]
    clauses and [offsets.(0) = 0]. *)

val export_flat : t -> flat
(** The problem as a {!flat} CNF: the empty clause first after a
    level-0 conflict, then level-0 facts as unit clauses, then the live
    problem and activation clauses, oldest first, as they are stored;
    on a {!frame} context the store's CNF in normal form
    ({!Frame_cnf.export_flat}).  Learnt clauses are not included. *)

val normalize : flat -> flat
(** The CNF in normal form: each clause's literals in increasing order
    with duplicates merged, the clauses in [List.compare Int.compare]
    order (a clause that is a prefix of another first).  Nothing else
    changes: duplicate clauses, tautologies, units and the empty clause
    stay.  A CNF already in normal form, as a {!frame} context exports
    it, is returned as it is, after one linear check that allocates
    nothing. *)

val export : t -> int * int list list
(** {!export_flat} as [(n_vars, clauses)] lists.  Useful for DIMACS
    dumps. *)

val lists_of_flat : flat -> int * int list list
val flat_of_lists : int * int list list -> flat
(** The two views of one CNF; each is the other's inverse. *)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
}

val stats : t -> stats
