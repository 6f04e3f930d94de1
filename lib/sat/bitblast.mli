(** Bit-blasting: lowering word-level expressions to CNF.

    Expressions are translated structurally with Tseitin encoding; a
    gate cache keeps the CNF linear in the expression DAG.  Memories are
    flattened into one word per address (reads become mux trees, writes
    become per-word updates), which is exact for the small memories used
    by the case studies and mirrors how hardware model checkers treat
    embedded RAMs.

    The word-level circuits themselves are shared with the BDD backend
    through {!Circuits}; this module instantiates them over solver
    literals.

    A context accumulates assertions over a shared variable namespace
    (a variable name + sort always maps to the same CNF bits);
    {!check} and {!check_assuming} decide their conjunction,
    incrementally (clauses and learnt facts persist across queries). *)

open Ilv_expr

type t

val max_concrete_addr_width : int
(** Largest [addr_width] the concrete word-array encoding accepts (20).
    Wider memories must be rewritten away by the memory abstraction
    before bit-blasting; {!create}'s variable allocator raises
    [Invalid_argument] past this limit. *)

val create : unit -> t

val frame : unit -> t
(** A context on a frame-only solver ({!Sat.frame}): for encoding a CNF
    to {!simplify} and export ({!cnf}), never to {!check}. *)

val assert_bool : t -> Expr.t -> unit
(** Asserts a boolean expression to be true (permanently).
    @raise Expr.Sort_error if the expression is not boolean. *)

val assert_not : t -> Expr.t -> unit
(** Asserts a boolean expression to be false (permanently). *)

val lit_of : t -> Expr.t -> int
(** The solver literal holding a boolean expression's value (defining
    clauses are added as needed). *)

(** {1 Activation literals}

    The incremental checking scheme (Eén & Sörensson): instead of
    asserting an obligation's constraints permanently, guard them
    behind a fresh {e activation literal} [act] — every constraint [c]
    becomes the clause [¬act ∨ c] — and decide the obligation by
    solving under the assumption [act].  With [act] unassigned or
    false the guarded cone is vacuously satisfiable, so many
    obligations can coexist in one context and learnt clauses about
    the shared problem structure transfer between their queries.
    Asserting [¬act] ({!retire}) permanently deactivates a cone. *)

val fresh_selector : t -> int
(** A fresh activation literal (positive), a {!Sat.new_selector}: its
    retirement is cleaned up from its occurrence vector alone. *)

val guard_bool : t -> act:int -> Expr.t -> unit
(** [guard_bool t ~act e] asserts [act → e] (as an activation clause).
    @raise Expr.Sort_error if the expression is not boolean. *)

val guard_not : t -> act:int -> Expr.t -> unit
(** [guard_not t ~act e] asserts [act → ¬e]. *)

val retire : t -> int -> unit
(** [retire t act] asserts [¬act]: permanently deactivates the cone
    guarded by [act].  Invalidates the current model. *)

type answer =
  | Unsat
  | Sat of (string -> Sort.t -> Value.t)
      (** A model: query a variable by name and sort.  Variables that
          never reached the solver get default (all-zero) values.  The
          closure reads the solver's current model: use it before the
          next [check]/[assert]. *)
  | Unknown of string
      (** the solver's resource budget ran out ({!Sat.limit}); never
          returned when no [limit] is passed *)

val check : ?limit:Sat.limit -> t -> answer
(** Decides the conjunction of all assertions.  May be called
    repeatedly, interleaved with further assertions (incremental use;
    learnt clauses are reused across calls).  With [limit], gives up
    with [Unknown] once a bound is exceeded (the context stays
    usable). *)

val check_assuming : ?limit:Sat.limit -> t -> assumptions:int list -> answer
(** Like {!check}, additionally assuming the given solver literals
    (e.g. {!lit_of} results or activation literals from
    {!fresh_selector}) for this query only — nothing is permanently
    asserted. *)

val age_activity : t -> unit
(** {!Sat.age_activity} on the underlying solver: demote branching
    activity earned by earlier queries to a tie-break. *)

val simplify : t -> int
(** {!Sat.simplify} on the underlying solver; returns the number of
    clauses removed.  On a {!create} context it is the between-query
    cleanup: it sheds the clauses that {!retire} units satisfy, read
    from the retired selectors' occurrence vectors.  On a {!frame}
    context it is the frame store's one CNF pass (strengthening, dedup
    and subsumption, normal form), which changes what {!cnf}
    reports. *)

val cnf : t -> Sat.flat
(** The accumulated CNF ({!Sat.export_flat}), for freezing a frame and
    for DIMACS export. *)

val cnf_size : t -> int * int
(** [(variables, clauses)] created so far. *)

val cnf_split : t -> int * int
(** [(problem, activation)] clause counts — how much of the CNF is
    shared frame vs. per-obligation activation guards. *)

val solver_stats : t -> Sat.stats
