(** The store behind {!Sat.frame}: a CNF accumulated for export, never
    searched.

    It keeps what a frame needs and no more: one byte per literal for
    its level-0 value, the level-0 facts, and the clauses in one
    append-only stream of fixed-size chunks, so growing it never copies
    what is already stored.  Level-0 simplification rewrites clauses in
    place.  Duplicate elimination sorts the clauses into normal form
    (below), where equal clauses are adjacent, and subsumption uses
    occurrence lists built once.  The export is that sorted order, so
    the proof cache canonicalizes it without another copy.

    Normal form: each clause lists its literals in strictly increasing
    order, and the clauses are in [List.compare Int.compare] order, a
    clause that is a prefix of another first. *)

type flat = { n_vars : int; offsets : int array; lits : int array }

type t

val create : unit -> t
val new_var : t -> int
val num_vars : t -> int
val num_clauses : t -> int
val num_activation_clauses : t -> int

val add_clause : activation:bool -> t -> int list -> unit
(** As {!Sat.add_clause}: tautologies are dropped, duplicate literals
    merged, literals false at level 0 dropped, and a clause with a true
    literal dropped.  A unit becomes a level-0 fact without being
    propagated; the empty clause latches a level-0 conflict.
    @raise Invalid_argument on a literal whose variable was never
    allocated. *)

val simplify : t -> int
(** The store's one CNF pass, in three stages:
    - strengthening: every clause a fact satisfies is deleted and every
      false literal stripped, the clause shortened in place; a clause
      stripped to one literal becomes a fact and to none a level-0
      conflict; repeated until a round finds no new fact, so the facts
      reach the unit closure of the clauses;
    - dedup and subsumption, over all stored clauses (activation
      clauses included): of clauses with equal literal sets the most
      recently added stays, then every clause that has a strict subset
      of at most 8 literals among the remaining clauses goes.  Which
      clauses go does not depend on the order they are visited in;
    - normal form: the survivors sorted for {!export_flat}.
    Returns the number of stored clauses removed.  Preserves
    satisfiability and all models. *)

val export_flat : t -> flat
(** The empty clause after a level-0 conflict, the level-0 facts as
    unit clauses and the stored clauses, together in normal form. *)

val normalize : flat -> flat
(** As {!Sat.normalize}. *)
