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
    clause that is a prefix of another first.  {!Sat.simplify} and
    {!Sat.export_flat} on a frame context are specified in sat.mli; a
    watched context fed the same clauses holds the same set of clauses
    and facts after either. *)

type flat = { n_vars : int; offsets : int array; lits : int array }

type t

val create : unit -> t
val new_var : t -> int
val num_vars : t -> int
val num_clauses : t -> int
val num_activation_clauses : t -> int

val add_clause : activation:bool -> t -> int list -> unit
(** As {!Sat.add_clause}.
    @raise Invalid_argument on a literal whose variable was never
    allocated. *)

val simplify : subsume:bool -> t -> int
(** As {!Sat.simplify}: returns the number of clauses removed. *)

val export_flat : t -> flat
(** The empty clause after a level-0 conflict, the level-0 facts as
    unit clauses and the stored clauses, together in normal form. *)

val normalize : flat -> flat
(** As {!Sat.normalize}. *)

val redundant : flat -> int list
(** The clauses of a CNF that duplicate elimination and subsumption
    remove, by the rule of {!Sat.simplify}, as indices into
    [offsets] (clause [0] is the oldest).  Literals may come in any
    order within a clause.  Costs nothing on fewer than two clauses. *)
