(** DIMACS CNF import/export.

    The bridge between the built-in solver and external SAT tooling:
    dump any bit-blasted query for cross-checking with another solver,
    or load standard benchmark instances into {!Sat}. *)

type problem = { n_vars : int; clauses : int list list }

val of_bitblast : Bitblast.t -> problem

val to_string : problem -> string
(** Standard DIMACS: a [p cnf V C] header and 0-terminated clauses. *)

val of_string : string -> problem
(** Parses DIMACS text; [c] comment lines and [%]/[0] trailers are
    ignored.
    @raise Invalid_argument on malformed input. *)

val solve : problem -> Sat.result
(** Loads the problem into a fresh solver and decides it. *)
