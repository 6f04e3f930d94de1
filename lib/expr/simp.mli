(** Word-level simplification beyond {!Build}'s constructor-local rules.

    [simplify] rewrites bottom-up to a fixpoint with a DAG memo, using
    only context-free, always-sound rules:

    - condition-directed [ite] collapsing
      ([ite c a (ite c b d) = ite c a d], [ite (not c) a b = ite c b a]);
    - arithmetic cancellation ([x + y - y = x], [x ^ y ^ y = x]);
    - boolean absorption and complement rules;
    - equality rewrites ([ite c a b == a] given [a != b] constants, ...);
    - width-directed structure rules: equality over concatenations
      splits piecewise, extract distributes over constant-armed [ite]
      and over extends, adjacent slices of one word reassemble, and
      shifts by a constant >= width fold to zero.

    The result is semantically equal to the input on every environment
    (property-tested), usually smaller, and never more than a constant
    factor larger.  The refinement checker applies it to generated
    formulas before bit-blasting; the benchmark's solver-statistics
    section quantifies the CNF reduction. *)

val simplify : Expr.t -> Expr.t

val simplify_fix : Expr.t -> Expr.t
(** Iterates {!simplify} until a fixpoint, at most 4 rounds. *)
