(** Reduced ordered binary decision diagrams (ROBDDs).

    A second decision-procedure backend beside CDCL SAT: canonical
    (equality is physical), which makes validity checks constant-time
    after construction, and closed under boolean quantification — the
    basis of classic symbolic reachability ({!Ilv_core.Reach}).

    Variables are non-negative integers ordered by value (smaller =
    closer to the root).  All operations are memoized in the manager. *)

type man
type t

val manager : unit -> man

val tt : man -> t
val ff : man -> t
val var : man -> int -> t

val equal : t -> t -> bool
(** Physical equality — canonical by construction. *)

val is_tt : t -> bool
val is_ff : t -> bool

val neg : man -> t -> t
val mk_and : man -> t -> t -> t
val mk_or : man -> t -> t -> t
val mk_xor : man -> t -> t -> t
val mk_iff : man -> t -> t -> t
val mk_ite : man -> t -> t -> t -> t

val exists : man -> int list -> t -> t
(** Existential quantification over the listed variables. *)

val forall : man -> int list -> t -> t

val and_exists : man -> int list -> t -> t -> t
(** [and_exists man vars f g = exists man vars (mk_and man f g)], but
    computed in one pass (the relational product at the heart of image
    computation). *)

val rename : man -> (int -> int) -> t -> t
(** Variable renaming.  The mapping must be strictly monotone on the
    variables occurring in the BDD (it preserves the order), which the
    interleaved current/next encoding of {!Ilv_core.Reach} guarantees.
    @raise Invalid_argument if monotonicity is violated. *)

val restrict : man -> int -> bool -> t -> t
(** Cofactor: fix one variable to a constant. *)

val any_sat : t -> (int * bool) list option
(** A satisfying partial assignment ([None] iff the BDD is false). *)

val size : t -> int
(** Distinct nodes reachable from this root (including leaves). *)
