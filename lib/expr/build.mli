(** Smart constructors: the user-facing way to build expressions.

    Every function performs sort checking (via {!Expr}) plus constant
    folding and cheap algebraic rewrites (identity/absorbing elements,
    [ite] with constant condition, read-over-write forwarding, ...), so
    models written with this module stay small. *)

(** {1 Constants and variables} *)

val tt : Expr.t
val ff : Expr.t
val bool : bool -> Expr.t
val bv : width:int -> int -> Expr.t
val bv_of : Bitvec.t -> Expr.t
val var : string -> Sort.t -> Expr.t
val bool_var : string -> Expr.t
val bv_var : string -> int -> Expr.t
val mem_var : string -> addr_width:int -> data_width:int -> Expr.t
val const_mem : addr_width:int -> default:Bitvec.t -> Expr.t

(** {1 Booleans} *)

val not_ : Expr.t -> Expr.t
val ( &&: ) : Expr.t -> Expr.t -> Expr.t
val ( ||: ) : Expr.t -> Expr.t -> Expr.t
val xor : Expr.t -> Expr.t -> Expr.t
val ( ==>: ) : Expr.t -> Expr.t -> Expr.t
val iff : Expr.t -> Expr.t -> Expr.t
val and_list : Expr.t list -> Expr.t
(** [and_list [] = tt] *)

val or_list : Expr.t list -> Expr.t
(** [or_list [] = ff] *)

(** {1 Polymorphic} *)

val eq : Expr.t -> Expr.t -> Expr.t
val ( ==: ) : Expr.t -> Expr.t -> Expr.t
val neq : Expr.t -> Expr.t -> Expr.t
val ite : Expr.t -> Expr.t -> Expr.t -> Expr.t

(** {1 Bitvectors} *)

val bv_not : Expr.t -> Expr.t
val bv_neg : Expr.t -> Expr.t
val ( +: ) : Expr.t -> Expr.t -> Expr.t
val ( -: ) : Expr.t -> Expr.t -> Expr.t
val ( *: ) : Expr.t -> Expr.t -> Expr.t
val udiv : Expr.t -> Expr.t -> Expr.t
val urem : Expr.t -> Expr.t -> Expr.t
val ( &: ) : Expr.t -> Expr.t -> Expr.t
val ( |: ) : Expr.t -> Expr.t -> Expr.t
val ( ^: ) : Expr.t -> Expr.t -> Expr.t
val shl : Expr.t -> Expr.t -> Expr.t
val lshr : Expr.t -> Expr.t -> Expr.t
val ashr : Expr.t -> Expr.t -> Expr.t
val shli : Expr.t -> int -> Expr.t

val ( <: ) : Expr.t -> Expr.t -> Expr.t
(** Unsigned less-than (signed variants are {!slt}/{!sle}). *)

val ( <=: ) : Expr.t -> Expr.t -> Expr.t
val ( >: ) : Expr.t -> Expr.t -> Expr.t
val ( >=: ) : Expr.t -> Expr.t -> Expr.t
val slt : Expr.t -> Expr.t -> Expr.t
val sle : Expr.t -> Expr.t -> Expr.t

val concat : Expr.t -> Expr.t -> Expr.t
val concat_list : Expr.t list -> Expr.t
(** High part first. @raise Invalid_argument on []. *)

val extract : hi:int -> lo:int -> Expr.t -> Expr.t
val bit : Expr.t -> int -> Expr.t
(** [bit e i] is bit [i] as a [bool] expression. *)

val zext : Expr.t -> int -> Expr.t
val sext : Expr.t -> int -> Expr.t

val eq_int : Expr.t -> int -> Expr.t
(** [eq_int e n] compares a bitvector expression to a constant. *)

val add_int : Expr.t -> int -> Expr.t
val sub_int : Expr.t -> int -> Expr.t

val bool_to_bv : Expr.t -> Expr.t
(** 1-bit vector that is 1 when the boolean is true. *)

val bv_to_bool : Expr.t -> Expr.t
(** True when a bitvector is nonzero. *)

(** {1 Memories} *)

val read : Expr.t -> Expr.t -> Expr.t
val write : Expr.t -> Expr.t -> Expr.t -> Expr.t

(** {1 Combinators} *)

val mux : Expr.t -> (Expr.t * Expr.t) list -> Expr.t
(** [mux default [(c1, v1); (c2, v2); ...]] is a priority mux: the first
    true condition wins, [default] if none holds. *)

val switch : Expr.t -> default:Expr.t -> (int * Expr.t) list -> Expr.t
(** [switch sel ~default cases] compares [sel] to each integer key. *)
