(** Big-step evaluation of expressions under a concrete environment. *)

type env
(** Mapping from variable names to values. *)

exception Unbound_variable of string
exception Eval_error of string

val env_empty : env
val env_of_list : (string * Value.t) list -> env
val env_add : string -> Value.t -> env -> env
val env_find : string -> env -> Value.t option
val env_bindings : env -> (string * Value.t) list

val eval : env -> Expr.t -> Value.t
(** Evaluates with memoization over the expression DAG.
    @raise Unbound_variable for a variable missing from [env].
    @raise Eval_error on internal sort violations (should not happen for
    expressions built through {!Expr}/{!Build}). *)

val eval_bool : env -> Expr.t -> bool
val eval_int : env -> Expr.t -> int
