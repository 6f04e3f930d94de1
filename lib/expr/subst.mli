(** Substitution of variables by expressions.

    The language has no binders, so substitution is purely structural;
    the result is rebuilt through {!Build}, so it also benefits from
    constant folding (substituting constants partially evaluates). *)

val apply : (string * Expr.t) list -> Expr.t -> Expr.t
(** [apply bindings e] replaces every variable whose name appears in
    [bindings] by its expression.  Variables not mentioned are kept.
    @raise Expr.Sort_error if a binding has the wrong sort. *)

type memo
(** Results of earlier substitutions, reusable by later ones through
    the same map. *)

val memo : unit -> memo
(** An empty memo. *)

val apply_map : ?memo:memo -> Expr.t Map.Make(String).t -> Expr.t -> Expr.t
(** [apply_map m e] is [apply (Map.Make(String).bindings m) e], without
    going through a list.  Every call given the same [~memo] must pass
    the same map: its subterms substituted by earlier calls are then
    reused instead of rebuilt.
    @raise Expr.Sort_error if a binding has the wrong sort. *)

val rename : (string -> string) -> Expr.t -> Expr.t
(** [rename f e] renames every variable [x] to [f x], keeping sorts. *)
