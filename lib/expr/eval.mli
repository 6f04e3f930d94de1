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

(** {1 Compiled evaluation}

    For expressions evaluated many times over changing values (a
    co-simulation steps the same next-state functions every cycle),
    {!compile} turns them once into a straight-line program over a
    {e frame}: a [Value.t array] whose slots hold the variables and
    every intermediate node.  Running the program costs no environment
    lookup, no memo table and no allocation beyond the values computed.

    A program computes every node reachable from its expressions on each
    {!run}, both branches of an [ite] included; with well-sorted values
    in the variable slots, each result equals {!eval} on the same
    bindings.  Variable sorts are not checked at run time. *)

type layout
(** The slot numbering of one frame.  Several programs may share a
    layout, and so a frame: each allocates its own slots for the nodes
    it computes. *)

val layout : unit -> layout

val slot : layout -> int
(** A fresh slot, e.g. for a variable the caller fills in. *)

val frame : layout -> Value.t array
(** A frame with every slot allocated so far (holding [false]). *)

type program

val compile :
  layout ->
  var:(string -> int) ->
  ?defs:(string -> Expr.t option) ->
  Expr.t list ->
  program * int list
(** [compile layout ~var ~defs es] is a program computing every
    expression of [es], and the slot that holds each one's value after
    {!run}.  A variable [x] reads slot [var x], unless [defs x] is
    [Some d]: then it reads [d]'s value, computed by the same program
    before its first use (an RTL wire, say).  Nodes shared between the
    expressions, and with the definitions, are computed once per run.
    A result slot may be a variable's own slot.
    @raise Unbound_variable (or whatever [var] raises) for a variable
    that [var] cannot place. *)

val run : program -> Value.t array -> unit
(** Runs the program on a frame of its layout, in place. *)
