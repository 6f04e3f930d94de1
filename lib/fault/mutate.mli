(** A deterministic RTL mutation engine for fault-injection campaigns.

    Mutation adequacy is the empirical defence of the paper's
    completeness claim: if the generated property suite really captures
    every command's effect on every mapped architectural state, then
    realistic single-point faults injected into the RTL must make some
    property fail.  This module enumerates those faults as {e
    well-typed} variants of a design — every mutant goes back through
    {!Ilv_rtl.Rtl.make} and so is a valid design by construction.

    The fault model (one fault per mutant):
    - {e stuck-at-0 / stuck-at-1}: a wire or register-next expression
      tied to all-zeros / all-ones;
    - {e constant corruption}: one bit flipped in an embedded constant
      (lowest and highest bit of each bitvector constant, boolean
      constants negated);
    - {e operator swaps}: [&]↔[|] (boolean and bitwise) and [+]↔[-];
    - {e comparison off-by-one}: [<]↔[<=], signed and unsigned;
    - {e guard negation}: the condition of a multiplexer ([ite])
      inverted;
    - {e reset corruption}: a register's initial value disturbed
      (lowest bit flipped / boolean negated).

    Enumeration order is deterministic (register nexts in declaration
    order, then register resets, then wires in topological order;
    bottom-up within an expression), and {!pick} draws a
    deterministic pseudo-random subset from a seed — campaigns are
    exactly reproducible. *)

open Ilv_expr
open Ilv_rtl

type operator =
  | Stuck_at_0
  | Stuck_at_1
  | Const_bit_flip of int  (** which bit *)
  | And_or_swap
  | Add_sub_swap
  | Cmp_off_by_one
  | Guard_negate
  | Reset_corrupt

type location =
  | Wire of string
  | Reg_next of string
  | Reg_init of string

type mutation = {
  m_id : int;  (** index in the full deterministic enumeration *)
  location : location;
  operator : operator;
  detail : string;  (** rendering of the mutated subexpression *)
}

type mutant = { mutation : mutation; rtl : Rtl.t }

val operator_name : operator -> string
val location_name : location -> string
val describe : mutation -> string

type site
(** One fault, located and described, whose mutant RTL is not built
    yet.  Enumerating sites computes every mutated expression (so the
    identity filter applies) but validates no design; building one
    costs a full {!Rtl.make}. *)

val sites : Rtl.t -> site array
(** Every single-fault site of the design, in deterministic order: the
    [m_id] of each is its index.  Identity mutations (e.g. stuck-at-0 on
    a constant-zero net) are skipped. *)

val site_mutation : site -> mutation

val build : site -> mutant
(** The site's mutant.  Sort preservation is guaranteed because the
    mutant is rebuilt through the checked constructors and re-validated
    by {!Rtl.make}. *)

val pick : seed:int -> max_mutants:int -> 'a array -> 'a list
(** A seeded Fisher–Yates prefix of at most [max_mutants] elements, in
    pick order; the whole array when it has no more.  Deterministic in
    [seed] and the array's length; the array is not modified. *)

val replace : target:Expr.t -> replacement:Expr.t -> Expr.t -> Expr.t
(** [replace ~target ~replacement e] substitutes every occurrence of
    the (hash-consed) node [target] in [e], rebuilding through the
    checked smart constructors.  Exposed for tests and custom fault
    models.
    @raise Expr.Sort_error if the replacement changes the sort. *)
