(** A packaged case study: module-ILA specification, golden RTL
    implementation, refinement maps, and (where the paper found one)
    buggy RTL variants reproducing the published bugs. *)

open Ilv_core

type module_class =
  | Single_port
  | Multi_port_independent
  | Multi_port_shared

type bug = {
  bug_label : string;
  bug_description : string;  (** what the paper reported *)
  buggy_rtl : Ilv_rtl.Rtl.t;
}

type t = {
  name : string;
  description : string;
  module_class : module_class;
  ports_before_integration : int;
      (** the paper's "# of ports" numerator (10 for the router) *)
  module_ila : Module_ila.t;
  rtl : Ilv_rtl.Rtl.t;
  refmap_for : Ilv_rtl.Rtl.t -> string -> Refmap.t;
      (** refinement map of a port, against the given RTL (golden or a
          buggy variant — they share the interface) *)
  bugs : bug list;
  coverage_assumptions : string -> Ilv_expr.Expr.t list;
      (** per port: interface assumptions under which the decode
          functions must cover the command space *)
}

val class_to_string : module_class -> string

val variant : t -> string option -> (string * Ilv_rtl.Rtl.t, string) result
(** The name and RTL of the golden design ([None]) or of its bug variant
    with that label, named ["<design> [<label>]"] as in-process runs and
    the daemon label it; an error naming the available labels when the
    design has no such bug. *)

val verify :
  ?stop_at_first_failure:bool ->
  ?only_ports:string list ->
  ?incremental:bool ->
  ?timeout_s:float ->
  ?memory_abstraction:bool ->
  t ->
  Verify.report
(** Verifies the golden RTL against the module-ILA in-process, through
    {!Ilv_engine.Engine.verify}: [stop_at_first_failure] (default true)
    stops at the first failing instruction; [incremental] (default
    true) is its shared-solver mode; [timeout_s] its wall-clock
    deadline (default unlimited), per port in incremental mode and per
    instruction in fresh mode; [memory_abstraction]
    (default false) its CEGAR window encoding for memory-sorted state
    ({!Ilv_core.Mem_abstract}). *)

val verify_buggy :
  ?stop_at_first_failure:bool ->
  ?incremental:bool ->
  ?timeout_s:float ->
  ?memory_abstraction:bool ->
  t ->
  bug ->
  Verify.report
(** Verifies a buggy variant, named as by {!variant} (expected to fail,
    yielding the paper's "Time (bug)" measurement and a counterexample
    trace). *)

val check_invariants : t -> (string * Invariant.result) list
(** Discharges the soundness side condition for every port's
    refinement-map invariants: each set must hold at reset and be
    preserved by every RTL transition ({!Invariant.check_inductive}).
    Returns one result per port that declares invariants. *)
