open Ilv_core

type module_class =
  | Single_port
  | Multi_port_independent
  | Multi_port_shared

type bug = {
  bug_label : string;
  bug_description : string;
  buggy_rtl : Ilv_rtl.Rtl.t;
}

type t = {
  name : string;
  description : string;
  module_class : module_class;
  ports_before_integration : int;
  module_ila : Module_ila.t;
  rtl : Ilv_rtl.Rtl.t;
  refmap_for : Ilv_rtl.Rtl.t -> string -> Refmap.t;
  bugs : bug list;
  coverage_assumptions : string -> Ilv_expr.Expr.t list;
}

let class_to_string = function
  | Single_port -> "single port"
  | Multi_port_independent -> "multi-port, no shared states"
  | Multi_port_shared -> "multi-port, shared states"

let verify_rtl ?stop_at_first_failure ?only_ports ?incremental ?timeout_s
    ?memory_abstraction d ~name rtl =
  fst
    (Ilv_engine.Engine.verify ?stop_at_first_failure ?only_ports ?incremental
       ?timeout_s ?memory_abstraction ~name d.module_ila rtl
       ~refmap_for:(d.refmap_for rtl))

let verify ?stop_at_first_failure ?only_ports ?incremental ?timeout_s
    ?memory_abstraction d =
  verify_rtl ?stop_at_first_failure ?only_ports ?incremental ?timeout_s
    ?memory_abstraction d ~name:d.name d.rtl

let check_invariants d =
  List.filter_map
    (fun (port : Ilv_core.Ila.t) ->
      let refmap = d.refmap_for d.rtl port.Ilv_core.Ila.name in
      match refmap.Refmap.invariants with
      | [] -> None
      | invs ->
        Some
          ( port.Ilv_core.Ila.name,
            Invariant.check_inductive ~rtl:d.rtl invs ))
    d.module_ila.Module_ila.ports

let bug_name d bug = d.name ^ " [" ^ bug.bug_label ^ "]"

let variant d = function
  | None -> Ok (d.name, d.rtl)
  | Some label -> (
    match List.find_opt (fun b -> b.bug_label = label) d.bugs with
    | Some b -> Ok (bug_name d b, b.buggy_rtl)
    | None ->
      Error
        (Printf.sprintf "no bug %S in %s (available: %s)" label d.name
           (String.concat ", " (List.map (fun b -> b.bug_label) d.bugs))))

let verify_buggy ?stop_at_first_failure ?incremental ?timeout_s
    ?memory_abstraction d bug =
  verify_rtl ?stop_at_first_failure ?incremental ?timeout_s
    ?memory_abstraction d ~name:(bug_name d bug) bug.buggy_rtl
