open Ilv_core

type row = {
  name : string;
  rtl_loc : int;
  rtl_bits : int;
  ports : string;
  insts : int;
  ila_loc : int;
  ila_bits : int;
  refmap_loc : int;
  time_bug_s : float option;
  time_s : float;
  alloc_mb : float;
  proved : bool;
}

let measure
    ?(verify =
      fun d -> function
        | None -> Design.verify d
        | Some bug -> Design.verify_buggy d bug) (d : Design.t) =
  let rtl_stats = Ilv_rtl.Rtl_stats.of_design d.Design.rtl in
  let ila_stats = Ila_stats.of_module d.Design.module_ila in
  let refmap_loc =
    List.fold_left
      (fun acc (port : Ila.t) ->
        acc + Refmap_text.loc (d.Design.refmap_for d.Design.rtl port.Ila.name))
      0 d.Design.module_ila.Module_ila.ports
  in
  let time_bug_s =
    match d.Design.bugs with
    | [] -> None
    | bug :: _ ->
      let report = verify d (Some bug) in
      assert (not (Verify.proved report));
      Some report.Verify.total_time_s
  in
  let alloc0 = Gc.allocated_bytes () in
  let report = verify d None in
  let alloc_mb = (Gc.allocated_bytes () -. alloc0) /. 1_048_576. in
  let ports =
    if
      d.Design.ports_before_integration
      = Module_ila.n_ports d.Design.module_ila
    then string_of_int d.Design.ports_before_integration
    else
      Printf.sprintf "%d/%d" d.Design.ports_before_integration
        (Module_ila.n_ports d.Design.module_ila)
  in
  {
    name = d.Design.name;
    rtl_loc = rtl_stats.Ilv_rtl.Rtl_stats.loc;
    rtl_bits = rtl_stats.Ilv_rtl.Rtl_stats.state_bits;
    ports;
    insts = Module_ila.total_instructions d.Design.module_ila;
    ila_loc = ila_stats.Ila_stats.loc;
    ila_bits = ila_stats.Ila_stats.state_bits;
    refmap_loc;
    time_bug_s;
    time_s = report.Verify.total_time_s;
    alloc_mb;
    proved = Verify.proved report;
  }

let paper =
  [
    ("Decoder", 2636, 30, "1", 5, 479, 30, 53, None, 0.21, 32.9);
    ("AXI Slave", 828, 372, "2", 9, 167, 159, 77, Some 0.01, 0.11, 7.8);
    ("AXI Master", 871, 403, "2", 11, 184, 289, 109, None, 0.23, 9.7);
    ("Datapath", 2987, 273, "2", 20, 861, 229, 119, None, 176., 2830.);
    ("L2 Cache", 10924, 2844, "2", 8, 596, 340, 272, Some 0.7, 1214., 2270.);
    ("Mem. Interface", 1096, 304, "3/2", 12, 342, 220, 86, None, 0.74, 44.4);
    ("Store Buffer", 399, 93, "3/2", 6, 148, 45, 47, Some 0.6, 78., 243.);
    ("NoC Router", 5495, 1522, "10/2", 64, 394, 465, 198, None, 691., 3920.);
  ]

let header fmt last =
  Format.fprintf fmt "%-26s %8s %9s %6s %6s %8s %9s %8s %10s %10s %10s %s@."
    "Design" "RTL-LoC" "RTL-bits" "ports" "insts" "ILA-LoC" "ILA-bits"
    "map-LoC" "t(bug) s" "time s" last "";
  Format.fprintf fmt "%s@." (String.make 130 '-')

let print_rows fmt rows =
  header fmt "alloc MB";
  List.iter
    (fun r ->
      Format.fprintf fmt
        "%-26s %8d %9d %6s %6d %8d %9d %8d %10s %10.3f %10.1f %s@." r.name
        r.rtl_loc r.rtl_bits r.ports r.insts r.ila_loc r.ila_bits r.refmap_loc
        (match r.time_bug_s with
        | Some t -> Printf.sprintf "%.3f" t
        | None -> "-")
        r.time_s r.alloc_mb
        (if r.proved then "proved" else "FAILED"))
    rows

let print_paper fmt =
  header fmt "mem MB";
  List.iter
    (fun (name, rloc, rbits, ports, insts, iloc, ibits, mloc, tb, t, mem) ->
      Format.fprintf fmt
        "%-26s %8d %9d %6s %6d %8d %9d %8d %10s %10.2f %10.1f@." name rloc
        rbits ports insts iloc ibits mloc
        (match tb with Some t -> Printf.sprintf "%.2f" t | None -> "-")
        t mem)
    paper
