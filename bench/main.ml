(* Benchmark harness: regenerates every table and figure of the paper.

   - Figures 1-3: ILA model sketches (decoder, AXI slave, memory
     interface with integration).
   - Figure 4: the verification flow, narrated on a live run.
   - Figure 5: a refinement map and its auto-generated property.
   - Table I: design/ILA/refinement statistics and verification results
     for all eight case studies, including the three bug hunts and the
     memory-abstraction ablation (parenthesized entries).
   - Ablations called out in DESIGN.md: memory abstraction, integration
     vs naive union, and per-design solver statistics.
   - Mutation campaigns, written to BENCH_mutation.json in the working
     directory (the only file this harness writes).

   Run with --quick to replace the 256 B datapath / 64-entry store
   buffer rows by their abstracted variants (the paper's parenthesized
   configuration), which keeps the whole run to about a second.

   This harness prints; runtest requires its --quick run to exit 0 and
   gates nothing else (bench/dune).  Engine timing is measured by
   ilvbench (BENCHMARK.json, `ilvbench --compare`); the engine, cache,
   abstraction, daemon and chaos correctness gates are runtest smokes
   in test/. *)

open Ilv_core
open Ilv_designs

let quick_mode = Array.exists (fun a -> a = "--quick") Sys.argv

let section title =
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* ------------------------------------------------------------------ *)
(* Figures 1-3                                                         *)
(* ------------------------------------------------------------------ *)

let figures () =
  section "Figure 1: 8051 decoder ILA (sketch)";
  Format.printf "%a@." Ila.pp_sketch Decoder_8051.ila;
  section "Figure 2: AXI slave ILA (sketch)";
  Format.printf "%a@.@.%a@." Ila.pp_sketch Axi_slave.read_port Ila.pp_sketch
    Axi_slave.write_port;
  section
    "Figure 3a: 8051 memory interface - ROM/RAM ports and their integration";
  Format.printf "%a@.@.%a@." Ila.pp_sketch Mem_iface_8051.rom_port
    Ila.pp_sketch Mem_iface_8051.ram_port;
  Format.printf
    "@.integrate (shared state mem_wait; priority: update to 1 wins):@.@.%a@."
    Ila.pp_sketch Mem_iface_8051.rom_ram_port;
  section "Figure 3b: PC-port-ILA";
  Format.printf "%a@." Ila.pp_sketch Mem_iface_8051.pc_port

(* ------------------------------------------------------------------ *)
(* Figure 4: the verification flow, narrated                           *)
(* ------------------------------------------------------------------ *)

let figure4 () =
  section "Figure 4: ILA verification flow (live narration on the decoder)";
  let d = Decoder_8051.design in
  Format.printf
    "[1] instruction-level spec: module-ILA %s (%d ports, %d instructions)@."
    d.Design.module_ila.Module_ila.name
    (Module_ila.n_ports d.Design.module_ila)
    (Module_ila.total_instructions d.Design.module_ila);
  Format.printf "[2] RTL design: %a@." Ilv_rtl.Rtl.pp_summary d.Design.rtl;
  let refmap = d.Design.refmap_for d.Design.rtl "DECODER" in
  Format.printf "[3] refinement map: %d pseudo-LoC@." (Refmap.loc refmap);
  let props =
    Propgen.generate ~ila:Decoder_8051.ila ~rtl:d.Design.rtl ~refmap
  in
  Format.printf
    "[4] auto-generated properties (complete set, one per (sub-)instruction): \
     %d@."
    (List.length props);
  let report = Design.verify d in
  Format.printf "[5] model checking: %s in %.3fs@."
    (if Verify.proved report then "all properties proved" else "FAILED")
    report.Verify.total_time_s

(* ------------------------------------------------------------------ *)
(* Figure 5: refinement map and auto-generated property                *)
(* ------------------------------------------------------------------ *)

let figure5 () =
  section "Figure 5: refinement map for the 8051 decoder";
  let d = Decoder_8051.design in
  let refmap = d.Design.refmap_for d.Design.rtl "DECODER" in
  Format.printf "%a@." Refmap.pp refmap;
  section
    "Figure 5 (right): auto-generated property for the stall instruction";
  let stall =
    match Ila.find_instruction Decoder_8051.ila "stall" with
    | Some i -> i
    | None -> failwith "stall not found"
  in
  let prop =
    Propgen.generate_for ~ila:Decoder_8051.ila ~rtl:d.Design.rtl ~refmap stall
  in
  Format.printf "%a@." Property.pp prop

(* ------------------------------------------------------------------ *)
(* Table I                                                             *)
(* ------------------------------------------------------------------ *)

let table1 () =
  let suite = if quick_mode then Catalog.quick else Catalog.all in
  section
    (if quick_mode then
       "Table I (quick mode: abstracted datapath RAM / store buffer)"
     else "Table I: case studies");
  let rows = List.map Table_one.measure suite in
  Table_one.print_rows Format.std_formatter rows;
  Format.printf
    "@.Paper's Table I (Dell 28-core Haswell, JasperGold), for shape \
     comparison:@.";
  Table_one.print_paper Format.std_formatter

(* ------------------------------------------------------------------ *)
(* Bug hunts (Sec. V)                                                  *)
(* ------------------------------------------------------------------ *)

let bug_hunts () =
  section "Bug hunts: the three bugs reported in the paper";
  List.iter
    (fun (d : Design.t) ->
      List.iter
        (fun (bug : Design.bug) ->
          let report = Design.verify_buggy d bug in
          Format.printf "%s [%s]: %s@.  %s@." d.Design.name
            bug.Design.bug_label
            (match report.Verify.first_failure with
            | Some ir ->
              Printf.sprintf "counterexample at %s in %.3fs" ir.Verify.instr
                report.Verify.total_time_s
            | None -> "NOT CAUGHT (regression!)")
            bug.Design.bug_description;
          match report.Verify.first_failure with
          | Some { verdict = Checker.Failed trace; port; _ } ->
            Format.printf "%a@." Trace.pp trace;
            (* double-check the symbolic counterexample concretely *)
            let ila =
              Option.get (Module_ila.find_port d.Design.module_ila port)
            in
            let refmap = d.Design.refmap_for bug.Design.buggy_rtl port in
            (match
               Replay.confirm ~ila ~rtl:bug.Design.buggy_rtl ~refmap trace
             with
            | Replay.Confirmed state ->
              Format.printf
                "replayed in the cycle-accurate simulator: diverges on %s, \
                 as claimed@.@."
                state
            | Replay.Not_reproduced ->
              Format.printf "replay did NOT reproduce (checker bug?)@.@."
            | Replay.Inapplicable reason ->
              Format.printf "replay inapplicable: %s@.@." reason)
          | Some _ | None -> ())
        d.Design.bugs)
    [ Axi_slave.design; L2_cache.design; Store_buffer.design_abstract ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let ablation_memory () =
  section "Ablation: memory abstraction (the paper's parenthesized entries)";
  let pairs =
    [
      ("Datapath", Datapath_8051.design, Datapath_8051.design_abstract);
      ("Store Buffer", Store_buffer.design, Store_buffer.design_abstract);
    ]
  in
  List.iter
    (fun (name, full, abstracted) ->
      let run d = (Design.verify d).Verify.total_time_s in
      let t_abs = run abstracted in
      if quick_mode then
        Format.printf
          "%-14s abstracted: %8.3fs   (full size skipped in --quick mode)@."
          name t_abs
      else begin
        let t_full = run full in
        Format.printf
          "%-14s full: %8.3fs   abstracted: %8.3fs   speedup: %.1fx@." name
          t_full t_abs (t_full /. t_abs)
      end)
    pairs;
  Format.printf
    "@.Paper: Datapath 176s -> 9.5s (256 B -> 16 B); Store Buffer 78s -> \
     1.3s (64 -> 16 entries).@."

let ablation_integration () =
  section "Ablation: integration vs naive union on shared-state modules";
  let show name ports integrated =
    let sum =
      List.fold_left
        (fun acc (p : Ila.t) -> acc + List.length (Ila.leaf_instructions p))
        0 ports
    in
    Format.printf
      "%-18s %d instructions across %d separate ports -> %d cross-product \
       instructions after integration@."
      name sum (List.length ports)
      (List.length (Ila.leaf_instructions integrated))
  in
  show "ROM-RAM (8051)"
    [ Mem_iface_8051.rom_port; Mem_iface_8051.ram_port ]
    Mem_iface_8051.rom_ram_port;
  show "Router IN" (List.init 5 Noc_router.in_port)
    Noc_router.in_port_integrated;
  show "Router OUT" (List.init 5 Noc_router.out_port)
    Noc_router.out_port_integrated;
  (* why union alone is unsound: the unresolved conflicts *)
  match
    Compose.integrate ~name:"ROM-RAM-noresolve"
      [ Mem_iface_8051.rom_port; Mem_iface_8051.ram_port ]
  with
  | Ok _ ->
    Format.printf "unexpected: integration without resolver succeeded@."
  | Error gaps ->
    Format.printf
      "@.without the priority rule, %d instruction combinations leave \
       conflicting mem_wait updates (specification gaps):@."
      (List.length gaps);
    List.iter
      (fun (g : Compose.gap) ->
        Format.printf "  %-28s on state %s (%s)@." g.Compose.combined_instr
          g.Compose.state
          (String.concat " vs "
             (List.map
                (fun (w : Compose.writer) ->
                  Ilv_expr.Pp_expr.infix_to_string w.Compose.update)
                g.Compose.writers)))
      gaps

let ablation_solver () =
  section
    "Solver statistics per design (CNF summed over properties; with and \
     without the word-level simplifier)";
  Format.printf "%-26s %12s %12s %12s %14s %14s@." "Design" "CNF vars"
    "CNF clauses" "conflicts" "clauses w/o simp" "reduction";
  List.iter
    (fun (d : Design.t) ->
      let measure ~simplify =
        let vars = ref 0 and clauses = ref 0 and conflicts = ref 0 in
        List.iter
          (fun (port : Ila.t) ->
            let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
            List.iter
              (fun p ->
                let _, stats = Checker.check ~simplify p in
                vars := !vars + stats.Checker.cnf_vars;
                clauses := !clauses + stats.Checker.cnf_clauses;
                conflicts := !conflicts + stats.Checker.conflicts)
              (Propgen.generate ~ila:port ~rtl:d.Design.rtl ~refmap))
          d.Design.module_ila.Module_ila.ports;
        (!vars, !clauses, !conflicts)
      in
      let vars, clauses, conflicts = measure ~simplify:true in
      let _, clauses_raw, _ = measure ~simplify:false in
      Format.printf "%-26s %12d %12d %12d %14d %14s@." d.Design.name vars
        clauses conflicts clauses_raw
        (if clauses_raw = 0 then "-"
         else
           Printf.sprintf "%.1f%%"
             (100.
             *. (1. -. (float_of_int clauses /. float_of_int clauses_raw)))))
    Catalog.quick

(* ------------------------------------------------------------------ *)
(* Mutation campaigns (fault injection)                                *)
(* ------------------------------------------------------------------ *)

let mutation_campaigns () =
  section
    "Mutation campaigns: seeded fault injection, mutation score per design";
  let designs =
    if quick_mode then [ Clock_gen.design; Uart_tx.design ]
    else
      [
        Clock_gen.design; Uart_tx.design; Axi_slave.design; Noc_router.design;
      ]
  in
  let max_mutants = if quick_mode then 15 else 40 in
  let campaigns =
    List.map
      (fun d -> Ilv_fault.Campaign.run ~seed:1 ~max_mutants d)
      designs
  in
  Ilv_fault.Campaign.pp_table_header Format.std_formatter ();
  List.iter (Ilv_fault.Campaign.pp_table_row Format.std_formatter) campaigns;
  let oc = open_out "BENCH_mutation.json" in
  output_string oc
    ("[\n  "
    ^ String.concat ",\n  " (List.map Ilv_fault.Campaign.to_json campaigns)
    ^ "\n]\n");
  close_out oc;
  Format.printf "@.per-design scores, kill times and inconclusive counts \
                 written to BENCH_mutation.json@."

let () =
  Format.printf "ILAverif benchmark harness%s@."
    (if quick_mode then " (--quick)" else "");
  figures ();
  figure4 ();
  figure5 ();
  table1 ();
  bug_hunts ();
  ablation_memory ();
  ablation_integration ();
  ablation_solver ();
  mutation_campaigns ();
  Format.printf "@.done.@."
