(* Benchmark harness: regenerates every table and figure of the paper.

   - Figures 1-3: ILA model sketches (decoder, AXI slave, memory
     interface with integration).
   - Figure 4: the verification flow, narrated on a live run.
   - Figure 5: a refinement map and its auto-generated property.
   - Table I: design/ILA/refinement statistics and verification results
     for all eight case studies, including the three bug hunts and the
     memory-abstraction ablation (parenthesized entries).
   - Ablations called out in DESIGN.md, and the extensions beyond the
     paper (invariants, the "0"-command class, the UART, reachability,
     self-refinement).
   - Mutation campaigns, written to BENCH_mutation.json in the working
     directory (the only file this harness writes).
   - Bechamel micro-benchmarks (one Test.make per Table-I row).

   Run with --quick to replace the 256 B datapath / 64-entry store
   buffer rows by their abstracted variants (the paper's parenthesized
   configuration), which keeps the whole run under a minute.

   This harness prints; it gates nothing.  Engine timing is measured by
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
      Format.printf "%-26s %12d %12d %12d %14d %13.1f%%@." d.Design.name vars
        clauses conflicts clauses_raw
        (100. *. (1. -. (float_of_int clauses /. float_of_int (max 1 clauses_raw))))
    )
    Catalog.quick

(* ------------------------------------------------------------------ *)
(* Extensions beyond the paper                                         *)
(* ------------------------------------------------------------------ *)

let extensions () =
  section "Extensions: soundness side conditions and the \"0\"-command class";
  (* every refinement-map invariant in the suite is proved inductive *)
  List.iter
    (fun (d : Design.t) ->
      List.iter
        (fun (port, result) ->
          Format.printf "%-26s port %-8s invariants: %s@." d.Design.name port
            (match result with
            | Invariant.Inductive -> "inductive (sound to assume)"
            | Invariant.Violated { kind = `Base; _ } -> "VIOLATED at reset"
            | Invariant.Violated { kind = `Step; _ } -> "NOT inductive"))
        (Design.check_invariants d))
    (Catalog.quick @ Catalog.extensions);
  (* the "0"-command clock generator *)
  let d = Clock_gen.design in
  let report = Design.verify d in
  Format.printf
    "@.%-26s (\"0\"-command class, single power-on START instruction): %s in \
     %.3fs@."
    d.Design.name
    (if Verify.proved report then "proved" else "FAILED")
    report.Verify.total_time_s;
  (* the UART: a Within (bounded-liveness) finish over a whole frame *)
  let d = Uart_tx.design in
  let report = Design.verify d in
  Format.printf
    "%-26s (Within finish over a %d-cycle serial frame): %s in %.3fs@."
    d.Design.name Uart_tx.frame_cycles
    (if Verify.proved report then "proved" else "FAILED")
    report.Verify.total_time_s;
  (* exact reachability on the clock generator *)
  (match
     Reach.analyze ~rtl:Clock_gen.design.Design.rtl
       Ilv_expr.Build.(bv_var "down_q" 4 <=: bv ~width:4 11)
   with
  | Reach.Holds, Some s ->
    Format.printf
      "%-26s BDD reachability: counter bound proved exactly (%d images, \
       %d-node reachable set)@."
      "Clock Gen" s.Reach.iterations s.Reach.reachable_bdd_size
  | _ -> Format.printf "Clock Gen reachability: unexpected result@.");
  (* self-refinement spot check: the composed core against its derived
     step-ILA *)
  let ila, refmap = Ila_of_rtl.derive Soc_top.rtl in
  let self, _ =
    Ilv_engine.Engine.verify ~name:"soc-self"
      (Compose.union ~name:"SELF" [ ila ])
      Soc_top.rtl
      ~refmap_for:(fun _ -> refmap)
  in
  Format.printf
    "%-26s (composed decoder+datapath core vs derived step-ILA): %s in %.3fs@."
    "oc8051_core"
    (if Verify.proved self then "proved" else "FAILED")
    self.Verify.total_time_s

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

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let bechamel_benchmarks () =
  section
    "Bechamel benchmarks (one Test.make per Table-I row; quick variants)";
  let open Bechamel in
  let open Toolkit in
  let tests =
    List.map
      (fun (d : Design.t) ->
        Test.make ~name:d.Design.name
          (Staged.stage (fun () -> ignore (Design.verify d))))
      Catalog.quick
  in
  let grouped = Test.make_grouped ~name:"table1" tests in
  let cfg =
    Benchmark.cfg ~limit:10 ~quota:(Time.second 2.0) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  Format.printf "%-40s %15s@." "benchmark" "time per run";
  let sorted =
    Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results []
    |> List.sort compare
  in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] -> Format.printf "%-40s %12.3f ms@." name (ns /. 1e6)
      | Some _ | None -> Format.printf "%-40s %15s@." name "n/a")
    sorted

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
  extensions ();
  mutation_campaigns ();
  bechamel_benchmarks ();
  Format.printf "@.done.@."
