(* Benchmark harness: regenerates every table and figure of the paper.

   - Figures 1-3: ILA model sketches (decoder, AXI slave, memory
     interface with integration).
   - Figure 4: the verification flow, narrated on a live run.
   - Figure 5: a refinement map and its auto-generated property.
   - Table I: design/ILA/refinement statistics and verification results
     for all eight case studies, including the three bug hunts and the
     memory-abstraction ablation (parenthesized entries).
   - Ablations called out in DESIGN.md.
   - Bechamel micro-benchmarks (one Test.make per Table-I row).

   Run with --quick to replace the 256 B datapath / 64-entry store
   buffer rows by their abstracted variants (the paper's parenthesized
   configuration), which keeps the whole run under a minute. *)

open Ilv_core
open Ilv_designs

let quick_mode = Array.exists (fun a -> a = "--quick") Sys.argv

(* regenerate BENCH_engine.json without the rest of the harness *)
let only_engine = Array.exists (fun a -> a = "--only-engine") Sys.argv

(* chaos campaign only: inject faults into a quick-catalog sweep and
   gate on verdict equality with the undisturbed baseline *)
let chaos_mode = Array.exists (fun a -> a = "--chaos") Sys.argv

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
  Table_one.print_paper Format.std_formatter;
  rows

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
(* Parallel verification engine                                        *)
(* ------------------------------------------------------------------ *)

let engine_jobs_of (d : Design.t) =
  let open Ilv_engine in
  Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
    ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
    ()

(* Jobs memoize their property thunk, so each timed run gets a fresh
   enumeration to keep the generate+prepare cost inside the timing. *)
let engine_run ?cache ?(memory_abstraction = false) ~jobs ~incremental d =
  let open Ilv_engine in
  let _, summary =
    Engine.run ~jobs ?cache ~incremental ~memory_abstraction
      (engine_jobs_of d)
  in
  summary

(* (port, instr, verdict) triples in job order plus the run summary —
   the equality oracle between the concrete and memory-abstracted
   engine.  jobs:1 keeps the CEGAR refinement counter in-process. *)
let engine_verdicts ?(memory_abstraction = false) d =
  let open Ilv_engine in
  let results, summary =
    Engine.run ~jobs:1 ~incremental:true ~memory_abstraction
      (engine_jobs_of d)
  in
  ( List.map
      (fun (r : Engine.result) ->
        ( r.Engine.r_port,
          r.Engine.r_instr,
          match r.Engine.verdict with
          | Checker.Proved -> "proved"
          | Checker.Failed _ -> "failed"
          | Checker.Unknown _ -> "unknown" ))
      results,
    summary )

(* Fraction of the design's shared-frame clauses the CNF-level pass
   (unit propagation, dedup, subsumption) removes. *)
let simplify_reduction (d : Design.t) =
  let props =
    List.concat_map
      (fun (port : Ila.t) ->
        let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
        Propgen.generate ~ila:port ~rtl:d.Design.rtl ~refmap)
      d.Design.module_ila.Module_ila.ports
  in
  let sh = Checker.prepare_shared ~label:d.Design.name props in
  (* the frozen snapshot is the post-pass frame (the live context stays
     lazy and may hold nothing yet) *)
  let clauses = List.length (snd (Checker.shared_cnf sh)) in
  let removed = Checker.shared_simplify_removed sh in
  float_of_int removed /. float_of_int (max 1 (clauses + removed))

let engine_benchmarks () =
  section
    "Verification engine: fresh vs incremental solving, sequential vs \
     parallel, cold vs warm proof cache";
  let open Ilv_engine in
  let suite = Catalog.quick in
  let n_par = 4 in
  Format.printf "%-26s %6s %8s %8s %7s %8s %8s %8s %8s %8s %7s@." "Design"
    "insts" "fresh s" "incr s" "reduc"
    (Printf.sprintf "-j%d s" n_par)
    "speedup" "cold s" "warm s" "abs s" "refine";
  let json_rows =
    List.map
      (fun (d : Design.t) ->
        (* sequential_s stays the fresh-solver-per-obligation baseline;
           incremental_s is the same single worker on the shared frame *)
        let seq = engine_run ~jobs:1 ~incremental:false d in
        let incr = engine_run ~jobs:1 ~incremental:true d in
        let par = engine_run ~jobs:n_par ~incremental:true d in
        assert (seq.Engine.n_proved = incr.Engine.n_proved);
        assert (seq.Engine.n_proved = par.Engine.n_proved);
        let reduction = simplify_reduction d in
        let cache_dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilv-bench-cache-%d" (Unix.getpid ()))
        in
        let cache = Proof_cache.open_ ~dir:cache_dir () in
        ignore (Proof_cache.clear cache);
        let cold = engine_run ~cache ~jobs:n_par ~incremental:true d in
        let warm = engine_run ~cache ~jobs:n_par ~incremental:true d in
        assert (warm.Engine.fresh_sat_attempts = 0);
        assert (warm.Engine.cache_hits = warm.Engine.n_jobs);
        ignore (Proof_cache.clear cache);
        let speedup = seq.Engine.wall_s /. Float.max 1e-9 par.Engine.wall_s in
        (* the memory-abstraction leg: same single incremental worker,
           CEGAR window rewrite on.  Verdicts must not move. *)
        let r0 = Mem_abstract.total_refinements () in
        let abs = engine_run ~memory_abstraction:true ~jobs:1 ~incremental:true d in
        let refinements = Mem_abstract.total_refinements () - r0 in
        assert (abs.Engine.n_proved = incr.Engine.n_proved);
        assert (abs.Engine.n_failed = incr.Engine.n_failed);
        assert (abs.Engine.n_unknown = incr.Engine.n_unknown);
        Format.printf
          "%-26s %6d %8.3f %8.3f %6.1f%% %8.3f %7.1fx %8.3f %8.3f %8.3f %7d@."
          d.Design.name seq.Engine.n_jobs seq.Engine.wall_s incr.Engine.wall_s
          (100.0 *. reduction) par.Engine.wall_s speedup cold.Engine.wall_s
          warm.Engine.wall_s abs.Engine.wall_s refinements;
        Printf.sprintf
          "{\"design\": %S, \"instructions\": %d, \"workers\": %d, \
           \"sequential_s\": %.4f, \"incremental_s\": %.4f, \
           \"simplify_reduction\": %.4f, \"parallel_s\": %.4f, \
           \"speedup\": %.2f, \"cold_cache_s\": %.4f, \"warm_cache_s\": \
           %.4f, \"warm_cache_hits\": %d, \"warm_fresh_sat_attempts\": %d, \
           \"mem_abstraction_s\": %.4f, \"refinements\": %d}"
          d.Design.name seq.Engine.n_jobs n_par seq.Engine.wall_s
          incr.Engine.wall_s reduction par.Engine.wall_s speedup
          cold.Engine.wall_s warm.Engine.wall_s warm.Engine.cache_hits
          warm.Engine.fresh_sat_attempts abs.Engine.wall_s refinements)
      suite
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc ("[\n  " ^ String.concat ",\n  " json_rows ^ "\n]\n");
  close_out oc;
  Format.printf
    "@.warm rows re-ran with every obligation already cached: 100%% hits, \
     zero fresh SAT attempts (asserted).@.\
     fresh-vs-incremental, sequential-vs-parallel and cold-vs-warm timings \
     written to BENCH_engine.json@."

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

(* ------------------------------------------------------------------ *)
(* Daemon: resident-session latency sweep and load generation          *)
(* ------------------------------------------------------------------ *)

module Dclient = Ilv_server.Client
module Wire = Ilv_server.Protocol

(* Fork a real [Daemon.serve] for the duration of [f]; always stopped,
   reaped and unlinked, even when [f] raises. *)
let with_bench_daemon f =
  let socket = Filename.temp_file "ilv-bench-d" ".sock" in
  Sys.remove socket;
  let pid =
    match Unix.fork () with
    | 0 ->
      (try Ilv_server.Daemon.serve ~socket () with _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  Fun.protect
    ~finally:(fun () ->
      ignore
        (Dclient.with_connection socket (fun c ->
             Dclient.request c
               (Ilv_obs.Json.Obj [ ("op", Ilv_obs.Json.String "stop") ])));
      let rec reap n =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ when n > 0 ->
          Unix.sleepf 0.02;
          reap (n - 1)
        | 0, _ ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid)
        | _ -> ()
      in
      reap 250;
      if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let rec wait_up n =
        if n = 0 then failwith "bench daemon did not come up"
        else if not (Dclient.ping socket) then begin
          Unix.sleepf 0.02;
          wait_up (n - 1)
        end
      in
      wait_up 250;
      f socket)

let daemon_request socket req =
  match Dclient.with_connection socket (fun c -> Dclient.request c req) with
  | Ok reply when Dclient.ok reply -> reply
  | Ok reply -> failwith ("daemon error: " ^ Dclient.error_of reply)
  | Error msg -> failwith ("daemon request failed: " ^ msg)

let daemon_verify_req (d : Design.t) =
  Ilv_obs.Json.Obj
    [
      ("op", Ilv_obs.Json.String "verify");
      ("design", Ilv_obs.Json.String d.Design.name);
    ]

let daemon_summary_int name reply =
  match
    Option.bind
      (Option.bind (Ilv_obs.Json.member "summary" reply)
         (Ilv_obs.Json.member name))
      Ilv_obs.Json.to_int
  with
  | Some n -> n
  | None -> failwith ("daemon summary missing " ^ name)

(* (port, instr, verdict) triples, sorted — the equality oracle between
   a daemon reply and the in-process driver *)
let daemon_verdicts reply =
  match Ilv_obs.Json.member "results" reply with
  | Some (Ilv_obs.Json.List rows) ->
    List.map
      (fun row ->
        let get k =
          match Wire.str_member k row with
          | Some v -> v
          | None -> failwith ("daemon result row missing " ^ k)
        in
        (get "port", get "instr", get "verdict"))
      rows
    |> List.sort compare
  | _ -> failwith "daemon verify reply has no results"

let in_process_verdicts (d : Design.t) =
  let report = Design.verify ~stop_at_first_failure:false d in
  List.concat_map
    (fun (p : Verify.port_report) ->
      List.map
        (fun (r : Verify.instr_result) ->
          ( r.Verify.port,
            r.Verify.instr,
            match r.Verify.verdict with
            | Checker.Proved -> "proved"
            | Checker.Failed _ -> "failed"
            | Checker.Unknown _ -> "unknown" ))
        p.Verify.instr_results)
    report.Verify.ports
  |> List.sort compare

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else sorted.(min (n - 1) (int_of_float (p *. float_of_int n)))

(* Replace this row kind in BENCH_engine.json without disturbing the
   engine rows (or the chaos row) — same line-splicing contract as
   [chaos_campaign]. *)
let splice_bench_row ~marker row =
  let existing =
    if not (Sys.file_exists "BENCH_engine.json") then []
    else begin
      let ic = open_in_bin "BENCH_engine.json" in
      let raw =
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      String.split_on_char '\n' raw
      |> List.filter_map (fun line ->
             let l = String.trim line in
             if String.length l > 0 && l.[0] = '{' && not (contains l marker)
             then
               Some
                 (if l.[String.length l - 1] = ',' then
                    String.sub l 0 (String.length l - 1)
                  else l)
             else None)
    end
  in
  let oc = open_out "BENCH_engine.json" in
  output_string oc
    ("[\n  " ^ String.concat ",\n  " (existing @ [ row ]) ^ "\n]\n");
  close_out oc

(* The daemon's case: a resident session pays preparation once, so on
   designs where fork-per-worker parallelism loses to the sequential
   baseline (speedup < 1 in the engine table), the daemon's cold
   request is already cheaper — and every repeat request is a memo
   round-trip.  Measured here: a cold/warm sweep over the quick
   catalog through one daemon, then a pipelined mixed load with
   per-request latency percentiles. *)
let daemon_load () =
  section "Verification daemon: resident-session latency and load";
  let module Json = Ilv_obs.Json in
  let suite = Catalog.quick in
  with_bench_daemon (fun socket ->
      Format.printf "%-26s %6s %9s %9s@." "Design" "jobs" "cold s" "warm s";
      let cold_total = ref 0.0 and warm_total = ref 0.0 in
      List.iter
        (fun (d : Design.t) ->
          let time f =
            let t0 = Unix.gettimeofday () in
            let r = f () in
            (r, Unix.gettimeofday () -. t0)
          in
          let cold_r, cold =
            time (fun () -> daemon_request socket (daemon_verify_req d))
          in
          let warm_r, warm =
            time (fun () -> daemon_request socket (daemon_verify_req d))
          in
          let n_jobs = daemon_summary_int "n_jobs" cold_r in
          (* the warm request must ride the memo in full *)
          assert (daemon_summary_int "n_dedup" warm_r = n_jobs);
          cold_total := !cold_total +. cold;
          warm_total := !warm_total +. warm;
          Format.printf "%-26s %6d %9.3f %9.3f@." d.Design.name n_jobs cold
            warm)
        suite;
      (* pipelined mixed load: requests are written to every client
         connection before any reply is read, so the daemon's batch
         intake sees concurrent arrivals *)
      let n_clients = 8 and n_requests = 2000 in
      let conns =
        Array.init n_clients (fun _ ->
            let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
            Unix.connect fd (Unix.ADDR_UNIX socket);
            fd)
      in
      let designs = Array.of_list suite in
      let mix i =
        match i mod 4 with
        | 1 -> Json.Obj [ ("op", Json.String "ping") ]
        | 3 -> Json.Obj [ ("op", Json.String "stats") ]
        | _ -> daemon_verify_req designs.(i mod Array.length designs)
      in
      let lats = Array.make n_requests 0.0 in
      let t_start = Unix.gettimeofday () in
      let sent = ref 0 in
      while !sent < n_requests do
        let round = min n_clients (n_requests - !sent) in
        let starts = Array.make round 0.0 in
        for j = 0 to round - 1 do
          starts.(j) <- Unix.gettimeofday ();
          Wire.write_frame conns.(j) (Json.encode (mix (!sent + j)))
        done;
        for j = 0 to round - 1 do
          (match Wire.read_frame conns.(j) with
          | Wire.Frame _ -> ()
          | _ -> failwith "daemon load: lost a reply");
          lats.(!sent + j) <- Unix.gettimeofday () -. starts.(j)
        done;
        sent := !sent + round
      done;
      let total_s = Unix.gettimeofday () -. t_start in
      Array.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        conns;
      Array.sort compare lats;
      let p50 = 1000.0 *. percentile lats 0.50
      and p95 = 1000.0 *. percentile lats 0.95 in
      let rps = float_of_int n_requests /. Float.max 1e-9 total_s in
      let stats = daemon_request socket (Json.Obj [ ("op", Json.String "stats") ]) in
      let stat name =
        Option.value ~default:0
          (Option.bind (Json.member name stats) Json.to_int)
      in
      Format.printf
        "@.load: %d mixed requests over %d pipelined clients in %.3fs@."
        n_requests n_clients total_s;
      Format.printf
        "      p50 %.3f ms   p95 %.3f ms   %.0f req/s   (max batch %d, %d \
         dedup hits, %d errors)@."
        p50 p95 rps (stat "max_batch") (stat "dedup_hits") (stat "errors");
      if stat "errors" > 0 then failwith "daemon load produced error replies";
      splice_bench_row ~marker:"daemon_load"
        (Printf.sprintf
           "{\"daemon_load\": true, \"requests\": %d, \"clients\": %d, \
            \"p50_ms\": %.3f, \"p95_ms\": %.3f, \"throughput_rps\": %.1f, \
            \"cold_total_s\": %.4f, \"warm_total_s\": %.4f, \"max_batch\": \
            %d}"
           n_requests n_clients p50 p95 rps !cold_total !warm_total
           (stat "max_batch"));
      Format.printf "@.daemon load row written to BENCH_engine.json@.")

(* ------------------------------------------------------------------ *)
(* --check: regression gate against the committed BENCH_engine.json    *)
(* ------------------------------------------------------------------ *)

(* Re-measures each design's fresh sequential time and fails (exit 1)
   if any regresses more than 25% against the committed baseline.  A
   small absolute grace keeps sub-100ms rows from tripping on scheduler
   noise.  Wired as the @bench-check dune alias — deliberately not part
   of the default test tree, since wall-clock gates belong in a
   dedicated CI lane. *)
let bench_check baseline_path =
  section
    (Printf.sprintf "Benchmark regression check against %s" baseline_path);
  let raw =
    let ic = open_in_bin baseline_path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  let rows =
    match Ilv_obs.Json.parse raw with
    | Error msg ->
      prerr_endline ("cannot parse " ^ baseline_path ^ ": " ^ msg);
      exit 2
    | Ok (Ilv_obs.Json.List rows) -> rows
    | Ok _ ->
      prerr_endline (baseline_path ^ ": expected a JSON array of rows");
      exit 2
  in
  let baseline =
    List.filter_map
      (fun row ->
        match
          ( Option.bind
              (Ilv_obs.Json.member "design" row)
              Ilv_obs.Json.to_string,
            Option.bind
              (Ilv_obs.Json.member "sequential_s" row)
              Ilv_obs.Json.to_float )
        with
        | Some d, Some s -> Some (d, s)
        | _ -> None)
      rows
  in
  let tolerance = 1.25 in
  let grace_s = 0.05 in
  let failures = ref 0 in
  Format.printf "%-26s %12s %12s %8s  %s@." "Design" "baseline s"
    "measured s" "ratio" "verdict";
  List.iter
    (fun (d : Design.t) ->
      match List.assoc_opt d.Design.name baseline with
      | None ->
        incr failures;
        Format.printf "%-26s %12s %12s %8s  MISSING from baseline@."
          d.Design.name "-" "-" "-"
      | Some committed ->
        let seq = engine_run ~jobs:1 ~incremental:false d in
        let measured = seq.Ilv_engine.Engine.wall_s in
        let ok = measured <= (committed *. tolerance) +. grace_s in
        if not ok then incr failures;
        Format.printf "%-26s %12.3f %12.3f %7.2fx  %s@." d.Design.name
          committed measured
          (measured /. Float.max 1e-9 committed)
          (if ok then "ok" else "REGRESSED (>25%)"))
    Catalog.quick;
  (* every engine row must carry the memory-abstraction columns — a
     baseline regenerated by an older harness would silently drop the
     ablation *)
  List.iter
    (fun row ->
      if Ilv_obs.Json.member "design" row <> None then
        match
          ( Option.bind
              (Ilv_obs.Json.member "mem_abstraction_s" row)
              Ilv_obs.Json.to_float,
            Option.bind
              (Ilv_obs.Json.member "refinements" row)
              Ilv_obs.Json.to_int )
        with
        | Some t, Some r when t > 0.0 && r >= 0 -> ()
        | _ ->
          incr failures;
          Format.printf "%-26s %12s %12s %8s  MISSING abstraction columns@."
            (Option.value ~default:"?"
               (Option.bind
                  (Ilv_obs.Json.member "design" row)
                  Ilv_obs.Json.to_string))
            "-" "-" "-")
    rows;
  (* memory-abstraction gate: the CEGAR window rewrite must keep every
     verdict on every quick-catalog design, and on the L2 Cache — the
     array-heavy row the rewrite exists for — it must come back at
     least 2x faster than the concrete incremental run.  (Timing is
     gated only there: the other rows are small enough that their
     ratios are scheduler noise.) *)
  List.iter
    (fun (d : Design.t) ->
      let concrete_v, concrete = engine_verdicts d in
      let abs_v, abs = engine_verdicts ~memory_abstraction:true d in
      let t_conc = concrete.Ilv_engine.Engine.wall_s in
      let t_abs = abs.Ilv_engine.Engine.wall_s in
      let speedup = t_conc /. Float.max 1e-9 t_abs in
      let ok_verdicts = abs_v = concrete_v in
      let ok_speed = d.Design.name <> "L2 Cache" || speedup >= 2.0 in
      if not (ok_verdicts && ok_speed) then incr failures;
      Format.printf "%-26s %12.3f %12.3f %7.2fx  %s@."
        ("abstraction: " ^ d.Design.name)
        t_conc t_abs speedup
        (if not ok_verdicts then "VERDICT MISMATCH abstract vs concrete"
         else if not ok_speed then "ABSTRACTION SPEEDUP BELOW 2x"
         else "ok"))
    Catalog.quick;
  (* the daemon load row: present and shaped right.  No latency gate —
     wall-clock thresholds on a shared CI box would flake; the shape
     check catches a harness that silently stopped producing it. *)
  (match
     List.find_opt
       (fun row -> Ilv_obs.Json.member "daemon_load" row <> None)
       rows
   with
  | None ->
    incr failures;
    Format.printf "%-26s %12s %12s %8s  MISSING from baseline@."
      "daemon load row" "-" "-" "-"
  | Some row ->
    let f name =
      Option.bind (Ilv_obs.Json.member name row) Ilv_obs.Json.to_float
    in
    (match (f "p50_ms", f "p95_ms", f "throughput_rps") with
    | Some p50, Some p95, Some rps when p50 > 0.0 && p95 >= p50 && rps > 0.0
      ->
      Format.printf "%-26s %12s %12s %8s  ok (p50 %.3fms, %.0f req/s)@."
        "daemon load row" "-" "-" "-" p50 rps
    | _ ->
      incr failures;
      Format.printf "%-26s %12s %12s %8s  MALFORMED@." "daemon load row" "-"
        "-" "-"));
  (* mini-load: a live daemon must answer with exactly the in-process
     verdicts, and a repeat request must ride the memo *)
  (match Catalog.find "Decoder" with
  | None ->
    incr failures;
    Format.printf "mini-load: Decoder missing from the catalog@."
  | Some d ->
    let want = in_process_verdicts d in
    with_bench_daemon (fun socket ->
        let first = daemon_request socket (daemon_verify_req d) in
        let again = daemon_request socket (daemon_verify_req d) in
        let ok_verdicts =
          daemon_verdicts first = want && daemon_verdicts again = want
        in
        let ok_dedup =
          daemon_summary_int "n_dedup" again
          = daemon_summary_int "n_jobs" again
        in
        if not (ok_verdicts && ok_dedup) then begin
          incr failures;
          Format.printf "%-26s %12s %12s %8s  %s@." "daemon mini-load" "-"
            "-" "-"
            (if ok_verdicts then "REPEAT NOT DEDUPED"
             else "VERDICT MISMATCH vs in-process")
        end
        else
          Format.printf "%-26s %12s %12s %8s  ok (verdicts match, repeat \
                         deduped)@."
            "daemon mini-load" "-" "-" "-"));
  if !failures > 0 then begin
    Format.printf "@.%d design(s) regressed or missing.@." !failures;
    exit 1
  end
  else Format.printf "@.all designs within 25%% of the baseline.@."

(* ------------------------------------------------------------------ *)
(* --chaos: resilience campaign over the quick catalog                 *)
(* ------------------------------------------------------------------ *)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

(* Seeded chaos campaign, with its summary appended as one row to
   BENCH_engine.json.  The row carries no "sequential_s", so the
   --check regression gate skips it; a previous chaos row (recognised
   by its "chaos_seed" key) is replaced, not duplicated. *)
let chaos_campaign () =
  section
    "Chaos campaign: injected worker kills, solver stalls and cache damage \
     against a verdict-equality oracle";
  let open Ilv_engine in
  let scratch =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ilv-bench-chaos-%d" (Unix.getpid ()))
  in
  let suites =
    List.map
      (fun (d : Design.t) -> (d.Design.name, fun () -> engine_jobs_of d))
      Catalog.quick
  in
  let r = Chaos.run ~jobs:4 ~seed:1 ~scratch suites in
  Format.printf "%a@." Chaos.pp_report r;
  if Chaos.passed r then rm_rf scratch
  else Format.printf "scratch kept for replay: %s@." scratch;
  let row =
    Printf.sprintf
      "{\"chaos_seed\": 1, \"jobs\": %d, \"kills\": %d, \"stalls\": %d, \
       \"corrupted\": %d, \"quarantined\": %d, \"mismatches\": %d, \
       \"baseline_wall_s\": %.4f, \"chaos_wall_s\": %.4f, \"warm_wall_s\": \
       %.4f, \"passed\": %b}"
      r.Chaos.n_jobs r.Chaos.kills r.Chaos.stalls r.Chaos.corrupted
      r.Chaos.quarantined
      (List.length r.Chaos.mismatches)
      r.Chaos.baseline_wall_s r.Chaos.chaos_wall_s r.Chaos.warm_wall_s
      (Chaos.passed r)
  in
  splice_bench_row ~marker:"chaos_seed" row;
  Format.printf "@.campaign summary appended to BENCH_engine.json@.";
  if not (Chaos.passed r) then exit 1

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

(* ------------------------------------------------------------------ *)

let check_arg () =
  let argv = Array.to_list Sys.argv in
  let rec find = function
    | [] -> None
    | "--check" :: path :: _ when String.length path > 0 && path.[0] <> '-' ->
      Some path
    | "--check" :: _ -> Some "BENCH_engine.json"
    | _ :: rest -> find rest
  in
  find argv

let () =
  Format.printf "ILAverif benchmark harness%s@."
    (if quick_mode then " (--quick)" else "");
  (match check_arg () with
  | Some path ->
    bench_check path;
    Format.printf "@.done.@.";
    exit 0
  | None -> ());
  if only_engine then begin
    engine_benchmarks ();
    daemon_load ();
    Format.printf "@.done.@.";
    exit 0
  end;
  if chaos_mode then begin
    chaos_campaign ();
    Format.printf "@.done.@.";
    exit 0
  end;
  figures ();
  figure4 ();
  figure5 ();
  let _rows = table1 () in
  bug_hunts ();
  ablation_memory ();
  ablation_integration ();
  ablation_solver ();
  extensions ();
  engine_benchmarks ();
  daemon_load ();
  mutation_campaigns ();
  bechamel_benchmarks ();
  Format.printf "@.done.@."
