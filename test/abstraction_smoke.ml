(* Smoke test for the memory abstraction (CEGAR window encoding),
   wired into the default test alias: every catalog design (quick
   configuration) must produce verdict-for-verdict identical reports
   with the abstraction on and off — memory-free designs because the
   abstraction is a no-op for them, memory designs because abstract
   proofs are sound and abstract counterexamples are replayed
   concretely.  Buggy variants must keep failing with a concrete
   trace, on shared frames and on fresh solvers alike.

   The abstraction must also pay, counted rather than timed: on the
   two Store Buffer rows (16 and 64 entries) an abstract engine sweep
   takes at most half the SAT propagations of the concrete one.  Quick
   L2 Cache is not one of them: with the literal assumptions folded
   into every solved obligation its concrete sweep is already tiny,
   and it is checked for verdict equality only.  Wall times are
   printed, not gated; ilvbench times the engine.  The propagation counts move only when the search
   does, so a change that means to move them re-takes this gate at its
   parent, as with sat:pinned and catalog_search.expected. *)

open Ilv_designs
open Ilv_core
open Ilv_engine
module Obs = Ilv_obs.Obs

let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

let verdicts (r : Verify.report) =
  List.concat_map
    (fun (p : Verify.port_report) ->
      List.map
        (fun (ir : Verify.instr_result) ->
          ( ir.Verify.port,
            ir.Verify.instr,
            match ir.Verify.verdict with
            | Checker.Proved -> "proved"
            | Checker.Failed _ -> "failed"
            | Checker.Unknown _ -> "unknown" ))
        p.Verify.instr_results)
    r.Verify.ports

let design name =
  match Catalog.find name with
  | Some d -> d
  | None -> fail "abstraction smoke: no catalog design named %s" name

let jobs_of (d : Design.t) =
  Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
    ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
    ()

let engine_verdicts results =
  List.map
    (fun (r : Engine.result) ->
      ( r.Engine.job_id,
        match r.Engine.verdict with
        | Checker.Proved -> "proved"
        | Checker.Failed _ -> "failed"
        | Checker.Unknown _ -> "unknown" ))
    results

(* this process's running total of an Obs counter *)
let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.counters ()))

(* The abstraction's work floor: propagations are deterministic for a
   fixed search, unlike wall time on a shared machine. *)
let propagation_floor name =
  let d = design name in
  let sweep memory_abstraction =
    let p0 = counter "sat.propagations" and r0 = counter "cegar.refine" in
    let t0 = Unix.gettimeofday () in
    let results, _ = Engine.run ~jobs:1 ~memory_abstraction (jobs_of d) in
    ( engine_verdicts results,
      counter "sat.propagations" - p0,
      counter "cegar.refine" - r0,
      Unix.gettimeofday () -. t0 )
  in
  let v_conc, p_conc, _, t_conc = sweep false in
  let v_abs, p_abs, refined, t_abs = sweep true in
  if v_conc <> v_abs then
    fail "abstraction smoke: %s: engine verdicts differ between modes" name;
  if p_conc = 0 then
    fail "abstraction smoke: %s: no propagations counted (metrics off?)" name;
  if 2 * p_abs > p_conc then
    fail
      "abstraction smoke: %s: abstract sweep took %d propagations, more than \
       half the concrete %d"
      name p_abs p_conc;
  Format.printf
    "abstraction smoke: %-26s propagations %d abstract vs %d concrete \
     (%.1fx, %d refinements; wall %.3fs vs %.3fs, not gated)@."
    name p_abs p_conc
    (float_of_int p_conc /. float_of_int p_abs)
    refined t_abs t_conc

let () =
  Obs.configure ~metrics:true ();
  List.iter propagation_floor [ "Store Buffer (16 entries)"; "Store Buffer" ];
  List.iter
    (fun (d : Design.t) ->
      let t0 = Unix.gettimeofday () in
      let off =
        Design.verify ~stop_at_first_failure:false ~memory_abstraction:false d
      in
      let t_off = Unix.gettimeofday () -. t0 in
      let t1 = Unix.gettimeofday () in
      let on =
        Design.verify ~stop_at_first_failure:false ~memory_abstraction:true d
      in
      let t_on = Unix.gettimeofday () -. t1 in
      if verdicts off <> verdicts on then
        fail "abstraction smoke: %s: verdicts differ between on and off"
          d.Design.name;
      if not (Verify.proved on) then
        fail "abstraction smoke: %s: not proved under abstraction"
          d.Design.name;
      Format.printf
        "abstraction smoke: %-26s verdicts agree (off %.3fs, on %.3fs)@."
        d.Design.name t_off t_on)
    Catalog.quick;
  (* buggy variants of the memory designs: the abstraction must still
     find the bug, and the counterexample must be a concrete trace *)
  List.iter
    (fun name ->
      let d = design name in
      List.iter
        (fun (bug : Design.bug) ->
          let off = Design.verify_buggy ~memory_abstraction:false d bug in
          let on = Design.verify_buggy ~memory_abstraction:true d bug in
          let fresh =
            Design.verify_buggy ~incremental:false ~memory_abstraction:true d
              bug
          in
          let failed (r : Verify.report) =
            match r.Verify.first_failure with
            | Some { Verify.verdict = Checker.Failed tr; _ } ->
              (* a replayed trace must still render (exercises the
                 concrete-property trace reconstruction) *)
              ignore (Format.asprintf "%a" Trace.pp tr);
              true
            | _ -> false
          in
          if not (failed off) then
            fail "abstraction smoke: %s [%s]: concrete run found no bug"
              d.Design.name bug.Design.bug_label;
          if not (failed on) then
            fail "abstraction smoke: %s [%s]: abstract run found no bug"
              d.Design.name bug.Design.bug_label;
          if not (failed fresh) then
            fail "abstraction smoke: %s [%s]: fresh abstract run found no bug"
              d.Design.name bug.Design.bug_label;
          Format.printf
            "abstraction smoke: %-26s [%s] bug found in all three modes@."
            d.Design.name bug.Design.bug_label)
        d.Design.bugs)
    [ "L2 Cache"; "Store Buffer" ];
  (* engine path: abstract and concrete sweeps agree verdict-for-
     verdict, and abstract verdicts round-trip through the proof cache
     under their mode-tagged keys *)
  let d = design "L2 Cache" in
  let jobs = jobs_of d in
  let r_conc, _ = Engine.run ~jobs:1 jobs in
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ilv-abstraction-smoke-%d" (Unix.getpid ()))
  in
  let cache = Proof_cache.open_ ~dir:cache_dir () in
  ignore (Proof_cache.clear cache);
  let r0 = counter "cegar.refine" in
  let r_abs, s_abs = Engine.run ~jobs:1 ~cache ~memory_abstraction:true jobs in
  let refined = counter "cegar.refine" - r0 in
  let r_warm, s_warm =
    Engine.run ~jobs:1 ~cache ~memory_abstraction:true jobs
  in
  ignore (Proof_cache.clear cache);
  (try Unix.rmdir cache_dir with Unix.Unix_error _ -> ());
  (* fresh mode, the uncached reference: one solver per job *)
  let t_fresh = Unix.gettimeofday () in
  let r_fresh, _ =
    Engine.run ~jobs:1 ~incremental:false ~memory_abstraction:true jobs
  in
  let t_fresh = Unix.gettimeofday () -. t_fresh in
  if engine_verdicts r_conc <> engine_verdicts r_fresh then
    fail "abstraction smoke: fresh abstract engine verdicts differ";
  Format.printf "abstraction smoke: fresh engine sweep agrees (%.3fs)@."
    t_fresh;
  if engine_verdicts r_conc <> engine_verdicts r_abs then
    fail "abstraction smoke: engine verdicts differ between modes";
  if engine_verdicts r_conc <> engine_verdicts r_warm then
    fail "abstraction smoke: warm abstract engine verdicts differ";
  if s_warm.Engine.cache_hits <> s_warm.Engine.n_jobs then
    fail "abstraction smoke: abstract entries missed the cache (%d of %d hit)"
      s_warm.Engine.cache_hits s_warm.Engine.n_jobs;
  Format.printf
    "abstraction smoke: engine sweep agrees in both modes (%d jobs, %d \
     refinements, warm run all cache hits)@."
    s_abs.Engine.n_jobs refined
