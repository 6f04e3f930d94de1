(* Smoke test for the parallel verification engine, wired into the
   default test alias.  First, the warm key path's allocation budget
   (below).  Then a tiny two-design parallel sweep against a
   throwaway proof cache, then a warm rerun that must be served from
   the cache (hit count positive, zero fresh SAT attempts; one frame
   blob per frozen frame) and must
   not be slower than the cold run beyond a generous slack.  Finally,
   the incremental/fresh/-j2 equivalence sweep: on every catalog design
   (quick configuration), the default incremental mode must produce
   verdicts identical to fresh per-obligation solving and to a
   two-worker run. *)

open Ilv_designs
open Ilv_engine

let fail fmt = Format.kasprintf (fun s -> prerr_endline s; exit 1) fmt

(* The warm key path's allocation, counted in words, never timed: what
   freezing, canonicalizing and digesting the 15 generation-0 frames of
   the quick catalog (memory abstraction on, as a warm sweep keys them)
   allocate on the minor and major heaps.  Property generation runs
   first and is not counted, and an empty minor heap at the start makes
   the promoted words, hence both counts, repeat exactly.  Minor words
   are those that died young; major words include the promoted ones.
   The bounds are the counts of the frame-only store this smoke came
   with, 1,022,494 minor and 937,512 major words, plus 25% (before it:
   2,171,579 and 2,886,032). *)
let key_path_budget () =
  let ports =
    List.concat_map
      (fun (d : Design.t) ->
        List.map
          (fun (port : Ilv_core.Ila.t) ->
            Ilv_core.Verify.prepare_port ~memory_abstraction:true
              ~name:d.Design.name ~port ~rtl:d.Design.rtl
              ~refmap:(d.Design.refmap_for d.Design.rtl port.Ilv_core.Ila.name)
              ())
          d.Design.module_ila.Ilv_core.Module_ila.ports)
      Catalog.quick
  in
  Gc.minor ();
  let minor0, promoted0, major0 = Gc.counters () in
  let digests =
    List.map
      (fun pr ->
        Proof_cache.digest
          (Proof_cache.canonical_frame
             (Ilv_core.Checker.shared_frame (Ilv_core.Verify.key_frame pr))))
      ports
  in
  let minor1, promoted1, major1 = Gc.counters () in
  let minor = minor1 -. minor0 -. (promoted1 -. promoted0)
  and major = major1 -. major0 in
  Format.printf
    "engine smoke: key path over %d frames allocated %.0f minor + %.0f major \
     words@."
    (List.length digests) minor major;
  if List.length digests <> 15 then
    fail "engine smoke: the quick catalog keyed %d frames, not 15"
      (List.length digests);
  if minor > 1.25 *. 1_022_494. || major > 1.25 *. 937_512. then
    fail "engine smoke: key path allocated over its budget (%.0f minor, %.0f \
          major words)"
      minor major

let () = key_path_budget ()

let design name = List.find (fun d -> d.Design.name = name) Catalog.all

let jobs_of (d : Design.t) =
  Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
    ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
    ()

let all_jobs () =
  jobs_of (design "AXI Slave") @ jobs_of (design "Mem. Interface")
  |> List.mapi (fun i (j : Engine.job) -> { j with Engine.id = i })

let () =
  let cache_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ilv-engine-smoke-%d" (Unix.getpid ()))
  in
  let cache = Proof_cache.open_ ~dir:cache_dir () in
  ignore (Proof_cache.clear cache);
  let _, cold = Engine.run ~jobs:2 ~cache (all_jobs ()) in
  Format.printf "cold: %a@." Engine.pp_summary cold;
  if cold.Engine.n_proved <> cold.Engine.n_jobs then
    fail "engine smoke: cold run proved %d of %d jobs" cold.Engine.n_proved
      cold.Engine.n_jobs;
  if cold.Engine.cache_misses <> cold.Engine.n_jobs then
    fail "engine smoke: cold run should miss on all %d jobs, missed %d"
      cold.Engine.n_jobs cold.Engine.cache_misses;
  (* every (design, port) group froze one frame, and its entries share
     that frame's one blob *)
  let groups =
    List.sort_uniq compare
      (List.map
         (fun (j : Engine.job) -> (j.Engine.design, j.Engine.port))
         (all_jobs ()))
  in
  let frames = (Proof_cache.stats cache).Proof_cache.frames in
  if frames <> List.length groups then
    fail "engine smoke: cold run left %d frame blobs for %d frozen frames"
      frames (List.length groups);
  let _, warm = Engine.run ~jobs:2 ~cache (all_jobs ()) in
  Format.printf "warm: %a@." Engine.pp_summary warm;
  ignore (Proof_cache.clear cache);
  (try Unix.rmdir cache_dir with Unix.Unix_error _ -> ());
  if warm.Engine.cache_hits <= 0 then
    fail "engine smoke: warm run had no cache hits";
  if warm.Engine.cache_hits <> warm.Engine.n_jobs then
    fail "engine smoke: warm run hit %d of %d jobs" warm.Engine.cache_hits
      warm.Engine.n_jobs;
  if warm.Engine.fresh_sat_attempts <> 0 then
    fail "engine smoke: warm run made %d fresh SAT attempts"
      warm.Engine.fresh_sat_attempts;
  (* A cache hit skips SAT entirely, so the warm sweep must not lose to
     the cold one; the slack absorbs scheduler noise on busy machines. *)
  let slack = (1.5 *. cold.Engine.wall_s) +. 0.25 in
  if warm.Engine.wall_s > slack then
    fail "engine smoke: warm run (%.3fs) slower than cold + slack (%.3fs)"
      warm.Engine.wall_s slack;
  Format.printf
    "engine smoke: %d jobs, warm rerun served entirely from cache@."
    warm.Engine.n_jobs;
  (* incremental vs fresh: verdict-for-verdict agreement on every
     catalog design *)
  let verdicts results =
    List.map
      (fun (r : Engine.result) ->
        ( r.Engine.job_id,
          r.Engine.r_port,
          r.Engine.r_instr,
          match r.Engine.verdict with
          | Ilv_core.Checker.Proved -> "proved"
          | Ilv_core.Checker.Failed _ -> "failed"
          | Ilv_core.Checker.Unknown _ -> "unknown" ))
      results
  in
  List.iter
    (fun (d : Design.t) ->
      let js = jobs_of d in
      let ri, si = Engine.run ~jobs:1 js in
      let rf, _ = Engine.run ~jobs:1 ~incremental:false js in
      let rp, _ = Engine.run ~jobs:2 js in
      if verdicts ri <> verdicts rf then
        fail "engine smoke: %s: incremental and fresh verdicts differ"
          d.Design.name;
      if verdicts ri <> verdicts rp then
        fail "engine smoke: %s: -j1 and -j2 verdicts differ" d.Design.name;
      if si.Engine.n_proved <> si.Engine.n_jobs then
        fail "engine smoke: %s: %d of %d proved" d.Design.name
          si.Engine.n_proved si.Engine.n_jobs;
      Format.printf
        "engine smoke: %-26s %d obligations agree in both modes and at -j2@."
        d.Design.name si.Engine.n_jobs)
    Catalog.quick
