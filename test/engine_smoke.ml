(* Smoke test for the parallel verification engine, wired into the
   default test alias: a tiny two-design parallel sweep against a
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

let design name = List.find (fun d -> d.Design.name = name) Catalog.all

let jobs_of (d : Design.t) first_id =
  Engine.jobs_of ~first_id ~name:d.Design.name d.Design.module_ila
    d.Design.rtl
    ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
    ()

let all_jobs () =
  let d1 = design "AXI Slave" and d2 = design "Mem. Interface" in
  let j1 = jobs_of d1 0 in
  j1 @ jobs_of d2 (List.length j1)

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
      let js = jobs_of d 0 in
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
