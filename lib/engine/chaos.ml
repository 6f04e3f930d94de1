open Ilv_core

type report = {
  designs : string list;
  n_jobs : int;
  kills : int;
  stalls : int;
  corrupted : int;
  corrupted_frames : int;
  quarantined : int;
  unquarantined_corrupt : int;
  mismatches : string list;
  baseline_wall_s : float;
  chaos_wall_s : float;
  warm_wall_s : float;
}

let passed r = r.mismatches = [] && r.unquarantined_corrupt = 0

let rec mkdir_p dir =
  if dir <> "/" && dir <> "." && not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* The comparison is over verdict {e shape}: a disturbed run may reach
   the same verdict through a different path (retry, ladder rung,
   cache re-solve), so stats and timings differ, but whether each
   obligation is proved, failed or unknown must not. *)
let shape = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown _ -> "unknown"

let result_key (r : Engine.result) =
  Printf.sprintf "%s/%s/%s" r.Engine.r_design r.Engine.r_port
    r.Engine.r_instr

(* Deterministic damage: [`Truncate] simulates a torn write (the file
   ends mid-payload), [`Bitflip] simulates rot (the file parses but
   its checksum disagrees).  Both must be detected by the cache and
   quarantined, never surfaced as a wrong verdict. *)
let corrupt_file path mode =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  let s' =
    match mode with
    | `Truncate -> String.sub s 0 (n / 2)
    | `Bitflip ->
      let b = Bytes.of_string s in
      let i = n / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
      Bytes.to_string b
  in
  let oc = open_out_bin path in
  output_string oc s';
  close_out oc

(* dir-relative paths; entries live in two-character shard
   subdirectories (plus the root for legacy flat layouts), frame blobs
   in [frames/] *)
let cache_files dir =
  let entries d =
    match Sys.readdir d with
    | fs -> Array.to_list fs
    | exception Sys_error _ -> []
  in
  let top = entries dir in
  let shards =
    List.filter
      (fun f ->
        String.length f = 2
        &&
        try Sys.is_directory (Filename.concat dir f)
        with Sys_error _ -> false)
      top
  in
  let under s =
    List.map (Filename.concat s) (entries (Filename.concat dir s))
  in
  List.filter (fun f -> Filename.check_suffix f ".proof")
    (top @ List.concat_map under shards)
  @ List.filter (fun f -> Filename.check_suffix f ".cnf") (under "frames")
  |> List.sort compare

(* Damage a deterministic subset of the cache's entry and blob files, selected
   by the same seeded hash the injection points use (so the schedule
   is reproducible from the seed alone).  At least one file is always
   damaged — a chaos campaign that corrupts nothing tests nothing. *)
let corrupt_cache dir =
  let files = cache_files dir in
  let chosen =
    List.filter
      (fun f -> Ilv_obs.Inject.would_fire ~point:"cache.corrupt" ~key:f)
      files
  in
  let chosen =
    match (chosen, files) with
    | [], f :: _ -> [ f ]
    | _ -> chosen
  in
  List.iter
    (fun f ->
      let mode =
        if Char.code (Digest.string ("chaos-mode:" ^ f)).[0] land 1 = 0 then
          `Truncate
        else `Bitflip
      in
      corrupt_file (Filename.concat dir f) mode)
    chosen;
  ( List.length chosen,
    List.length (List.filter (fun f -> Filename.check_suffix f ".cnf") chosen) )

let compare_runs ~label baseline disturbed =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (r : Engine.result) ->
      Hashtbl.replace tbl (result_key r) (shape r.Engine.verdict))
    baseline;
  List.filter_map
    (fun (r : Engine.result) ->
      let k = result_key r in
      match Hashtbl.find_opt tbl k with
      | Some s when s = shape r.Engine.verdict -> None
      | Some s ->
        Some
          (Printf.sprintf "%s: %s: baseline %s, got %s%s" label k s
             (shape r.Engine.verdict)
             (match r.Engine.verdict with
             | Checker.Unknown reason -> " (" ^ reason ^ ")"
             | _ -> ""))
      | None -> Some (Printf.sprintf "%s: %s: missing from baseline" label k))
    disturbed

let renumber jobs = List.mapi (fun i (j : Engine.job) -> { j with id = i }) jobs

let run ?(jobs = 2) ?(seed = 1) ?(kill_p = 0.3) ?(stall_p = 0.2)
    ?(corrupt_p = 0.3) ~scratch suites =
  let jobs = max 2 jobs (* kills need forked workers to land in *) in
  mkdir_p scratch;
  let cache_dir = Filename.concat scratch "cache" in
  let markers = Filename.concat scratch "markers" in
  let job_list =
    renumber (List.concat_map (fun (_, mk) -> mk ()) suites)
  in
  (* 1. Undisturbed baseline: no cache, no faults.  This is the oracle
     every disturbed sweep is held to. *)
  Ilv_obs.Inject.disable ();
  let t0 = Unix.gettimeofday () in
  let baseline, _ = Engine.run ~jobs job_list in
  let baseline_wall_s = Unix.gettimeofday () -. t0 in
  (* 2. The same sweep with faults armed and a cold cache: workers are
     shot mid-job, solver calls stall, and the sweep must still land
     on the baseline verdicts via retries and the degradation ladder. *)
  Ilv_obs.Inject.configure ~seed ~dir:markers
    ~points:
      [
        ("pool.kill", kill_p);
        ("solver.stall", stall_p);
        ("cache.corrupt", corrupt_p);
      ]
    ();
  let cache = Proof_cache.open_ ~dir:cache_dir () in
  let t1 = Unix.gettimeofday () in
  let chaos, _ = Engine.run ~jobs ~cache job_list in
  let chaos_wall_s = Unix.gettimeofday () -. t1 in
  let kills = Ilv_obs.Inject.fired ~point:"pool.kill" in
  let stalls = Ilv_obs.Inject.fired ~point:"solver.stall" in
  (* 3. Damage the cache the disturbed sweep just filled, then run warm:
     every damaged entry must be quarantined and transparently
     re-solved; an undamaged entry must still hit.  A lookup never reads
     a blob, so a damaged blob still serves its entries' verdicts. *)
  let corrupted, corrupted_frames = corrupt_cache cache_dir in
  let t2 = Unix.gettimeofday () in
  let warm, _ = Engine.run ~jobs ~cache job_list in
  let warm_wall_s = Unix.gettimeofday () -. t2 in
  Ilv_obs.Inject.disable ();
  (* 4. Eager recovery must find nothing left: a damaged entry was
     already quarantined on contact during the warm sweep, or is caught
     now, and a damaged blob is caught now with the entries that refer
     to it — either way zero corrupt files remain in the key space. *)
  let _ = Proof_cache.recover cache in
  let cstats = Proof_cache.stats cache in
  let mismatches =
    compare_runs ~label:"chaos" baseline chaos
    @ compare_runs ~label:"warm" baseline warm
  in
  {
    designs = List.map fst suites;
    n_jobs = List.length job_list;
    kills;
    stalls;
    corrupted;
    corrupted_frames;
    quarantined = Proof_cache.quarantined_count cache;
    unquarantined_corrupt = cstats.Proof_cache.corrupt;
    mismatches;
    baseline_wall_s;
    chaos_wall_s;
    warm_wall_s;
  }

let pp_report fmt r =
  let open Format in
  fprintf fmt "@[<v>chaos campaign: %d jobs over %d designs@," r.n_jobs
    (List.length r.designs);
  fprintf fmt
    "  injected: %d worker kills, %d solver stalls, %d corrupted cache files \
     (%d frame blobs)@,"
    r.kills r.stalls r.corrupted r.corrupted_frames;
  fprintf fmt "  cache: %d quarantined, %d corrupt files remaining@,"
    r.quarantined r.unquarantined_corrupt;
  fprintf fmt "  walls: baseline %.2fs, chaos %.2fs, warm %.2fs@,"
    r.baseline_wall_s r.chaos_wall_s r.warm_wall_s;
  (match r.mismatches with
  | [] -> fprintf fmt "  verdicts: identical to undisturbed baseline@,"
  | ms ->
    fprintf fmt "  VERDICT MISMATCHES:@,";
    List.iter (fun m -> fprintf fmt "    %s@," m) ms);
  fprintf fmt "  %s@]" (if passed r then "PASS" else "FAIL")
