open Ilv_core

type job = {
  id : int;
  design : string;
  variant : string option;
  port : string;
  instr : string;
  property : Property.t Lazy.t;
}

let jobs_of ?variant ?only_ports ?(first_id = 0) ~name module_ila rtl
    ~refmap_for () =
  let tasks = Verify.enumerate ?only_ports module_ila in
  List.mapi
    (fun i (t : Verify.task) ->
      let port = t.Verify.task_port in
      let instr = t.Verify.task_instr in
      {
        id = first_id + i;
        design = name;
        variant;
        port = port.Ila.name;
        instr = instr.Ila.instr_name;
        property =
          lazy
            (Propgen.generate_for ~ila:port ~rtl
               ~refmap:(refmap_for port.Ila.name) instr);
      })
    tasks

type result = {
  job_id : int;
  r_design : string;
  r_variant : string option;
  r_port : string;
  r_instr : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  time_s : float;
  backend : string;
  cache_hit : bool;
}

type summary = {
  n_jobs : int;
  n_proved : int;
  n_failed : int;
  n_unknown : int;
  n_errors : int;
  n_poisoned : int;
  n_degraded : int;
  cache_hits : int;
  cache_misses : int;
  fresh_sat_attempts : int;
  wall_s : float;
  jobs_used : int;
}

let result_of_job (j : job) ~verdict ~stats ~time_s ~backend ~cache_hit =
  {
    job_id = j.id;
    r_design = j.design;
    r_variant = j.variant;
    r_port = j.port;
    r_instr = j.instr;
    verdict;
    stats;
    time_s;
    backend;
    cache_hit;
  }

let verdict_string = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown _ -> "unknown"

(* Chaos injection: the ["pool.kill"] fault takes down the current
   worker with SIGKILL — indistinguishable from an OOM kill as far as
   the pool's supervision is concerned, which is the point.  Guarded by
   [Pool.in_worker] so an in-process run ([jobs <= 1]) can never shoot
   the main process; keyed on the job's {e group} identity (design +
   variant + port — the pool's scheduling atom in incremental mode), so
   the one-shot ledger both survives the retry running in a different
   worker and guarantees at most one kill per group: a second kill on
   any job of the same group would poison the whole group. *)
let job_chaos_key (j : job) =
  j.design
  ^ (match j.variant with None -> "" | Some v -> "+" ^ v)
  ^ "/" ^ j.port

let chaos_kill_point (j : job) =
  if
    Pool.in_worker ()
    && Ilv_obs.Inject.fire_once ~point:"pool.kill" ~key:(job_chaos_key j)
       = Ilv_obs.Inject.Fault
  then Unix.kill (Unix.getpid ()) Sys.sigkill

(* Per-group (or per-job, in fresh mode) absolute deadline: the clock
   starts when the group is picked up, preparation included. *)
let deadlined ~timeout_s budget =
  match timeout_s with
  | None -> budget
  | Some t ->
    Some
      (Checker.with_deadline
         (Unix.gettimeofday () +. t)
         (Option.value budget ~default:Checker.unlimited))

(* Discharge one job through a cache-aware [check] (a {!Session} step,
   given the job's cache labels).  Any exception becomes this job's
   [Unknown] — never the sweep's. *)
let discharge check (j : job) =
  chaos_kill_point j;
  let t0 = Unix.gettimeofday () in
  let verdict, stats, backend, cache_hit =
    try check ~design:j.design ~instr:(j.port ^ "." ^ j.instr) j with
    | (Out_of_memory | Stack_overflow) as fatal -> raise fatal
    | e ->
      ( Checker.Unknown ("engine: " ^ Printexc.to_string e),
        Checker.zero_stats,
        "error",
        false )
  in
  result_of_job j ~verdict ~stats
    ~time_s:(Unix.gettimeofday () -. t0)
    ~backend ~cache_hit

(* ---- shared-frame (incremental) dispatch ----

   Jobs of one (design, variant, port) share a single bit-blasted frame
   and one incremental solver: a {!Verify.prepared_port} session built
   from the jobs' properties, checked through {!Session.check}.  The
   session is built by [Pool]'s per-worker group function — in the
   worker process, after the fork — so a worker pays one frame
   preparation for all the jobs of the group it serves. *)

(* Group jobs by (design, variant, port), preserving first-appearance
   group order and within-group (instruction) order.  The port — not
   the whole design — is the sharing unit: a module's ports are
   pairwise independent by construction (no shared states), so
   instructions of different ports overlap on almost nothing, while
   instructions of one port share the port's decode and next-state
   frame almost entirely.  One solver per port keeps the clause
   database dense with reusable structure instead of dragging every
   sibling port's dead Tseitin definitions through each query's watch
   lists (the same scope as [Verify.prepare_port]). *)
let group_jobs job_list =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun j ->
      let k = (j.design, j.variant, j.port) in
      match Hashtbl.find_opt tbl k with
      | Some r -> r := j :: !r
      | None ->
        let r = ref [ j ] in
        Hashtbl.add tbl k r;
        order := k :: !order)
    job_list;
  List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order

(* The group's session holds exactly its jobs' properties in job order,
   each entry named by its job id.  Every frame is frozen as soon as it
   is built: the canonical snapshot (on a throwaway context, so the
   live solver keeps its lazy working set) provides the cache keys,
   makes selector numbering identical across workers, and emits the
   per-design frame span the profiler aggregates. *)
let init_group ~memory_abstraction group =
  let label = match group with [] -> "" | j :: _ -> job_chaos_key j in
  Session.create
    (Verify.prepare_properties ~memory_abstraction ~label
       (List.map
          (fun j ->
            ( string_of_int j.id,
              match Lazy.force j.property with
              | p -> Ok p
              | exception ((Out_of_memory | Stack_overflow) as fatal) ->
                raise fatal
              | exception e -> Error (Printexc.to_string e) ))
          group))

(* The instrumented job: one span per obligation job, tagged at the
   end with what actually happened (backend, verdict, cache hit). *)
let instrumented ~mode discharge_fn (j : job) =
  if not (Ilv_obs.Obs.enabled ()) then discharge_fn j
  else begin
    let open Ilv_obs.Obs in
    let span =
      span_begin "engine.job"
        ([
           ("job_id", I j.id);
           ("design", S j.design);
           ("port", S j.port);
           ("instr", S j.instr);
           ("mode", S mode);
         ]
        @ match j.variant with None -> [] | Some v -> [ ("variant", S v) ])
    in
    count "engine.jobs" 1;
    let r = discharge_fn j in
    span_end
      ~fields:
        [
          ("backend", S r.backend);
          ("verdict", S (verdict_string r.verdict));
          ("cache_hit", B r.cache_hit);
        ]
      span;
    r
  end

let run ?(jobs = 1) ?cache ?budget ?timeout_s
    ?(incremental = true) ?(memory_abstraction = false) job_list =
  let t0 = Unix.gettimeofday () in
  let run_span =
    if Ilv_obs.Obs.enabled () then
      Some
        (Ilv_obs.Obs.span_begin "engine.run"
           [
             ("n_jobs", Ilv_obs.Obs.I (List.length job_list));
             ("workers", Ilv_obs.Obs.I (max 1 jobs));
             ("cache", Ilv_obs.Obs.B (cache <> None));
             ("incremental", Ilv_obs.Obs.B incremental);
           ])
    else None
  in
  let ordered_jobs, outcomes =
    if incremental then begin
      (* The group — one port's jobs — is the scheduling atom: a worker
         takes a whole group, prepares its shared frame once, and
         solves the group's queries back to back so every query after
         the first inherits the earlier ones' learnt clauses.  Workers
         persist across groups (one fork per worker for the whole
         sweep, not per group).  Splitting a group across workers would
         re-prepare the frame in each and forfeit the learnt-clause
         transfer that makes incremental solving pay. *)
      let groups = group_jobs job_list in
      let discharge_group group =
        (* the group's deadline starts here, preparation included *)
        let budget = deadlined ~timeout_s budget in
        let session = init_group ~memory_abstraction group in
        List.map
          (instrumented ~mode:"incremental"
             (discharge (fun ~design ~instr j ->
                  Session.check ?budget ?cache ~design ~instr session
                    (string_of_int j.id))))
          group
      in
      let group_outcomes = Pool.map ~jobs discharge_group groups in
      ( List.concat groups,
        List.concat
          (List.map2
             (fun g outcome ->
               match outcome with
               | Pool.Done rs when List.length rs = List.length g ->
                 List.map (fun r -> Pool.Done r) rs
               | Pool.Done _ ->
                 List.map
                   (fun _ -> Pool.Crashed "engine: group result arity mismatch")
                   g
               | Pool.Crashed reason ->
                 List.map (fun _ -> Pool.Crashed reason) g
               | Pool.Poisoned reason ->
                 List.map (fun _ -> Pool.Poisoned reason) g)
             groups group_outcomes) )
    end
    else
      ( job_list,
        Pool.map ~jobs
          (instrumented ~mode:"fresh"
             (discharge (fun ~design ~instr j ->
                  Session.check_property
                    ?budget:(deadlined ~timeout_s budget)
                    ?cache ~memory_abstraction ~design ~instr
                    (Lazy.force j.property))))
          job_list )
  in
  let results =
    List.map2
      (fun j outcome ->
        match outcome with
        | Pool.Done r -> r
        | Pool.Crashed reason ->
          result_of_job j
            ~verdict:(Checker.Unknown ("engine: " ^ reason))
            ~stats:Checker.zero_stats ~time_s:0.0 ~backend:"error"
            ~cache_hit:false
        | Pool.Poisoned reason ->
          (* quarantined by pool supervision: an explicit, machine-
             readable verdict with the kill history, not a hang *)
          result_of_job j
            ~verdict:(Checker.Unknown ("engine: poisoned: " ^ reason))
            ~stats:Checker.zero_stats ~time_s:0.0 ~backend:"poisoned"
            ~cache_hit:false)
      ordered_jobs outcomes
  in
  let results = List.sort (fun a b -> compare a.job_id b.job_id) results in
  let count p = List.length (List.filter p results) in
  let summary =
    {
      n_jobs = List.length results;
      n_proved =
        count (fun r ->
            match r.verdict with Checker.Proved -> true | _ -> false);
      n_failed =
        count (fun r ->
            match r.verdict with Checker.Failed _ -> true | _ -> false);
      n_unknown =
        count (fun r ->
            match r.verdict with Checker.Unknown _ -> true | _ -> false);
      n_errors = count (fun r -> r.backend = "error");
      n_poisoned = count (fun r -> r.backend = "poisoned");
      n_degraded = count (fun r -> Verify.is_degraded_rung r.backend);
      cache_hits = count (fun r -> r.cache_hit);
      cache_misses =
        (match cache with
        | None -> 0
        | Some _ ->
          count (fun r ->
              (not r.cache_hit)
              && r.backend <> "error"
              && r.backend <> "poisoned"));
      fresh_sat_attempts =
        List.fold_left
          (fun acc r ->
            if r.cache_hit then acc else acc + r.stats.Checker.attempts)
          0 results;
      wall_s = Unix.gettimeofday () -. t0;
      jobs_used = max 1 jobs;
    }
  in
  (match run_span with
  | None -> ()
  | Some id ->
    Ilv_obs.Obs.span_end
      ~fields:
        [
          ("proved", Ilv_obs.Obs.I summary.n_proved);
          ("failed", Ilv_obs.Obs.I summary.n_failed);
          ("unknown", Ilv_obs.Obs.I summary.n_unknown);
          ("errors", Ilv_obs.Obs.I summary.n_errors);
          ("poisoned", Ilv_obs.Obs.I summary.n_poisoned);
          ("degraded", Ilv_obs.Obs.I summary.n_degraded);
          ("cache_hits", Ilv_obs.Obs.I summary.cache_hits);
          ("cache_misses", Ilv_obs.Obs.I summary.cache_misses);
        ]
      id);
  (results, summary)

let report_of ~name ~results =
  let rec group = function
    | [] -> []
    | r :: _ as rs ->
      let mine, rest =
        List.partition (fun x -> x.r_port = r.r_port) rs
      in
      (r.r_port, mine) :: group rest
  in
  let instr_result r =
    {
      Verify.instr = r.r_instr;
      port = r.r_port;
      verdict = r.verdict;
      stats = r.stats;
      time_s = r.time_s;
    }
  in
  let ports =
    List.map
      (fun (port_name, rs) ->
        {
          Verify.port_name;
          instr_results = List.map instr_result rs;
          port_time_s =
            List.fold_left (fun acc r -> acc +. r.time_s) 0.0 rs;
        })
      (group results)
  in
  let first_failure =
    List.find_map
      (fun r ->
        match r.verdict with
        | Checker.Failed _ -> Some (instr_result r)
        | _ -> None)
      results
  in
  {
    Verify.design = name;
    ports;
    total_time_s =
      List.fold_left (fun acc r -> acc +. r.time_s) 0.0 results;
    first_failure;
  }

let pp_summary fmt s =
  Format.fprintf fmt
    "@[<v>engine: %d jobs on %d worker%s in %.3fs@,\
    \  verdicts: %d proved, %d failed, %d unknown (%d engine errors)@,\
    \  resilience: %d poisoned, %d degraded@,\
    \  cache: %d hits, %d misses@,\
    \  fresh SAT attempts: %d (cache hits solve zero)@]"
    s.n_jobs s.jobs_used
    (if s.jobs_used = 1 then "" else "s")
    s.wall_s s.n_proved s.n_failed s.n_unknown s.n_errors s.n_poisoned
    s.n_degraded s.cache_hits s.cache_misses s.fresh_sat_attempts
