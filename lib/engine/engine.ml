open Ilv_core

type job = {
  id : int;
  design : string;
  port : string;
  instr : string;
  property : Property.t Lazy.t;
}

(* The jobs of one port share a lazy property generator, hence one
   unrolling of the RTL; a refinement-map error still surfaces only in
   the properties it breaks. *)
let jobs_of ?only_ports ?(first_id = 0) ~name module_ila rtl
    ~refmap_for () =
  let generators =
    List.map
      (fun (port : Ila.t) ->
        ( port.Ila.name,
          lazy
            (Propgen.generator ~ila:port ~rtl
               ~refmap:(refmap_for port.Ila.name)) ))
      (Verify.selected_ports ?only_ports module_ila)
  in
  List.mapi
    (fun i (t : Verify.task) ->
      let port = t.Verify.task_port in
      let instr = t.Verify.task_instr in
      let gen = List.assoc port.Ila.name generators in
      {
        id = first_id + i;
        design = name;
        port = port.Ila.name;
        instr = instr.Ila.instr_name;
        property = lazy ((Lazy.force gen) instr);
      })
    (Verify.enumerate ?only_ports module_ila)

type result = {
  job_id : int;
  r_design : string;
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
   port — the pool's scheduling atom in incremental mode), so
   the one-shot ledger both survives the retry running in a different
   worker and guarantees at most one kill per group: a second kill on
   any job of the same group would poison the whole group. *)
let job_chaos_key (j : job) = j.design ^ "/" ^ j.port

let chaos_kill_point (j : job) =
  if
    Pool.in_worker ()
    && Ilv_obs.Inject.fire_once ~point:"pool.kill" ~key:(job_chaos_key j)
       = Ilv_obs.Inject.Fault
  then Unix.kill (Unix.getpid ()) Sys.sigkill

(* Discharge one job through [check] (in incremental mode a {!Session}
   step, given the job's cache labels).  Any exception becomes this job's
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

   Jobs of one (design, port) share a single bit-blasted frame
   and one incremental solver: a {!Verify.prepared_port} session built
   from the jobs' properties, checked through {!Session.check}.  The
   session is built by [Pool]'s per-worker group function — in the
   worker process, after the fork — so a worker pays one frame
   preparation for all the jobs of the group it serves. *)

(* Group jobs by (design, port), preserving first-appearance
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
      let k = (j.design, j.port) in
      match Hashtbl.find_opt tbl k with
      | Some r -> r := j :: !r
      | None ->
        let r = ref [ j ] in
        Hashtbl.add tbl k r;
        order := k :: !order)
    job_list;
  List.rev_map (fun k -> List.rev !(Hashtbl.find tbl k)) !order

(* The job's property, or the message of what its refinement map or
   the property generator raised. *)
let property_of j =
  match Lazy.force j.property with
  | p -> Ok p
  | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
  | exception e -> Error (Printexc.to_string e)

(* A group's session entries are named by their job positions. *)
let entry_names group = List.mapi (fun i _ -> string_of_int i) group

(* The group's session holds exactly its jobs' properties in job order,
   each entry named by its position in the group.  No frame is frozen
   here: the first cache key freezes the generation-0 frame (a canonical
   snapshot on a throwaway context, so the live solver keeps its lazy
   working set), and a run without a cache or memo never pays that extra
   encoding pass. *)
let init_group ?cache ?memo ~memory_abstraction group =
  let label = match group with [] -> "" | j :: _ -> job_chaos_key j in
  Session.create ?cache ?memo
    (Verify.prepare_properties ~memory_abstraction ~label
       (List.map2 (fun name j -> (name, property_of j)) (entry_names group)
          group))

(* ---- resident state ----

   What a long-lived caller keeps between runs: each group and the memo
   in front of the proof cache.  A group is identified by its design
   label, encoding and instruction list, so a group built from a
   different job set never answers for another.  A group stays [Live]
   (its session, with the solver and frame) until a run leaves every
   one of its jobs definitive and memoized; from then on it is
   [Decided]: only its jobs' memo keys, in job order. *)

type group = Live of Session.t | Decided of string array

type resident = {
  groups : (string, group) Hashtbl.t;
  memo : Session.memo;
}

let resident () = { groups = Hashtbl.create 16; memo = Session.memo () }
let resident_groups r = Hashtbl.length r.groups

let resident_decided r =
  Hashtbl.fold
    (fun _ g n -> match g with Decided _ -> n + 1 | Live _ -> n)
    r.groups 0

let group_key ~memory_abstraction group =
  String.concat "\x00"
    ((if memory_abstraction then "abstract" else "concrete")
    :: (match group with [] -> [] | j :: _ -> [ j.design; j.port ])
    @ List.map (fun j -> j.instr) group)

let session_check ?budget s i ~design ~instr _ =
  Session.check ?budget ~design ~instr s (string_of_int i)

(* The check for each job of a group, by position.  A decided group
   whose keys the memo all answers builds nothing; any other resident
   group reuses or builds its session (a decided one whose memo entry
   is gone is rebuilt). *)
let group_check ?cache ?resident ?budget ~memory_abstraction group =
  match resident with
  | None -> session_check ?budget (init_group ?cache ~memory_abstraction group)
  | Some r -> (
    let k = group_key ~memory_abstraction group in
    let build () =
      let s = init_group ?cache ~memo:r.memo ~memory_abstraction group in
      Hashtbl.replace r.groups k (Live s);
      session_check ?budget s
    in
    match Hashtbl.find_opt r.groups k with
    | Some (Live s) -> session_check ?budget s
    | None -> build ()
    | Some (Decided keys) ->
      let answers = Array.map (Session.recall r.memo) keys in
      if Array.for_all Option.is_some answers then
        fun i ~design:_ ~instr:_ _ -> Option.get answers.(i)
      else build ())

(* After a run of a live group: a deadline skip leaves its [Unknown]
   pinned in the session's frame (the skipped cones are retired), so
   such a group is dropped and the next run rebuilds it; a group whose
   every job ended definitive and memoized keeps only its keys. *)
let settle r ~memory_abstraction group results =
  let k = group_key ~memory_abstraction group in
  match Hashtbl.find_opt r.groups k with
  | Some (Decided _) | None -> ()
  | Some (Live s) ->
    let unknown why =
      List.exists
        (fun res ->
          match res.verdict with
          | Checker.Unknown reason -> why reason
          | Checker.Proved | Checker.Failed _ -> false)
        results
    in
    if unknown Checker.is_deadline_reason then Hashtbl.remove r.groups k
    else if not (unknown (fun _ -> true)) then
      Option.iter
        (fun keys -> Hashtbl.replace r.groups k (Decided keys))
        (Session.memoized_keys s (entry_names group))

(* The instrumented job: one span per obligation job, tagged at the
   end with what actually happened (backend, verdict, cache hit). *)
let instrumented ~mode discharge_fn (j : job) =
  if not (Ilv_obs.Obs.enabled ()) then discharge_fn j
  else begin
    let open Ilv_obs.Obs in
    let span =
      span_begin "engine.job"
        [
          ("job_id", I j.id);
          ("design", S j.design);
          ("port", S j.port);
          ("instr", S j.instr);
          ("mode", S mode);
        ]
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

let crashed_result ~backend ~reason j =
  result_of_job j
    ~verdict:(Checker.Unknown ("engine: " ^ reason))
    ~stats:Checker.zero_stats ~time_s:0.0 ~backend ~cache_hit:false

(* Everything after the first [Failed] in job order. *)
let cut_after_failure results =
  let rec keep = function
    | [] -> []
    | r :: rest -> (
      match r.verdict with
      | Checker.Failed _ -> [ r ]
      | Checker.Proved | Checker.Unknown _ -> r :: keep rest)
  in
  keep results

(* The sweep: results sorted by job id, each group with the wall time it
   took in the process that ran it (preparation included), and the
   summary. *)
let sweep ~stop_at_first_failure ?(jobs = 1) ?cache ?resident ?budget
    ?timeout_s ?(incremental = true) ?(memory_abstraction = false) job_list =
  if resident <> None && jobs > 1 then
    invalid_arg "Engine.run: ~resident needs ~jobs:1 (a worker's sessions \
                 would die with it)";
  if (not incremental) && (cache <> None || resident <> None) then
    invalid_arg "Engine.run: ~incremental:false is the uncached reference \
                 (no ~cache, no ~resident)";
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
  (* The group — one port's jobs — is the scheduling atom in
     incremental mode: a worker takes a whole group, prepares its shared
     frame once, and solves the group's queries back to back so every
     query after the first inherits the earlier ones' learnt clauses.
     Workers persist across groups (one fork per worker for the whole
     sweep, not per group).  Splitting a group across workers would
     re-prepare the frame in each and forfeit the learnt-clause transfer
     that makes incremental solving pay.  Fresh mode schedules each job
     as a group of its own. *)
  let groups =
    if incremental then group_jobs job_list
    else List.map (fun j -> [ j ]) job_list
  in
  let mode = if incremental then "incremental" else "fresh" in
  (* The lowest id of a [Failed] job this process has discharged.  With
     [stop_at_first_failure], a job after it is skipped: in-process the
     groups arrive in job order, so later groups are neither prepared
     nor solved; a worker only knows its own failures, and a retried
     group with earlier ids still runs. *)
  let failed_at = ref max_int in
  let skipped j = stop_at_first_failure && j.id > !failed_at in
  let discharge_group group =
    let g0 = Unix.gettimeofday () in
    let results =
      if List.for_all skipped group then []
      else begin
        (* the group's deadline starts here, preparation included *)
        let budget = Checker.with_timeout timeout_s budget in
        let check =
          if incremental then
            group_check ?cache ?resident ?budget ~memory_abstraction group
          else fun _ ~design:_ ~instr:_ j ->
            match property_of j with
            | Ok p ->
              let verdict, stats, rung =
                Verify.check_property ?budget ~memory_abstraction p
              in
              (verdict, stats, rung, false)
            | Error msg ->
              (* the same verdict [init_group]'s session gives such a job *)
              ( Checker.Unknown ("exception: " ^ msg),
                Checker.zero_stats,
                "error",
                false )
        in
        let results =
          List.concat
            (List.mapi
               (fun i j ->
                 if skipped j then []
                 else begin
                   let r = instrumented ~mode (discharge (check i)) j in
                   (match r.verdict with
                   | Checker.Failed _ -> failed_at := min !failed_at j.id
                   | Checker.Proved | Checker.Unknown _ -> ());
                   [ r ]
                 end)
               group)
        in
        Option.iter
          (fun r -> settle r ~memory_abstraction group results)
          resident;
        results
      end
    in
    (results, Unix.gettimeofday () -. g0)
  in
  let timed_groups =
    List.map2
      (fun g outcome ->
        match outcome with
        | Pool.Done (rs, wall) -> (g, rs, wall)
        | Pool.Crashed reason ->
          (g, List.map (crashed_result ~backend:"error" ~reason) g, 0.0)
        | Pool.Poisoned reason ->
          (* quarantined by pool supervision: an explicit, machine-
             readable verdict with the kill history, not a hang *)
          let reason = "poisoned: " ^ reason in
          (g, List.map (crashed_result ~backend:"poisoned" ~reason) g, 0.0))
      groups
      (Pool.map ~jobs discharge_group groups)
  in
  let results =
    List.sort
      (fun a b -> compare a.job_id b.job_id)
      (List.concat_map (fun (_, rs, _) -> rs) timed_groups)
  in
  (* a worker may have solved past the first failure: cut there, so the
     results are the same for any worker count *)
  let results =
    if stop_at_first_failure then cut_after_failure results else results
  in
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
              && not (List.mem r.backend [ "error"; "poisoned"; "memo" ])));
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
  (results, timed_groups, summary)

let run ?jobs ?cache ?resident ?budget ?timeout_s ?incremental
    ?memory_abstraction job_list =
  let results, _, summary =
    sweep ~stop_at_first_failure:false ?jobs ?cache ?resident ?budget
      ?timeout_s ?incremental ?memory_abstraction job_list
  in
  (results, summary)

let verify ?(stop_at_first_failure = true) ?jobs ?cache ?budget ?timeout_s
    ?incremental ?memory_abstraction ?only_ports ~name module_ila rtl
    ~refmap_for =
  let t0 = Unix.gettimeofday () in
  let results, timed_groups, summary =
    sweep ~stop_at_first_failure ?jobs ?cache ?budget ?timeout_s ?incremental
      ?memory_abstraction
      (jobs_of ?only_ports ~name module_ila rtl ~refmap_for ())
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
  let port_report (port : Ila.t) =
    let mine r = r.r_port = port.Ila.name in
    {
      Verify.port_name = port.Ila.name;
      instr_results = List.map instr_result (List.filter mine results);
      port_time_s =
        List.fold_left
          (fun acc (g, _, wall) ->
            match g with j :: _ when j.port = port.Ila.name -> acc +. wall
            | _ -> acc)
          0.0 timed_groups;
    }
  in
  let report =
    {
      Verify.design = name;
      ports =
        List.map port_report (Verify.selected_ports ?only_ports module_ila);
      total_time_s = Unix.gettimeofday () -. t0;
      first_failure =
        List.find_map
          (fun r ->
            match r.verdict with
            | Checker.Failed _ -> Some (instr_result r)
            | Checker.Proved | Checker.Unknown _ -> None)
          results;
    }
  in
  (report, summary)

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
