type 'b outcome = Done of 'b | Crashed of string | Poisoned of string

(* True inside a forked worker process.  Chaos injection sites use this
   to make sure a "kill the worker" fault can only ever take down a
   child — with [jobs <= 1] everything runs in the calling process,
   where exiting would kill the whole sweep. *)
let in_worker_flag = ref false
let in_worker () = !in_worker_flag

(* The retry cool-down: capped exponential backoff with deterministic
   jitter.  Attempt 1 (the first retry) waits ~50ms, doubling up to a
   500ms cap; jitter adds up to 25% of the capped delay, derived from a
   digest of (job, attempt) so two jobs whose workers die together do
   not thunder back in lockstep — and so the schedule is reproducible.
   Pure, and exported for the test suite to pin the bounds down. *)
let backoff_delay ~job ~attempt =
  let base = 0.05 *. (2.0 ** float_of_int (max 0 (attempt - 1))) in
  let capped = Float.min base 0.5 in
  let d = Digest.string (Printf.sprintf "pool-backoff:%d:%d" job attempt) in
  let jitter = float_of_int (Char.code d.[0]) /. 255.0 in
  capped *. (1.0 +. (0.25 *. jitter))

(* [Unix.select] restricted to read interest, with [EINTR] handled
   correctly against an {e absolute} deadline: each retry recomputes
   the remaining wait from [Unix.gettimeofday ()], so a stream of
   signals can never extend the effective wait past the deadline (the
   naive "retry with the same relative timeout" restarts the clock on
   every signal).  [deadline = None] waits indefinitely; a deadline
   already in the past polls once with a zero timeout.  Shared by the
   pool's result loop and the daemon's accept loop
   ({!Ilv_server.Daemon}). *)
let select_read ?deadline fds =
  let rec go () =
    let timeout =
      match deadline with
      | None -> -1.0
      | Some d -> Float.max 0.0 (d -. Unix.gettimeofday ())
    in
    match Unix.select fds [] [] timeout with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> (
      match deadline with
      | Some d when Unix.gettimeofday () >= d -> []
      | Some _ | None -> go ())
    | readable, _, _ -> readable
  in
  go ()

let protected f x =
  match f x with
  | y -> Done y
  | exception (Out_of_memory | Stack_overflow) ->
    (* still contained: in a forked worker only this process dies and
       the parent degrades the job; in-process we match that contract *)
    Crashed "resource exhaustion (out of memory / stack overflow)"
  | exception e -> Crashed (Printexc.to_string e)

type worker = {
  pid : int;
  job_fd : Unix.file_descr;  (* parent writes job indices here *)
  job_oc : out_channel;
  res_fd : Unix.file_descr;  (* parent reads (index, outcome) here *)
  res_ic : in_channel;
  mutable current : int option;
}

(* Worker side: serve job indices until told to stop (negative index or
   closed pipe).  Results are serialised to a string first so that a
   Marshal failure (a closure smuggled into 'b) degrades to a [Crashed]
   message instead of corrupting the result stream mid-write. *)
let serve_jobs arr f jr rw =
  let ic = Unix.in_channel_of_descr jr in
  let oc = Unix.out_channel_of_descr rw in
  let rec serve () =
    match (Marshal.from_channel ic : int) with
    | exception _ -> ()
    | i when i < 0 -> ()
    | i ->
      let r = protected f arr.(i) in
      let payload =
        try Marshal.to_string (i, r) []
        with e ->
          Marshal.to_string
            (i, Crashed ("unmarshalable result: " ^ Printexc.to_string e))
            []
      in
      output_string oc payload;
      flush oc;
      serve ()
  in
  (try serve () with _ -> ());
  (try flush oc with _ -> ())

let obs_event name fields =
  if Ilv_obs.Obs.enabled () then Ilv_obs.Obs.event name fields

let obs_count name n = Ilv_obs.Obs.count name n

let map ?(jobs = 1) f items =
  let n = List.length items in
  if jobs <= 1 || n <= 1 then begin
    List.map (protected f) items
  end
  else begin
    let arr = Array.of_list items in
    let results = Array.make n None in
    (* per-job kill history: (worker pid, how it died), newest first.
       One kill earns one supervised retry; a second kill marks the job
       [Poisoned] — it is never handed to a third worker. *)
    let kills = Array.make n [] in
    let queue = Queue.create () in
    (* retries cooling down under backoff: (ready-at, job index) *)
    let delayed = ref [] in
    for i = 0 to n - 1 do
      Queue.add i queue
    done;
    let alive = ref [] in
    (* a worker write can hit a dead worker's pipe; that must surface as
       an exception on the write, not kill this process *)
    let old_sigpipe =
      try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
      with Invalid_argument _ -> None
    in
    (* Respawn budget: the guard against an environment that kills
       workers faster than they can be replaced (fork bombs, a hostile
       OOM killer).  Poisoning already caps job-attributable deaths at
       two per job, so a budget linear in the job count lets every job
       spend its full retry allowance — a retry costs two credits, one
       at the crash and one at the respawn — while still bounding
       pathological idle-worker churn. *)
    let respawns = ref ((2 * jobs) + (4 * n)) in
    let spawn ?(respawn = false) () =
      let jr, jw = Unix.pipe () in
      let rr, rw = Unix.pipe () in
      match Unix.fork () with
      | 0 ->
        Unix.close jw;
        Unix.close rr;
        (* drop the pipe ends of sibling workers inherited over the
           fork: a sibling holding a dead worker's write end would mask
           the EOF the parent uses to detect the death *)
        List.iter
          (fun w ->
            (try Unix.close w.job_fd with Unix.Unix_error _ -> ());
            (try Unix.close w.res_fd with Unix.Unix_error _ -> ()))
          !alive;
        in_worker_flag := true;
        serve_jobs arr f jr rw;
        Unix._exit 0
      | pid ->
        Unix.close jr;
        Unix.close rw;
        let w =
          {
            pid;
            job_fd = jw;
            job_oc = Unix.out_channel_of_descr jw;
            res_fd = rr;
            res_ic = Unix.in_channel_of_descr rr;
            current = None;
          }
        in
        alive := w :: !alive;
        obs_count (if respawn then "pool.respawns" else "pool.spawns") 1;
        obs_event
          (if respawn then "pool.respawn" else "pool.spawn")
          [ ("worker_pid", Ilv_obs.Obs.I pid) ];
        w
    in
    (* Reaping also classifies the death: a signal is a genuine crash
       (OOM killer, chaos injection, stray SIGKILL), a nonzero exit is
       a worker that gave up deliberately, a clean exit mid-job means
       the result pipe broke.  The classification feeds the retry
       policy and every disposition string the sweep reports. *)
    let signal_name sg =
      (* OCaml's portable signal numbers are negative — name the usual
         suspects rather than leak the encoding into dispositions *)
      if sg = Sys.sigkill then "SIGKILL"
      else if sg = Sys.sigterm then "SIGTERM"
      else if sg = Sys.sigsegv then "SIGSEGV"
      else if sg = Sys.sigbus then "SIGBUS"
      else if sg = Sys.sigabrt then "SIGABRT"
      else if sg = Sys.sigint then "SIGINT"
      else Printf.sprintf "signal %d" sg
    in
    let reap w =
      alive := List.filter (fun x -> x.pid <> w.pid) !alive;
      (try close_out w.job_oc with _ -> ());
      (try close_in w.res_ic with _ -> ());
      match Unix.waitpid [] w.pid with
      | _, Unix.WSIGNALED sg -> "killed by " ^ signal_name sg
      | _, Unix.WEXITED 0 -> "exited cleanly (result pipe broken)"
      | _, Unix.WEXITED code -> Printf.sprintf "exited with code %d" code
      | _, Unix.WSTOPPED sg -> "stopped by " ^ signal_name sg
      | exception Unix.Unix_error _ -> "already reaped"
    in
    let retire w =
      (try
         Marshal.to_channel w.job_oc (-1) [];
         flush w.job_oc
       with _ -> ());
      obs_event "pool.retire" [ ("worker_pid", Ilv_obs.Obs.I w.pid) ];
      ignore (reap w)
    in
    (* true when the job was delivered; false when the worker is dead
       (the job goes back on the queue — it never started there) *)
    let assign w =
      match Queue.take_opt queue with
      | None ->
        retire w;
        true
      | Some i -> (
        w.current <- Some i;
        try
          Marshal.to_channel w.job_oc i [];
          flush w.job_oc;
          obs_count "pool.dispatches" 1;
          obs_event "pool.dispatch"
            [ ("worker_pid", Ilv_obs.Obs.I w.pid); ("job", Ilv_obs.Obs.I i) ];
          true
        with _ ->
          w.current <- None;
          Queue.add i queue;
          ignore (reap w);
          false)
    in
    let history_of i =
      String.concat "; "
        (List.rev_map
           (fun (pid, how) -> Printf.sprintf "%s (worker %d)" how pid)
           kills.(i))
    in
    (* A worker died mid-job.  The supervision policy: the first kill
       earns the job one retry — after a backoff cool-down, charged
       against [respawns] — because the death may be the worker's fault
       (resource spike, stray signal), not the job's.  A second kill is
       the job's fault by induction: two distinct processes died running
       it, so it is quarantined as [Poisoned] with its full kill history
       and never dispatched again.  Determinism is unaffected: only this
       job's outcome changes, never the result order. *)
    let crash w =
      let job = w.current in
      w.current <- None;
      let how = reap w in
      obs_count "pool.crashes" 1;
      match job with
      | None ->
        obs_event "pool.crash"
          [
            ("worker_pid", Ilv_obs.Obs.I w.pid);
            ("how", Ilv_obs.Obs.S how);
            ("idle", Ilv_obs.Obs.B true);
          ]
      | Some i ->
        kills.(i) <- (w.pid, how) :: kills.(i);
        let n_kills = List.length kills.(i) in
        let retry = n_kills < 2 && !respawns > 0 in
        obs_event "pool.crash"
          [
            ("worker_pid", Ilv_obs.Obs.I w.pid);
            ("job", Ilv_obs.Obs.I i);
            ("how", Ilv_obs.Obs.S how);
            ("kills", Ilv_obs.Obs.I n_kills);
            ("retrying", Ilv_obs.Obs.B retry);
          ];
        if retry then begin
          decr respawns;
          obs_count "pool.retries" 1;
          let delay = backoff_delay ~job:i ~attempt:n_kills in
          obs_event "pool.retry"
            [
              ("job", Ilv_obs.Obs.I i);
              ("attempt", Ilv_obs.Obs.I n_kills);
              ("backoff_s", Ilv_obs.Obs.F delay);
              ("reason", Ilv_obs.Obs.S how);
            ];
          delayed := (Unix.gettimeofday () +. delay, i) :: !delayed
        end
        else if n_kills >= 2 then begin
          obs_count "pool.poisoned" 1;
          obs_event "pool.poisoned"
            [
              ("job", Ilv_obs.Obs.I i);
              ("kills", Ilv_obs.Obs.I n_kills);
              ("history", Ilv_obs.Obs.S (history_of i));
            ];
          results.(i) <-
            Some
              (Poisoned
                 (Printf.sprintf "job killed %d workers: %s" n_kills
                    (history_of i)))
        end
        else
          results.(i) <-
            Some
              (Crashed
                 (Printf.sprintf "%s; retry budget exhausted (history: %s)"
                    how (history_of i)))
    in
    let unfilled () = Array.exists (fun r -> r = None) results in
    (* move retries whose backoff has elapsed onto the live queue *)
    let release_ready () =
      let now = Unix.gettimeofday () in
      let ready, waiting = List.partition (fun (t, _) -> t <= now) !delayed in
      delayed := waiting;
      List.iter (fun (_, i) -> Queue.add i queue) ready
    in
    let earliest_ready () =
      List.fold_left (fun acc (t, _) -> Float.min acc t) infinity !delayed
    in
    for _ = 1 to min jobs n do
      ignore (assign (spawn ()))
    done;
    while unfilled () do
      release_ready ();
      (* keep enough workers alive for the queued jobs *)
      while
        (not (Queue.is_empty queue))
        && List.length !alive < jobs
        && !respawns > 0
      do
        decr respawns;
        ignore (assign (spawn ~respawn:true ()))
      done;
      let busy = List.filter (fun w -> w.current <> None) !alive in
      if busy = [] && !delayed <> [] then begin
        (* nothing in flight, but retries are cooling down: sleep until
           the earliest becomes dispatchable *)
        let dt = earliest_ready () -. Unix.gettimeofday () in
        if dt > 0.0 then Unix.sleepf dt
      end
      else if busy = [] then begin
        (* no worker is running and nothing can be (re)spawned: fail the
           leftovers rather than spin *)
        Queue.iter
          (fun i ->
            if results.(i) = None then
              results.(i) <- Some (Crashed "worker pool exhausted"))
          queue;
        Queue.clear queue;
        Array.iteri
          (fun i r ->
            if r = None then
              results.(i) <- Some (Crashed "worker pool exhausted"))
          results
      end
      else begin
        let fds = List.map (fun w -> w.res_fd) busy in
        (* with retries cooling down, wake up in time to dispatch them
           even if no result arrives; [select_read] owns EINTR and the
           absolute-deadline arithmetic *)
        let deadline =
          if !delayed = [] then None else Some (earliest_ready ())
        in
        let readable = select_read ?deadline fds in
        List.iter
            (fun fd ->
              match List.find_opt (fun w -> w.res_fd == fd) busy with
              | None -> ()
              | Some w -> (
                match (Marshal.from_channel w.res_ic : int * 'b outcome) with
                | i, r ->
                  results.(i) <- Some r;
                  w.current <- None;
                  ignore (assign w)
                | exception _ -> crash w))
            readable
      end
    done;
    List.iter retire !alive;
    (match old_sigpipe with
    | Some behaviour -> (try Sys.set_signal Sys.sigpipe behaviour with _ -> ())
    | None -> ());
    Array.to_list
      (Array.map
         (function
           | Some r -> r
           | None -> Crashed "internal: job never completed")
         results)
  end
