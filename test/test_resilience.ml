(* Tests for the engine resilience layer: backoff schedule bounds,
   deadline propagation and its machine-readable timeout marker, the
   degradation ladder's verdict preservation under injected stalls,
   crash-safe cache recovery from torn and bit-rotted entries, and
   verdict determinism when chaos kills workers mid-sweep. *)

open Ilv_core
open Ilv_designs
open Ilv_engine

let t name f = Alcotest.test_case name `Quick f

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ilv-test-resilience-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let design name = List.find (fun d -> d.Design.name = name) Catalog.all

let jobs_of (d : Design.t) =
  Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
    ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
    ()

let port_properties (d : Design.t) =
  let port = List.hd d.Design.module_ila.Module_ila.ports in
  let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
  List.map
    (fun i -> Propgen.generate_for ~ila:port ~rtl:d.Design.rtl ~refmap i)
    (Ila.leaf_instructions port)

(* ------------------------------------------------------------------ *)
(* Backoff schedule                                                    *)
(* ------------------------------------------------------------------ *)

let backoff_tests =
  [
    t "backoff is deterministic, bounded, and roughly exponential"
      (fun () ->
        for job = 0 to 5 do
          for attempt = 1 to 6 do
            let d = Pool.backoff_delay ~job ~attempt in
            let base =
              Float.min (0.05 *. (2.0 ** float_of_int (attempt - 1))) 0.5
            in
            Alcotest.(check bool)
              (Printf.sprintf "job %d attempt %d >= base" job attempt)
              true (d >= base);
            Alcotest.(check bool)
              (Printf.sprintf "job %d attempt %d <= base + 25%% jitter" job
                 attempt)
              true
              (d <= (base *. 1.25) +. 1e-9);
            Alcotest.(check (float 0.0))
              "pure function of (job, attempt)" d
              (Pool.backoff_delay ~job ~attempt)
          done
        done);
    t "backoff never exceeds the cap regardless of attempt" (fun () ->
        List.iter
          (fun attempt ->
            Alcotest.(check bool)
              (Printf.sprintf "attempt %d capped" attempt)
              true
              (Pool.backoff_delay ~job:3 ~attempt <= 0.5 *. 1.25 +. 1e-9))
          [ 10; 20; 60 ]);
    t "jitter varies across jobs" (fun () ->
        (* not all jobs may differ pairwise, but a schedule where every
           job backs off identically has lost its jitter *)
        let ds =
          List.init 16 (fun job -> Pool.backoff_delay ~job ~attempt:1)
        in
        Alcotest.(check bool)
          "some spread" true
          (List.exists (fun d -> d <> List.hd ds) ds));
  ]

(* ------------------------------------------------------------------ *)
(* Deadlines                                                           *)
(* ------------------------------------------------------------------ *)

let timeout_reason_tests =
  [
    t "deadline marker: prefix, wrapped, and absent" (fun () ->
        Alcotest.(check bool)
          "bare marker" true
          (Checker.is_deadline_reason "deadline: group deadline exceeded");
        Alcotest.(check bool)
          "wrapped in encoder context" true
          (Checker.is_deadline_reason
             "obligation equivalence after 1 cycle(s): deadline: expired");
        Alcotest.(check bool)
          "ordinary budget exhaustion is not a deadline" false
          (Checker.is_deadline_reason "conflict budget exhausted");
        Alcotest.(check bool) "empty" false (Checker.is_deadline_reason ""));
    t "a solver reason containing timeout: is not a group deadline" (fun () ->
        (* Regression: the old marker was the substring ["timeout:"], so
           any solver/encoder prose containing it was misclassified as a
           group-deadline expiry and wrongly suppressed escalation and
           the degradation ladder. *)
        Alcotest.(check bool)
          "solver prose with timeout:" false
          (Checker.is_deadline_reason
             "solver: timeout: wall budget exceeded (10s)");
        Alcotest.(check bool)
          "per-call wall budget message" false
          (Checker.is_deadline_reason "timeout: deadline exceeded (0.5s)");
        Alcotest.(check bool)
          "real deadline reason matches" true
          (Checker.is_deadline_reason
             (String.concat " "
                [ Checker.deadline_sentinel; "group deadline exceeded" ])));
    t "an expired deadline yields deadline unknowns, not a hang" (fun () ->
        let d = design "AXI Slave" in
        let report, _ =
          Engine.verify ~timeout_s:0.0 ~name:d.Design.name d.Design.module_ila
            d.Design.rtl
            ~refmap_for:(d.Design.refmap_for d.Design.rtl)
        in
        let unknowns = Verify.unknowns report in
        Alcotest.(check bool) "has unknowns" true (unknowns <> []);
        List.iter
          (fun (ir : Verify.instr_result) ->
            match ir.Verify.verdict with
            | Checker.Unknown reason ->
              Alcotest.(check bool)
                (ir.Verify.instr ^ " carries the deadline marker")
                true
                (Checker.is_deadline_reason reason)
            | Checker.Proved | Checker.Failed _ ->
              Alcotest.fail "expired deadline must not decide anything")
          unknowns);
    t "a generous deadline changes no verdict" (fun () ->
        let d = design "AXI Slave" in
        let results, summary =
          Engine.run ~jobs:1 ~timeout_s:3600.0 (jobs_of d)
        in
        Alcotest.(check int)
          "all proved" summary.Engine.n_jobs summary.Engine.n_proved;
        List.iter
          (fun (r : Engine.result) ->
            Alcotest.(check bool)
              "verdict is Proved" true
              (r.Engine.verdict = Checker.Proved))
          results);
    t "the deadline survives budget escalation unscaled" (fun () ->
        let b =
          Checker.budget ~conflicts:10 ~deadline_s:123.5 ~escalations:2 ()
        in
        Alcotest.(check bool)
          "deadline set" true
          (not (Checker.is_unlimited b));
        let b' = Checker.with_deadline 200.0 b in
        Alcotest.(check bool)
          "with_deadline replaces it" true
          (b' <> b));
  ]

(* ------------------------------------------------------------------ *)
(* Degradation ladder                                                  *)
(* ------------------------------------------------------------------ *)

let ladder_tests =
  [
    t "undisturbed shared query stays on the incremental rung" (fun () ->
        let sh =
          Checker.prepare_shared ~label:"ladder-base"
            (port_properties (design "AXI Slave"))
        in
        let v, _, rung = Checker.check_shared_degrading sh 0 in
        Alcotest.(check string) "rung" "incremental" rung;
        Alcotest.(check bool) "proved" true (v = Checker.Proved));
    t "an injected stall demotes to the fresh rung, verdict preserved"
      (fun () ->
        let scratch = fresh_dir () in
        Ilv_obs.Inject.configure ~seed:11 ~dir:scratch
          ~points:[ ("solver.stall", 1.0) ]
          ();
        Fun.protect
          ~finally:(fun () ->
            Ilv_obs.Inject.disable ();
            rm_rf scratch)
          (fun () ->
            let sh =
              Checker.prepare_shared ~label:"ladder-stall"
                (port_properties (design "AXI Slave"))
            in
            let v, _, rung = Checker.check_shared_degrading sh 0 in
            Alcotest.(check string) "rung" "fresh" rung;
            Alcotest.(check bool)
              "stall fired" true
              (Ilv_obs.Inject.fired ~point:"solver.stall" > 0);
            Alcotest.(check bool) "verdict preserved" true
              (v = Checker.Proved)));
    t "an obligation past the fresh rung degrades after two demotions"
      (fun () ->
        (* one conflict and no escalation: AXI Master's M-READ
           property 3 needs more (61 unbounded), on the shared frame
           and on a fresh solver *)
        let budget = Checker.budget ~conflicts:1 ~escalations:0 () in
        let sh =
          Checker.prepare_shared ~label:"ladder-exhausted"
            (port_properties (design "AXI Master"))
        in
        let scratch = fresh_dir () in
        let trace = Filename.concat scratch "ladder.jsonl" in
        let answer = Filename.concat scratch "answer" in
        (* traced in a child: the in-memory counter totals of this
           process must not move, other suites' traces start from them *)
        (match Unix.fork () with
        | 0 ->
          Ilv_obs.Obs.configure ~trace_out:trace ();
          let v, _, rung = Checker.check_shared_degrading ~budget sh 3 in
          Ilv_obs.Obs.shutdown ();
          let oc = open_out_bin answer in
          output_string oc
            (rung ^ "\n"
            ^
            match v with
            | Checker.Unknown reason -> reason
            | Checker.Proved | Checker.Failed _ -> "decided");
          close_out oc;
          Unix._exit 0
        | pid -> ignore (Unix.waitpid [] pid));
        let read path =
          let ic = open_in_bin path in
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () -> really_input_string ic (in_channel_length ic))
        in
        let rung, reason =
          let a = read answer in
          match String.index_opt a '\n' with
          | Some i ->
            (String.sub a 0 i, String.sub a (i + 1) (String.length a - i - 1))
          | None -> Alcotest.fail "the child left no answer"
        in
        let events =
          let raw = read trace in
          rm_rf scratch;
          match Ilv_obs.Json.parse_lines raw with
          | Ok lines -> lines
          | Error msg -> Alcotest.fail msg
        in
        let degrades =
          List.filter
            (fun l ->
              Option.bind (Ilv_obs.Json.member "name" l) Ilv_obs.Json.to_string
              = Some "checker.degrade")
            events
        in
        Alcotest.(check string) "rung" "degraded" rung;
        Alcotest.(check bool)
          ("reason: " ^ reason) true
          (String.starts_with ~prefix:"degraded(incremental->fresh): " reason);
        Alcotest.(check int) "two checker.degrade events" 2
          (List.length degrades));
    t "a deadline unknown does not descend the ladder" (fun () ->
        let sh =
          Checker.prepare_shared ~label:"ladder-timeout"
            (port_properties (design "AXI Slave"))
        in
        let budget =
          Checker.with_deadline
            (Unix.gettimeofday () -. 1.0)
            Checker.unlimited
        in
        let v, _, rung = Checker.check_shared_degrading ~budget sh 0 in
        Alcotest.(check string) "rung" "incremental" rung;
        match v with
        | Checker.Unknown reason ->
          Alcotest.(check bool)
            "deadline marker" true
            (Checker.is_deadline_reason reason)
        | Checker.Proved | Checker.Failed _ ->
          Alcotest.fail "expired deadline must stay Unknown");
  ]

(* ------------------------------------------------------------------ *)
(* One-shot fault injection                                            *)
(* ------------------------------------------------------------------ *)

let inject_tests =
  [
    t "fire_once fires exactly once per site" (fun () ->
        let scratch = fresh_dir () in
        Ilv_obs.Inject.configure ~seed:1 ~dir:scratch
          ~points:[ ("p", 1.0) ]
          ();
        Fun.protect
          ~finally:(fun () ->
            Ilv_obs.Inject.disable ();
            rm_rf scratch)
          (fun () ->
            Alcotest.(check bool)
              "first" true
              (Ilv_obs.Inject.fire_once ~point:"p" ~key:"k"
              = Ilv_obs.Inject.Fault);
            Alcotest.(check bool)
              "second" true
              (Ilv_obs.Inject.fire_once ~point:"p" ~key:"k"
              = Ilv_obs.Inject.No_fault);
            Alcotest.(check bool)
              "would_fire stays true (pure)" true
              (Ilv_obs.Inject.would_fire ~point:"p" ~key:"k");
            Alcotest.(check int) "ledger" 1 (Ilv_obs.Inject.fired ~point:"p")));
    t "disarmed points never fire" (fun () ->
        Ilv_obs.Inject.disable ();
        Alcotest.(check bool)
          "inactive" false (Ilv_obs.Inject.active ());
        Alcotest.(check bool)
          "no fire" true
          (Ilv_obs.Inject.fire_once ~point:"p" ~key:"k"
          = Ilv_obs.Inject.No_fault));
  ]

(* ------------------------------------------------------------------ *)
(* Crash-safe cache recovery                                           *)
(* ------------------------------------------------------------------ *)

(* entries live directly under the cache root; quarantine/, frames/
   and temp files hold no [.proof] file there *)
let entry_paths dir =
  Array.to_list (Sys.readdir dir)
  |> List.filter (fun f -> Filename.check_suffix f ".proof")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let recovery_tests =
  [
    t "recover quarantines torn and bit-rotted entries, keeps the rest"
      (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let _, cold = Engine.run ~cache (jobs_of (design "AXI Slave")) in
        Alcotest.(check bool)
          "entries stored" true
          ((Proof_cache.stats cache).Proof_cache.entries >= 3);
        (match entry_paths dir with
        | torn :: rotted :: _ ->
          (* tear one file in half, flip a payload bit in another *)
          let read p =
            let ic = open_in_bin p in
            let s = really_input_string ic (in_channel_length ic) in
            close_in ic;
            s
          in
          let write p s =
            let oc = open_out_bin p in
            output_string oc s;
            close_out oc
          in
          let s = read torn in
          write torn (String.sub s 0 (String.length s / 2));
          let s = Bytes.of_string (read rotted) in
          let mid = Bytes.length s / 2 in
          Bytes.set s mid
            (Char.chr (Char.code (Bytes.get s mid) lxor 0x01));
          write rotted (Bytes.to_string s)
        | _ -> Alcotest.fail "need at least two entries");
        let quarantined = Proof_cache.recover cache in
        Alcotest.(check int) "both quarantined" 2 quarantined;
        let st = Proof_cache.stats cache in
        Alcotest.(check int)
          "no corrupt entry left in the key space" 0 st.Proof_cache.corrupt;
        Alcotest.(check int)
          "quarantine holds them" 2
          (Proof_cache.quarantined_count cache);
        (* the undamaged entries still serve hits *)
        let _, warm = Engine.run ~cache (jobs_of (design "AXI Slave")) in
        Alcotest.(check bool) "warm hits survive" true
          (warm.Engine.cache_hits > 0);
        Alcotest.(check int)
          "re-solve only the damaged jobs"
          (cold.Engine.n_jobs - 2)
          warm.Engine.cache_hits;
        ignore (Proof_cache.clear cache);
        rm_rf dir);
    t "validate --full quarantines every damaged entry" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let _ = Engine.run ~cache (jobs_of (design "Mem. Interface")) in
        let paths = entry_paths dir in
        Alcotest.(check bool) "entries stored" true (List.length paths >= 2);
        List.iteri
          (fun i p ->
            if i < 2 then begin
              let oc = open_out_bin p in
              output_string oc "garbage";
              close_out oc
            end)
          paths;
        let v = Proof_cache.validate ~full:true cache in
        Alcotest.(check int)
          "both reported corrupt" 2
          (List.length v.Proof_cache.corrupt_entries);
        Alcotest.(check int)
          "both quarantined" 2
          (Proof_cache.quarantined_count cache);
        Alcotest.(check int)
          "survivors all agree"
          (List.length paths - 2)
          v.Proof_cache.agreed;
        ignore (Proof_cache.clear cache);
        rm_rf dir);
  ]

(* ------------------------------------------------------------------ *)
(* Chaos: kills mid-sweep keep verdicts deterministic                  *)
(* ------------------------------------------------------------------ *)

let verdict_shapes results =
  List.map
    (fun (r : Engine.result) ->
      ( r.Engine.job_id,
        r.Engine.r_port,
        r.Engine.r_instr,
        match r.Engine.verdict with
        | Checker.Proved -> "proved"
        | Checker.Failed _ -> "failed"
        | Checker.Unknown _ -> "unknown" ))
    results

let chaos_tests =
  [
    t "killing every group's worker once changes no verdict" (fun () ->
        let d = design "AXI Slave" in
        let baseline, _ = Engine.run ~jobs:2 (jobs_of d) in
        let scratch = fresh_dir () in
        Ilv_obs.Inject.configure ~seed:5 ~dir:scratch
          ~points:[ ("pool.kill", 1.0) ]
          ();
        Fun.protect
          ~finally:(fun () ->
            Ilv_obs.Inject.disable ();
            rm_rf scratch)
          (fun () ->
            let disturbed, summary = Engine.run ~jobs:2 (jobs_of d) in
            Alcotest.(check bool)
              "kills landed" true
              (Ilv_obs.Inject.fired ~point:"pool.kill" > 0);
            Alcotest.(check int)
              "nothing poisoned" 0 summary.Engine.n_poisoned;
            Alcotest.(check bool)
              "verdicts identical" true
              (verdict_shapes baseline = verdict_shapes disturbed)));
    t "Chaos.run end-to-end on one design" (fun () ->
        let d = design "Mem. Interface" in
        let scratch = fresh_dir () in
        let r =
          Chaos.run ~jobs:2 ~seed:3 ~scratch
            [ (d.Design.name, fun () -> jobs_of d) ]
        in
        rm_rf scratch;
        Alcotest.(check bool) "passed" true (Chaos.passed r);
        Alcotest.(check bool) "damaged something" true (r.Chaos.corrupted >= 1);
        Alcotest.(check int)
          "all damage quarantined" 0 r.Chaos.unquarantined_corrupt);
  ]

let suite =
  [
    ("resilience.backoff", backoff_tests);
    ("resilience.deadline", timeout_reason_tests);
    ("resilience.ladder", ladder_tests);
    ("resilience.inject", inject_tests);
    ("resilience.recovery", recovery_tests);
    ("resilience.chaos", chaos_tests);
  ]
