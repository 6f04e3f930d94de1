(* daemon-smoke: the end-to-end daemon exercise wired into `dune
   runtest`.  Forks [Daemon.serve] on a temp socket, drives a mixed
   workload (ping / expired-deadline verify and a plain rerun / verify /
   repeat-verify / bug variant / table / stats) through the client,
   checks every daemon verdict against the in-process driver, runs the
   CLI's daemon client (the ilaverif executable given as the first
   argument) for its exit codes and [--vcd], and verifies a clean
   shutdown (child exits 0, socket unlinked).

   Usage: daemon_smoke.exe PATH/TO/ilaverif *)

open Ilv_core
open Ilv_designs
open Ilv_engine
module Json = Ilv_obs.Json
module Client = Ilv_server.Client
module Daemon = Ilv_server.Daemon
module Protocol = Ilv_server.Protocol

(* the forked daemon, killed and reaped by [fail] so a failing run
   leaves no process behind *)
let daemon_pid = ref None

let fail fmt =
  Format.kasprintf
    (fun s ->
      prerr_endline ("daemon-smoke: FAIL: " ^ s);
      Option.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        !daemon_pid;
      exit 1)
    fmt

let designs = [ "Decoder"; "AXI Slave" ]
let bug_design = "AXI Slave"
let bug_label = "rd_burst"

(* ---- in-process reference verdicts ---- *)

let verdict_str = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown _ -> "unknown"

let in_process_verdicts ~name ~rtl (d : Design.t) =
  let report, _ =
    Engine.verify ~stop_at_first_failure:false ~name d.Design.module_ila rtl
      ~refmap_for:(d.Design.refmap_for rtl)
  in
  List.concat_map
    (fun (p : Verify.port_report) ->
      List.map
        (fun (r : Verify.instr_result) ->
          (r.Verify.port, r.Verify.instr, verdict_str r.Verify.verdict))
        p.Verify.instr_results)
    report.Verify.ports
  |> List.sort compare

let daemon_verdicts reply =
  match Json.member "results" reply with
  | Some (Json.List rows) ->
    List.map
      (fun row ->
        let get k =
          match Protocol.str_member k row with
          | Some v -> v
          | None -> fail "result row missing %S" k
        in
        (get "port", get "instr", get "verdict"))
      rows
    |> List.sort compare
  | _ -> fail "verify reply has no results list"

(* ---- harness ---- *)

(* Runs the CLI with [args] against the daemon on [socket] and returns
   its exit code; the child is reaped before this returns.  Its output
   must show that the daemon, not the in-process fallback, answered. *)
let cli ilaverif socket args =
  let out = Filename.temp_file "ilvd-smoke" ".out" in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_TRUNC ] 0o600 in
  let pid =
    Unix.create_process ilaverif
      (Array.of_list ((ilaverif :: args) @ [ "--daemon"; socket ]))
      Unix.stdin fd fd
  in
  Unix.close fd;
  let code =
    match snd (Unix.waitpid [] pid) with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ ->
      fail "ilaverif %s died" (String.concat " " args)
  in
  let text = In_channel.with_open_text out In_channel.input_all in
  Sys.remove out;
  let marker = "daemon verification:" in
  let rec has i =
    i + String.length marker <= String.length text
    && (String.sub text i (String.length marker) = marker || has (i + 1))
  in
  if not (has 0) then
    fail "ilaverif %s was not answered by the daemon:@.%s"
      (String.concat " " args) text;
  code

let request socket req =
  match Client.with_connection socket (fun c -> Client.request c req) with
  | Ok reply when Client.ok reply -> reply
  | Ok reply -> fail "daemon error: %s" (Client.error_of reply)
  | Error msg -> fail "request failed: %s" msg

let summary_int name reply =
  match
    Option.bind
      (Option.bind (Json.member "summary" reply) (Json.member name))
      Json.to_int
  with
  | Some n -> n
  | None -> fail "summary missing %S" name

let verify_req ?bug design =
  Json.Obj
    ([ ("op", Json.String "verify"); ("design", Json.String design) ]
    @ match bug with Some b -> [ ("bug", Json.String b) ] | None -> [])

let () =
  let ilaverif =
    if Array.length Sys.argv = 2 then Sys.argv.(1)
    else fail "usage: daemon_smoke.exe PATH/TO/ilaverif"
  in
  let socket = Filename.temp_file "ilvd-smoke" ".sock" in
  Sys.remove socket;
  let pid =
    match Unix.fork () with
    | 0 ->
      (try Daemon.serve ~socket () with _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  daemon_pid := Some pid;
  let rec wait_up n =
    if n = 0 then fail "daemon did not come up on %s" socket
    else if not (Client.ping socket) then begin
      Unix.sleepf 0.02;
      wait_up (n - 1)
    end
  in
  wait_up 250;

  (* an expired deadline answers unknowns and leaves nothing resident
     behind: the plain request after it proves (this runs first, before
     any request could put the design's verdicts in the memo) *)
  let deadline_design = List.hd designs in
  let expired =
    request socket
      (Json.Obj
         [
           ("op", Json.String "verify");
           ("design", Json.String deadline_design);
           ("timeout_s", Json.Float 1e-9);
         ])
  in
  if summary_int "n_unknown" expired <> summary_int "n_jobs" expired then
    fail "an expired deadline did not answer every job unknown";
  let after = request socket (verify_req deadline_design) in
  if summary_int "n_proved" after <> summary_int "n_jobs" after then
    fail "the request after an expired deadline did not prove %s"
      deadline_design;
  Format.printf "daemon-smoke: %-12s proves again after an expired deadline@."
    deadline_design;

  (* mixed workload: every design verified through the daemon must
     produce exactly the in-process verdicts *)
  List.iter
    (fun name ->
      match Catalog.find name with
      | None -> fail "unknown design %S" name
      | Some d ->
        let reply = request socket (verify_req name) in
        let got = daemon_verdicts reply in
        let want = in_process_verdicts ~name:d.Design.name ~rtl:d.Design.rtl d in
        if got <> want then fail "verdict mismatch for %s" name;
        Format.printf "daemon-smoke: %-12s %d verdicts match in-process@." name
          (List.length got))
    designs;

  (* a repeated request is served from the memo, verdicts unchanged,
     and leaves its groups decided (held as memo keys only) *)
  let again = request socket (verify_req (List.hd designs)) in
  let n_jobs = summary_int "n_jobs" again in
  if summary_int "n_dedup" again <> n_jobs then
    fail "repeat verify was not fully deduped";
  (match Json.member "results" again with
  | Some (Json.List rows) ->
    List.iter
      (fun row ->
        match Protocol.str_member "rung" row with
        | Some "memo" -> ()
        | rung ->
          fail "repeat verify row has rung %s, not memo"
            (Option.value rung ~default:"(none)"))
      rows
  | _ -> fail "repeat verify reply has no results list");

  (* buggy variant: the daemon must report the same failure set *)
  (match Catalog.find bug_design with
  | None -> fail "unknown design %S" bug_design
  | Some d -> (
    match
      List.find_opt
        (fun (b : Design.bug) -> b.Design.bug_label = bug_label)
        d.Design.bugs
    with
    | None -> fail "design %S has no bug %S" bug_design bug_label
    | Some b ->
      let reply = request socket (verify_req ~bug:bug_label bug_design) in
      let got = daemon_verdicts reply in
      let want =
        in_process_verdicts ~name:d.Design.name ~rtl:b.Design.buggy_rtl d
      in
      if got <> want then fail "buggy-variant verdict mismatch";
      if summary_int "n_failed" reply = 0 then
        fail "buggy variant reported no failures";
      Format.printf "daemon-smoke: %-12s bug %s reproduced through the daemon@."
        bug_design bug_label));

  (* table over the same designs rides the already-warm frames *)
  let table =
    request socket
      (Json.Obj
         [
           ("op", Json.String "table");
           ("designs", Json.List (List.map (fun n -> Json.String n) designs));
         ])
  in
  (match Json.member "rows" table with
  | Some (Json.List rows) when List.length rows = List.length designs -> ()
  | _ -> fail "table reply malformed");

  (* the CLI's daemon client follows the in-process exit rule (0 only
     when every row is proved) and writes [--vcd] from the reply *)
  let code = cli ilaverif socket [ "verify"; "Decoder" ] in
  if code <> 0 then fail "ilaverif verify Decoder --daemon exited %d" code;
  let vcd = Filename.temp_file "ilvd-smoke" ".vcd" in
  Sys.remove vcd;
  let code =
    cli ilaverif socket
      [ "verify"; bug_design; "--bug"; bug_label; "--vcd"; vcd ]
  in
  if code <> 1 then
    fail "ilaverif verify %S --bug %s --daemon exited %d, not 1" bug_design
      bug_label code;
  if not (Sys.file_exists vcd && (Unix.stat vcd).Unix.st_size > 0) then
    fail "--vcd %s was not written on the daemon path" vcd;
  Sys.remove vcd;
  Format.printf "daemon-smoke: the CLI's daemon client exits 0/1 and writes --vcd@.";

  (* counters are consistent: every job was a solve exactly once *)
  let stats = request socket (Json.Obj [ ("op", Json.String "stats") ]) in
  let stat name =
    match Option.bind (Json.member name stats) Json.to_int with
    | Some n -> n
    | None -> fail "stats missing %S" name
  in
  if stat "solves" + stat "dedup_hits" + stat "cache_hits" <> stat "jobs" then
    fail "stats do not add up: %s" (Json.encode stats);
  if stat "errors" <> 0 then fail "daemon counted unexpected errors";
  if stat "decided" < 1 then
    fail "no resident group is decided: %s" (Json.encode stats);

  (* clean shutdown: stop, child exits 0, socket unlinked *)
  ignore (request socket (Json.Obj [ ("op", Json.String "stop") ]));
  let rec reap n =
    if n = 0 then fail "daemon did not exit after stop"
    else
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ ->
        Unix.sleepf 0.02;
        reap (n - 1)
      | _, status ->
        daemon_pid := None;
        if status <> Unix.WEXITED 0 then fail "daemon exited abnormally"
  in
  reap 250;
  if Sys.file_exists socket then fail "socket not unlinked on shutdown";
  Format.printf
    "daemon-smoke: OK (%d solves, %d dedup hits, clean shutdown)@."
    (stat "solves") (stat "dedup_hits")
