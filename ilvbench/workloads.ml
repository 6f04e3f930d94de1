(* The four workloads: inputs generated from the seed, set-up, the timed
   operations, and a check on every output.  Load comes from one process
   with at most two workers and one daemon connection, and every loop is
   closed: each caller waits for its reply before sending more, as
   ilaverif and ilaverif --daemon do. *)

open Ilv_core
open Ilv_designs
open Ilv_engine
module Json = Ilv_obs.Json
module Protocol = Ilv_server.Protocol

let now = Unix.gettimeofday

(* ---- correctness accounting ---- *)

let attempted = ref 0
let failed = ref 0

let check what ok =
  if not ok then prerr_endline ("ilvbench: check failed: " ^ what);
  ok

let record ok =
  incr attempted;
  if not ok then incr failed

(* ---- seeded inputs ---- *)

let rng ~seed tags = Random.State.make (Array.of_list (seed :: tags))

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  Array.to_list a

let sweep_order ~seed round = shuffle (rng ~seed [ 1; round ]) Catalog.quick

(* The paper's three bugs, each with the instruction its counterexample
   must land on. *)
type hunt = {
  h_design : Design.t;
  h_bug : Design.bug;
  h_port : string;
  h_instr : string;
}

let hunts =
  List.map
    (fun (design, label, port, instr) ->
      let d = Option.get (Catalog.find design) in
      {
        h_design = d;
        h_bug = List.find (fun b -> b.Design.bug_label = label) d.Design.bugs;
        h_port = port;
        h_instr = instr;
      })
    [
      ("AXI Slave", "rd_burst", "READ", "RD_DATA_PREPARE");
      ("L2 Cache", "msg_flag", "PIPE1", "P1_LOAD_MISS");
      ("Store Buffer (16 entries)", "full_flag", "IN-OUT", "SB_IN_IDLE & SB_POP");
    ]

let hunt_order ~seed round = shuffle (rng ~seed [ 2; round ]) hunts

type request =
  | Verify of string * string option  (** design, bug variant *)
  | Table
  | Stats
  | Mutate of string * int  (** design, campaign seed *)

(* every quick design and bug variant, as (design, bug label) *)
let verify_targets =
  List.map (fun (d : Design.t) -> (d.Design.name, None)) Catalog.quick
  @ List.map (fun h -> (h.h_design.Design.name, Some h.h_bug.Design.bug_label)) hunts

let mutate_designs = [ "UART TX"; "Decoder"; "Clock Gen" ]

(* Requests come in blocks of 100 with a fixed mix, shuffled by the
   seed: 82 verify (all memo hits once the daemon is warm), 5 table, 10
   stats and 3 mutate (one campaign of two mutants per mutate design).
   The verifies are 7 of each of the 11 quick designs and bug variants,
   plus 5 that rotate through the targets from block to block, so that
   every 11 blocks cover each target equally.  Block [b]'s campaigns use
   seed [b + 1], fresh in every block but the same for every bench
   seed.  Campaign cost varies several-fold between campaign seeds, and
   the work per block must not depend on the bench seed, only its order. *)
let block ~seed b =
  let n = List.length verify_targets in
  let verify (d, bug) = Verify (d, bug) in
  let verifies =
    List.concat_map (fun t -> List.init 7 (fun _ -> verify t)) verify_targets
    @ List.init 5 (fun j -> verify (List.nth verify_targets (((5 * b) + j) mod n)))
  in
  let mutates = List.map (fun d -> Mutate (d, b + 1)) mutate_designs in
  Array.of_list
    (shuffle (rng ~seed [ 3; b ])
       (verifies @ List.init 5 (fun _ -> Table) @ List.init 10 (fun _ -> Stats) @ mutates))

let request_stream ~seed =
  let cached = ref (-1, [||]) in
  fun k ->
    let b = k / 100 in
    if fst !cached <> b then cached := (b, block ~seed b);
    (snd !cached).(k mod 100)

let json_of_request = function
  | Verify (d, bug) ->
    Json.Obj
      ([ ("op", Json.String "verify"); ("design", Json.String d) ]
      @ match bug with Some b -> [ ("bug", Json.String b) ] | None -> [])
  | Table -> Json.Obj [ ("op", Json.String "table") ]
  | Stats -> Json.Obj [ ("op", Json.String "stats") ]
  | Mutate (d, s) ->
    Json.Obj
      [
        ("op", Json.String "mutate");
        ("design", Json.String d);
        ("seed", Json.Int s);
        ("max_mutants", Json.Int 2);
      ]

let kind_of = function
  | Verify _ -> "verify"
  | Table -> "table"
  | Stats -> "stats"
  | Mutate _ -> "mutate"

(* Digest of the inputs a seed generates: sweep orders, hunt order and
   the daemon's request sequence. *)
let digest ~seed =
  let b = Buffer.create 65536 in
  for r = 0 to 49 do
    List.iter (fun (d : Design.t) -> Buffer.add_string b (d.Design.name ^ ";")) (sweep_order ~seed r);
    Buffer.add_char b '\n'
  done;
  for r = 0 to 99 do
    List.iter
      (fun h -> Buffer.add_string b (h.h_design.Design.name ^ ";"))
      (hunt_order ~seed r);
    Buffer.add_char b '\n'
  done;
  let next = request_stream ~seed in
  for k = 0 to 999 do
    Buffer.add_string b (Json.encode (json_of_request (next k)));
    Buffer.add_char b '\n'
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* ---- sessions ---- *)

type phase = {
  lats : float list;  (** seconds per operation, at the reference speed *)
  kinds : (string * float) list;  (** operation kind, scaled latency *)
  busy_s : float;  (** measured time at the reference speed *)
  raw_lats : float list;  (** wall clock *)
  refs : float list;  (** reference times, wall clock *)
  slot_s : float;
      (** wall-clock operation time times the processes working on it:
          the base of the per-layer shares *)
}

let phase_of (m : Speed.meter) ~slot_s =
  let kinds, raw_lats = Speed.results m in
  {
    lats = List.map snd kinds;
    kinds;
    busy_s = m.Speed.busy_s;
    raw_lats;
    refs = m.Speed.refs;
    slot_s;
  }

type session = {
  measure : traced:bool -> until:float -> min_ops:int -> phase;
  rss_pid : int;  (** the process whose peak memory the run reports *)
  finish : measured:bool -> unit;
      (** tears the session down; after a measured run, also the checks
          that are too slow to sit in the timed loop *)
}

(* times one piece of the current operation: its result and wall clock *)
type piece = { piece : 'a. (unit -> 'a) -> 'a * float }

(* A closed loop of one caller.  Operation [i], of kind [kind i], times
   its work through [piece] and returns its wall-clock seconds times the
   processes that worked on it; indices continue across phases, and a
   phase ends on a multiple of [round] operations, so that per-operation
   counts average over whole rounds. *)
let sequential ?(round = 1) ~kind op =
  let next = ref 0 in
  fun ~traced ~until ~min_ops ->
    let m = Speed.meter () in
    let slot = ref 0.0 and n = ref 0 in
    while !n < min_ops || now () < until || !n mod round <> 0 do
      let piece = { piece = (fun f -> Speed.piece m ~op:!n (kind !next) f) } in
      slot := !slot +. op ~traced ~piece !next;
      incr next;
      incr n
    done;
    phase_of m ~slot_s:!slot

let jobs_of (d : Design.t) =
  Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
    ~refmap_for:(d.Design.refmap_for d.Design.rtl)
    ()

let n_instructions (d : Design.t) = List.length (Verify.enumerate d.Design.module_ila)

(* Every golden quick-catalog instruction, the obligations a sweep must
   prove. *)
let catalog_obligations = 135

let engine_design ~jobs ~cache ~warm (d : Design.t) =
  let results, s =
    Engine.run ~jobs ~cache ~incremental:true ~memory_abstraction:true (jobs_of d)
  in
  fun () ->
    check
      (Printf.sprintf "%s: %d/%d proved, %d cache hits, %d fresh SAT attempts"
         d.Design.name s.Engine.n_proved s.Engine.n_jobs s.Engine.cache_hits
         s.Engine.fresh_sat_attempts)
      (s.Engine.n_jobs = n_instructions d
      && s.Engine.n_proved = s.Engine.n_jobs
      && List.length results = s.Engine.n_jobs
      &&
      if warm then s.Engine.cache_hits = s.Engine.n_jobs && s.Engine.fresh_sat_attempts = 0
      else s.Engine.cache_hits = 0)

let mirror_verdicts ~warm (d : Design.t) outcomes () =
  check
    (d.Design.name ^ ": traced sweep verdicts")
    (List.length outcomes = n_instructions d
    && List.for_all
         (function
           | Ok o -> o.Mirror.o_verdict = Checker.Proved && o.Mirror.o_cache_hit = warm
           | Error _ -> false)
         outcomes)

(* sweep_cold: Engine.run ~jobs:1 per quick design, the proof cache
   cleared before every sweep, so every obligation is solved and
   written.  sweep_warm: ~jobs:2 against a pre-filled cache, so every
   obligation is a cache read and nothing is solved.  A sweep is timed
   one design at a time. *)
let sweep ~jobs ~warm ~seed ~rundir ~setup =
  let cache = Proof_cache.open_ ~dir:(Filename.concat rundir "cache") () in
  ignore (Proof_cache.clear cache);
  (* set-up: one sweep, which fills the cache for the warm workload and
     lets lazy initialisation finish for both *)
  let total = List.fold_left (fun n d -> n + n_instructions d) 0 Catalog.quick in
  let fill =
    List.map
      (fun d -> fst (setup.piece (fun () -> engine_design ~jobs ~cache ~warm:false d)))
      Catalog.quick
  in
  record
    (check
       (Printf.sprintf "catalog has %d obligations, expected %d" total catalog_obligations)
       (total = catalog_obligations)
    && List.for_all (fun ok -> ok ()) fill);
  if not warm then ignore (Proof_cache.clear cache);
  let op ~traced ~piece i =
    if not warm then ignore (Proof_cache.clear cache);
    let runs =
      List.map
        (fun d ->
          if traced then begin
            let (outcomes, procs), dt =
              piece.piece (fun () -> Mirror.sweep_design ~jobs ~cache d)
            in
            (mirror_verdicts ~warm d outcomes, dt *. float_of_int procs)
          end
          else
            let ok, dt = piece.piece (fun () -> engine_design ~jobs ~cache ~warm d) in
            (ok, dt))
        (sweep_order ~seed i)
    in
    record (List.for_all (fun (ok, _) -> ok ()) runs);
    if traced && not warm then
      Layers.count "proof_cache.bytes_written" (Proof_cache.stats cache).Proof_cache.bytes;
    List.fold_left (fun acc (_, slot) -> acc +. slot) 0.0 runs
  in
  {
    measure = sequential ~kind:(fun _ -> "sweep") op;
    rss_pid = Unix.getpid ();
    finish = (fun ~measured:_ -> ());
  }

(* One hunt: Design.verify_buggy with the CLI's defaults, then replay of
   the counterexample in the simulator.  Returns whether it failed at
   the pinned instruction and replayed. *)
let run_hunt ~traced (h : hunt) =
  let first =
    if traced then
      Option.map
        (fun o -> (o.Mirror.o_port, o.Mirror.o_instr, o.Mirror.o_verdict))
        (Mirror.hunt h.h_design h.h_bug)
    else
      Option.map
        (fun (r : Verify.instr_result) -> (r.Verify.port, r.Verify.instr, r.Verify.verdict))
        (Design.verify_buggy ~memory_abstraction:true h.h_design h.h_bug)
          .Verify.first_failure
  in
  match first with
  | Some (port, instr, Checker.Failed trace) ->
    let replayed =
      Layers.span "replay.busy" (fun () ->
          Replay.confirm
            ~ila:(Option.get (Module_ila.find_port h.h_design.Design.module_ila port))
            ~rtl:h.h_bug.Design.buggy_rtl
            ~refmap:(h.h_design.Design.refmap_for h.h_bug.Design.buggy_rtl port)
            trace)
    in
    fun () ->
      let confirmed = match replayed with Replay.Confirmed _ -> true | _ -> false in
      if confirmed then Layers.count "replay.confirmed" 1;
      check
        (Printf.sprintf "%s [%s]: failed at %s.%s (expected %s.%s), replay %s"
           h.h_design.Design.name h.h_bug.Design.bug_label port instr h.h_port h.h_instr
           (if confirmed then "confirmed" else "not confirmed"))
        (port = h.h_port && instr = h.h_instr && confirmed)
  | _ ->
    fun () ->
      check
        (Printf.sprintf "%s [%s]: bug not found" h.h_design.Design.name
           h.h_bug.Design.bug_label)
        false

(* bug_hunt: the paper's three bugs, each round in seeded order, one
   hunt per operation. *)
let bug_hunt ~seed ~rundir:_ ~setup =
  record
    (List.for_all (fun h -> (fst (setup.piece (fun () -> run_hunt ~traced:false h))) ()) hunts);
  let n = List.length hunts in
  let hunt i = List.nth (hunt_order ~seed (i / n)) (i mod n) in
  let op ~traced ~piece i =
    let ok, dt = piece.piece (fun () -> run_hunt ~traced (hunt i)) in
    record (ok ());
    dt
  in
  {
    measure =
      sequential ~round:n ~kind:(fun i -> (hunt i).h_bug.Design.bug_label) op;
    rss_pid = Unix.getpid ();
    finish = (fun ~measured:_ -> ());
  }

(* ---- daemon_mixed ---- *)

let str k j = Option.bind (Json.member k j) Json.to_string
let int k j = Option.bind (Json.member k j) Json.to_int
let ok_reply j = Json.member "ok" j = Some (Json.Bool true)

let reply_of_frame = function
  | Protocol.Frame s -> Json.parse s
  | Protocol.Eof -> Error "daemon closed the connection"
  | Protocol.Oversized n -> Error (Printf.sprintf "oversized reply (%d bytes)" n)

let roundtrip fd req =
  Protocol.write_frame fd (Json.encode req);
  reply_of_frame (Protocol.read_frame fd)

(* (port, instr, verdict) rows of a verify reply, sorted *)
let rows reply =
  match Json.member "results" reply with
  | Some (Json.List rs) ->
    List.sort compare
      (List.map
         (fun r ->
           ( Option.value ~default:"" (str "port" r),
             Option.value ~default:"" (str "instr" r),
             Option.value ~default:"" (str "verdict" r) ))
         rs)
  | _ -> []

let summary_int k reply = Option.bind (Json.member "summary" reply) (int k)

let in_process_rows (design, bug) =
  let d = Option.get (Catalog.find design) in
  let report =
    match bug with
    | None -> Design.verify ~stop_at_first_failure:false ~memory_abstraction:true d
    | Some label ->
      Design.verify_buggy ~stop_at_first_failure:false ~memory_abstraction:true d
        (List.find (fun b -> b.Design.bug_label = label) d.Design.bugs)
  in
  List.sort compare
    (List.concat_map
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
       report.Verify.ports)

let target_name (d, bug) =
  match bug with Some b -> Printf.sprintf "%s [%s]" d b | None -> d

let check_reply warm req reply =
  match reply with
  | Error msg -> check ("daemon reply: " ^ msg) false
  | Ok r when not (ok_reply r) ->
    check ("daemon error reply: " ^ Option.value ~default:"" (str "error" r)) false
  | Ok r -> (
    match req with
    | Verify (d, bug) ->
      check
        ("daemon verify " ^ target_name (d, bug))
        (rows r = Hashtbl.find warm (d, bug)
        && summary_int "n_dedup" r = summary_int "n_jobs" r)
    | Table ->
      check "daemon table"
        (match Json.member "rows" r with
        | Some (Json.List rs) ->
          List.length rs = List.length Catalog.quick
          && List.for_all
               (fun row ->
                 let n = summary_int "n_jobs" row in
                 n <> None && summary_int "n_proved" row = n && summary_int "n_dedup" row = n)
               rs
        | _ -> false)
    | Stats -> check "daemon stats" (int "requests" r <> None)
    | Mutate (d, s) ->
      check
        (Printf.sprintf "daemon mutate %s seed %d" d s)
        (match (int "n_mutants" r, int "killed" r, int "survived" r, int "inconclusive" r) with
        | Some n, Some k, Some sv, Some inc -> n >= 1 && k + sv + inc = n && inc = 0
        | _ -> false))

let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let rec scan () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
          Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
              float_of_int kb /. 1024.0)
        | _ -> scan ()
        | exception End_of_file -> nan
      in
      scan ())

external pin_to_one_cpu : unit -> int = "ilvbench_pin_to_one_cpu"

(* daemon_mixed: a forked Daemon.serve, warmed with one verify per quick
   design and bug variant, then the seeded request stream over one
   connection, each request sent when the previous reply has arrived.
   The bench process first pins itself to one CPU, and the daemon
   inherits it.  Each request wakes the daemon and then the client; on
   one CPU these wake-ups never cross to a CPU that the host may be
   holding back, which the reference, run on the same CPU, cannot see. *)
let daemon_mixed ~seed ~rundir ~setup =
  record (check "pinned to one CPU" (pin_to_one_cpu () >= 0));
  let socket = Filename.concat rundir "d.sock" in
  let pid =
    match Unix.fork () with
    | 0 ->
      (try Ilv_server.Daemon.serve ~socket () with _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  let conn = ref None in
  let stop () =
    (match !conn with
    | None ->
      ignore
        (Ilv_server.Client.with_connection socket (fun c ->
             Ilv_server.Client.request c (Json.Obj [ ("op", Json.String "stop") ])))
    | Some fd ->
      ignore (try roundtrip fd (Json.Obj [ ("op", Json.String "stop") ]) with _ -> Error "");
      (try Unix.close fd with Unix.Unix_error _ -> ()));
    let rec reap n =
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ when n > 0 ->
        Unix.sleepf 0.02;
        reap (n - 1)
      | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      | _ -> ()
      | exception Unix.Unix_error _ -> ()
    in
    reap 500
  in
  let warm = Hashtbl.create 16 in
  let timed f = fst (setup.piece f) in
  let fd =
    try
      let rec wait_up n =
        if Ilv_server.Client.ping socket then ()
        else if n = 0 then failwith "daemon did not come up"
        else begin
          Unix.sleepf 0.001;
          wait_up (n - 1)
        end
      in
      timed (fun () -> wait_up 30_000);
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      conn := Some fd;
      Unix.connect fd (Unix.ADDR_UNIX socket);
      List.iter
        (fun (d, bug) ->
          let ok =
            match timed (fun () -> roundtrip fd (json_of_request (Verify (d, bug)))) with
            | Ok r when ok_reply r && rows r <> [] ->
              Hashtbl.replace warm (d, bug) (rows r);
              true
            | _ -> false
          in
          record (check ("daemon warm-up " ^ target_name (d, bug)) ok))
        verify_targets;
      fd
    with e ->
      stop ();
      raise e
  in
  let next_request = request_stream ~seed in
  let op ~traced:_ ~piece k =
    let req = next_request k in
    let reply, dt =
      piece.piece (fun () ->
          let t0 = now () in
          Protocol.write_frame fd (Json.encode (json_of_request req));
          let t1 = now () in
          let frame = Protocol.read_frame fd in
          let t2 = now () in
          let reply = reply_of_frame frame in
          Layers.add_self "protocol.encode" (t1 -. t0);
          Layers.add_self "daemon.wait" (t2 -. t1);
          Layers.add_self "protocol.decode" (now () -. t2);
          reply)
    in
    record (check_reply warm req reply);
    dt
  in
  (* phases end on whole blocks, so the mix and the per-request counts
     do not depend on how many requests fit in the time *)
  let requests = sequential ~round:100 ~kind:(fun k -> kind_of (next_request k)) op in
  let daemon_stats () =
    let r = Result.to_option (roundtrip fd (json_of_request Stats)) in
    List.map (fun k -> (k, Option.bind r (int k))) [ "solves"; "dedup_hits"; "jobs" ]
  in
  (* the traced phase also reports the daemon's own counters *)
  let measure ~traced ~until ~min_ops =
    if not traced then requests ~traced ~until ~min_ops
    else begin
      let before = daemon_stats () in
      let ph = requests ~traced ~until ~min_ops in
      List.iter2
        (fun (k, b) (_, a) ->
          match (b, a) with
          | Some b, Some a -> Layers.count ("daemon." ^ k) (a - b)
          | _ -> record (check ("daemon stats field " ^ k) false))
        before (daemon_stats ());
      ph
    end
  in
  let finish ~measured =
    stop ();
    if measured then
      List.iter
        (fun target ->
          record
            (check
               ("daemon vs in-process verdicts: " ^ target_name target)
               (Hashtbl.find_opt warm target = Some (in_process_rows target))))
        verify_targets
  in
  { measure; rss_pid = pid; finish }

let all =
  [
    ("sweep_cold", sweep ~jobs:1 ~warm:false);
    ("sweep_warm", sweep ~jobs:2 ~warm:true);
    ("bug_hunt", bug_hunt);
    ("daemon_mixed", daemon_mixed);
  ]
