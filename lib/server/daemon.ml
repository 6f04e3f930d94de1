open Ilv_core
open Ilv_designs
open Ilv_engine
module Json = Ilv_obs.Json
module Obs = Ilv_obs.Obs

(* The daemon exists to keep the expensive state of a verification
   session resident: each obligation group's prepared session, the
   in-memory memo of definitive verdicts, and the proof cache handle
   ({!Engine.resident}).  Requests go through [Engine.run] like any
   in-process sweep and pay only for queries nobody has asked before;
   Engine's resilience (per-group deadlines, the degradation ladder,
   per-job exception containment) applies per request, and a request
   that fails outright answers with an error and leaves the process
   serving. *)

(* ---- counters ---- *)

type counters = {
  mutable c_requests : int;
  mutable c_jobs : int;
  mutable c_solves : int;  (* queries actually sent to a solver *)
  mutable c_dedup_hits : int;  (* answered from the in-memory memo *)
  mutable c_cache_hits : int;  (* answered from the persistent cache *)
  mutable c_errors : int;  (* error replies sent *)
  mutable c_batches : int;  (* select rounds that carried >= 1 request *)
  mutable c_max_batch : int;  (* deepest request batch seen *)
}

let new_counters () =
  {
    c_requests = 0;
    c_jobs = 0;
    c_solves = 0;
    c_dedup_hits = 0;
    c_cache_hits = 0;
    c_errors = 0;
    c_batches = 0;
    c_max_batch = 0;
  }

type t = {
  cache : Proof_cache.t option;
  timeout_s : float option;  (* default per-request deadline *)
  max_frame : int;
  resident : Engine.resident;
  counters : counters;
  started_s : float;
}

(* ---- reply rows ---- *)

let is_dedup (r : Engine.result) = r.Engine.backend = "memo"

let result_json ~trace_budget (r : Engine.result) =
  let verdict, reason, trace =
    match r.Engine.verdict with
    | Checker.Proved -> ("proved", None, [])
    | Checker.Failed tr ->
      (* the counterexample travels in the reply row — unless its
         encoding alone would crowd the frame, in which case the row
         says so and the client transparently re-checks in-process *)
      let tj = Trace.to_json tr in
      if String.length (Json.encode tj) <= trace_budget then
        ("failed", None, [ ("trace", tj) ])
      else ("failed", None, [ ("trace_omitted", Json.Bool true) ])
    | Checker.Unknown why -> ("unknown", Some why, [])
  in
  Json.Obj
    ([
       ("port", Json.String r.Engine.r_port);
       ("instr", Json.String r.Engine.r_instr);
       ("verdict", Json.String verdict);
     ]
    @ (match reason with
      | Some why -> [ ("reason", Json.String why) ]
      | None -> [])
    @ trace
    @ [
        ("rung", Json.String r.Engine.backend);
        ("time_s", Json.Float r.Engine.time_s);
        ("dedup", Json.Bool (is_dedup r));
        ("cache_hit", Json.Bool r.Engine.cache_hit);
      ])

let summary_json results t0 =
  let count p = List.length (List.filter p results) in
  let verdict r = r.Engine.verdict in
  Json.Obj
    [
      ("n_jobs", Json.Int (List.length results));
      ("n_proved", Json.Int (count (fun r -> verdict r = Checker.Proved)));
      ( "n_failed",
        Json.Int
          (count (fun r ->
               match verdict r with Checker.Failed _ -> true | _ -> false)) );
      ( "n_unknown",
        Json.Int
          (count (fun r ->
               match verdict r with Checker.Unknown _ -> true | _ -> false))
      );
      ("n_dedup", Json.Int (count is_dedup));
      ("n_cache_hits", Json.Int (count (fun r -> r.Engine.cache_hit)));
      ("time_s", Json.Float (Unix.gettimeofday () -. t0));
    ]

(* ---- request handlers ---- *)

(* requests carry ["memory_abstraction"]: "auto" | "on" | "off"
   (absent = "auto").  "auto" and "on" coincide server-side — the
   abstraction only ever applies itself to obligation groups with a
   wide memory, so memory-free designs are identical either way. *)
let memory_abstraction_of req =
  match Protocol.str_member "memory_abstraction" req with
  | Some "off" -> false
  | Some _ | None -> true

let timeout_of t req =
  match Protocol.float_member "timeout_s" req with
  | Some s -> Some s
  | None -> t.timeout_s

(* One design's jobs, golden or the bug variant, through the resident
   sessions (shared by the verify and table ops). *)
let verify_design t req ?only_ports (d : Design.t) (name, rtl) =
  let results, _ =
    Engine.run ?cache:t.cache ~resident:t.resident
      ?timeout_s:(timeout_of t req)
      ~memory_abstraction:(memory_abstraction_of req)
      (Engine.jobs_of ?only_ports ~name d.Design.module_ila rtl
         ~refmap_for:(d.Design.refmap_for rtl) ())
  in
  let c = t.counters in
  List.iter
    (fun r ->
      c.c_jobs <- c.c_jobs + 1;
      if is_dedup r then begin
        c.c_dedup_hits <- c.c_dedup_hits + 1;
        if Obs.enabled () then Obs.count "daemon.dedup_hits" 1
      end
      else if r.Engine.cache_hit then c.c_cache_hits <- c.c_cache_hits + 1
      else begin
        c.c_solves <- c.c_solves + 1;
        if Obs.enabled () then Obs.count "daemon.solves" 1
      end)
    results;
  results

(* a failing row's trace may not crowd out the rest of the reply: cap
   each one well under the frame limit, and let the client re-derive
   the rare giant trace in-process *)
let trace_budget t = t.max_frame / 4

let handle_verify t req =
  let t0 = Unix.gettimeofday () in
  match (Protocol.str_member "design" req, Json.member "instrs" req) with
  | None, _ -> Protocol.error_reply "verify: missing \"design\""
  | Some _, Some _ ->
    Protocol.error_reply "verify: the \"instrs\" field is not supported"
  | Some design_name, None -> (
    match Catalog.find design_name with
    | None ->
      Protocol.error_reply
        (Printf.sprintf "verify: unknown design %S" design_name)
    | Some d -> (
      match Design.variant d (Protocol.str_member "bug" req) with
      | Error msg -> Protocol.error_reply ("verify: " ^ msg)
      | Ok variant ->
        let results =
          verify_design t req
            ?only_ports:(Protocol.str_list_member "ports" req)
            d variant
        in
        Protocol.ok_reply
          [
            ("design", Json.String d.Design.name);
            ( "results",
              Json.List
                (List.map (result_json ~trace_budget:(trace_budget t)) results)
            );
            ("summary", summary_json results t0);
          ]))

let handle_table t req =
  let designs =
    match Protocol.str_list_member "designs" req with
    | Some names -> names
    | None -> List.map (fun d -> d.Design.name) Catalog.quick
  in
  let rows =
    List.map
      (fun name ->
        match Catalog.find name with
        | None ->
          Json.Obj
            [
              ("design", Json.String name);
              ("error", Json.String "unknown design");
            ]
        | Some d ->
          let t0 = Unix.gettimeofday () in
          let results =
            verify_design t req d (d.Design.name, d.Design.rtl)
          in
          Json.Obj
            [
              ("design", Json.String d.Design.name);
              ("summary", summary_json results t0);
            ])
      designs
  in
  Protocol.ok_reply [ ("rows", Json.List rows) ]

let handle_mutate t req =
  match Protocol.str_member "design" req with
  | None -> Protocol.error_reply "mutate: missing \"design\""
  | Some design_name -> (
    match Catalog.find design_name with
    | None ->
      Protocol.error_reply
        (Printf.sprintf "mutate: unknown design %S" design_name)
    | Some d ->
      let seed = Option.value (Protocol.int_member "seed" req) ~default:1 in
      let max_mutants =
        Option.value (Protocol.int_member "max_mutants" req) ~default:20
      in
      let timeout_s = timeout_of t req in
      (* campaigns run in-process (jobs=1): the daemon is the resident
         session, and a forked pool inside it would duplicate every
         resident frame into short-lived children *)
      let c =
        Ilv_fault.Campaign.run ~seed ~max_mutants ?timeout_s ~jobs:1 d
      in
      Protocol.ok_reply
        [
          ("design", Json.String c.Ilv_fault.Campaign.design);
          ("n_mutants", Json.Int c.Ilv_fault.Campaign.n_mutants);
          ("killed", Json.Int c.Ilv_fault.Campaign.killed);
          ("survived", Json.Int c.Ilv_fault.Campaign.survived);
          ("inconclusive", Json.Int c.Ilv_fault.Campaign.inconclusive);
          ("score", Json.Float c.Ilv_fault.Campaign.score);
          ("time_s", Json.Float c.Ilv_fault.Campaign.total_time_s);
        ])

let stats_json t =
  let c = t.counters in
  [
    ("pid", Json.Int (Unix.getpid ()));
    ("uptime_s", Json.Float (Unix.gettimeofday () -. t.started_s));
    ("requests", Json.Int c.c_requests);
    ("jobs", Json.Int c.c_jobs);
    ("solves", Json.Int c.c_solves);
    ("dedup_hits", Json.Int c.c_dedup_hits);
    ("cache_hits", Json.Int c.c_cache_hits);
    ("frames", Json.Int (Engine.resident_groups t.resident));
    ("decided", Json.Int (Engine.resident_decided t.resident));
    ("errors", Json.Int c.c_errors);
    ("batches", Json.Int c.c_batches);
    ("max_batch", Json.Int c.c_max_batch);
  ]

type action = Continue | Stop | Drain

(* Total exception containment: whatever one request does — an unknown
   op, a generator exception, a solver blow-up — the worst outcome is
   an error reply on that one connection.  [Out_of_memory] and
   [Stack_overflow] still escape: a wedged process serves nobody. *)
let handle_request t req =
  t.counters.c_requests <- t.counters.c_requests + 1;
  if Obs.enabled () then Obs.count "daemon.requests" 1;
  let op = Option.value (Protocol.str_member "op" req) ~default:"" in
  let span =
    if Obs.enabled () then
      Some (Obs.span_begin "daemon.request" [ ("op", Obs.S op) ])
    else None
  in
  let reply, action =
    match
      match op with
      | "ping" ->
        (Protocol.ok_reply [ ("pid", Json.Int (Unix.getpid ())) ], Continue)
      | "stats" -> (Protocol.ok_reply (stats_json t), Continue)
      | "verify" -> (handle_verify t req, Continue)
      | "table" -> (handle_table t req, Continue)
      | "mutate" -> (handle_mutate t req, Continue)
      | "drain" -> (Protocol.ok_reply [], Drain)
      | "stop" -> (Protocol.ok_reply [], Stop)
      | "" -> (Protocol.error_reply "missing \"op\"", Continue)
      | other ->
        ( Protocol.error_reply (Printf.sprintf "unknown op %S" other),
          Continue )
    with
    | r -> r
    | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
    | exception e ->
      (Protocol.error_reply ("request failed: " ^ Printexc.to_string e),
        Continue)
  in
  (match reply with
  | Json.Obj (("ok", Json.Bool false) :: _) ->
    t.counters.c_errors <- t.counters.c_errors + 1
  | _ -> ());
  (match span with
  | Some id -> Obs.span_end ~fields:[ ("op", Obs.S op) ] id
  | None -> ());
  (reply, action)

(* ---- event loop ---- *)

type conn = { c_fd : Unix.file_descr; c_dec : Protocol.decoder }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let serve ?cache ?timeout_s ?(max_frame = Protocol.default_max_frame)
    ~socket () =
  let t =
    {
      cache;
      timeout_s;
      max_frame;
      resident = Engine.resident ();
      counters = new_counters ();
      started_s = Unix.gettimeofday ();
    }
  in
  (* a client that disappears mid-reply must cost an EPIPE error on one
     write, not a process-killing signal *)
  let old_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ | Sys_error _ -> None
  in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind srv (Unix.ADDR_UNIX socket);
  Unix.listen srv 64;
  Unix.set_nonblock srv;
  let listener = ref (Some srv) in
  let conns : (Unix.file_descr, conn) Hashtbl.t = Hashtbl.create 16 in
  let running = ref true in
  let draining = ref false in
  let drop conn =
    Hashtbl.remove conns conn.c_fd;
    close_quietly conn.c_fd
  in
  let read_buf = Bytes.create 65536 in
  if Obs.enabled () then
    Obs.event "daemon.start" [ ("socket", Obs.S socket) ];
  while !running && not (!draining && Hashtbl.length conns = 0) do
    let fds =
      (match !listener with Some fd -> [ fd ] | None -> [])
      @ Hashtbl.fold (fun fd _ acc -> fd :: acc) conns []
    in
    if fds = [] then running := false
    else begin
      (* the EINTR-correct select shared with the pool (satellite fix):
         no deadline — the daemon sleeps until work arrives *)
      let readable = Pool.select_read fds in
      (* intake first, across every readable connection: requests that
         arrived in the same round form one batch, so identical
         obligations from concurrent clients meet the memo in request
         order and solve once *)
      (match !listener with
      | Some srv_fd when List.memq srv_fd readable ->
        let rec accept_all () =
          match Unix.accept srv_fd with
          | fd, _ ->
            Unix.setsockopt_float fd Unix.SO_SNDTIMEO 30.0;
            Hashtbl.replace conns fd
              { c_fd = fd; c_dec = Protocol.decoder ~max_frame () };
            accept_all ()
          | exception
              Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            ()
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all ()
          | exception Unix.Unix_error _ -> ()
        in
        accept_all ()
      | _ -> ());
      let batch = Queue.create () in
      List.iter
        (fun fd ->
          match Hashtbl.find_opt conns fd with
          | None -> ()
          | Some conn -> (
            match Unix.read fd read_buf 0 (Bytes.length read_buf) with
            | 0 -> drop conn (* peer closed, possibly mid-frame *)
            | n ->
              Protocol.feed conn.c_dec read_buf n;
              let rec drain_frames () =
                match Protocol.next conn.c_dec with
                | Protocol.Pending -> ()
                | Protocol.Broken len ->
                  Queue.add (conn, Error len) batch
                | Protocol.Ready frame ->
                  Queue.add (conn, Ok frame) batch;
                  drain_frames ()
              in
              drain_frames ()
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
            | exception Unix.Unix_error _ -> drop conn))
        readable;
      let depth = Queue.length batch in
      if depth > 0 then begin
        t.counters.c_batches <- t.counters.c_batches + 1;
        if depth > t.counters.c_max_batch then
          t.counters.c_max_batch <- depth;
        if Obs.enabled () then begin
          Obs.count "daemon.queue_depth" depth;
          Obs.event "daemon.batch" [ ("depth", Obs.I depth) ]
        end
      end;
      (* process the batch; replies go out as each job finishes *)
      Queue.iter
        (fun (conn, item) ->
          if Hashtbl.mem conns conn.c_fd then begin
            let reply, action =
              match item with
              | Error len ->
                t.counters.c_errors <- t.counters.c_errors + 1;
                ( Protocol.error_reply
                    (Printf.sprintf
                       "frame of %d bytes exceeds the %d byte limit" len
                       t.max_frame),
                  Continue )
              | Ok frame -> (
                match Json.parse frame with
                | Result.Error msg ->
                  t.counters.c_errors <- t.counters.c_errors + 1;
                  (Protocol.error_reply ("bad JSON: " ^ msg), Continue)
                | Ok req -> handle_request t req)
            in
            (match
               Protocol.write_frame conn.c_fd (Json.encode reply)
             with
            | () -> ()
            | exception Unix.Unix_error _ | exception Sys_error _ ->
              (* the client vanished mid-job: its reply is dropped, the
                 resident state it warmed stays for everyone else *)
              drop conn);
            (* a broken stream cannot be re-synchronized *)
            (match item with Error _ -> drop conn | Ok _ -> ());
            match action with
            | Continue -> ()
            | Stop -> running := false
            | Drain ->
              draining := true;
              (match !listener with
              | Some fd ->
                close_quietly fd;
                listener := None
              | None -> ())
          end)
        batch
    end
  done;
  (match !listener with Some fd -> close_quietly fd | None -> ());
  Hashtbl.iter (fun _ c -> close_quietly c.c_fd) conns;
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  (match old_sigpipe with
  | Some behaviour -> (
    try Sys.set_signal Sys.sigpipe behaviour with _ -> ())
  | None -> ());
  if Obs.enabled () then
    Obs.event "daemon.stop" [ ("socket", Obs.S socket) ]
