(* Protocol robustness and daemon behavior (the satellite tests of the
   daemon PR): partial reads and writes, oversized-frame rejection,
   client disconnect mid-job, and the batch-dedup guarantee that two
   clients submitting the identical obligation cost one solve.

   The network tests fork a real [Daemon.serve] on a temp socket; the
   decoder tests are pure. *)

module Json = Ilv_obs.Json
module Protocol = Ilv_server.Protocol
module Daemon = Ilv_server.Daemon
module Client = Ilv_server.Client
module Trace = Ilv_core.Trace
module Value = Ilv_expr.Value
module Bitvec = Ilv_expr.Bitvec

(* ---- harness ---- *)

let temp_sock () =
  let path = Filename.temp_file "ilvd-t" ".sock" in
  Sys.remove path;
  path

let start_daemon ?cache ?max_frame socket =
  match Unix.fork () with
  | 0 ->
    (* the child must never return into the test runner *)
    (try Daemon.serve ?cache ?max_frame ~socket () with _ -> ());
    Unix._exit 0
  | pid ->
    let rec wait n =
      if n = 0 then Alcotest.fail "daemon did not come up"
      else if not (Client.ping socket) then begin
        Unix.sleepf 0.02;
        wait (n - 1)
      end
    in
    wait 250;
    pid

let stop_daemon pid socket =
  ignore
    (Client.with_connection socket (fun c ->
         Client.request c (Json.Obj [ ("op", Json.String "stop") ])));
  let rec reap n =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if n = 0 then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid)
      end
      else begin
        Unix.sleepf 0.02;
        reap (n - 1)
      end
    | _ -> ()
  in
  reap 250;
  if Sys.file_exists socket then Sys.remove socket

let with_daemon ?cache ?max_frame f =
  let socket = temp_sock () in
  let pid = start_daemon ?cache ?max_frame socket in
  Fun.protect ~finally:(fun () -> stop_daemon pid socket) (fun () -> f socket)

let connect_raw socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let frame_bytes payload =
  let n = String.length payload in
  let b = Bytes.create (4 + n) in
  Bytes.set_int32_be b 0 (Int32.of_int n);
  Bytes.blit_string payload 0 b 4 n;
  b

let request_exn socket req =
  match Client.with_connection socket (fun c -> Client.request c req) with
  | Ok reply -> reply
  | Error msg -> Alcotest.fail ("request failed: " ^ msg)

let int_field name reply =
  match Option.bind (Json.member name reply) Json.to_int with
  | Some n -> n
  | None -> Alcotest.failf "reply has no int field %S" name

let summary_field name reply =
  match Json.member "summary" reply with
  | Some s -> int_field name s
  | None -> Alcotest.fail "reply has no summary"

let stats socket = request_exn socket (Json.Obj [ ("op", Json.String "stats") ])

let verify_req design =
  Json.Obj [ ("op", Json.String "verify"); ("design", Json.String design) ]

(* ---- decoder (pure) ---- *)

let test_decoder_byte_at_a_time () =
  let payload = {|{"op":"ping"}|} in
  let b = frame_bytes payload in
  let dec = Protocol.decoder () in
  for i = 0 to Bytes.length b - 2 do
    Protocol.feed dec (Bytes.make 1 (Bytes.get b i)) 1;
    match Protocol.next dec with
    | Protocol.Pending -> ()
    | _ -> Alcotest.failf "frame complete after only %d bytes" (i + 1)
  done;
  Protocol.feed dec (Bytes.make 1 (Bytes.get b (Bytes.length b - 1))) 1;
  (match Protocol.next dec with
  | Protocol.Ready got ->
    Alcotest.(check string) "payload survives the split" payload got
  | _ -> Alcotest.fail "complete frame not recognized");
  Alcotest.(check int) "nothing left over" 0 (Protocol.buffered dec)

let test_decoder_coalesced_frames () =
  let p1 = {|{"op":"ping"}|} and p2 = {|{"op":"stats"}|} in
  let b = Bytes.cat (frame_bytes p1) (frame_bytes p2) in
  let dec = Protocol.decoder () in
  Protocol.feed dec b (Bytes.length b);
  (match Protocol.next dec with
  | Protocol.Ready got -> Alcotest.(check string) "first frame" p1 got
  | _ -> Alcotest.fail "first frame not ready");
  (match Protocol.next dec with
  | Protocol.Ready got -> Alcotest.(check string) "second frame" p2 got
  | _ -> Alcotest.fail "second frame not ready");
  match Protocol.next dec with
  | Protocol.Pending -> ()
  | _ -> Alcotest.fail "phantom third frame"

let test_decoder_oversized_header () =
  let dec = Protocol.decoder ~max_frame:1024 () in
  let b = Bytes.create 4 in
  Bytes.set_int32_be b 0 (Int32.of_int 4096);
  Protocol.feed dec b 4;
  match Protocol.next dec with
  | Protocol.Broken len -> Alcotest.(check int) "declared length" 4096 len
  | _ -> Alcotest.fail "oversized header not flagged"

(* ---- trace wire form (pure) ---- *)

let test_trace_json_roundtrip () =
  let bv s = Bitvec.of_string s in
  let mem =
    match Value.mem_const ~addr_width:4 ~default:(bv "0x00:8") with
    | Value.V_mem m ->
      Value.V_mem
        (Value.mem_write
           (Value.mem_write m (bv "0x3:4") (bv "0xab:8"))
           (bv "0xc:4") (bv "0x5e:8"))
    | v -> v
  in
  let tr =
    {
      Trace.property = "wport/push";
      obligation = "state full_q";
      ila_vars =
        [
          ("buf", mem);
          ("cmd", Value.V_bv (bv "0x2:3"));
          ("full", Value.V_bool true);
        ];
      cycles =
        [
          (0, [ ("head_q", Value.V_bv (bv "0x0:4")); ("wen", Value.V_bool false) ]);
          (1, [ ("wen", Value.V_bool true) ]);
        ];
    }
  in
  let encoded = Json.encode (Trace.to_json tr) in
  match Json.parse encoded with
  | Error msg -> Alcotest.fail ("re-parse failed: " ^ msg)
  | Ok j -> (
    match Trace.of_json j with
    | None -> Alcotest.fail "decode failed"
    | Some tr' ->
      Alcotest.(check bool)
        "round-trips exactly (memories, bitvectors, booleans)" true
        (Trace.equal tr tr'))

let test_trace_of_json_rejects_damage () =
  let truncated =
    Json.Obj [ ("property", Json.String "p"); ("obligation", Json.String "o") ]
  in
  Alcotest.(check bool)
    "missing fields are a decode failure, not a partial trace" true
    (Trace.of_json truncated = None)

(* ---- daemon over the wire ---- *)

let test_byte_by_byte_request () =
  with_daemon (fun socket ->
      let fd = connect_raw socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          let b = frame_bytes {|{"op":"ping"}|} in
          for i = 0 to Bytes.length b - 1 do
            ignore (Unix.write fd b i 1);
            (* give the event loop a select round between bytes so the
               decoder really sees partial reads, not one coalesced
               buffer *)
            if i mod 4 = 0 then Unix.sleepf 0.002
          done;
          match Protocol.read_frame fd with
          | Protocol.Frame reply_s -> (
            match Json.parse reply_s with
            | Ok reply ->
              Alcotest.(check bool) "ok reply" true (Client.ok reply)
            | Error msg -> Alcotest.fail ("bad reply JSON: " ^ msg))
          | _ -> Alcotest.fail "no reply to the dribbled frame"))

let test_oversized_frame_rejected () =
  with_daemon ~max_frame:1024 (fun socket ->
      let fd = connect_raw socket in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          (* the header alone declares the violation; no payload is sent
             (and the daemon allocates none) *)
          let b = Bytes.create 4 in
          Bytes.set_int32_be b 0 (Int32.of_int 4096);
          ignore (Unix.write fd b 0 4);
          (match Protocol.read_frame fd with
          | Protocol.Frame reply_s -> (
            match Json.parse reply_s with
            | Ok reply ->
              Alcotest.(check bool) "error reply" false (Client.ok reply);
              let msg = Client.error_of reply in
              Alcotest.(check bool)
                ("error names the limit: " ^ msg)
                true
                (String.length msg > 0)
            | Error msg -> Alcotest.fail ("bad reply JSON: " ^ msg))
          | _ -> Alcotest.fail "no error reply for the oversized frame");
          (* the stream is unsyncable: the daemon must close it *)
          (match Protocol.read_frame fd with
          | Protocol.Eof -> ()
          | _ -> Alcotest.fail "connection left open after a broken stream"));
      (* ... and keep serving everyone else *)
      Alcotest.(check bool) "daemon alive" true (Client.ping socket);
      let errors = int_field "errors" (stats socket) in
      Alcotest.(check bool) "violation counted" true (errors >= 1))

let test_disconnect_mid_job () =
  with_daemon (fun socket ->
      (* client A submits a verify job and vanishes without reading the
         reply; the daemon's write fails, the job's resident state
         stays *)
      let fd = connect_raw socket in
      let b = frame_bytes (Json.encode (verify_req "Decoder")) in
      ignore (Unix.write fd b 0 (Bytes.length b));
      Unix.close fd;
      (* client B must still be served, and inherits A's warm frames *)
      let reply = request_exn socket (verify_req "Decoder") in
      Alcotest.(check bool) "B is served" true (Client.ok reply);
      Alcotest.(check bool)
        "B got verdicts" true
        (summary_field "n_jobs" reply > 0);
      Alcotest.(check bool) "daemon alive" true (Client.ping socket))

let test_identical_obligations_solve_once () =
  with_daemon (fun socket ->
      let before = stats socket in
      (* two separate connections, the identical obligation set *)
      let a = request_exn socket (verify_req "Decoder") in
      let b = request_exn socket (verify_req "Decoder") in
      Alcotest.(check bool) "A ok" true (Client.ok a);
      Alcotest.(check bool) "B ok" true (Client.ok b);
      let n_jobs = summary_field "n_jobs" a in
      Alcotest.(check bool) "some jobs ran" true (n_jobs > 0);
      Alcotest.(check int) "A solved everything fresh" 0
        (summary_field "n_dedup" a);
      Alcotest.(check int) "B is deduped in full" n_jobs
        (summary_field "n_dedup" b);
      let after = stats socket in
      let delta name = int_field name after - int_field name before in
      Alcotest.(check int) "exactly one solve per obligation" n_jobs
        (delta "solves");
      Alcotest.(check int) "every repeat hit the memo" n_jobs
        (delta "dedup_hits");
      List.iter
        (fun row ->
          Alcotest.(check (option string))
            "a dedup row answers from the memo rung" (Some "memo")
            (Protocol.str_member "rung" row))
        (match Json.member "results" b with
        | Some (Json.List rows) -> rows
        | _ -> Alcotest.fail "reply has no results");
      (* verdict agreement between the solved and deduped runs *)
      let verdicts reply =
        match Json.member "results" reply with
        | Some (Json.List rows) ->
          List.map
            (fun row ->
              ( Protocol.str_member "port" row,
                Protocol.str_member "instr" row,
                Protocol.str_member "verdict" row ))
            rows
        | _ -> Alcotest.fail "reply has no results"
      in
      Alcotest.(check bool)
        "identical verdicts" true
        (verdicts a = verdicts b))

(* An expired deadline answers Unknown for the request that carried it
   and leaves nothing behind: neither its session (whose skipped
   obligations stay retired) nor its verdicts (the memo holds only
   definitive ones) may answer the next request. *)
let test_deadline_does_not_poison () =
  with_daemon (fun socket ->
      let expired =
        request_exn socket
          (Json.Obj
             [
               ("op", Json.String "verify");
               ("design", Json.String "Decoder");
               ("timeout_s", Json.Float 1e-9);
             ])
      in
      Alcotest.(check bool) "deadline request ok" true (Client.ok expired);
      let n_jobs = summary_field "n_jobs" expired in
      Alcotest.(check int) "every verdict unknown at the deadline" n_jobs
        (summary_field "n_unknown" expired);
      let plain = request_exn socket (verify_req "Decoder") in
      Alcotest.(check int) "same jobs" n_jobs (summary_field "n_jobs" plain);
      Alcotest.(check int) "the plain request proves everything" n_jobs
        (summary_field "n_proved" plain);
      Alcotest.(check int) "no unknown was memoized" 0
        (summary_field "n_dedup" plain))

let contains hay needle =
  let n = String.length needle in
  let rec at i =
    i + n <= String.length hay && (String.sub hay i n = needle || at (i + 1))
  in
  at 0

let test_instrs_field_rejected () =
  with_daemon (fun socket ->
      let reply =
        request_exn socket
          (Json.Obj
             [
               ("op", Json.String "verify");
               ("design", Json.String "Decoder");
               ("instrs", Json.List [ Json.String "NOP" ]);
             ])
      in
      Alcotest.(check bool) "error reply" false (Client.ok reply);
      let msg = Client.error_of reply in
      Alcotest.(check bool)
        ("the error names the field: " ^ msg)
        true
        (contains msg "\"instrs\""))

(* ---- failing replies carry the counterexample (the satellite
   bugfix: daemon rows used to return "failed" with no trace) ---- *)

let verify_bug_req ?mode design bug =
  Json.Obj
    ([
       ("op", Json.String "verify");
       ("design", Json.String design);
       ("bug", Json.String bug);
     ]
    @
    match mode with
    | Some m -> [ ("memory_abstraction", Json.String m) ]
    | None -> [])

let results_of reply =
  match Json.member "results" reply with
  | Some (Json.List rs) -> rs
  | _ -> Alcotest.fail "reply has no results"

let failed_rows reply =
  List.filter
    (fun r -> Protocol.str_member "verdict" r = Some "failed")
    (results_of reply)

let test_failed_rows_carry_traces () =
  with_daemon (fun socket ->
      let reply =
        request_exn socket (verify_bug_req "Store Buffer" "full_flag")
      in
      Alcotest.(check bool) "ok reply" true (Client.ok reply);
      let rows = failed_rows reply in
      Alcotest.(check bool) "the bug was found" true (rows <> []);
      List.iter
        (fun r ->
          match Option.bind (Json.member "trace" r) Trace.of_json with
          | None -> Alcotest.fail "failed row carries no decodable trace"
          | Some tr ->
            let rendered = Format.asprintf "%a" Trace.pp tr in
            Alcotest.(check bool)
              "the recovered trace renders" true
              (String.length rendered > 0))
        rows)

let test_oversized_traces_are_flagged () =
  (* a tiny frame limit shrinks the per-trace budget below any real
     counterexample: the row must say the trace was omitted (the client
     then re-checks in-process) rather than silently dropping it *)
  with_daemon ~max_frame:512 (fun socket ->
      let reply =
        request_exn socket (verify_bug_req "Store Buffer" "full_flag")
      in
      Alcotest.(check bool) "ok reply" true (Client.ok reply);
      let rows = failed_rows reply in
      Alcotest.(check bool) "the bug was found" true (rows <> []);
      List.iter
        (fun r ->
          Alcotest.(check bool)
            "no trace member" true
            (Json.member "trace" r = None);
          Alcotest.(check bool)
            "omission is flagged" true
            (Json.member "trace_omitted" r = Some (Json.Bool true)))
        rows)

let test_memory_abstraction_modes_agree () =
  with_daemon (fun socket ->
      let verdicts mode =
        let reply =
          request_exn socket
            (verify_bug_req ~mode "Store Buffer" "full_flag")
        in
        Alcotest.(check bool) ("ok under " ^ mode) true (Client.ok reply);
        List.map
          (fun r ->
            ( Protocol.str_member "port" r,
              Protocol.str_member "instr" r,
              Protocol.str_member "verdict" r ))
          (results_of reply)
      in
      let off = verdicts "off" and on = verdicts "on" in
      Alcotest.(check bool)
        "identical verdicts with the abstraction on and off" true (off = on);
      Alcotest.(check bool) "both modes found the bug" true
        (List.exists (fun (_, _, v) -> v = Some "failed") on))

(* ---- one proof cache, two drivers ----

   The engine's groups and the daemon's resident frames check through
   the same session, so an entry either one stores is a hit for the
   other: same keys (generation-0 frame), same verdicts. *)

module Engine = Ilv_engine.Engine
module Proof_cache = Ilv_engine.Proof_cache
module Design = Ilv_designs.Design

let cross_designs = [ "AXI Slave"; "Store Buffer" ]

let cross_cache () =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "ilvd-t-cache-%d-%f" (Unix.getpid ())
         (Unix.gettimeofday ()))
  in
  Proof_cache.open_ ~dir ()

let engine_sweep cache =
  let d name = Option.get (Ilv_designs.Catalog.find name) in
  let jobs =
    List.concat_map
      (fun name ->
        let d = d name in
        Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
          ~refmap_for:(d.Design.refmap_for d.Design.rtl)
          ())
      cross_designs
    |> List.mapi (fun i (j : Engine.job) -> { j with Engine.id = i })
  in
  let results, summary =
    Engine.run ~jobs:1 ~cache ~memory_abstraction:true jobs
  in
  ( List.map
      (fun (r : Engine.result) ->
        ( r.Engine.r_design,
          r.Engine.r_port,
          r.Engine.r_instr,
          match r.Engine.verdict with
          | Ilv_core.Checker.Proved -> "proved"
          | Ilv_core.Checker.Failed _ -> "failed"
          | Ilv_core.Checker.Unknown _ -> "unknown" ))
      results,
    summary )

(* every row of a daemon verify of each design, abstraction on *)
let daemon_rows socket =
  List.concat_map
    (fun design ->
      let reply =
        request_exn socket
          (Json.Obj
             [
               ("op", Json.String "verify");
               ("design", Json.String design);
               ("memory_abstraction", Json.String "on");
             ])
      in
      Alcotest.(check bool) ("ok reply: " ^ design) true (Client.ok reply);
      List.map
        (fun r ->
          let s key = Option.value (Protocol.str_member key r) ~default:"" in
          ( (design, s "port", s "instr", s "verdict"),
            Json.member "cache_hit" r = Some (Json.Bool true) ))
        (results_of reply))
    cross_designs

let test_engine_fills_daemon_hits () =
  let cache = cross_cache () in
  Fun.protect
    ~finally:(fun () -> ignore (Proof_cache.clear cache))
    (fun () ->
      let engine_verdicts, s = engine_sweep cache in
      Alcotest.(check int) "engine solved everything" s.Engine.n_jobs
        s.Engine.cache_misses;
      with_daemon ~cache (fun socket ->
          let rows = daemon_rows socket in
          List.iter
            (fun ((design, port, instr, _), hit) ->
              Alcotest.(check bool)
                (Printf.sprintf "cache hit: %s %s.%s" design port instr)
                true hit)
            rows;
          Alcotest.(check bool)
            "daemon verdicts = engine verdicts" true
            (List.map fst rows = engine_verdicts)))

let test_daemon_fills_engine_hits () =
  let cache = cross_cache () in
  Fun.protect
    ~finally:(fun () -> ignore (Proof_cache.clear cache))
    (fun () ->
      let rows = with_daemon ~cache daemon_rows in
      Alcotest.(check bool)
        "daemon solved everything" true
        (List.for_all (fun (_, hit) -> not hit) rows);
      let engine_verdicts, s = engine_sweep cache in
      Alcotest.(check int) "engine: every job a cache hit" s.Engine.n_jobs
        s.Engine.cache_hits;
      Alcotest.(check int) "engine: zero fresh SAT attempts" 0
        s.Engine.fresh_sat_attempts;
      Alcotest.(check bool)
        "engine verdicts = daemon verdicts" true
        (engine_verdicts = List.map fst rows))

let suite =
  [
    ( "daemon.protocol",
      [
        Alcotest.test_case "decoder handles byte-at-a-time feeds" `Quick
          test_decoder_byte_at_a_time;
        Alcotest.test_case "decoder splits coalesced frames" `Quick
          test_decoder_coalesced_frames;
        Alcotest.test_case "decoder flags oversized headers" `Quick
          test_decoder_oversized_header;
        Alcotest.test_case "trace JSON round-trips exactly" `Quick
          test_trace_json_roundtrip;
        Alcotest.test_case "damaged trace JSON decodes to None" `Quick
          test_trace_of_json_rejects_damage;
      ] );
    ( "daemon.serve",
      [
        Alcotest.test_case "a frame dribbled byte by byte is one request"
          `Quick test_byte_by_byte_request;
        Alcotest.test_case "oversized frames get an error reply and a close"
          `Quick test_oversized_frame_rejected;
        Alcotest.test_case
          "a client disconnecting mid-job leaves the daemon up" `Quick
          test_disconnect_mid_job;
        Alcotest.test_case "identical obligations across clients solve once"
          `Quick test_identical_obligations_solve_once;
        Alcotest.test_case "an expired deadline does not poison the next request"
          `Quick test_deadline_does_not_poison;
        Alcotest.test_case "a verify carrying \"instrs\" is an error" `Quick
          test_instrs_field_rejected;
        Alcotest.test_case "failing replies carry a decodable trace" `Quick
          test_failed_rows_carry_traces;
        Alcotest.test_case "oversized traces are flagged, not dropped" `Quick
          test_oversized_traces_are_flagged;
        Alcotest.test_case "abstraction on/off agree over the wire" `Quick
          test_memory_abstraction_modes_agree;
      ] );
    ( "daemon.cache",
      [
        Alcotest.test_case "an engine-filled cache answers every daemon row"
          `Quick test_engine_fills_daemon_hits;
        Alcotest.test_case "a daemon-filled cache answers every engine job"
          `Quick test_daemon_fills_engine_hits;
      ] );
  ]
