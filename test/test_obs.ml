(* Tests for the observability layer: the self-contained JSON reader,
   the shape of the JSONL trace a real run emits (stable field sets,
   well-formed span nesting, monotonic counters, span durations that
   account for the reported wall time) and the profile aggregation. *)

open Ilv_obs
open Ilv_designs
open Ilv_engine

let t name f = Alcotest.test_case name `Quick f

(* ------------------------------------------------------------------ *)
(* The JSON reader                                                     *)
(* ------------------------------------------------------------------ *)

let json_tests =
  [
    t "parses scalars, strings, lists and nested objects" (fun () ->
        match
          Json.parse
            "{\"a\": 1, \"b\": [true, null, -2.5], \"c\": \"x\\n\\u0041\", \
             \"d\": {\"e\": false}}"
        with
        | Error msg -> Alcotest.fail msg
        | Ok j ->
          Alcotest.(check (option int))
            "int field" (Some 1)
            (Option.bind (Json.member "a" j) Json.to_int);
          (match Json.member "b" j with
          | Some (Json.List [ Json.Bool true; Json.Null; Json.Float f ]) ->
            Alcotest.(check (float 1e-9)) "negative float" (-2.5) f
          | _ -> Alcotest.fail "list shape");
          Alcotest.(check (option string))
            "escapes decoded" (Some "x\nA")
            (Option.bind (Json.member "c" j) Json.to_string);
          Alcotest.(check bool)
            "nested object" true
            (Option.bind (Json.member "d" j) (Json.member "e")
            = Some (Json.Bool false)));
    t "ints parse as Int, exponents as Float, and to_float takes both"
      (fun () ->
        Alcotest.(check bool)
          "int" true
          (Json.parse "42" = Ok (Json.Int 42));
        (match Json.parse "1e3" with
        | Ok (Json.Float f) -> Alcotest.(check (float 1e-9)) "1e3" 1000.0 f
        | _ -> Alcotest.fail "exponent should be Float");
        Alcotest.(check (option (float 1e-9)))
          "to_float on Int" (Some 7.0)
          (Json.to_float (Json.Int 7)));
    t "rejects malformed input" (fun () ->
        List.iter
          (fun s ->
            match Json.parse s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [ "{"; "[1,"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2"; "" ]);
    t "parse_lines names the offending line" (fun () ->
        match Json.parse_lines "{}\n\n{\"ok\": true}\nnot json\n" with
        | Ok _ -> Alcotest.fail "accepted garbage"
        | Error msg ->
          Alcotest.(check bool)
            (Printf.sprintf "%S mentions line 4" msg)
            true
            (let n = String.length msg in
             let rec scan i =
               i + 6 <= n && (String.sub msg i 6 = "line 4" || scan (i + 1))
             in
             scan 0));
  ]

(* ------------------------------------------------------------------ *)
(* A recorded trace of a real (jobs:1, in-process) engine run          *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let recorded =
  lazy
    (let file = Filename.temp_file "ilv-obs-test" ".jsonl" in
     Obs.configure ~trace_out:file ();
     let d = List.find (fun d -> d.Design.name = "Decoder") Catalog.all in
     let job_list =
       Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
         ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
         ()
     in
     let results, summary = Engine.run ~jobs:1 job_list in
     Obs.shutdown ();
     let raw = read_file file in
     Sys.remove file;
     match Json.parse_lines raw with
     | Error msg -> Alcotest.fail ("trace is not valid JSONL: " ^ msg)
     | Ok lines -> (lines, results, summary))

let str key j = Option.bind (Json.member key j) Json.to_string
let int_of key j = Option.bind (Json.member key j) Json.to_int
let fl key j = Option.bind (Json.member key j) Json.to_float

let trace_tests =
  [
    t "every line carries the stable common field set" (fun () ->
        let lines, _, _ = Lazy.force recorded in
        Alcotest.(check bool) "trace is non-empty" true (lines <> []);
        List.iter
          (fun line ->
            let ev =
              match str "ev" line with
              | Some e -> e
              | None -> Alcotest.fail "line without ev"
            in
            Alcotest.(check bool)
              "known ev" true
              (List.mem ev [ "event"; "span_begin"; "span_end"; "counter" ]);
            Alcotest.(check bool) "has name" true (str "name" line <> None);
            Alcotest.(check bool) "has pid" true (int_of "pid" line <> None);
            (match fl "ts" line with
            | Some ts -> Alcotest.(check bool) "ts >= 0" true (ts >= 0.0)
            | None -> Alcotest.fail "line without ts");
            match ev with
            | "span_begin" | "span_end" ->
              Alcotest.(check bool)
                "span lines carry the span id" true
                (int_of "span" line <> None);
              if ev = "span_end" then
                Alcotest.(check bool)
                  "span_end carries dur_s >= 0" true
                  (match fl "dur_s" line with
                  | Some d -> d >= 0.0
                  | None -> false)
            | "counter" ->
              Alcotest.(check bool)
                "counter lines carry add and total" true
                (int_of "add" line <> None && int_of "total" line <> None)
            | _ -> ())
          lines);
    t "engine.job spans carry identity at begin, outcome at end" (fun () ->
        let lines, results, _ = Lazy.force recorded in
        let begins =
          List.filter
            (fun l ->
              str "ev" l = Some "span_begin" && str "name" l = Some "engine.job")
            lines
        and ends =
          List.filter
            (fun l ->
              str "ev" l = Some "span_end" && str "name" l = Some "engine.job")
            lines
        in
        Alcotest.(check int)
          "one begin per job" (List.length results) (List.length begins);
        Alcotest.(check int)
          "one end per job" (List.length results) (List.length ends);
        List.iter
          (fun l ->
            Alcotest.(check bool)
              "begin has design/port/instr" true
              (str "design" l <> None && str "port" l <> None
              && str "instr" l <> None))
          begins;
        List.iter
          (fun l ->
            Alcotest.(check bool)
              "end has backend/verdict" true
              (str "backend" l <> None && str "verdict" l <> None))
          ends);
    t "spans nest well-formed (begun once, ended once, parent open)"
      (fun () ->
        let lines, _, _ = Lazy.force recorded in
        (* (pid, span) -> open? — begins must be unique, ends must close
           an open span of the same name, parents must be open at begin *)
        let state = Hashtbl.create 64 in
        List.iter
          (fun line ->
            match (str "ev" line, int_of "pid" line, int_of "span" line) with
            | Some "span_begin", Some pid, Some span ->
              Alcotest.(check bool)
                "span id not reused" false
                (Hashtbl.mem state (pid, span));
              (match int_of "parent" line with
              | None -> ()
              | Some parent ->
                Alcotest.(check bool)
                  "parent span is open" true
                  (match Hashtbl.find_opt state (pid, parent) with
                  | Some (_, open_) -> open_
                  | None -> false));
              Hashtbl.replace state (pid, span)
                (Option.value ~default:"?" (str "name" line), true)
            | Some "span_end", Some pid, Some span -> (
              match Hashtbl.find_opt state (pid, span) with
              | Some (name, true) ->
                Alcotest.(check (option string))
                  "end name matches begin" (Some name) (str "name" line);
                Hashtbl.replace state (pid, span) (name, false)
              | Some (_, false) -> Alcotest.fail "span ended twice"
              | None -> Alcotest.fail "span_end without span_begin")
            | _ -> ())
          lines;
        Hashtbl.iter
          (fun _ (name, open_) ->
            Alcotest.(check bool)
              (Printf.sprintf "span %s closed" name)
              false open_)
          state);
    t "counters are monotonic and totals equal the running sum" (fun () ->
        let lines, _, _ = Lazy.force recorded in
        let running = Hashtbl.create 16 in
        let counters = ref 0 in
        List.iter
          (fun line ->
            match
              ( str "ev" line,
                int_of "pid" line,
                str "name" line,
                int_of "add" line,
                int_of "total" line )
            with
            | Some "counter", Some pid, Some name, Some add, Some total ->
              incr counters;
              Alcotest.(check bool) "increment >= 0" true (add >= 0);
              let prev =
                Option.value ~default:0 (Hashtbl.find_opt running (pid, name))
              in
              Alcotest.(check int)
                (Printf.sprintf "%s total is the running sum" name)
                (prev + add) total;
              Hashtbl.replace running (pid, name) total
            | _ -> ())
          lines;
        Alcotest.(check bool) "saw counter lines" true (!counters > 0));
    t "engine.job span durations account for the reported wall time"
      (fun () ->
        let lines, results, summary = Lazy.force recorded in
        let span_total =
          List.fold_left
            (fun acc l ->
              if
                str "ev" l = Some "span_end"
                && str "name" l = Some "engine.job"
              then acc +. Option.value ~default:0.0 (fl "dur_s" l)
              else acc)
            0.0 lines
        in
        let result_total =
          List.fold_left
            (fun acc (r : Engine.result) -> acc +. r.Engine.time_s)
            0.0 results
        in
        (* jobs:1 — every job ran inside the engine.run wall clock, so
           the spans must cover the per-result times (the span wraps the
           timed section) without exceeding the sweep's wall time by
           more than scheduling noise *)
        Alcotest.(check bool)
          "spans cover the per-result times" true
          (span_total >= result_total *. 0.9);
        Alcotest.(check bool)
          (Printf.sprintf "span total %.4fs within wall %.4fs (+50ms)"
             span_total summary.Engine.wall_s)
          true
          (span_total <= summary.Engine.wall_s +. 0.05));
    t "shutdown disables emission and is idempotent" (fun () ->
        let _ = Lazy.force recorded in
        Alcotest.(check bool) "disabled" false (Obs.enabled ());
        Obs.event "after.shutdown" [];
        Obs.count "after.shutdown" 1;
        Obs.shutdown ();
        Alcotest.(check bool) "still disabled" false (Obs.enabled ()));
    t "configure starts a fresh counter session" (fun () ->
        let session adds =
          let file = Filename.temp_file "ilv-obs-session" ".jsonl" in
          Obs.configure ~trace_out:file ();
          List.iter (Obs.count "session.test") adds;
          Obs.shutdown ();
          let raw = read_file file in
          Sys.remove file;
          match Json.parse_lines raw with
          | Error msg -> Alcotest.fail msg
          | Ok lines ->
            List.filter_map
              (fun j ->
                match (int_of "add" j, int_of "total" j) with
                | Some add, Some total -> Some (add, total)
                | _ -> None)
              lines
        in
        Alcotest.(check (list (pair int int)))
          "first session" [ (3, 3); (4, 7) ] (session [ 3; 4 ]);
        Alcotest.(check (list (pair int int)))
          "second session counts from zero" [ (2, 2) ] (session [ 2 ]));
  ]

(* ------------------------------------------------------------------ *)
(* Profile aggregation                                                 *)
(* ------------------------------------------------------------------ *)

let contains s needle =
  let n = String.length s and k = String.length needle in
  let rec scan i = i + k <= n && (String.sub s i k = needle || scan (i + 1)) in
  scan 0

(* A trace of one frame freeze (what a cached run does per port) *)
let frozen =
  lazy
    (let file = Filename.temp_file "ilv-obs-freeze" ".jsonl" in
     Obs.configure ~trace_out:file ();
     let d = List.find (fun d -> d.Design.name = "Decoder") Catalog.all in
     let port = List.hd d.Design.module_ila.Ilv_core.Module_ila.ports in
     let pr =
       Ilv_core.Verify.prepare_port ~name:d.Design.name ~port ~rtl:d.Design.rtl
         ~refmap:(d.Design.refmap_for d.Design.rtl port.Ilv_core.Ila.name)
         ()
     in
     Ilv_core.Checker.shared_freeze (Ilv_core.Verify.key_frame pr);
     Obs.shutdown ();
     let raw = read_file file in
     Sys.remove file;
     match Json.parse_lines raw with
     | Error msg -> Alcotest.fail ("trace is not valid JSONL: " ^ msg)
     | Ok lines -> lines)

let profile_tests =
  [
    t "profile folds the trace into per-instruction rows" (fun () ->
        let lines, results, _ = Lazy.force recorded in
        let p = Profile.of_trace lines in
        Alcotest.(check int)
          "one row per instruction" (List.length results)
          (List.length p.Profile.rows);
        List.iter
          (fun (r : Profile.row) ->
            Alcotest.(check string) "design joined in" "Decoder" r.Profile.design;
            Alcotest.(check string) "verdict" "proved" r.Profile.verdict;
            Alcotest.(check bool)
              "identity fields resolved" true
              (r.Profile.port <> "?" && r.Profile.instr <> "?"
              && r.Profile.backend <> "?"))
          p.Profile.rows;
        Alcotest.(check bool)
          "rows sorted by descending time" true
          (let rec sorted = function
             | a :: (b :: _ as rest) ->
               a.Profile.time_s >= b.Profile.time_s && sorted rest
             | _ -> [] = []
           in
           sorted p.Profile.rows);
        Alcotest.(check bool)
          "engine.run wall picked up" true
          (p.Profile.run_wall_s <> None);
        Alcotest.(check (option int))
          "counters summed (one sat solve per obligation)"
          (Some (List.length results))
          (List.assoc_opt "engine.jobs" p.Profile.counters));
    t "profile renders without raising" (fun () ->
        let lines, _, _ = Lazy.force recorded in
        let p = Profile.of_trace lines in
        let rendered = Format.asprintf "%a" Profile.pp p in
        Alcotest.(check bool)
          "mentions a Decoder instruction" true
          (contains rendered "Decoder"));
    t "the freeze reports its simplify time, and profile shows it"
      (fun () ->
        let lines = Lazy.force frozen in
        let ends =
          List.filter
            (fun l ->
              str "ev" l = Some "span_end"
              && str "name" l = Some "checker.prepare_shared")
            lines
        in
        Alcotest.(check int) "one freeze" 1 (List.length ends);
        let span = List.hd ends in
        let simplify_s, dur_s =
          match (fl "simplify_s" span, fl "dur_s" span) with
          | Some s, Some d -> (s, d)
          | _ -> Alcotest.fail "prepare_shared span_end lacks simplify_s"
        in
        Alcotest.(check bool)
          "0 <= simplify_s <= dur_s" true
          (0.0 <= simplify_s && simplify_s <= dur_s);
        let p = Profile.of_trace lines in
        (match p.Profile.frames with
        | [ f ] ->
          Alcotest.(check (float 1e-9))
            "frame record carries it" simplify_s f.Profile.simplify_s
        | _ -> Alcotest.fail "expected one frame record");
        let rendered = Format.asprintf "%a" Profile.pp p in
        Alcotest.(check bool)
          "frames table has a simp_s column" true
          (contains rendered "simp_s"));
    t "a cached engine run traces canonicalization apart from the freeze"
      (fun () ->
        let file = Filename.temp_file "ilv-obs-canonical" ".jsonl" in
        let dir =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilv-obs-cache-%d" (Unix.getpid ()))
        in
        let cache = Proof_cache.open_ ~dir () in
        Obs.configure ~trace_out:file ();
        let d = List.find (fun d -> d.Design.name = "AXI Slave") Catalog.all in
        let _ =
          Engine.run ~jobs:1 ~cache
            (Engine.jobs_of ~name:d.Design.name d.Design.module_ila
               d.Design.rtl
               ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
               ())
        in
        Obs.shutdown ();
        ignore (Proof_cache.clear cache);
        let raw = read_file file in
        Sys.remove file;
        let lines =
          match Json.parse_lines raw with
          | Error msg -> Alcotest.fail ("trace is not valid JSONL: " ^ msg)
          | Ok lines -> lines
        in
        let named ev name =
          List.filter
            (fun l -> str "ev" l = Some ev && str "name" l = Some name)
            lines
        in
        let freezes = named "span_end" "checker.prepare_shared"
        and canonical = named "span_end" "proof_cache.canonical" in
        Alcotest.(check bool) "frames frozen" true (freezes <> []);
        Alcotest.(check int)
          "one canonicalization per freeze" (List.length freezes)
          (List.length canonical);
        List.iter2
          (fun f c ->
            match (int_of "cnf_clauses" f, int_of "clauses" c) with
            | Some stored, Some exported ->
              (* the export adds the level-0 units to the stored clauses *)
              Alcotest.(check bool) "clauses >= cnf_clauses" true
                (exported >= stored)
            | _ -> Alcotest.fail "span_end lacks its clause count")
          freezes canonical;
        let bytes l = List.sort compare (List.filter_map (int_of "bytes") l) in
        Alcotest.(check (list int))
          "canonical text is what each frame blob holds"
          (bytes (named "event" "cache.frame_store"))
          (bytes canonical));
  ]

let suite =
  [
    ("obs.json", json_tests);
    ("obs.trace", trace_tests);
    ("obs.profile", profile_tests);
  ]
