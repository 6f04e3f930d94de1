(* ilaverif: command-line front end.

   Subcommands:
     list                        enumerate the case-study designs
     sketch DESIGN               print the module-ILA (Figs. 1-3 style)
     refmap DESIGN               print the refinement maps (Fig. 5 style)
     property DESIGN INSTR       print one auto-generated property
     check DESIGN                decode coverage / determinism checks
     verify DESIGN [--bug L]     refinement-check a design (or a buggy variant)
     cache stats|clear|verify    manage the persistent proof cache
     chaos [DESIGN..]            seeded fault-injection campaign on the engine
     profile TRACE               aggregate a --trace-out JSONL trace
     bugs                        reproduce the paper's three bug hunts *)

open Cmdliner
open Ilv_core
open Ilv_designs
open Ilv_engine

let find_design name =
  match Catalog.find name with
  | Some d -> Ok d
  | None ->
    Error
      (Printf.sprintf "unknown design %S; available: %s" name
         (String.concat ", " Catalog.names))

let design_arg =
  let doc = "Case-study design name (see the list subcommand)." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"DESIGN" ~doc)

let or_die = function
  | Ok x -> x
  | Error msg ->
    prerr_endline msg;
    exit 2

(* ---- shared engine options ---- *)

let jobs_arg =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:
          "Discharge refinement obligations on $(docv) parallel worker \
           processes (default 1: in-process, no fork).  Verdicts and their \
           order are identical for any worker count.")

let cache_flag =
  Arg.(
    value & flag
    & info [ "cache" ]
        ~doc:
          "Consult and populate the persistent proof cache: obligations \
           whose bit-blasted content was already discharged skip the solver \
           entirely.")

let cache_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Proof-cache directory (default: \\$ILAVERIF_CACHE_DIR, else \
           \\$XDG_CACHE_HOME/ilaverif, else ~/.cache/ilaverif).  Implies \
           $(b,--cache).")

let timeout_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "timeout" ] ~docv:"SECS"
        ~doc:
          "Wall-clock deadline per obligation group (per port in \
           incremental mode, per obligation otherwise).  Obligations past \
           the deadline report a timestamped $(b,deadline:) unknown verdict \
           instead of running forever.  Default: unlimited.")

let no_incremental_flag =
  Arg.(
    value & flag
    & info [ "no-incremental" ]
        ~doc:
          "Escape hatch: bit-blast and solve every obligation in its own \
           fresh solver instead of sharing one incremental solver (and one \
           bit-blasted frame) per design.  Incremental mode is the default; \
           verdicts are identical either way.  Fresh mode is the uncached \
           reference: it cannot be combined with $(b,--cache), \
           $(b,--cache-dir) or $(b,--daemon).")

let daemon_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "daemon" ] ~docv:"SOCK"
        ~doc:
          "Submit the work to the $(b,ilaverifd) daemon listening on the \
           Unix socket $(docv) — resident shared frames and a warm memo \
           make repeat sweeps much cheaper than forking per run.  Falls \
           back to in-process solving when no daemon answers.  \
           Counterexample traces travel in the reply; the rare trace too \
           large for the reply frame is re-derived in-process.")

let mem_abs_arg =
  let modes = [ ("auto", `Auto); ("on", `On); ("off", `Off) ] in
  Arg.(
    value
    & opt (enum modes) `Auto
    & info [ "memory-abstraction" ] ~docv:"MODE"
        ~doc:
          "Window-abstract memory-sorted state instead of bit-blasting \
           every word: $(b,auto) (the default — on exactly when the design \
           has a memory wider than the window; $(b,on) is a synonym) or \
           $(b,off).  Verdicts are identical in every mode; abstract \
           counterexamples are replayed concretely and spurious ones \
           refine the window (CEGAR).")

(* "auto" and "on" coincide in-process: the abstraction applies itself
   only to obligation groups with a wide memory *)
let mem_abs_enabled = function `Off -> false | `On | `Auto -> true
let mem_abs_string = function `Off -> "off" | `On -> "on" | `Auto -> "auto"

(* ---- shared observability options ---- *)

let trace_out_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Append a structured JSONL trace of the run (spans, events, \
           counters) to $(docv).  Worker processes write to the same file; \
           aggregate it afterwards with the $(b,profile) subcommand.")

let metrics_flag =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Print an aggregate counter summary (solver calls, cache traffic, \
           worker lifecycle) to stderr when the command exits.")

let setup_obs trace_out metrics =
  if trace_out <> None || metrics then
    Ilv_obs.Obs.configure ?trace_out ~metrics ()

let open_cache ~use_cache ~cache_dir =
  if use_cache || cache_dir <> None then Some (Proof_cache.open_ ?dir:cache_dir ())
  else None

(* Fresh mode never reaches a proof cache or a daemon: refuse a
   combination that would otherwise drop the flag, before any solving. *)
let incremental_or_die ~no_incremental ~use_cache ~cache_dir ~daemon =
  let clash =
    if daemon <> None then Some "--daemon"
    else if use_cache then Some "--cache"
    else if cache_dir <> None then Some "--cache-dir"
    else None
  in
  match clash with
  | Some opt when no_incremental ->
    prerr_endline
      ("--no-incremental runs uncached in-process and cannot be combined \
        with " ^ opt);
    exit 2
  | _ -> not no_incremental

let variant_or_die (d : Design.t) bug =
  match Design.variant d bug with
  | Ok v -> v
  | Error msg ->
    prerr_endline msg;
    exit 2

(* One design, golden or the bug variant with that label, through the
   verification driver. *)
let verify_design ?(stop_at_first_failure = true) ?jobs ?cache ?only_ports
    ?timeout_s ~incremental ~memory_abstraction (d : Design.t) bug =
  let name, rtl = variant_or_die d bug in
  Engine.verify ~stop_at_first_failure ?jobs ?cache ?only_ports ?timeout_s
    ~incremental ~memory_abstraction ~name d.Design.module_ila rtl
    ~refmap_for:(d.Design.refmap_for rtl)

(* ---- daemon client mode ----

   [--daemon SOCK] routes verify/table to a resident ilaverifd.  The
   contract: if a daemon answers, its reply is authoritative (including
   its errors); only a failed *connection* falls back to in-process
   solving, so a typo'd design name cannot silently degrade into a
   slow local run. *)

module Json = Ilv_obs.Json
module Client = Ilv_server.Client
module Protocol = Ilv_server.Protocol

let daemon_request sock req =
  Client.with_connection sock (fun c -> Client.request c req)

let print_daemon_results reply =
  let results =
    match Json.member "results" reply with
    | Some (Json.List rs) -> rs
    | _ -> []
  in
  let unknown = ref 0 in
  let failures = ref [] in
  (* failed rows, with their counterexample when it travelled in the
     frame *)
  List.iter
    (fun r ->
      let s key = Option.value (Protocol.str_member key r) ~default:"" in
      let verdict = s "verdict" in
      if verdict = "unknown" then incr unknown;
      Format.printf "  %-12s %-34s %-7s %.3fs%s%s@." (s "port") (s "instr")
        (match verdict with
        | "proved" -> "proved"
        | "failed" -> "FAILED"
        | _ -> "UNKNOWN")
        (Option.value (Protocol.float_member "time_s" r) ~default:0.0)
        (if Json.member "dedup" r = Some (Json.Bool true) then " [dedup]"
         else "")
        (if Json.member "cache_hit" r = Some (Json.Bool true) then " [cache]"
         else "");
      (match Protocol.str_member "reason" r with
      | Some why -> Format.printf "    reason: %s@." why
      | None -> ());
      if verdict = "failed" then begin
        let trace = Option.bind (Json.member "trace" r) Trace.of_json in
        Option.iter (Format.printf "%a@." Trace.pp) trace;
        failures := (s "port", s "instr", trace) :: !failures
      end)
    results;
  (List.rev !failures, !unknown)

(* A failing daemon row whose trace was omitted (too large for the
   reply frame, or an older daemon): recover it transparently by
   re-checking just that instruction in-process. *)
let recheck_trace (d : Design.t) ~bug ~memory_abstraction ~port_name ~instr =
  let report, _ =
    verify_design ~stop_at_first_failure:false ~only_ports:[ port_name ]
      ~incremental:true ~memory_abstraction d bug
  in
  match
    List.find_opt
      (fun (r : Verify.instr_result) -> r.Verify.instr = instr)
      (List.concat_map (fun p -> p.Verify.instr_results) report.Verify.ports)
  with
  | Some { Verify.verdict = Checker.Failed tr; _ } ->
    Format.printf
      "  (trace exceeded the reply frame; re-derived in-process)@.%a@."
      Trace.pp tr;
    Some tr
  | _ ->
    Format.printf
      "  (trace of %s/%s exceeded the reply frame and the in-process \
       re-check did not reproduce it)@."
      port_name instr;
    None

(* [--vcd FILE]: the first counterexample as a VCD waveform *)
let write_vcd vcd trace =
  match (vcd, trace) with
  | Some file, Some trace ->
    let oc = open_out file in
    output_string oc (Trace.to_vcd trace);
    close_out oc;
    Format.printf "counterexample waveform written to %s@." file
  | Some _, None -> Format.printf "no counterexample to dump@."
  | None, _ -> ()

(* Returns true when the daemon handled the command (this process
   should not solve anything).  Like the in-process path, it writes the
   first failing row's trace to [vcd] and exits 1 unless every row is
   proved. *)
let daemon_verify ~sock ~bug ~port ~timeout_s ~mem_abs ~vcd (d : Design.t) =
  let req =
    Json.Obj
      ([
         ("op", Json.String "verify");
         ("design", Json.String d.Design.name);
         ("memory_abstraction", Json.String (mem_abs_string mem_abs));
       ]
      @ (match bug with
        | Some label -> [ ("bug", Json.String label) ]
        | None -> [])
      @ (match port with
        | Some p -> [ ("ports", Json.List [ Json.String p ]) ]
        | None -> [])
      @
      match timeout_s with
      | Some s -> [ ("timeout_s", Json.Float s) ]
      | None -> [])
  in
  match daemon_request sock req with
  | Error msg ->
    Format.eprintf "%s; solving in-process@." msg;
    false
  | Ok reply when not (Client.ok reply) ->
    prerr_endline ("daemon: " ^ Client.error_of reply);
    exit 2
  | Ok reply ->
    Format.printf "daemon verification: %s@." d.Design.name;
    let failures, unknown = print_daemon_results reply in
    let traces =
      List.map
        (fun (port_name, instr, trace) ->
          match trace with
          | Some _ -> trace
          | None ->
            recheck_trace d ~bug
              ~memory_abstraction:(mem_abs_enabled mem_abs)
              ~port_name ~instr)
        failures
    in
    (match Json.member "summary" reply with
    | Some s ->
      let i key = Option.value (Protocol.int_member key s) ~default:0 in
      Format.printf
        "summary: %d jobs, %d proved, %d failed, %d unknown (%d dedup, %d \
         cache hits) in %.3fs@."
        (i "n_jobs") (i "n_proved") (i "n_failed") (i "n_unknown")
        (i "n_dedup") (i "n_cache_hits")
        (Option.value (Protocol.float_member "time_s" s) ~default:0.0)
    | None -> ());
    write_vcd vcd (match traces with trace :: _ -> trace | [] -> None);
    if failures <> [] || unknown > 0 then exit 1;
    true

let daemon_table ~sock ~designs ~timeout_s ~mem_abs =
  let req =
    Json.Obj
      ([
         ("op", Json.String "table");
         ( "designs",
           Json.List (List.map (fun n -> Json.String n) designs) );
         ("memory_abstraction", Json.String (mem_abs_string mem_abs));
       ]
      @
      match timeout_s with
      | Some s -> [ ("timeout_s", Json.Float s) ]
      | None -> [])
  in
  match daemon_request sock req with
  | Error msg ->
    Format.eprintf "%s; solving in-process@." msg;
    false
  | Ok reply when not (Client.ok reply) ->
    prerr_endline ("daemon: " ^ Client.error_of reply);
    exit 2
  | Ok reply ->
    (match Json.member "rows" reply with
    | Some (Json.List rows) ->
      Format.printf "daemon table (%d designs):@." (List.length rows);
      List.iter
        (fun row ->
          let name =
            Option.value (Protocol.str_member "design" row) ~default:"?"
          in
          match Json.member "summary" row with
          | Some s ->
            let i key =
              Option.value (Protocol.int_member key s) ~default:0
            in
            Format.printf
              "  %-28s %3d jobs  %3d proved  %3d failed  %3d unknown  %.3fs@."
              name (i "n_jobs") (i "n_proved") (i "n_failed") (i "n_unknown")
              (Option.value (Protocol.float_member "time_s" s) ~default:0.0)
          | None ->
            Format.printf "  %-28s error: %s@." name
              (Option.value (Protocol.str_member "error" row)
                 ~default:"unknown"))
        rows
    | _ -> ());
    true

(* ---- list ---- *)

let list_cmd =
  let run () =
    List.iter
      (fun (d : Design.t) ->
        Format.printf "%-28s %-32s ports %d/%d, %d instructions%s@."
          d.Design.name
          (Design.class_to_string d.Design.module_class)
          d.Design.ports_before_integration
          (Module_ila.n_ports d.Design.module_ila)
          (Module_ila.total_instructions d.Design.module_ila)
          (match d.Design.bugs with
          | [] -> ""
          | bugs ->
            Printf.sprintf " [bugs: %s]"
              (String.concat ", "
                 (List.map (fun b -> b.Design.bug_label) bugs))))
      (Catalog.all
      @ [ Datapath_8051.design_abstract; Store_buffer.design_abstract ])
  in
  Cmd.v (Cmd.info "list" ~doc:"List the case-study designs")
    Term.(const run $ const ())

(* ---- sketch ---- *)

let sketch_cmd =
  let text_flag =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:
            "Emit the machine-readable textual models (re-loadable with \
             Ila_text.parse) instead of the sketch.")
  in
  let run name text =
    let d = or_die (find_design name) in
    if text then
      List.iter
        (fun (port : Ila.t) -> print_string (Ila_text.print port))
        d.Design.module_ila.Module_ila.ports
    else Format.printf "%a@." Module_ila.pp_sketch d.Design.module_ila
  in
  Cmd.v
    (Cmd.info "sketch" ~doc:"Print the module-ILA sketch (Figs. 1-3 style)")
    Term.(const run $ design_arg $ text_flag)

(* ---- refmap ---- *)

let refmap_cmd =
  let text_flag =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:
            "Emit the machine-readable textual format (re-loadable with \
             Refmap_text.parse) instead of the Fig.-5-style rendering.")
  in
  let run name text =
    let d = or_die (find_design name) in
    List.iter
      (fun (port : Ila.t) ->
        let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
        if text then begin
          Format.printf "# port %s@." port.Ila.name;
          print_string (Refmap_text.print refmap)
        end
        else Format.printf "== port %s ==@.%a@." port.Ila.name Refmap.pp refmap)
      d.Design.module_ila.Module_ila.ports
  in
  Cmd.v
    (Cmd.info "refmap" ~doc:"Print the refinement maps (Fig. 5 style)")
    Term.(const run $ design_arg $ text_flag)

(* ---- property ---- *)

let property_cmd =
  let instr_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"INSTRUCTION" ~doc:"Instruction name.")
  in
  let run name instr_name =
    let d = or_die (find_design name) in
    let found =
      List.find_map
        (fun (port : Ila.t) ->
          match Ila.find_instruction port instr_name with
          | Some i -> Some (port, i)
          | None -> None)
        d.Design.module_ila.Module_ila.ports
    in
    match found with
    | None ->
      prerr_endline ("no such instruction: " ^ instr_name);
      exit 2
    | Some (port, i) ->
      let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
      let prop = Propgen.generate_for ~ila:port ~rtl:d.Design.rtl ~refmap i in
      Format.printf "%a@." Property.pp prop
  in
  Cmd.v
    (Cmd.info "property"
       ~doc:"Print the auto-generated property of one instruction")
    Term.(const run $ design_arg $ instr_arg)

(* ---- check ---- *)

let check_cmd =
  let run name =
    let d = or_die (find_design name) in
    let failed = ref false in
    List.iter
      (fun (port : Ila.t) ->
        let assuming = d.Design.coverage_assumptions port.Ila.name in
        (match Ila_check.coverage ~assuming port with
        | Ila_check.Covered ->
          Format.printf "port %-10s decode coverage: complete@." port.Ila.name
        | Ila_check.Uncovered _ ->
          failed := true;
          Format.printf
            "port %-10s decode coverage: GAP (a command no instruction \
             decodes)@."
            port.Ila.name);
        match Ila_check.determinism ~assuming port with
        | Ila_check.Deterministic ->
          Format.printf "port %-10s decode overlap:  none@." port.Ila.name
        | Ila_check.Overlap { instr_a; instr_b; _ } ->
          failed := true;
          Format.printf "port %-10s decode overlap:  %s and %s@." port.Ila.name
            instr_a instr_b)
      d.Design.module_ila.Module_ila.ports;
    List.iter
      (fun (port, result) ->
        match result with
        | Invariant.Inductive ->
          Format.printf "port %-10s invariants:      inductive@." port
        | Invariant.Violated { kind; _ } ->
          failed := true;
          Format.printf "port %-10s invariants:      VIOLATED (%s)@." port
            (match kind with `Base -> "base case" | `Step -> "inductive step"))
      (Design.check_invariants d);
    if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:"Check decode coverage and determinism of every port")
    Term.(const run $ design_arg)

(* ---- verify ---- *)

let verify_cmd =
  let bug_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"LABEL"
          ~doc:"Verify the buggy RTL variant with this label instead.")
  in
  let port_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "port" ] ~docv:"PORT" ~doc:"Restrict to one port.")
  in
  let keep_going =
    Arg.(
      value & flag
      & info [ "keep-going"; "k" ]
          ~doc:
            "Check all instructions even after a failure (with $(b,-j), \
             $(b,--cache) or neither).")
  in
  let vcd_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "vcd" ] ~docv:"FILE"
          ~doc:"Dump the first counterexample trace as a VCD waveform.")
  in
  let run name bug port keep_going vcd jobs use_cache cache_dir
      no_incremental timeout_s daemon mem_abs trace_out metrics =
    setup_obs trace_out metrics;
    let incremental =
      incremental_or_die ~no_incremental ~use_cache ~cache_dir ~daemon
    in
    let memory_abstraction = mem_abs_enabled mem_abs in
    let d = or_die (find_design name) in
    let handled_by_daemon =
      match daemon with
      | Some sock -> daemon_verify ~sock ~bug ~port ~timeout_s ~mem_abs ~vcd d
      | None -> false
    in
    if handled_by_daemon then ()
    else begin
    let only_ports = Option.map (fun p -> [ p ]) port in
    let cache = open_cache ~use_cache ~cache_dir in
    let report, summary =
      verify_design ~stop_at_first_failure:(not keep_going) ~jobs ?cache
        ?only_ports ?timeout_s ~incremental ~memory_abstraction d bug
    in
    Format.printf "%a@." Engine.pp_summary summary;
    Format.printf "%a@." Verify.pp_report report;
    write_vcd vcd
      (match report.Verify.first_failure with
      | Some { verdict = Checker.Failed trace; _ } -> Some trace
      | _ -> None);
    if not (Verify.proved report) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Refinement-check a design's RTL against its module-ILA")
    Term.(
      const run $ design_arg $ bug_arg $ port_arg $ keep_going $ vcd_arg
      $ jobs_arg $ cache_flag $ cache_dir_arg $ no_incremental_flag
      $ timeout_arg $ daemon_arg $ mem_abs_arg
      $ trace_out_arg $ metrics_flag)

(* ---- dimacs ---- *)

let dimacs_cmd =
  let instr_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"INSTRUCTION" ~doc:"Instruction name.")
  in
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the CNF here instead of stdout.")
  in
  let run name instr_name out =
    let d = or_die (find_design name) in
    let found =
      List.find_map
        (fun (port : Ila.t) ->
          match Ila.find_instruction port instr_name with
          | Some i -> Some (port, i)
          | None -> None)
        d.Design.module_ila.Module_ila.ports
    in
    match found with
    | None ->
      prerr_endline ("no such instruction: " ^ instr_name);
      exit 2
    | Some (port, i) ->
      let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
      let prop = Propgen.generate_for ~ila:port ~rtl:d.Design.rtl ~refmap i in
      let text = Ilv_sat.Dimacs.to_string (Checker.query_cnf prop) in
      (match out with
      | None -> print_string text
      | Some file ->
        let oc = open_out file in
        output_string oc text;
        close_out oc;
        Format.printf "wrote %s@." file)
  in
  Cmd.v
    (Cmd.info "dimacs"
       ~doc:
         "Export the CNF of one instruction's refinement property, every \
          obligation in one query (UNSAT = the property holds)")
    Term.(const run $ design_arg $ instr_arg $ out_arg)

(* ---- verilog ---- *)

let verilog_cmd =
  let out_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Write the Verilog here instead of stdout.")
  in
  let run name out =
    let d = or_die (find_design name) in
    let src = Ilv_rtl.Verilog.emit d.Design.rtl in
    match out with
    | None -> print_string src
    | Some file ->
      let oc = open_out file in
      output_string oc src;
      close_out oc;
      Format.printf "wrote %s@." file
  in
  Cmd.v
    (Cmd.info "verilog" ~doc:"Export a design's RTL as Verilog-2001")
    Term.(const run $ design_arg $ out_arg)

(* ---- table ---- *)

let table_cmd =
  let quick =
    Arg.(
      value & flag
      & info [ "quick" ]
          ~doc:
            "Use the memory-abstracted datapath and store buffer (the \
             paper's parenthesized configuration).")
  in
  let run quick jobs use_cache cache_dir no_incremental timeout_s daemon
      mem_abs trace_out metrics =
    setup_obs trace_out metrics;
    let incremental =
      incremental_or_die ~no_incremental ~use_cache ~cache_dir ~daemon
    in
    let memory_abstraction = mem_abs_enabled mem_abs in
    let suite = if quick then Catalog.quick else Catalog.all in
    let handled_by_daemon =
      match daemon with
      | Some sock ->
        daemon_table ~sock
          ~designs:(List.map (fun d -> d.Design.name) suite)
          ~timeout_s ~mem_abs
      | None -> false
    in
    if handled_by_daemon then ()
    else begin
    let cache = open_cache ~use_cache ~cache_dir in
    (* the golden column uses every option; the t(bug) hunt runs
       in-process, stops at the first failure and skips the cache, so it
       stays solving time *)
    let verify d bug =
      let jobs, cache =
        if Option.is_none bug then (jobs, cache) else (1, None)
      in
      fst
        (verify_design ~jobs ?cache ?timeout_s ~incremental
           ~memory_abstraction d
           (Option.map (fun b -> b.Design.bug_label) bug))
    in
    let rows = List.map (Table_one.measure ~verify) suite in
    Table_one.print_rows Format.std_formatter rows;
    Format.printf "@.Paper's Table I, for shape comparison:@.";
    Table_one.print_paper Format.std_formatter
    end
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Reproduce the paper's Table I")
    Term.(
      const run $ quick $ jobs_arg $ cache_flag $ cache_dir_arg
      $ no_incremental_flag $ timeout_arg $ daemon_arg $ mem_abs_arg
      $ trace_out_arg $ metrics_flag)

(* ---- reach ---- *)

let reach_cmd =
  let prop_arg =
    Arg.(
      required
      & pos 1 (some string) None
      & info [] ~docv:"PROPERTY"
          ~doc:
            "Safety property over RTL nets, in the s-expression syntax \
             (e.g. '(bvule down_q 0x0b:4)').")
  in
  let max_bits_arg =
    Arg.(
      value & opt int 40
      & info [ "max-bits" ] ~docv:"N"
          ~doc:"State+input bit budget (default 40).")
  in
  let run name prop max_bits =
    let d = or_die (find_design name) in
    let rtl = d.Design.rtl in
    let env n =
      match Ilv_rtl.Rtl.input_sort rtl n with
      | Some s -> Some s
      | None -> (
        match Ilv_rtl.Rtl.register_sort rtl n with
        | Some s -> Some s
        | None ->
          Option.map Ilv_expr.Expr.sort (Ilv_rtl.Rtl.wire_expr rtl n))
    in
    let p = Ilv_expr.Parse.expr ~env prop in
    match Reach.analyze ~max_bits ~rtl p with
    | Reach.Holds, stats ->
      (match stats with
      | Some s ->
        Format.printf
          "holds in every reachable state (fixed point after %d images, \
           reachable-set BDD %d nodes)@."
          s.Reach.iterations s.Reach.reachable_bdd_size
      | None -> Format.printf "holds@.")
    | Reach.Violated model, _ ->
      Format.printf "VIOLATED in a reachable state:@.";
      List.iter
        (fun (r : Ilv_rtl.Rtl.register) ->
          Format.printf "  %-20s = %s@." r.Ilv_rtl.Rtl.reg_name
            (Ilv_expr.Value.to_string
               (model r.Ilv_rtl.Rtl.reg_name r.Ilv_rtl.Rtl.sort)))
        rtl.Ilv_rtl.Rtl.registers;
      List.iter
        (fun (n, sort) ->
          Format.printf "  %-20s = %s (input)@." n
            (Ilv_expr.Value.to_string (model n sort)))
        rtl.Ilv_rtl.Rtl.inputs;
      exit 1
    | Reach.Too_large, _ ->
      Format.printf
        "design exceeds the %d-bit budget for exact reachability (use \
         'verify' with invariants instead)@."
        max_bits;
      exit 2
  in
  Cmd.v
    (Cmd.info "reach"
       ~doc:"Exact symbolic (BDD) reachability check of a safety property")
    Term.(const run $ design_arg $ prop_arg $ max_bits_arg)

(* ---- cosim ---- *)

let cosim_cmd =
  let cycles_arg =
    Arg.(
      value & opt int 1000
      & info [ "cycles" ] ~docv:"N" ~doc:"Cycles per seed (default 1000).")
  in
  let seeds_arg =
    Arg.(
      value & opt int 5
      & info [ "seeds" ] ~docv:"K" ~doc:"Number of random seeds (default 5).")
  in
  let bug_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "bug" ] ~docv:"LABEL"
          ~doc:"Co-simulate the buggy RTL variant instead.")
  in
  let run name cycles seeds bug =
    let d = or_die (find_design name) in
    let _, rtl = variant_or_die d bug in
    let sim = Cosim.compile d rtl in
    let rec go seed diverged =
      if seed > seeds then (if diverged then exit 1)
      else
        match Cosim.simulate ~cycles ~seed sim with
        | Cosim.Agree { steps; _ } ->
          Format.printf "seed %d: agree over %d cycles (%d steps)@." seed
            cycles steps;
          go (seed + 1) diverged
        | Cosim.Diverged { cycle; port; state; detail } ->
          Format.printf
            "seed %d: DIVERGED at cycle %d (port %s, state %s): %s@." seed
            cycle port state detail;
          go (seed + 1) true
        | Cosim.Inapplicable reason ->
          Format.printf "inapplicable: %s@." reason;
          exit 2
    in
    go 1 false
  in
  Cmd.v
    (Cmd.info "cosim"
       ~doc:
         "Randomly co-simulate the RTL against the port-ILAs (exit 1 on a \
          divergence, 2 when an instruction does not retire in one cycle)")
    Term.(const run $ design_arg $ cycles_arg $ seeds_arg $ bug_arg)

(* ---- mutate ---- *)

let mutate_cmd =
  let designs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DESIGN"
          ~doc:
            "Designs to mutate (default: a representative quick set; see \
             the list subcommand).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N" ~doc:"Mutant sampling seed (default 1).")
  in
  let max_arg =
    Arg.(
      value & opt int 40
      & info [ "max-mutants" ] ~docv:"N"
          ~doc:"Mutants checked per design (default 40).")
  in
  let conflicts_arg =
    Arg.(
      value & opt int 50_000
      & info [ "conflicts" ] ~docv:"N"
          ~doc:"Initial SAT conflict budget per obligation (default 50000).")
  in
  let wall_arg =
    Arg.(
      value & opt float 10.0
      & info [ "wall" ] ~docv:"SECONDS"
          ~doc:"Initial wall-clock budget per obligation (default 10).")
  in
  let no_sim_arg =
    Arg.(
      value & flag
      & info [ "no-sim-fallback" ]
          ~doc:
            "Disable the bounded co-simulation hunt for mutants the bounded \
             checker could not decide.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE"
          ~doc:"Also write the campaign results as a JSON array.")
  in
  let verbose_arg =
    Arg.(
      value & flag
      & info [ "verbose"; "v" ] ~doc:"Print the per-mutant listing.")
  in
  let run names seed max_mutants conflicts wall no_sim json verbose jobs
      timeout_s trace_out metrics =
    setup_obs trace_out metrics;
    let designs =
      match names with
      | [] ->
        [ Clock_gen.design; Uart_tx.design; Axi_slave.design;
          Noc_router.design ]
      | names -> List.map (fun n -> or_die (find_design n)) names
    in
    let budget =
      Checker.budget ~conflicts ~wall_s:wall ~escalations:2 ()
    in
    let campaigns =
      List.map
        (fun d ->
          let c =
            Ilv_fault.Campaign.run ~seed ~max_mutants ~budget ?timeout_s
              ~fallback_sim:(not no_sim) ~jobs d
          in
          if verbose then Format.printf "%a@.@." Ilv_fault.Campaign.pp c;
          c)
        designs
    in
    Ilv_fault.Campaign.pp_table_header Format.std_formatter ();
    List.iter
      (Ilv_fault.Campaign.pp_table_row Format.std_formatter)
      campaigns;
    (match json with
    | None -> ()
    | Some file ->
      let oc = open_out file in
      output_string oc
        ("[\n  "
        ^ String.concat ",\n  "
            (List.map Ilv_fault.Campaign.to_json campaigns)
        ^ "\n]\n");
      close_out oc;
      Format.printf "campaign results written to %s@." file);
    (* survivors are coverage gaps worth inspecting, but only an
       undecided campaign (inconclusive with no kills hunted down) is a
       tooling failure *)
    if List.exists (fun c -> c.Ilv_fault.Campaign.n_mutants > 0
                             && c.Ilv_fault.Campaign.killed = 0) campaigns
    then exit 1
  in
  Cmd.v
    (Cmd.info "mutate"
       ~doc:
         "Run a seeded fault-injection campaign and report per-design \
          mutation scores")
    Term.(
      const run $ designs_arg $ seed_arg $ max_arg $ conflicts_arg $ wall_arg
      $ no_sim_arg $ json_arg $ verbose_arg $ jobs_arg $ timeout_arg
      $ trace_out_arg $ metrics_flag)

(* ---- cache ---- *)

let cache_cmd =
  let open_from_dir cache_dir = Proof_cache.open_ ?dir:cache_dir () in
  let stats_cmd =
    let run cache_dir =
      let c = open_from_dir cache_dir in
      Format.printf "proof cache at %s@.%a@." (Proof_cache.dir c)
        Proof_cache.pp_stats (Proof_cache.stats c)
    in
    Cmd.v
      (Cmd.info "stats" ~doc:"Report entry counts and size of the proof cache")
      Term.(const run $ cache_dir_arg)
  in
  let clear_cmd =
    let run cache_dir =
      let c = open_from_dir cache_dir in
      let removed = Proof_cache.clear c in
      Format.printf "removed %d entries from %s@." removed (Proof_cache.dir c)
    in
    Cmd.v
      (Cmd.info "clear" ~doc:"Remove every entry from the proof cache")
      Term.(const run $ cache_dir_arg)
  in
  let verify_cache_cmd =
    let sample_arg =
      Arg.(
        value & opt int 5
        & info [ "sample" ] ~docv:"N"
            ~doc:"How many entries to re-solve (default 5).")
    in
    let full_arg =
      Arg.(
        value & flag
        & info [ "full" ]
            ~doc:
              "Re-solve every entry instead of a sample, after checking \
               every frame blob — the recovery audit after a crash or \
               suspected disk damage.  Corrupt and mismatched entries and \
               damaged blobs are quarantined, not just reported.")
    in
    let run cache_dir sample full =
      let c = open_from_dir cache_dir in
      let v = Proof_cache.validate ~sample ~full c in
      Format.printf
        "re-solved %d of the entries at %s: %d agreed, %d mismatched, %d \
         stale, %d corrupt@."
        v.Proof_cache.checked (Proof_cache.dir c) v.Proof_cache.agreed
        (List.length v.Proof_cache.mismatched)
        (List.length v.Proof_cache.stale_entries)
        (List.length v.Proof_cache.corrupt_entries);
      List.iter
        (fun key -> Format.printf "  MISMATCH %s@." key)
        v.Proof_cache.mismatched;
      List.iter
        (fun file ->
          Format.printf "  stale %s (other engine version or file format)@."
            file)
        v.Proof_cache.stale_entries;
      List.iter
        (fun file -> Format.printf "  corrupt %s (quarantined)@." file)
        v.Proof_cache.corrupt_entries;
      (let q = Proof_cache.quarantined_count c in
       if q > 0 then
         Format.printf "%d damaged files held in %s@." q
           (Proof_cache.quarantine_dir c));
      if v.Proof_cache.mismatched <> [] then exit 1
    in
    Cmd.v
      (Cmd.info "verify"
         ~doc:
           "Guard against stale or corrupted entries: re-solve a sample of \
            cached obligations (every one with $(b,--full)) from their \
            frame blobs, compare verdicts, and quarantine damage")
      Term.(const run $ cache_dir_arg $ sample_arg $ full_arg)
  in
  Cmd.group
    (Cmd.info "cache" ~doc:"Inspect, clear or validate the persistent proof cache")
    [ stats_cmd; clear_cmd; verify_cache_cmd ]

(* ---- chaos ---- *)

let chaos_cmd =
  let designs_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"DESIGN"
          ~doc:
            "Designs to sweep (default: the whole quick catalog; see the \
             list subcommand).")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"N"
          ~doc:
            "Fault-schedule seed (default 1).  The whole campaign is a \
             pure function of it: rerunning with the same seed replays the \
             same kills, stalls and corruptions.")
  in
  let kill_arg =
    Arg.(
      value & opt float 0.3
      & info [ "kill-p" ] ~docv:"P"
          ~doc:"Per-group probability of SIGKILLing the worker (default 0.3).")
  in
  let stall_arg =
    Arg.(
      value & opt float 0.2
      & info [ "stall-p" ] ~docv:"P"
          ~doc:
            "Per-obligation probability of an injected solver stall \
             (default 0.2).")
  in
  let corrupt_arg =
    Arg.(
      value & opt float 0.3
      & info [ "corrupt-p" ] ~docv:"P"
          ~doc:
            "Per-entry probability of damaging a proof-cache file between \
             sweeps (default 0.3; at least one is always damaged).")
  in
  let scratch_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "scratch" ] ~docv:"DIR"
          ~doc:
            "Campaign scratch directory (cache + fault ledger).  Default: a \
             fresh directory under the system temp dir, removed when the \
             campaign passes; a failing campaign's scratch is kept for \
             replay.")
  in
  let rec rm_rf path =
    match Unix.lstat path with
    | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    | _ -> Sys.remove path
    | exception Unix.Unix_error _ -> ()
  in
  let run names seed jobs kill_p stall_p corrupt_p scratch trace_out metrics =
    setup_obs trace_out metrics;
    let designs =
      match names with
      | [] -> Catalog.quick
      | names -> List.map (fun n -> or_die (find_design n)) names
    in
    let suites =
      List.map
        (fun (d : Design.t) ->
          ( d.Design.name,
            fun () ->
              Engine.jobs_of ~name:d.Design.name d.Design.module_ila
                d.Design.rtl
                ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
                () ))
        designs
    in
    let scratch, ephemeral =
      match scratch with
      | Some dir -> (dir, false)
      | None ->
        ( Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilaverif-chaos-%d" (Unix.getpid ())),
          true )
    in
    let r =
      Chaos.run ~jobs:(max 2 jobs) ~seed ~kill_p ~stall_p ~corrupt_p ~scratch
        suites
    in
    Format.printf "%a@." Chaos.pp_report r;
    if Chaos.passed r then begin
      if ephemeral then rm_rf scratch
    end
    else begin
      Format.printf "scratch kept for replay: %s@." scratch;
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run a seeded chaos campaign: inject worker kills, solver stalls \
          and cache corruption into a real sweep and fail unless every \
          verdict matches an undisturbed baseline")
    Term.(
      const run $ designs_arg $ seed_arg $ jobs_arg $ kill_arg $ stall_arg
      $ corrupt_arg $ scratch_arg $ trace_out_arg $ metrics_flag)

(* ---- profile ---- *)

let profile_cmd =
  let file_arg =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"TRACE"
          ~doc:"JSONL trace file recorded with $(b,--trace-out).")
  in
  let run file =
    match Ilv_obs.Profile.of_file file with
    | Error msg ->
      prerr_endline msg;
      exit 2
    | Ok p -> Format.printf "%a@." Ilv_obs.Profile.pp p
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Aggregate a --trace-out JSONL trace into a per-instruction / \
          per-backend effort table")
    Term.(const run $ file_arg)

(* ---- bugs ---- *)

let bugs_cmd =
  let run () =
    let any_missed = ref false in
    List.iter
      (fun (d : Design.t) ->
        List.iter
          (fun bug ->
            let report = Design.verify_buggy d bug in
            (match report.Verify.first_failure with
            | Some ir ->
              Format.printf "%-24s [%s] caught at %-24s in %.3fs@."
                d.Design.name bug.Design.bug_label ir.Verify.instr
                report.Verify.total_time_s
            | None ->
              any_missed := true;
              Format.printf "%-24s [%s] NOT CAUGHT@." d.Design.name
                bug.Design.bug_label))
          d.Design.bugs)
      [ Axi_slave.design; L2_cache.design; Store_buffer.design_abstract ];
    if !any_missed then exit 1
  in
  Cmd.v
    (Cmd.info "bugs" ~doc:"Reproduce the paper's three bug hunts")
    Term.(const run $ const ())

let () =
  let doc =
    "ILA-based modeling and refinement verification of general hardware \
     modules (DATE 2021 reproduction)"
  in
  let info = Cmd.info "ilaverif" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            list_cmd;
            sketch_cmd;
            refmap_cmd;
            property_cmd;
            check_cmd;
            verify_cmd;
            table_cmd;
            dimacs_cmd;
            verilog_cmd;
            cosim_cmd;
            reach_cmd;
            mutate_cmd;
            cache_cmd;
            chaos_cmd;
            profile_cmd;
            bugs_cmd;
          ]))
