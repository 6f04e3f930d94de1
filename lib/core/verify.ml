type instr_result = {
  instr : string;
  port : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  time_s : float;
}

type port_report = {
  port_name : string;
  instr_results : instr_result list;
  port_time_s : float;
}

type report = {
  design : string;
  ports : port_report list;
  total_time_s : float;
  first_failure : instr_result option;
}

let proved r =
  r.first_failure = None
  && List.for_all
       (fun p ->
         List.for_all
           (fun ir ->
             match ir.verdict with
             | Checker.Proved -> true
             | Checker.Failed _ | Checker.Unknown _ -> false)
           p.instr_results)
       r.ports

let unknowns r =
  List.concat_map
    (fun p ->
      List.filter
        (fun ir ->
          match ir.verdict with
          | Checker.Unknown _ -> true
          | Checker.Proved | Checker.Failed _ -> false)
        p.instr_results)
    r.ports

(* Errors while checking one instruction (a malformed mutant tripping
   the bit-blaster, an ill-sorted refinement expression, ...) must not
   abort the whole report: they become that instruction's verdict. *)
let message_of_exn = function
  | (Out_of_memory | Stack_overflow) as fatal -> raise fatal
  | e -> Printexc.to_string e

(* ---- prepare-once / check-many ----

   One obligation group — a port's instructions, or one engine group's
   jobs — shares a single incremental solver context
   ([Checker.prepare_shared]); preparing is the expensive step
   (property generation + shared-frame setup), checking an individual
   entry against the prepared context is the cheap, repeatable one.
   This is the one shared-frame driver: the engine's groups, resident
   or not, decide through [check_port_instr], so the CEGAR ceiling,
   the concrete fallback, the degradation ladder and the rung names
   live here only. *)

type prepared_port = {
  pp_names : string list;  (* entry names, in preparation order *)
  pp_slots : (string, (int, string) result) Hashtbl.t;
      (* entry name -> property index in the frame, or the generation
         error that made it uncheckable *)
  pp_concrete : Property.t list;  (* slot-ordered concrete properties *)
  pp_abstraction : Mem_abstract.t option;
  pp_label : string;
  pp_key_frame : Checker.shared;
      (* the generation-0 frame, pinned: cache keys come from its frozen
         snapshot, so they are the same however (or whether) CEGAR
         refinement re-encoded the live frame *)
  mutable pp_shared : Checker.shared;
      (* the live frame, rebuilt with a grown window after a CEGAR
         refinement *)
  mutable pp_frame_gen : int;
      (* abstraction generation [pp_shared] was built from *)
}

let generation = function Some ab -> Mem_abstract.generation ab | None -> 0

(* The shared frame: concrete properties directly, or their
   memory-abstracted rewrite with the CEGAR replay hook installed. *)
let make_shared ~label ~abstraction concrete =
  match abstraction with
  | None -> Checker.prepare_shared ~label concrete
  | Some ab ->
    Checker.prepare_shared ~label
      ~on_sat:(Mem_abstract.hook ab)
      (Array.to_list (Mem_abstract.abstract_properties ab))

let prepare_properties ?(memory_abstraction = false) ~label entries =
  let concrete = List.filter_map (fun (_, g) -> Result.to_option g) entries in
  let abstraction =
    if memory_abstraction then Mem_abstract.create ~label concrete else None
  in
  let sh = make_shared ~label ~abstraction concrete in
  let slots = Hashtbl.create 16 in
  let next = ref 0 in
  List.iter
    (fun (name, g) ->
      match g with
      | Ok _ ->
        Hashtbl.replace slots name (Ok !next);
        incr next
      | Error msg -> Hashtbl.replace slots name (Error msg))
    entries;
  {
    pp_names = List.map fst entries;
    pp_slots = slots;
    pp_concrete = concrete;
    pp_abstraction = abstraction;
    pp_label = label;
    pp_key_frame = sh;
    pp_shared = sh;
    pp_frame_gen = generation abstraction;
  }

let prepare_port ?memory_abstraction ~name ~port ~rtl ~refmap () =
  let generate = Propgen.generator ~ila:port ~rtl ~refmap in
  prepare_properties ?memory_abstraction
    ~label:(name ^ "/" ^ port.Ila.name)
    (List.map
       (fun (i : Ila.instruction) ->
         ( i.Ila.instr_name,
           try Ok (generate i) with e -> Error (message_of_exn e) ))
       (Ila.leaf_instructions port))

let prepared_instrs pr = pr.pp_names
let prepared_shared pr = pr.pp_shared
let prepared_abstraction pr = pr.pp_abstraction
let key_frame pr = pr.pp_key_frame

let prepared_slot pr name =
  match Hashtbl.find_opt pr.pp_slots name with
  | Some r -> r
  | None -> Error "instruction not prepared"

let rebuild_frame pr =
  pr.pp_shared <-
    make_shared ~label:pr.pp_label ~abstraction:pr.pp_abstraction
      pr.pp_concrete;
  pr.pp_frame_gen <- generation pr.pp_abstraction

(* ---- the CEGAR driver ----

   The one refinement loop, behind both checking modes.  [solve ()]
   decides the current encoding and names its rung; [frame_gen ()] is
   the abstraction generation that encoding was built from; [reencode
   ()] rebuilds it from the refined window.  While a spurious abstract
   counterexample has grown the window past the solved generation, the
   driver re-encodes and retries; each refinement adds at least one
   concrete address, so the refinement ceiling only trips on
   pathological window churn.  Otherwise — stalled refinement or the
   ceiling — the [concrete] property is decided on a fresh solver.  A
   property that raises while it is encoded or checked is rung "error"
   with an "exception: " reason, in both modes and both encodings. *)

(* the concrete fallback's rung: a refinement outcome, not a
   degradation, and never cached (no shared frame decided it) *)
let concrete_rung = "abstract>concrete"

let error_result msg =
  (Checker.Unknown ("exception: " ^ msg), Checker.zero_stats, "error")

(* The rung of a decision on the abstraction: the ladder rung tagged
   with the frame it was decided on ("incremental+abstract",
   "fresh+cegar2").  The fresh path has no ladder: its rung is the
   abstraction itself ("abstract", "abstract+cegar1"). *)
let abstract_rung rung round =
  match (rung, round) with
  | "abstract", 0 -> rung
  | _, 0 -> rung ^ "+abstract"
  | _ -> Printf.sprintf "%s+cegar%d" rung round

let cegar ?budget ~abstraction ~frame_gen ~solve ~reencode concrete =
  let rec attempt round stats_acc =
    let gen = frame_gen () in
    let v, s, rung = try solve () with e -> error_result (message_of_exn e) in
    let stats_acc = Checker.merge_stats stats_acc s in
    match (v, abstraction) with
    | Checker.Unknown r, Some ab when Checker.is_spurious_reason r ->
      if Mem_abstract.generation ab > gen && round < Mem_abstract.max_rounds
      then begin
        reencode ();
        attempt (round + 1) stats_acc
      end
      else
        let v, s =
          Checker.check_fresh
            ~budget:(Option.value budget ~default:Checker.unlimited)
            ~simplify:true concrete
        in
        (v, Checker.merge_stats stats_acc s, concrete_rung)
    | _, Some _ when rung <> "error" -> (v, stats_acc, abstract_rung rung round)
    | _ -> (v, stats_acc, rung)
  in
  attempt 0 Checker.zero_stats

(* The shared-frame mode: the degradation ladder (incremental -> fresh
   -> Unknown, each demotion observable) over the live frame.  A
   property that cannot be encoded is an error, not a solver give-up:
   the lower rungs are not tried. *)
let check_port_instr ?budget pr name =
  match prepared_slot pr name with
  | Error msg -> error_result msg
  | Ok idx ->
    cegar ?budget ~abstraction:pr.pp_abstraction
      ~frame_gen:(fun () -> pr.pp_frame_gen)
      ~solve:(fun () ->
        match Checker.shared_error pr.pp_shared idx with
        | Some msg -> error_result msg
        | None -> Checker.check_shared_degrading ?budget pr.pp_shared idx)
      ~reencode:(fun () -> rebuild_frame pr)
      (List.nth pr.pp_concrete idx)

(* The fresh mode: one property on its own solver, uncached — the
   concrete encoding (rung "sat"), or under the memory abstraction its
   single-property rewrite, re-derived from the current window on every
   solve. *)
let check_property ?budget ~memory_abstraction (p : Property.t) =
  let abstraction =
    if memory_abstraction then Mem_abstract.create [ p ] else None
  in
  cegar ?budget ~abstraction
    ~frame_gen:(fun () -> generation abstraction)
    ~solve:(fun () ->
      match abstraction with
      | None ->
        let v, s = Checker.check ?budget p in
        (v, s, "sat")
      | Some ab ->
        let v, s =
          Checker.check ?budget
            ~on_sat:(Mem_abstract.replay ab ~prop_index:0)
            (Mem_abstract.abstract_properties ab).(0)
        in
        (v, s, "abstract"))
    ~reencode:ignore p

let is_cacheable_rung rung = rung <> concrete_rung

let is_degraded_rung rung =
  let ladder =
    match String.index_opt rung '+' with
    | Some i -> String.sub rung 0 i
    | None -> rung
  in
  List.mem ladder [ "fresh"; "degraded" ]

type task = { task_port : Ila.t; task_instr : Ila.instruction }

let selected_ports ?only_ports (module_ila : Module_ila.t) =
  match only_ports with
  | None -> module_ila.Module_ila.ports
  | Some names ->
    List.filter
      (fun (p : Ila.t) -> List.mem p.Ila.name names)
      module_ila.Module_ila.ports

let enumerate ?only_ports module_ila =
  List.concat_map
    (fun (port : Ila.t) ->
      List.map
        (fun (i : Ila.instruction) -> { task_port = port; task_instr = i })
        (Ila.leaf_instructions port))
    (selected_ports ?only_ports module_ila)

let pp_report fmt r =
  let open Format in
  fprintf fmt "@[<v>verification report: %s (%.3fs)@," r.design r.total_time_s;
  List.iter
    (fun p ->
      fprintf fmt "  port %s (%.3fs):@," p.port_name p.port_time_s;
      List.iter
        (fun ir ->
          let status =
            match ir.verdict with
            | Checker.Proved -> "proved"
            | Checker.Failed _ -> "FAILED"
            | Checker.Unknown _ -> "UNKNOWN"
          in
          fprintf fmt "    %-34s %-7s %.3fs (%d obligations, %d conflicts)@,"
            ir.instr status ir.time_s ir.stats.Checker.n_obligations
            ir.stats.Checker.conflicts;
          match ir.verdict with
          | Checker.Unknown reason -> fprintf fmt "      reason: %s@," reason
          | Checker.Proved | Checker.Failed _ -> ())
        p.instr_results)
    r.ports;
  (match r.first_failure with
  | Some ir -> (
    match ir.verdict with
    | Checker.Failed trace -> fprintf fmt "%a@," Trace.pp trace
    | Checker.Proved | Checker.Unknown _ -> ())
  | None -> ());
  let result =
    if proved r then "PROVED"
    else if r.first_failure <> None then "FAILED"
    else if unknowns r <> [] then "UNKNOWN"
    else "FAILED"
  in
  fprintf fmt "result: %s@]" result
