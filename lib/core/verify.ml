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

let check_port_instr ?budget pr name =
  match prepared_slot pr name with
  | Ok idx -> (
    (* the ladder: incremental -> fresh -> Unknown, each
       demotion observable; with the memory abstraction active, a
       spurious-counterexample unknown re-encodes the refined window
       and retries (CEGAR), falling back to the concrete encoding when
       refinement stalls *)
    let ladder () =
      try Checker.check_shared_degrading ?budget pr.pp_shared idx
      with e ->
        ( Checker.Unknown ("exception: " ^ message_of_exn e),
          Checker.zero_stats,
          "error" )
    in
    let concrete_fallback stats_acc =
      match List.nth_opt pr.pp_concrete idx with
      | None ->
        ( Checker.Unknown "exception: no concrete property for slot",
          stats_acc,
          "error" )
      | Some p ->
        let v, s =
          Checker.check_fresh
            ~budget:(Option.value budget ~default:Checker.unlimited)
            ~simplify:true p
        in
        (v, Checker.merge_stats stats_acc s, "abstract>concrete")
    in
    (* each refinement adds at least one concrete address, so the
       ceiling only trips on pathological window churn — the concrete
       fallback then still produces a definite verdict *)
    let rec attempt round stats_acc =
      match Checker.shared_error pr.pp_shared idx with
      | Some msg ->
        (* a property that cannot be encoded is an error, not a solver
           give-up: the lower rungs are not tried *)
        (Checker.Unknown ("exception: " ^ msg), stats_acc, "error")
      | None -> (
      let v, s, rung = ladder () in
      let stats_acc = Checker.merge_stats stats_acc s in
      match (v, pr.pp_abstraction) with
      | Checker.Unknown r, Some ab when Checker.is_spurious_reason r ->
        if Mem_abstract.generation ab > pr.pp_frame_gen
           && round < Mem_abstract.max_rounds
        then begin
          rebuild_frame pr;
          attempt (round + 1) stats_acc
        end
        else concrete_fallback stats_acc
      | _, Some _ when rung <> "error" ->
        let tag = if round = 0 then "+abstract" else
            Printf.sprintf "+cegar%d" round
        in
        (v, stats_acc, rung ^ tag)
      | _ -> (v, stats_acc, rung))
    in
    attempt 0 Checker.zero_stats)
  | Error msg ->
    (Checker.Unknown ("exception: " ^ msg), Checker.zero_stats, "error")

(* ---- fresh path ----

   One property on its own solver, uncached: [Checker.check] on the
   concrete encoding, or, under the memory abstraction, a
   single-property CEGAR driver over [Checker.check_fresh]: solve the
   abstraction, replay SAT answers, re-encode after refinements, and
   fall back to the concrete encoding when the abstraction stops making
   progress. *)

let check_property ?budget ~memory_abstraction (p : Property.t) =
  match if memory_abstraction then Mem_abstract.create [ p ] else None with
  | None ->
    let v, s = Checker.check ?budget p in
    (v, s, "sat")
  | Some ab ->
    let budget = Option.value budget ~default:Checker.unlimited in
    let rec attempt round stats_acc =
      let gen0 = Mem_abstract.generation ab in
      let v, s =
        Checker.check_fresh
          ~on_sat:(Mem_abstract.replay ab ~prop_index:0)
          ~budget ~simplify:true
          (Mem_abstract.abstract_properties ab).(0)
      in
      let stats_acc = Checker.merge_stats stats_acc s in
      match v with
      | Checker.Unknown r when Checker.is_spurious_reason r ->
        if Mem_abstract.generation ab > gen0 && round < Mem_abstract.max_rounds
        then attempt (round + 1) stats_acc
        else begin
          (* no refinement progress: decide concretely *)
          let v, s = Checker.check ~budget p in
          (v, Checker.merge_stats stats_acc s, "abstract>concrete")
        end
      | _ ->
        ( v,
          stats_acc,
          if round = 0 then "abstract"
          else Printf.sprintf "abstract+cegar%d" round )
    in
    attempt 0 Checker.zero_stats

let is_cacheable_rung rung = rung <> "abstract>concrete"

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
