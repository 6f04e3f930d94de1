open Ilv_core
open Ilv_designs

type kill_method =
  | By_property of { instr : string; port : string }
  | By_simulation of { sim_seed : int; cycle : int; state : string }

type classification =
  | Killed of kill_method
  | Survived
  | Inconclusive of string

type mutant_report = {
  mutation : Mutate.mutation;
  classification : classification;
  time_s : float;
  replay_confirmed : bool option;
}

type t = {
  design : string;
  seed : int;
  n_sites : int;
  n_mutants : int;
  killed : int;
  survived : int;
  inconclusive : int;
  killed_by_simulation : int;
  sim_inapplicable : string option;
  score : float;
  total_time_s : float;
  mutants : mutant_report list;
}

let default_budget =
  Checker.budget ~conflicts:50_000 ~wall_s:10.0 ~escalations:2 ()

let score ~killed ~survived =
  if killed + survived = 0 then 1.0
  else float_of_int killed /. float_of_int (killed + survived)

(* Double-check a property kill in the cycle-accurate simulator when
   possible; [None] when the replay machinery does not apply. *)
let replay_kill (d : Design.t) mutant_rtl (ir : Verify.instr_result) =
  match ir.Verify.verdict with
  | Checker.Failed trace -> (
    match Module_ila.find_port d.Design.module_ila ir.Verify.port with
    | None -> None
    | Some ila -> (
      try
        let refmap = d.Design.refmap_for mutant_rtl ir.Verify.port in
        match Replay.confirm ~ila ~rtl:mutant_rtl ~refmap trace with
        | Replay.Confirmed _ -> Some true
        | Replay.Not_reproduced -> Some false
        | Replay.Inapplicable _ -> None
      with _ -> None))
  | Checker.Proved | Checker.Unknown _ -> None

(* Budget exhausted on every checkable path: degrade to bounded random
   co-simulation and hunt for a concrete divergence before conceding
   "inconclusive": [sim_seeds] runs of [sim_cycles] cycles each, on one
   compiled co-simulation.  [Inapplicable] is no evidence either way. *)
let sim_seeds = 3
let sim_cycles = 300

let simulate_for_kill (d : Design.t) mutant_rtl =
  let span =
    if Ilv_obs.Obs.enabled () then
      Some
        (Ilv_obs.Obs.span_begin "campaign.cosim"
           [ ("design", Ilv_obs.Obs.S d.Design.name) ])
    else None
  in
  let rec go sim s =
    if s > sim_seeds then (None, s - 1, "agree")
    else
      match Cosim.simulate ~cycles:sim_cycles ~seed:s sim with
      | Cosim.Diverged { cycle; state; _ } ->
        (Some (By_simulation { sim_seed = s; cycle; state }), s, "diverged")
      | Cosim.Agree _ -> go sim (s + 1)
      | Cosim.Inapplicable _ -> (None, s, "inapplicable")
      | exception _ -> go sim (s + 1)
  in
  let kill, seeds, outcome =
    match Cosim.compile d mutant_rtl with
    | sim -> go sim 1
    | exception _ -> (None, 0, "uncompiled")
  in
  (match span with
  | None -> ()
  | Some id ->
    Ilv_obs.Obs.span_end
      ~fields:
        [ ("seeds", Ilv_obs.Obs.I seeds); ("outcome", Ilv_obs.Obs.S outcome) ]
      id);
  kill

let classification_fields = function
  | Killed (By_property { instr; port }) ->
    [
      ("outcome", Ilv_obs.Obs.S "killed");
      ("kill", Ilv_obs.Obs.S "property");
      ("port", Ilv_obs.Obs.S port);
      ("instr", Ilv_obs.Obs.S instr);
    ]
  | Killed (By_simulation { sim_seed; cycle; _ }) ->
    [
      ("outcome", Ilv_obs.Obs.S "killed");
      ("kill", Ilv_obs.Obs.S "simulation");
      ("sim_seed", Ilv_obs.Obs.I sim_seed);
      ("cycle", Ilv_obs.Obs.I cycle);
    ]
  | Survived -> [ ("outcome", Ilv_obs.Obs.S "survived") ]
  | Inconclusive reason ->
    [
      ("outcome", Ilv_obs.Obs.S "inconclusive");
      ("reason", Ilv_obs.Obs.S reason);
    ]

let classify_mutant (d : Design.t) ~budget ~timeout_s ~fallback_sim
    (m : Mutate.mutant) =
  let t0 = Unix.gettimeofday () in
  let rtl = m.Mutate.rtl in
  let span =
    if Ilv_obs.Obs.enabled () then
      Some
        (Ilv_obs.Obs.span_begin "campaign.mutant"
           [
             ("design", Ilv_obs.Obs.S d.Design.name);
             ("mutation", Ilv_obs.Obs.S (Mutate.describe m.Mutate.mutation));
           ])
    else None
  in
  let report, _ =
    Ilv_engine.Engine.verify ~budget ?timeout_s
      ~name:(d.Design.name ^ " [" ^ Mutate.describe m.Mutate.mutation ^ "]")
      d.Design.module_ila rtl
      ~refmap_for:(fun port -> d.Design.refmap_for rtl port)
  in
  let classification, replay_confirmed =
    match report.Verify.first_failure with
    | Some ir ->
      ( Killed (By_property { instr = ir.Verify.instr; port = ir.Verify.port }),
        replay_kill d rtl ir )
    | None -> (
      match Verify.unknowns report with
      | [] ->
        (* every property proved.  Transition-shaped properties are
           blind to reset-state faults, so give the from-reset
           co-simulation a chance before declaring the fault
           undetectable. *)
        ( (if not fallback_sim then Survived
           else
             match simulate_for_kill d rtl with
             | Some kill -> Killed kill
             | None -> Survived),
          None )
      | ir :: _ -> (
        let reason =
          match ir.Verify.verdict with
          | Checker.Unknown reason -> ir.Verify.instr ^ ": " ^ reason
          | Checker.Proved | Checker.Failed _ -> assert false
        in
        if not fallback_sim then (Inconclusive reason, None)
        else
          match simulate_for_kill d rtl with
          | Some kill -> (Killed kill, None)
          | None -> (Inconclusive reason, None)))
  in
  (match span with
  | None -> ()
  | Some id ->
    Ilv_obs.Obs.count "campaign.mutants" 1;
    Ilv_obs.Obs.span_end ~fields:(classification_fields classification) id);
  {
    mutation = m.Mutate.mutation;
    classification;
    time_s = Unix.gettimeofday () -. t0;
    replay_confirmed;
  }

let run ?(seed = 1) ?(max_mutants = 100) ?(budget = default_budget)
    ?timeout_s ?(fallback_sim = true) ?(jobs = 1) (d : Design.t) =
  let t0 = Unix.gettimeofday () in
  let span =
    if Ilv_obs.Obs.enabled () then
      Some
        (Ilv_obs.Obs.span_begin "campaign.enumerate"
           [ ("design", Ilv_obs.Obs.S d.Design.name) ])
    else None
  in
  (* one enumeration: the site count, and the RTL of the picked sites only *)
  let sites = Mutate.sites d.Design.rtl in
  let mutants = List.map Mutate.build (Mutate.pick ~seed ~max_mutants sites) in
  (match span with
  | None -> ()
  | Some id ->
    Ilv_obs.Obs.span_end
      ~fields:
        [
          ("n_sites", Ilv_obs.Obs.I (Array.length sites));
          ("n_mutants", Ilv_obs.Obs.I (List.length mutants));
        ]
      id);
  let sim_inapplicable =
    if fallback_sim then Cosim.inapplicable d d.Design.rtl else None
  in
  let fallback_sim = fallback_sim && sim_inapplicable = None in
  (* each mutant's whole classification (verify + replay + simulation
     fallback) is one job on the engine's worker pool; a crashed worker
     degrades to that one mutant being inconclusive *)
  let reports =
    List.map2
      (fun (m : Mutate.mutant) outcome ->
        match outcome with
        | Ilv_engine.Pool.Done r -> r
        | Ilv_engine.Pool.Crashed reason ->
          {
            mutation = m.Mutate.mutation;
            classification = Inconclusive ("worker crashed: " ^ reason);
            time_s = 0.0;
            replay_confirmed = None;
          }
        | Ilv_engine.Pool.Poisoned reason ->
          {
            mutation = m.Mutate.mutation;
            classification = Inconclusive ("job poisoned: " ^ reason);
            time_s = 0.0;
            replay_confirmed = None;
          })
      mutants
      (Ilv_engine.Pool.map ~jobs
         (classify_mutant d ~budget ~timeout_s ~fallback_sim)
         mutants)
  in
  let count p = List.length (List.filter p reports) in
  let killed =
    count (fun r ->
        match r.classification with Killed _ -> true | _ -> false)
  in
  let survived = count (fun r -> r.classification = Survived) in
  let inconclusive =
    count (fun r ->
        match r.classification with Inconclusive _ -> true | _ -> false)
  in
  let killed_by_simulation =
    count (fun r ->
        match r.classification with
        | Killed (By_simulation _) -> true
        | _ -> false)
  in
  {
    design = d.Design.name;
    seed;
    n_sites = Array.length sites;
    n_mutants = List.length reports;
    killed;
    survived;
    inconclusive;
    killed_by_simulation;
    sim_inapplicable;
    score = score ~killed ~survived;
    total_time_s = Unix.gettimeofday () -. t0;
    mutants = reports;
  }

let kill_times c =
  List.filter_map
    (fun r ->
      match r.classification with Killed _ -> Some r.time_s | _ -> None)
    c.mutants

let pp_table_header fmt () =
  Format.fprintf fmt "%-26s %8s %8s %8s %8s %8s %8s %9s@." "Design" "sites"
    "mutants" "killed" "surv" "incl" "score" "time"

let score_string c =
  if c.killed + c.survived = 0 then "n/a"
  else Printf.sprintf "%.1f%%" (100.0 *. c.score)

let pp_table_row fmt c =
  Format.fprintf fmt "%-26s %8d %8d %8d %8d %8d %8s %8.2fs@." c.design
    c.n_sites c.n_mutants c.killed c.survived c.inconclusive (score_string c)
    c.total_time_s

let pp fmt c =
  let open Format in
  fprintf fmt "@[<v>mutation campaign: %s (seed %d)@," c.design c.seed;
  fprintf fmt "  %d fault sites, %d mutants checked in %.2fs@," c.n_sites
    c.n_mutants c.total_time_s;
  Option.iter
    (fprintf fmt "  simulation fallback inapplicable: %s@,")
    c.sim_inapplicable;
  List.iter
    (fun r ->
      let status =
        match r.classification with
        | Killed (By_property { instr; port }) ->
          Printf.sprintf "killed by %s.%s%s" port instr
            (match r.replay_confirmed with
            | Some true -> " (replay confirmed)"
            | Some false -> " (replay MISMATCH)"
            | None -> "")
        | Killed (By_simulation { sim_seed; cycle; state }) ->
          Printf.sprintf "killed by simulation (seed %d, cycle %d, state %s)"
            sim_seed cycle state
        | Survived -> "SURVIVED"
        | Inconclusive reason -> "inconclusive: " ^ reason
      in
      fprintf fmt "  %-56s %-7.3fs %s@,"
        (Mutate.describe r.mutation)
        r.time_s status)
    c.mutants;
  fprintf fmt
    "  killed %d (%d via simulation fallback), survived %d, inconclusive \
     %d — mutation score %s@]"
    c.killed c.killed_by_simulation c.survived c.inconclusive
    (score_string c)

let to_json c =
  let open Ilv_obs.Json in
  encode
    (Obj
       [
         ("design", String c.design);
         ("seed", Int c.seed);
         ("fault_sites", Int c.n_sites);
         ("mutants", Int c.n_mutants);
         ("killed", Int c.killed);
         ("killed_by_simulation", Int c.killed_by_simulation);
         ("survived", Int c.survived);
         ("inconclusive", Int c.inconclusive);
         ("mutation_score", Float c.score);
         ("total_time_s", Float c.total_time_s);
         ("kill_times_s", List (List.map (fun t -> Float t) (kill_times c)));
         ( "results",
           List
             (List.map
                (fun r ->
                  Obj
                    [
                      ("mutation", String (Mutate.describe r.mutation));
                      ( "class",
                        String
                          (match r.classification with
                          | Killed (By_property _) -> "killed"
                          | Killed (By_simulation _) -> "killed_by_simulation"
                          | Survived -> "survived"
                          | Inconclusive _ -> "inconclusive") );
                      ("time_s", Float r.time_s);
                    ])
                c.mutants) );
       ])
