(* Tests for resource-bounded solving (Sat/Checker/Verify Unknown
   propagation) and the fault-injection engine. *)

open Ilv_sat
open Ilv_core
open Ilv_designs
open Ilv_engine
open Ilv_fault

let t name f = Alcotest.test_case name `Quick f

(* Pigeonhole principle, duplicated from test_sat: hard enough that a
   one-conflict budget cannot decide it. *)
let php pigeons holes =
  let var p h = (p * holes) + h + 1 in
  let n_vars = pigeons * holes in
  let every_pigeon_somewhere =
    List.init pigeons (fun p -> List.init holes (fun h -> var p h))
  in
  let no_two_in_same_hole =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p1 < p2 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  (n_vars, every_pigeon_somewhere @ no_two_in_same_hole)

let mk_php () =
  let n_vars, clauses = php 6 5 in
  let s = Sat.create () in
  for _ = 1 to n_vars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) clauses;
  s

let budget_tests =
  [
    t "tiny conflict budget yields Unknown on php(6,5)" (fun () ->
        let s = mk_php () in
        (match Sat.solve_bounded ~limit:(Sat.limit ~conflicts:1 ()) s with
        | Sat.Unknown reason ->
          Alcotest.(check bool)
            "reason mentions conflicts" true
            (String.length reason > 0)
        | Sat.Result _ -> Alcotest.fail "expected Unknown under 1 conflict");
        (* the same solver instance stays usable and, unbounded, proves
           the instance — learnt clauses persist across the attempts *)
        match Sat.solve_bounded s with
        | Sat.Result Sat.Unsat -> ()
        | Sat.Result Sat.Sat -> Alcotest.fail "php(6,5) must be UNSAT"
        | Sat.Unknown r -> Alcotest.fail ("unexpected Unknown: " ^ r));
    t "expired deadline yields Unknown immediately" (fun () ->
        let s = mk_php () in
        match Sat.solve_bounded ~limit:(Sat.limit ~wall_s:0.0 ()) s with
        | Sat.Unknown _ -> ()
        | Sat.Result _ -> Alcotest.fail "expected Unknown under 0s deadline");
    t "scale_limit multiplies every bound" (fun () ->
        let l = Sat.limit ~conflicts:10 ~wall_s:1.0 () in
        let l4 = Sat.scale_limit 4 l in
        Alcotest.(check (option int)) "conflicts" (Some 40) l4.Sat.max_conflicts;
        Alcotest.(check bool)
          "wall" true
          (l4.Sat.max_wall_s = Some 4.0));
    t "unlimited solve is unchanged" (fun () ->
        let s = mk_php () in
        match Sat.solve s with
        | Sat.Unsat -> ()
        | Sat.Sat -> Alcotest.fail "php(6,5) must be UNSAT");
  ]

let verify_budget_tests =
  [
    t "zero wall budget makes every verdict Unknown" (fun () ->
        let d = Clock_gen.design in
        let budget = Checker.budget ~wall_s:0.0 ~escalations:0 () in
        let report, _ =
          Engine.verify ~budget ~name:d.Design.name d.Design.module_ila
            d.Design.rtl
            ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
        in
        Alcotest.(check bool) "not proved" false (Verify.proved report);
        Alcotest.(check bool)
          "has unknowns" true
          (Verify.unknowns report <> []);
        Alcotest.(check (option bool))
          "no failure" None
          (Option.map (fun _ -> true) report.Verify.first_failure));
    t "generous bounded budget still proves Clock Gen" (fun () ->
        let d = Clock_gen.design in
        let budget = Checker.budget ~conflicts:200_000 ~escalations:1 () in
        let report, _ =
          Engine.verify ~budget ~name:d.Design.name d.Design.module_ila
            d.Design.rtl
            ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
        in
        Alcotest.(check bool) "proved" true (Verify.proved report));
    t "escalation recovers from an undersized initial budget" (fun () ->
        let d = Clock_gen.design in
        (* one conflict exhausts almost instantly; seven 4x escalations
           reach a workable budget (16384 conflicts) *)
        let budget = Checker.budget ~conflicts:1 ~escalations:7 () in
        let report, _ =
          Engine.verify ~budget ~name:d.Design.name d.Design.module_ila
            d.Design.rtl
            ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
        in
        Alcotest.(check bool) "proved" true (Verify.proved report));
    t "exceptions in refmap_for become Unknown verdicts" (fun () ->
        let d = Clock_gen.design in
        List.iter
          (fun incremental ->
            let report, _ =
              Engine.verify ~incremental ~name:d.Design.name
                d.Design.module_ila d.Design.rtl
                ~refmap_for:(fun _ -> failwith "boom")
            in
            Alcotest.(check bool) "not proved" false (Verify.proved report);
            let unknowns = Verify.unknowns report in
            Alcotest.(check bool) "all unknown" true (unknowns <> []);
            List.iter
              (fun (ir : Verify.instr_result) ->
                match ir.Verify.verdict with
                | Checker.Unknown reason ->
                  Alcotest.(check bool)
                    "mentions the exception" true
                    (String.length reason >= 4
                    && String.sub reason 0 4 = "exce")
                | _ -> Alcotest.fail "expected Unknown")
              unknowns)
          [ true; false ]);
    t "per-obligation times sum to the reported wall-clock" (fun () ->
        let d = Clock_gen.design in
        let report, _ =
          Engine.verify ~name:d.Design.name d.Design.module_ila d.Design.rtl
            ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
        in
        List.iter
          (fun (p : Verify.port_report) ->
            List.iter
              (fun (ir : Verify.instr_result) ->
                let st = ir.Verify.stats in
                let sum =
                  List.fold_left ( +. ) 0.0 st.Checker.obligation_times_s
                in
                Alcotest.(check bool)
                  "time_s = sum of obligations" true
                  (abs_float (st.Checker.time_s -. sum) < 1e-9);
                Alcotest.(check bool)
                  "restarts non-negative" true
                  (st.Checker.restarts >= 0);
                Alcotest.(check bool)
                  "at least one attempt" true
                  (st.Checker.attempts >= 1))
              p.Verify.instr_results)
          report.Verify.ports);
  ]

(* Every single-fault mutant of a design, in site order. *)
let all_mutants rtl = Array.to_list (Array.map Mutate.build (Mutate.sites rtl))

(* Interface preservation: a mutant must keep the design's ports and
   register sorts — {!Mutate.build} promises every mutant passes
   [Rtl.make], and the campaign relies on the interfaces matching. *)
let same_interface (a : Ilv_rtl.Rtl.t) (b : Ilv_rtl.Rtl.t) =
  a.Ilv_rtl.Rtl.inputs = b.Ilv_rtl.Rtl.inputs
  && a.Ilv_rtl.Rtl.outputs = b.Ilv_rtl.Rtl.outputs
  && List.map
       (fun (r : Ilv_rtl.Rtl.register) -> (r.Ilv_rtl.Rtl.reg_name, r.Ilv_rtl.Rtl.sort))
       a.Ilv_rtl.Rtl.registers
     = List.map
         (fun (r : Ilv_rtl.Rtl.register) ->
           (r.Ilv_rtl.Rtl.reg_name, r.Ilv_rtl.Rtl.sort))
         b.Ilv_rtl.Rtl.registers

let mutate_tests =
  [
    t "every Clock Gen mutant is well-sorted and interface-preserving"
      (fun () ->
        let rtl = Clock_gen.design.Design.rtl in
        let mutants = all_mutants rtl in
        Alcotest.(check bool) "found sites" true (List.length mutants > 10);
        List.iter
          (fun (m : Mutate.mutant) ->
            Alcotest.(check bool)
              (Mutate.describe m.Mutate.mutation)
              true
              (same_interface rtl m.Mutate.rtl))
          mutants);
    t "every UART TX mutant is well-sorted and interface-preserving"
      (fun () ->
        let rtl = Uart_tx.design.Design.rtl in
        List.iter
          (fun (m : Mutate.mutant) ->
            Alcotest.(check bool)
              (Mutate.describe m.Mutate.mutation)
              true
              (same_interface rtl m.Mutate.rtl))
          (all_mutants rtl));
    t "no mutant is the identity" (fun () ->
        (* each mutant must actually change the net it claims to: the
           verifier would otherwise count free kills *)
        let rtl = Clock_gen.design.Design.rtl in
        List.iter
          (fun (m : Mutate.mutant) ->
            let changed =
              not
                (List.for_all2
                   (fun (n1, e1) (n2, e2) ->
                     n1 = n2 && Ilv_expr.Expr.equal e1 e2)
                   rtl.Ilv_rtl.Rtl.wires m.Mutate.rtl.Ilv_rtl.Rtl.wires)
              || not
                   (List.for_all2
                      (fun (r1 : Ilv_rtl.Rtl.register) (r2 : Ilv_rtl.Rtl.register) ->
                        Ilv_expr.Expr.equal r1.Ilv_rtl.Rtl.next r2.Ilv_rtl.Rtl.next
                        && r1.Ilv_rtl.Rtl.init = r2.Ilv_rtl.Rtl.init)
                      rtl.Ilv_rtl.Rtl.registers
                      m.Mutate.rtl.Ilv_rtl.Rtl.registers)
            in
            Alcotest.(check bool)
              (Mutate.describe m.Mutate.mutation)
              true changed)
          (all_mutants rtl));
    t "every mutation's description is one line" (fun () ->
        (* line-oriented readers of [mutate -v] take one mutant a line *)
        List.iter
          (fun (d : Design.t) ->
            Array.iter
              (fun site ->
                let text = Mutate.describe (Mutate.site_mutation site) in
                Alcotest.(check bool)
                  (d.Design.name ^ " " ^ String.escaped text)
                  false (String.contains text '\n'))
              (Mutate.sites d.Design.rtl))
          (Catalog.all @ Catalog.quick @ Catalog.extensions));
    t "sampling is deterministic in the seed" (fun () ->
        let rtl = Uart_tx.design.Design.rtl in
        let sites = Mutate.sites rtl in
        let ids seed =
          List.map
            (fun site -> (Mutate.site_mutation site).Mutate.m_id)
            (Mutate.pick ~seed ~max_mutants:10 sites)
        in
        Alcotest.(check (list int)) "same seed, same sample" (ids 3) (ids 3);
        Alcotest.(check int) "sample size" 10 (List.length (ids 3));
        Alcotest.(check bool)
          "different seeds differ" true
          (ids 3 <> ids 4));
    t "replace rebuilds through the smart constructors" (fun () ->
        let open Ilv_expr in
        let x = Expr.var "x" (Sort.Bitvec 4) in
        let y = Expr.var "y" (Sort.Bitvec 4) in
        let e = Build.( +: ) (Build.( +: ) x y) x in
        let z = Expr.var "z" (Sort.Bitvec 4) in
        let e' = Mutate.replace ~target:x ~replacement:z e in
        Alcotest.(check bool)
          "x gone" true
          (Expr.equal e' (Build.( +: ) (Build.( +: ) z y) z)));
  ]

let campaign_tests =
  [
    t "campaign classifications partition the mutants" (fun () ->
        let c =
          Campaign.run ~seed:5 ~max_mutants:8 ~fallback_sim:false
            Clock_gen.design
        in
        Alcotest.(check int) "mutants" 8 c.Campaign.n_mutants;
        Alcotest.(check int)
          "partition" c.Campaign.n_mutants
          (c.Campaign.killed + c.Campaign.survived + c.Campaign.inconclusive);
        Alcotest.(check bool)
          "score in range" true
          (c.Campaign.score >= 0.0 && c.Campaign.score <= 1.0);
        Alcotest.(check int)
          "kill times count" c.Campaign.killed
          (List.length (Campaign.kill_times c)));
    t "campaigns are deterministic in the seed" (fun () ->
        let classes c =
          List.map
            (fun (r : Campaign.mutant_report) ->
              ( r.Campaign.mutation.Mutate.m_id,
                match r.Campaign.classification with
                | Campaign.Killed _ -> "killed"
                | Campaign.Survived -> "survived"
                | Campaign.Inconclusive _ -> "inconclusive" ))
            c.Campaign.mutants
        in
        let run () =
          classes
            (Campaign.run ~seed:2 ~max_mutants:6 ~fallback_sim:false
               Clock_gen.design)
        in
        Alcotest.(check (list (pair int string)))
          "same verdicts" (run ()) (run ()));
    t "exhausted budget degrades to the simulation fallback" (fun () ->
        (* a zero wall budget forces Unknown from the checker on every
           mutant; the co-simulation hunt must still find concrete kills
           for gross faults like stuck-at on a register next *)
        let budget = Checker.budget ~wall_s:0.0 ~escalations:0 () in
        let c =
          Campaign.run ~seed:1 ~max_mutants:12 ~budget ~fallback_sim:true
            Clock_gen.design
        in
        Alcotest.(check int)
          "every kill came from simulation" c.Campaign.killed
          c.Campaign.killed_by_simulation;
        Alcotest.(check bool)
          "fallback found kills" true
          (c.Campaign.killed_by_simulation > 0);
        (* and with the fallback off, the same campaign is all-Unknown *)
        let c' =
          Campaign.run ~seed:1 ~max_mutants:12 ~budget ~fallback_sim:false
            Clock_gen.design
        in
        Alcotest.(check int)
          "all inconclusive without fallback" c'.Campaign.n_mutants
          c'.Campaign.inconclusive);
    t "to_json emits the advertised fields" (fun () ->
        let c =
          Campaign.run ~seed:1 ~max_mutants:4 ~fallback_sim:false
            Clock_gen.design
        in
        let json = Campaign.to_json c in
        let contains needle =
          let n = String.length needle and h = String.length json in
          let rec go i =
            i + n <= h && (String.sub json i n = needle || go (i + 1))
          in
          go 0
        in
        List.iter
          (fun field ->
            Alcotest.(check bool) field true (contains ("\"" ^ field ^ "\"")))
          [
            "design"; "seed"; "mutation_score"; "kill_times_s"; "results";
            "inconclusive";
          ]);
  ]

(* ---------- the compiled co-simulation ---------- *)

(* The reference: Sim and Ila_sim in lockstep, every expression through
   Eval.eval, with the inputs drawn in the same order as Cosim draws
   them.  Outcomes must equal the compiled Cosim's on every RTL. *)
let lockstep ~cycles ~seed (d : Design.t) rtl =
  let open Ilv_expr in
  let open Ilv_rtl in
  let exception Stop of Cosim.outcome in
  let rng = Random.State.make [| seed |] in
  let random_value = function
    | Sort.Bool -> Value.of_bool (Random.State.bool rng)
    | Sort.Bitvec w ->
      Value.of_bv (Bitvec.of_bits (List.init w (fun _ -> Random.State.bool rng)))
    | Sort.Mem { addr_width; data_width } ->
      Value.mem_const ~addr_width ~default:(Bitvec.zero data_width)
  in
  let rtl_sim = Sim.create rtl in
  let steps = ref 0 in
  let ports =
    List.map
      (fun (port : Ila.t) ->
        let owned =
          List.concat_map
            (fun (i : Ila.instruction) -> List.map fst i.Ila.updates)
            (Ila.leaf_instructions port)
        in
        (Ila_sim.create port, d.Design.refmap_for rtl port.Ila.name, owned))
      d.Design.module_ila.Module_ila.ports
  in
  let mapped e = Eval.eval (Sim.registers_env rtl_sim) e in
  let sync (ila_sim, (refmap : Refmap.t), _) =
    Ila_sim.set_state ila_sim
      (Eval.env_of_list
         (List.map (fun (s, e) -> (s, mapped e)) refmap.Refmap.state_map))
  in
  let diverged cycle sim state detail =
    Stop
      (Cosim.Diverged
         { cycle; port = (Ila_sim.ila sim).Ila.name; state; detail })
  in
  List.iter sync ports;
  try
    for cycle = 1 to cycles do
      let inputs =
        List.map (fun (n, sort) -> (n, random_value sort)) rtl.Rtl.inputs
      in
      let input_env = Eval.env_of_list inputs in
      let stepped =
        List.map
          (fun ((sim, (refmap : Refmap.t), owned) as port) ->
            Ila_sim.set_state sim
              (List.fold_left
                 (fun acc (s, e) ->
                   if List.mem s owned then acc else Eval.env_add s (mapped e) acc)
                 (Ila_sim.state_env sim) refmap.Refmap.state_map);
            let command =
              List.map
                (fun (w, e) -> (w, Eval.eval input_env e))
                refmap.Refmap.interface_map
            in
            match Ila_sim.step sim command with
            | Ila_sim.Stepped _ ->
              incr steps;
              (port, true)
            | Ila_sim.No_instruction -> (port, false)
            | Ila_sim.Ambiguous names ->
              raise
                (diverged cycle sim "-"
                   ("ambiguous decode: " ^ String.concat ", " names)))
          ports
      in
      Sim.cycle rtl_sim inputs;
      List.iter
        (fun (((sim, (refmap : Refmap.t), owned) as port), did_step) ->
          if did_step then
            List.iter
              (fun (s, e) ->
                let expected = Ila_sim.state sim s and actual = mapped e in
                if List.mem s owned && not (Value.equal expected actual) then
                  raise
                    (diverged cycle sim s
                       (Printf.sprintf "ILA %s vs RTL %s"
                          (Value.to_string expected) (Value.to_string actual))))
              refmap.Refmap.state_map
          else sync port)
        stepped
    done;
    Cosim.Agree { cycles; steps = !steps }
  with Stop outcome -> outcome

let outcome_string = function
  | Cosim.Agree { cycles; steps } ->
    Printf.sprintf "agree over %d cycles, %d steps" cycles steps
  | Cosim.Diverged { cycle; port; state; detail } ->
    Printf.sprintf "diverged at %d, %s.%s: %s" cycle port state detail
  | Cosim.Inapplicable reason -> "inapplicable: " ^ reason

(* the ids of a seeded Fisher-Yates prefix over the full enumeration,
   written out here as campaigns drew it before sites were built lazily *)
let reference_sample ~seed ~max_mutants rtl =
  let all = Array.of_list (all_mutants rtl) in
  let n = Array.length all in
  if n > max_mutants then begin
    let rng = Random.State.make [| seed; n |] in
    for i = 0 to max_mutants - 1 do
      let j = i + Random.State.int rng (n - i) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done
  end;
  Array.to_list (Array.sub all 0 (min n max_mutants))

let same_rtl (a : Ilv_rtl.Rtl.t) (b : Ilv_rtl.Rtl.t) =
  List.for_all2
    (fun (n1, e1) (n2, e2) -> n1 = n2 && Ilv_expr.Expr.equal e1 e2)
    a.Ilv_rtl.Rtl.wires b.Ilv_rtl.Rtl.wires
  && List.for_all2
       (fun (r1 : Ilv_rtl.Rtl.register) (r2 : Ilv_rtl.Rtl.register) ->
         Ilv_expr.Expr.equal r1.Ilv_rtl.Rtl.next r2.Ilv_rtl.Rtl.next
         && r1.Ilv_rtl.Rtl.init = r2.Ilv_rtl.Rtl.init)
       a.Ilv_rtl.Rtl.registers b.Ilv_rtl.Rtl.registers

let cosim_tests =
  [
    t "compiled co-simulation equals the Sim/Ila_sim lockstep on every mutant"
      (fun () ->
        List.iter
          (fun (d : Design.t) ->
            List.iter
              (fun (name, rtl) ->
                let sim = Cosim.compile d rtl in
                List.iter
                  (fun seed ->
                    Alcotest.(check string)
                      (Printf.sprintf "%s, %s, seed %d" d.Design.name name seed)
                      (outcome_string (lockstep ~cycles:300 ~seed d rtl))
                      (outcome_string (Cosim.simulate ~cycles:300 ~seed sim)))
                  [ 1; 2; 3 ])
              (("golden", d.Design.rtl)
              :: List.map
                   (fun (m : Mutate.mutant) ->
                     (Mutate.describe m.Mutate.mutation, m.Mutate.rtl))
                   (all_mutants d.Design.rtl)))
          [ Clock_gen.design; Decoder_8051.design; Store_buffer.design_abstract ]);
    t "sampling builds the mutants a pick over the full enumeration chooses"
      (fun () ->
        List.iter
          (fun (d : Design.t) ->
            let sites = Mutate.sites d.Design.rtl in
            for seed = 1 to 50 do
              List.iter
                (fun max_mutants ->
                  let expected =
                    reference_sample ~seed ~max_mutants d.Design.rtl
                  and actual =
                    List.map Mutate.build (Mutate.pick ~seed ~max_mutants sites)
                  in
                  let ids =
                    List.map (fun (m : Mutate.mutant) ->
                        Mutate.describe m.Mutate.mutation)
                  in
                  let label =
                    Printf.sprintf "%s seed %d, %d mutants" d.Design.name seed
                      max_mutants
                  in
                  Alcotest.(check (list string)) label (ids expected) (ids actual);
                  Alcotest.(check bool)
                    (label ^ ": same RTL") true
                    (List.for_all2
                       (fun (a : Mutate.mutant) (b : Mutate.mutant) ->
                         same_rtl a.Mutate.rtl b.Mutate.rtl)
                       expected actual))
                [ 2; 40 ]
            done)
          [ Uart_tx.design; Decoder_8051.design ]);
    t "multi-cycle UART TX: co-simulation inapplicable, no simulation kills"
      (fun () ->
        (match
           Cosim.simulate ~seed:1
             (Cosim.compile Uart_tx.design Uart_tx.design.Design.rtl)
         with
        | Cosim.Inapplicable reason ->
          Alcotest.(check bool)
            ("names SEND: " ^ reason) true
            (Cosim.inapplicable Uart_tx.design Uart_tx.design.Design.rtl
             = Some reason)
        | o -> Alcotest.failf "golden UART TX: %s" (outcome_string o));
        (* the seed-1 default campaign's mutants that lockstep used to
           "kill" at cycle 3 on tx_busy, a state SEND updates only when
           its frame ends *)
        let c = Campaign.run ~seed:1 ~max_mutants:40 Uart_tx.design in
        Alcotest.(check bool)
          "reason reported" true
          (c.Campaign.sim_inapplicable <> None);
        Alcotest.(check int) "no simulation kills" 0
          c.Campaign.killed_by_simulation;
        List.iter
          (fun id ->
            match
              List.find_opt
                (fun (r : Campaign.mutant_report) ->
                  r.Campaign.mutation.Mutate.m_id = id)
                c.Campaign.mutants
            with
            | Some r ->
              Alcotest.(check bool)
                (Printf.sprintf "#%d survived" id)
                true
                (r.Campaign.classification = Campaign.Survived)
            | None -> Alcotest.failf "#%d not sampled" id)
          [ 22; 50; 51; 52; 58 ]);
  ]

let suite =
  [
    ("fault:sat-budget", budget_tests);
    ("fault:verify-budget", verify_budget_tests);
    ("fault:mutate", mutate_tests);
    ("fault:campaign", campaign_tests);
    ("fault:cosim", cosim_tests);
  ]
