(* The tutorial's PWM-with-kill-switch example, compiled and verified
   verbatim so docs/TUTORIAL.md can never rot. *)

open Ilv_expr
open Ilv_rtl
open Ilv_core

let t name f = Alcotest.test_case name `Quick f

let control_port =
  let ctl_we = Build.bool_var "ctl_we" in
  let ctl_on = Build.bool_var "ctl_on" in
  Ila.make ~name:"CONTROL"
    ~inputs:
      [ ("ctl_we", Sort.bool); ("ctl_duty", Sort.bv 8); ("ctl_on", Sort.bool) ]
    ~states:
      [
        Ila.state "duty" (Sort.bv 8) ();
        Ila.state "enabled" Sort.bool ~kind:Ila.Internal ();
      ]
    ~instructions:
      [
        Ila.instr "PROGRAM" ~decode:ctl_we
          ~updates:
            [ ("duty", Build.bv_var "ctl_duty" 8); ("enabled", ctl_on) ]
          ();
        Ila.instr "CTL_IDLE" ~decode:(Build.not_ ctl_we) ~updates:[] ();
      ]

let monitor_port =
  let kill = Build.bool_var "kill" in
  Ila.make ~name:"MONITOR"
    ~inputs:[ ("kill", Sort.bool) ]
    ~states:[ Ila.state "enabled" Sort.bool ~kind:Ila.Internal () ]
    ~instructions:
      [
        Ila.instr "KILL" ~decode:kill ~updates:[ ("enabled", Build.ff) ] ();
        Ila.instr "MON_IDLE" ~decode:(Build.not_ kill) ~updates:[] ();
      ]

let pwm_port =
  match
    Compose.integrate ~name:"PWM"
      ~resolve:(Compose.Resolve.priority_value (Value.of_bool false))
      [ control_port; monitor_port ]
  with
  | Ok ila -> ila
  | Error _ -> failwith "unexpected specification gaps"

let rtl =
  let open Build in
  let duty_q = bv_var "duty_q" 8 in
  let phase = bv_var "phase" 8 in
  Rtl.make ~name:"pwm"
    ~inputs:
      [
        ("ctl_we", Sort.bool);
        ("ctl_duty", Sort.bv 8);
        ("ctl_on", Sort.bool);
        ("kill", Sort.bool);
      ]
    ~wires:
      [
        ( "en_next",
          not_ (bool_var "kill")
          &&: ite (bool_var "ctl_we") (bool_var "ctl_on") (bool_var "en_q") );
      ]
    ~registers:
      [
        Rtl.reg "duty_q" (Sort.bv 8)
          (ite (bool_var "ctl_we") (bv_var "ctl_duty" 8) duty_q);
        Rtl.reg "en_q" Sort.bool (bool_var "en_next");
        Rtl.reg "phase" (Sort.bv 8) (add_int phase 1);
        Rtl.reg "out_q" Sort.bool (bool_var "en_next" &&: (phase <: duty_q));
      ]
    ~outputs:[ "out_q" ]

let refmap =
  Refmap.make ~ila:pwm_port ~rtl
    ~state_map:
      [ ("duty", Build.bv_var "duty_q" 8); ("enabled", Build.bool_var "en_q") ]
    ~interface_map:
      [
        ("ctl_we", Build.bool_var "ctl_we");
        ("ctl_duty", Build.bv_var "ctl_duty" 8);
        ("ctl_on", Build.bool_var "ctl_on");
        ("kill", Build.bool_var "kill");
      ]
    ~instruction_maps:
      (List.map
         (fun (i : Ila.instruction) ->
           Refmap.imap i.Ila.instr_name (Refmap.After_cycles 1))
         pwm_port.Ila.instructions)
    ()

let suite =
  [
    ( "tutorial:pwm",
      [
        t "the ports are complete and deterministic" (fun () ->
            List.iter
              (fun port ->
                (match Ila_check.coverage port with
                | Ila_check.Covered -> ()
                | Ila_check.Uncovered _ -> Alcotest.fail "coverage gap");
                match Ila_check.determinism port with
                | Ila_check.Deterministic -> ()
                | Ila_check.Overlap _ -> Alcotest.fail "overlap")
              [ control_port; monitor_port; pwm_port ]);
        t "dropping the resolver exposes the PROGRAM & KILL gap" (fun () ->
            match
              Compose.integrate ~name:"PWM" [ control_port; monitor_port ]
            with
            | Ok _ -> Alcotest.fail "expected a gap"
            | Error [ gap ] ->
              Alcotest.(check string) "instr" "PROGRAM & KILL"
                gap.Compose.combined_instr;
              Alcotest.(check string) "state" "enabled" gap.Compose.state
            | Error gaps -> Alcotest.failf "%d gaps" (List.length gaps));
        t "the implementation verifies" (fun () ->
            let report, _ =
              Ilv_engine.Engine.verify ~name:"pwm"
                (Compose.union ~name:"PWM" [ pwm_port ])
                rtl
                ~refmap_for:(fun _ -> refmap)
            in
            Alcotest.(check bool) "proved" true (Verify.proved report));
        t "the kill switch beats a simultaneous enable" (fun () ->
            let sim = Ila_sim.create pwm_port in
            (match
               Ila_sim.step sim
                 [
                   ("ctl_we", Value.of_bool true);
                   ("ctl_duty", Value.of_int ~width:8 128);
                   ("ctl_on", Value.of_bool true);
                   ("kill", Value.of_bool true);
                 ]
             with
            | Ila_sim.Stepped "PROGRAM & KILL" -> ()
            | _ -> Alcotest.fail "expected PROGRAM & KILL");
            Alcotest.(check bool) "off" false
              (Value.to_bool (Ila_sim.state sim "enabled"));
            Alcotest.(check int) "duty still programmed" 128
              (Value.to_int (Ila_sim.state sim "duty")));
      ] );
  ]
