(* Tests for the eight case-study designs: Table-I structural facts,
   decode coverage/determinism, ILA-vs-RTL random co-simulation, and
   end-to-end refinement results including the three published bugs. *)

open Ilv_expr
open Ilv_core
open Ilv_designs

let t name f = Alcotest.test_case name `Quick f
let ts name f = Alcotest.test_case name `Slow f

(* ---------- Table-I structural columns ---------- *)

let structure_case (d, ports_before, ports_after, instructions) =
  t (Printf.sprintf "%s: ports %d/%d, %d instructions" d.Design.name
       ports_before ports_after instructions) (fun () ->
      Alcotest.(check int) "ports before" ports_before
        d.Design.ports_before_integration;
      Alcotest.(check int) "ports after" ports_after
        (Module_ila.n_ports d.Design.module_ila);
      Alcotest.(check int) "instructions" instructions
        (Module_ila.total_instructions d.Design.module_ila))

let structure_tests =
  List.map structure_case
    [
      (Decoder_8051.design, 1, 1, 5);
      (Axi_slave.design, 2, 2, 9);
      (Axi_master.design, 2, 2, 11);
      (Datapath_8051.design, 2, 2, 20);
      (L2_cache.design, 2, 2, 8);
      (Mem_iface_8051.design, 3, 2, 12);
      (Store_buffer.design, 3, 2, 6);
      (Noc_router.design, 10, 2, 64);
    ]

(* ---------- decode coverage and determinism per port ---------- *)

let decode_case (d : Design.t) =
  t (d.Design.name ^ ": decodes cover and are deterministic") (fun () ->
      List.iter
        (fun (port : Ila.t) ->
          let assuming = d.Design.coverage_assumptions port.Ila.name in
          (match Ila_check.coverage ~assuming port with
          | Ila_check.Covered -> ()
          | Ila_check.Uncovered _ ->
            Alcotest.failf "port %s has a coverage gap" port.Ila.name);
          match Ila_check.determinism ~assuming port with
          | Ila_check.Deterministic -> ()
          | Ila_check.Overlap { instr_a; instr_b; _ } ->
            Alcotest.failf "port %s: %s overlaps %s" port.Ila.name instr_a
              instr_b)
        d.Design.module_ila.Module_ila.ports)

let decode_tests = List.map decode_case Catalog.quick

(* ---------- random co-simulation ---------- *)

(* The harness lives in Ilv_designs.Cosim; here we drive it over seeds
   and designs, failing the test on any divergence. *)

let cosim_ok ?cycles ~seed d =
  match Cosim.simulate ?cycles ~seed (Cosim.compile d d.Design.rtl) with
  | Cosim.Agree { steps; _ } ->
    Alcotest.(check bool) "made progress" true (steps > 0)
  | Cosim.Diverged { cycle; port; state; detail } ->
    Alcotest.failf "cycle %d, port %s, state %s: %s" cycle port state detail
  | Cosim.Inapplicable reason -> Alcotest.failf "inapplicable: %s" reason

(* Single-cycle designs only: the L2 pipelines retire an instruction
   every three/four cycles, so per-cycle lockstep does not apply. *)
let cosim_designs =
  [
    Decoder_8051.design;
    Axi_slave.design;
    Axi_master.design;
    Mem_iface_8051.design;
    Datapath_8051.design_abstract;
    Store_buffer.design_abstract;
    Noc_router.design;
    (* of the extensions, only the single-cycle clock generator; the
       UART's SEND spans a whole frame *)
    Clock_gen.design;
  ]

let cosim_tests =
  List.concat_map
    (fun d ->
      List.map
        (fun seed ->
          t
            (Printf.sprintf "%s: 300-cycle random co-simulation (seed %d)"
               d.Design.name seed)
            (fun () -> cosim_ok ~seed d))
        [ 1; 2; 3 ])
    cosim_designs

(* The buggy RTL variants must diverge from the ILA in co-simulation
   too — on some seed within a reasonable horizon. *)
let cosim_bug_tests =
  [
    t "buggy AXI slave diverges in co-simulation" (fun () ->
        let d = Axi_slave.design in
        let bug = List.hd d.Design.bugs in
        let sim = Cosim.compile d bug.Design.buggy_rtl in
        let diverged =
          List.exists
            (fun seed ->
              match Cosim.simulate ~cycles:500 ~seed sim with
              | Cosim.Diverged _ -> true
              | Cosim.Agree _ | Cosim.Inapplicable _ -> false)
            [ 1; 2; 3 ]
        in
        Alcotest.(check bool) "diverged" true diverged);
  ]

(* ---------- end-to-end refinement verification ---------- *)

let verify_case (d : Design.t) =
  ts (d.Design.name ^ ": refinement verification proves") (fun () ->
      let report = Design.verify d in
      if not (Verify.proved report) then
        Alcotest.failf "%s failed:@ %a" d.Design.name
          (fun fmt () -> Verify.pp_report fmt report)
          ())

let verify_tests = List.map verify_case Catalog.quick

let bug_case (d : Design.t) (bug : Design.bug) expected_instr =
  ts
    (Printf.sprintf "%s: bug '%s' is caught at %s" d.Design.name
       bug.Design.bug_label expected_instr) (fun () ->
      let report = Design.verify_buggy d bug in
      match report.Verify.first_failure with
      | None -> Alcotest.fail "the bug went undetected"
      | Some ir ->
        Alcotest.(check string) "instruction" expected_instr ir.Verify.instr;
        (match ir.Verify.verdict with
        | Checker.Failed trace ->
          Alcotest.(check bool) "trace has cycles" true
            (List.length trace.Trace.cycles > 0)
        | Checker.Proved | Checker.Unknown _ ->
          Alcotest.fail "failure without trace"))

let bug_tests =
  [
    bug_case Axi_slave.design
      (List.hd Axi_slave.design.Design.bugs)
      "RD_DATA_PREPARE";
    bug_case L2_cache.design
      (List.hd L2_cache.design.Design.bugs)
      "P1_LOAD_MISS";
    bug_case Store_buffer.design_abstract
      (List.hd Store_buffer.design_abstract.Design.bugs)
      "SB_IN_IDLE & SB_POP";
  ]

(* ---------- integration-specific behaviour ---------- *)

let integration_tests =
  [
    t "mem_wait: REQ on one port beats IDLE on the other" (fun () ->
        let sim = Ila_sim.create Mem_iface_8051.rom_ram_port in
        let cmd rom_req ram_req ram_dv =
          [
            ("rom_req", Value.of_bool rom_req);
            ("rom_addr_in", Value.of_int ~width:16 0x1234);
            ("rom_data_valid", Value.of_bool false);
            ("rom_data_in", Value.of_int ~width:8 0);
            ("ram_req", Value.of_bool ram_req);
            ("ram_addr_in", Value.of_int ~width:8 0x56);
            ("ram_data_valid", Value.of_bool ram_dv);
            ("ram_data_in", Value.of_int ~width:8 0x78);
          ]
        in
        (match Ila_sim.step sim (cmd false true false) with
        | Ila_sim.Stepped "ROM_IDLE & RAM_REQ" -> ()
        | Ila_sim.Stepped other -> Alcotest.failf "stepped %s" other
        | _ -> Alcotest.fail "no step");
        Alcotest.(check int) "wait set by priority" 1
          (Value.to_int (Ila_sim.state sim "mem_wait"));
        (match Ila_sim.step sim (cmd false false false) with
        | Ila_sim.Stepped "ROM_IDLE & RAM_IDLE" -> ()
        | _ -> Alcotest.fail "expected idle & idle");
        Alcotest.(check int) "wait cleared" 0
          (Value.to_int (Ila_sim.state sim "mem_wait")));
    t "router: round-robin arbitration of table installs" (fun () ->
        let sim = Ila_sim.create Noc_router.in_port_integrated in
        (* two simultaneous config flits installing different routes for
           destination 3: ports n (idx 0) and s (idx 1) *)
        let config ~dest ~route =
          (1 lsl 15) lor (dest lsl 12) lor route
        in
        let cmd =
          List.concat_map
            (fun d ->
              [
                (d ^ "_in_valid", Value.of_bool (d = "n" || d = "s"));
                ( d ^ "_in_flit",
                  Value.of_int ~width:16
                    (if d = "n" then config ~dest:3 ~route:1
                     else if d = "s" then config ~dest:3 ~route:2
                     else 0) );
              ])
            Noc_router.directions
        in
        (* rr_in starts at 0, so port n (index 0) wins *)
        (match Ila_sim.step sim cmd with
        | Ila_sim.Stepped name ->
          Alcotest.(check string) "instr" "N_RECV & S_RECV & E_IDLE & W_IDLE & P_IDLE" name
        | _ -> Alcotest.fail "no step");
        let table = Value.to_mem (Ila_sim.state sim "routing_table") in
        Alcotest.(check int) "n's route installed" 1
          (Bitvec.to_int (Value.mem_read table (Bitvec.of_int ~width:3 3)));
        Alcotest.(check int) "rr advanced" 1
          (Value.to_int (Ila_sim.state sim "rr_in"));
        (* same double install again: now rr_in = 1, port s wins *)
        (match Ila_sim.step sim cmd with
        | Ila_sim.Stepped _ -> ()
        | _ -> Alcotest.fail "no step");
        let table = Value.to_mem (Ila_sim.state sim "routing_table") in
        Alcotest.(check int) "s's route installed" 2
          (Bitvec.to_int (Value.mem_read table (Bitvec.of_int ~width:3 3))));
    t "store buffer: push at full is refused, pop drains" (fun () ->
        let k = 2 in
        let sim = Ila_sim.create (Store_buffer.in_out_port ~depth_log2:k) in
        let cmd ~push ~pop ~addr ~data =
          [
            ("in_valid", Value.of_bool push);
            ("in_addr", Value.of_int ~width:8 addr);
            ("in_data", Value.of_int ~width:8 data);
            ("out_ready", Value.of_bool pop);
          ]
        in
        (* fill the 4-entry buffer *)
        for i = 1 to 4 do
          match Ila_sim.step sim (cmd ~push:true ~pop:false ~addr:i ~data:(10 * i)) with
          | Ila_sim.Stepped "SB_PUSH & SB_OUT_IDLE" -> ()
          | Ila_sim.Stepped other -> Alcotest.failf "step %d: %s" i other
          | _ -> Alcotest.fail "no step"
        done;
        Alcotest.(check bool) "full" true
          (Value.to_bool (Ila_sim.state sim "full"));
        (* push+pop at full: the push is refused *)
        (match Ila_sim.step sim (cmd ~push:true ~pop:true ~addr:9 ~data:99) with
        | Ila_sim.Stepped "SB_IN_IDLE & SB_POP" -> ()
        | Ila_sim.Stepped other -> Alcotest.failf "unexpected %s" other
        | _ -> Alcotest.fail "no step");
        Alcotest.(check bool) "no longer full" false
          (Value.to_bool (Ila_sim.state sim "full"));
        (* the popped entry is the first pushed *)
        Alcotest.(check int) "fifo order" ((1 lsl 8) lor 10)
          (Value.to_int (Ila_sim.state sim "out_entry")));
    t "decoder: multi-step word drives outputs per step" (fun () ->
        let sim = Ila_sim.create Decoder_8051.ila in
        let word = 0b1010_1011 in
        (* two-operand word: steps_of = 3 *)
        let cmd wait w =
          [ ("wait", Value.of_bool wait); ("word_in", Value.of_int ~width:8 w) ]
        in
        (match Ila_sim.step sim (cmd false word) with
        | Ila_sim.Stepped "process-load" -> ()
        | _ -> Alcotest.fail "expected load");
        Alcotest.(check int) "step latched" 3
          (Value.to_int (Ila_sim.state sim "step"));
        Alcotest.(check int) "fetching alu_op" 0b1111
          (Value.to_int (Ila_sim.state sim "alu_op"));
        (match Ila_sim.step sim (cmd true 0) with
        | Ila_sim.Stepped "stall" -> ()
        | _ -> Alcotest.fail "expected stall");
        Alcotest.(check int) "stall holds" 3
          (Value.to_int (Ila_sim.state sim "step"));
        ignore (Ila_sim.step sim (cmd false 0));
        ignore (Ila_sim.step sim (cmd false 0));
        ignore (Ila_sim.step sim (cmd false 0));
        Alcotest.(check int) "done" 0 (Value.to_int (Ila_sim.state sim "step"));
        (* final step: real opcode *)
        Alcotest.(check bool) "executing alu_op" true
          (Value.to_int (Ila_sim.state sim "alu_op") <> 0b1111));
  ]

(* ---------- sketches render ---------- *)

let sketch_tests =
  [
    t "every design sketch renders" (fun () ->
        List.iter
          (fun d ->
            let s =
              Format.asprintf "%a" Module_ila.pp_sketch d.Design.module_ila
            in
            Alcotest.(check bool)
              (d.Design.name ^ " sketch nonempty")
              true
              (String.length s > 100))
          Catalog.all);
  ]

let suite =
  [
    ("designs:structure", structure_tests);
    ("designs:decode", decode_tests);
    ("designs:cosim", cosim_tests);
    ("designs:cosim-bugs", cosim_bug_tests);
    ("designs:integration", integration_tests);
    ("designs:sketches", sketch_tests);
    ("designs:verify", verify_tests);
    ("designs:bugs", bug_tests);
  ]
