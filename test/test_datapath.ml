(* The 8051 datapath's RTL, simulated cycle by cycle against an
   independent integer model of the 8051 ALU and of a plain RAM/SFR
   array.  Refinement verification proves the RTL equal to its ILA, but
   both are built from the same [alu_semantics] table; this model is
   written separately, so a wrong entry in that table shows here. *)

open Ilv_expr
open Ilv_rtl
open Ilv_designs

let t name f = Alcotest.test_case name `Quick f

(* ---------- reference model ---------- *)

type alu = { acc : int; breg : int; carry : bool }

let alu_reset = { acc = 0; breg = 0; carry = false }
let byte n = n land 0xff

let alu_step s ~op ~src =
  let cbit = if s.carry then 1 else 0 in
  match op with
  | 0 (* ADD *) ->
    let sum = s.acc + src in
    { s with acc = byte sum; carry = sum > 0xff }
  | 1 (* ADDC *) ->
    let sum = s.acc + src + cbit in
    { s with acc = byte sum; carry = sum > 0xff }
  | 2 (* SUB *) ->
    let diff = s.acc - src in
    { s with acc = byte diff; carry = diff < 0 }
  | 3 (* SUBB *) ->
    let diff = s.acc - src - cbit in
    { s with acc = byte diff; carry = diff < 0 }
  | 4 (* INC *) -> { s with acc = byte (s.acc + 1) }
  | 5 (* DEC *) -> { s with acc = byte (s.acc - 1) }
  | 6 (* MUL *) ->
    let prod = s.acc * src in
    { acc = byte prod; breg = byte (prod lsr 8); carry = false }
  | 7 (* DIV *) ->
    if src = 0 then { acc = 0xff; breg = s.acc; carry = true }
    else { acc = s.acc / src; breg = s.acc mod src; carry = false }
  | 8 (* ANL *) -> { s with acc = s.acc land src }
  | 9 (* ORL *) -> { s with acc = s.acc lor src }
  | 10 (* XRL *) -> { s with acc = s.acc lxor src }
  | 11 (* CLR *) -> { s with acc = 0; carry = false }
  | 12 (* CPL *) -> { s with acc = byte (lnot s.acc) }
  | 13 (* RL *) -> { s with acc = byte ((s.acc lsl 1) lor (s.acc lsr 7)) }
  | 14 (* RR *) ->
    { s with acc = byte ((s.acc lsr 1) lor ((s.acc land 1) lsl 7)) }
  | 15 (* SWAP *) -> { s with acc = byte ((s.acc lsl 4) lor (s.acc lsr 4)) }
  | _ -> invalid_arg "alu_step: opcode"

let op_add = 0
let op_addc = 1
let op_sub = 2
let op_subb = 3
let op_mul = 6
let op_div = 7
let op_clr = 11
let op_rl = 13
let op_rr = 14
let op_swap = 15

(* ---------- driving the RTL ---------- *)

(* One clock cycle of the datapath.  [alu] is [Some (op, src)] to issue
   an ALU instruction; [data] is [Some (wr, sfr, addr, value)] to issue
   a data-port access (the address goes to the RAM or the SFR file). *)
let cycle sim ~addr_width ?alu ?data () =
  let alu_en, op, src =
    match alu with Some (op, src) -> (true, op, src) | None -> (false, 0, 0)
  in
  let d_en, wr, sfr, addr, value =
    match data with
    | Some (wr, sfr, addr, value) -> (true, wr, sfr, addr, value)
    | None -> (false, false, false, 0, 0)
  in
  Sim.cycle sim
    [
      ("alu_en", Value.of_bool alu_en);
      ("alu_op_in", Value.of_int ~width:4 op);
      ("src_in", Value.of_int ~width:8 src);
      ("d_en", Value.of_bool d_en);
      ("d_wr", Value.of_bool wr);
      ("d_sfr", Value.of_bool sfr);
      ("d_addr", Value.of_int ~width:addr_width (if sfr then 0 else addr));
      ("d_sfr_addr", Value.of_int ~width:3 (if sfr then addr else 0));
      ("d_data", Value.of_int ~width:8 value);
    ]

let alu_state sim =
  {
    acc = Sim.peek_int sim "acc_q";
    breg = Sim.peek_int sim "b_q";
    carry = Sim.peek_bool sim "cy_q";
  }

(* Runs [program], a list of (op, src), with [idle i] cycles of
   [alu_en] low before instruction [i], and returns the final state. *)
let run_alu ?(idle = fun _ -> 0) program =
  let d = Datapath_8051.design_abstract in
  let sim = Sim.create d.Design.rtl in
  List.iteri
    (fun i (op, src) ->
      for _ = 1 to idle i do
        cycle sim ~addr_width:4 ()
      done;
      cycle sim ~addr_width:4 ~alu:(op, src) ())
    program;
  alu_state sim

let reference program =
  List.fold_left (fun s (op, src) -> alu_step s ~op ~src) alu_reset program

let pp_alu fmt s =
  Format.fprintf fmt "acc=0x%02x b=0x%02x cy=%b" s.acc s.breg s.carry

let alu_testable = Alcotest.testable pp_alu ( = )

let check_alu program =
  Alcotest.check alu_testable "acc, b, carry" (reference program)
    (run_alu program)

let alu_tests =
  [
    t "single ADD" (fun () -> check_alu [ (op_add, 42) ]);
    t "ADD with carry chains into ADDC" (fun () ->
        check_alu
          [
            (op_add, 200);
            (op_add, 100) (* wraps, sets carry *);
            (op_addc, 211) (* 44 + 211 + 1 = 256: the carry alone wraps *);
          ]);
    t "SUB borrow chains into SUBB" (fun () ->
        check_alu
          [
            (op_add, 5);
            (op_sub, 6) (* borrows, sets carry *);
            (op_subb, 0xff) (* 0xff - 0xff - 1: the borrow alone borrows *);
          ]);
    t "MUL fills B" (fun () ->
        check_alu [ (op_add, 20); (op_mul, 20) (* 400 = 0x190 *) ]);
    t "DIV by zero follows the spec" (fun () ->
        check_alu [ (op_add, 9); (op_div, 0) ]);
    t "DIV leaves quotient in A and remainder in B" (fun () ->
        check_alu [ (op_add, 200); (op_div, 7) ]);
    t "CLR resets accumulator and carry" (fun () ->
        check_alu [ (op_sub, 1) (* borrow sets carry *); (op_clr, 0) ]);
    t "RL, RR and SWAP permute the accumulator's bits" (fun () ->
        check_alu
          [ (op_add, 0x81); (op_rl, 0); (op_swap, 0); (op_rr, 0); (op_rr, 0) ]);
    t "idle cycles do not change the architectural result" (fun () ->
        let program = [ (op_add, 13); (op_swap, 0); (op_sub, 200) ] in
        Alcotest.check alu_testable "acc, b, carry" (run_alu program)
          (run_alu ~idle:(fun i -> (i * 3) + 1) program));
  ]

(* ---------- data port ---------- *)

(* A read's value is visible in [rd_q] after its cycle. *)
let read sim ~addr_width ~sfr addr =
  cycle sim ~addr_width ~data:(false, sfr, addr, 0) ();
  Sim.peek_int sim "rd_q"

let write sim ~addr_width ~sfr addr value =
  cycle sim ~addr_width ~data:(true, sfr, addr, value) ()

let data_tests =
  [
    t "RAM read in the cycle after a write sees the staged store" (fun () ->
        let sim = Sim.create Datapath_8051.design.Design.rtl in
        write sim ~addr_width:8 ~sfr:false 0x42 0xa5;
        Alcotest.(check int) "bypassed" 0xa5
          (read sim ~addr_width:8 ~sfr:false 0x42));
    t "back-to-back RAM writes both commit" (fun () ->
        let sim = Sim.create Datapath_8051.design.Design.rtl in
        write sim ~addr_width:8 ~sfr:false 0x10 0x11;
        write sim ~addr_width:8 ~sfr:false 0x20 0x22;
        write sim ~addr_width:8 ~sfr:false 0x10 0x33;
        Alcotest.(check int) "0x20" 0x22
          (read sim ~addr_width:8 ~sfr:false 0x20);
        Alcotest.(check int) "0x10, last write wins" 0x33
          (read sim ~addr_width:8 ~sfr:false 0x10));
    t "SFR and RAM at the same address are distinct" (fun () ->
        let sim = Sim.create Datapath_8051.design.Design.rtl in
        write sim ~addr_width:8 ~sfr:false 3 0x55;
        write sim ~addr_width:8 ~sfr:true 3 0xaa;
        Alcotest.(check int) "sfr" 0xaa (read sim ~addr_width:8 ~sfr:true 3);
        Alcotest.(check int) "ram" 0x55 (read sim ~addr_width:8 ~sfr:false 3));
    t "read data holds while no read is issued" (fun () ->
        let sim = Sim.create Datapath_8051.design.Design.rtl in
        write sim ~addr_width:8 ~sfr:false 7 0x77;
        ignore (read sim ~addr_width:8 ~sfr:false 7);
        write sim ~addr_width:8 ~sfr:false 7 0x01;
        cycle sim ~addr_width:8 ~alu:(op_add, 1) ();
        Alcotest.(check int) "held" 0x77 (Sim.peek_int sim "rd_q"));
  ]

(* ---------- random programs ---------- *)

let arb_alu_program =
  QCheck.make
    ~print:(fun prog ->
      String.concat "; "
        (List.map
           (fun (op, src) -> Printf.sprintf "(op=%d src=%d)" op src)
           prog))
    QCheck.Gen.(
      list_size (int_range 1 25) (pair (int_range 0 15) (int_range 0 255)))

(* A data-port access on the 16-byte RAM: (write, sfr, address, value). *)
let arb_data_program =
  QCheck.make
    ~print:(fun prog ->
      String.concat "; "
        (List.map
           (fun (wr, sfr, a, v) ->
             Printf.sprintf "%s%s[%d]=%d"
               (if wr then "W" else "R")
               (if sfr then "sfr" else "ram")
               a v)
           prog))
    QCheck.Gen.(
      list_size (int_range 1 40)
        (map
           (fun (wr, sfr, a, v) -> (wr, sfr, (if sfr then a land 7 else a), v))
           (quad bool (frequency [ (3, return false); (1, return true) ])
              (int_range 0 15) (int_range 0 255))))

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random ALU programs match the reference model"
         ~count:200 arb_alu_program (fun program ->
           run_alu program = reference program));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random idle cycles are architecturally invisible"
         ~count:100
         QCheck.(pair arb_alu_program (small_int_corners ()))
         (fun (program, seed) ->
           run_alu program
           = run_alu ~idle:(fun i -> (i + seed) mod 4) program));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"random RAM/SFR traffic reads back like a plain array" ~count:200
         arb_data_program (fun program ->
           let sim = Sim.create Datapath_8051.design_abstract.Design.rtl in
           let ram = Array.make 16 0 and sfr = Array.make 8 0 in
           List.for_all
             (fun (wr, is_sfr, a, v) ->
               let model = if is_sfr then sfr else ram in
               if wr then (
                 write sim ~addr_width:4 ~sfr:is_sfr a v;
                 model.(a) <- v;
                 true)
               else read sim ~addr_width:4 ~sfr:is_sfr a = model.(a))
             program));
  ]

let suite =
  [
    ("datapath:alu", alu_tests);
    ("datapath:data", data_tests);
    ("datapath:props", prop_tests);
  ]
