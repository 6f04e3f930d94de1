(* Structural tests for the Verilog exporter: every case-study design
   (and the composed core) must emit, and the emitted text must contain
   the expected declarations and update logic. *)

open Ilv_rtl
open Ilv_designs

let t name f = Alcotest.test_case name `Quick f

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let check_contains src needle =
  if not (contains src needle) then
    Alcotest.failf "emitted Verilog misses %S" needle

let emit_tests =
  List.map
    (fun (d : Design.t) ->
      t (d.Design.name ^ " emits Verilog") (fun () ->
          let src = Verilog.emit d.Design.rtl in
          check_contains src "module ";
          check_contains src "always @(posedge clk)";
          check_contains src "endmodule";
          (* every register appears in the reset arm *)
          List.iter
            (fun (r : Rtl.register) ->
              check_contains src r.Rtl.reg_name)
            d.Design.rtl.Rtl.registers))
    (Catalog.all @ Catalog.extensions)

let structure_tests =
  [
    t "decoder: ports and state" (fun () ->
        let src = Verilog.emit Decoder_8051.rtl in
        check_contains src "module oc8051_decoder(clk, rst, wait_data, op_in";
        check_contains src "input [7:0] op_in;";
        check_contains src "reg [1:0] status;";
        check_contains src "output [3:0] alu_op_q;");
    t "memories become unpacked arrays with indexed writes" (fun () ->
        let src = Verilog.emit Datapath_8051.design_abstract.Design.rtl in
        check_contains src "reg [7:0] ram_q [0:15];";
        check_contains src "reg [7:0] sfr_q [0:7];";
        check_contains src "ram_q[";
        check_contains src "] <= ");
    t "memory reset loops are emitted" (fun () ->
        let src = Verilog.emit (Store_buffer.design_abstract).Design.rtl in
        check_contains src "for (i = 0; i < 16; i = i + 1)");
    t "non-zero scalar resets are literal" (fun () ->
        let src = Verilog.emit Clock_gen.design.Design.rtl in
        check_contains src "down_q <= 4'b1011;");
    t "emitted text is deterministic" (fun () ->
        Alcotest.(check string)
          "stable" (Verilog.emit Decoder_8051.rtl)
          (Verilog.emit Decoder_8051.rtl));
  ]

let suite =
  [ ("verilog:designs", emit_tests); ("verilog:structure", structure_tests) ]
