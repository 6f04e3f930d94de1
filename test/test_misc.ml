(* Odds and ends: driver options, textual-format error paths, and
   pretty-printer smoke checks not covered elsewhere. *)

open Ilv_core
open Ilv_designs
open Ilv_engine

let t name f = Alcotest.test_case name `Quick f

let verify_tests =
  [
    t "only_ports restricts verification" (fun () ->
        let d = Axi_slave.design in
        let report, _ =
          Engine.verify ~only_ports:[ "READ" ] ~name:"axi-read-only"
            d.Design.module_ila d.Design.rtl
            ~refmap_for:(d.Design.refmap_for d.Design.rtl)
        in
        Alcotest.(check int) "one port" 1 (List.length report.Verify.ports);
        Alcotest.(check string) "the READ port" "READ"
          (List.hd report.Verify.ports).Verify.port_name);
    t "stop_at_first_failure=false checks everything" (fun () ->
        let d = Axi_slave.design in
        let bug = List.hd d.Design.bugs in
        let report = Design.verify_buggy ~stop_at_first_failure:false d bug in
        let checked =
          List.fold_left
            (fun acc p -> acc + List.length p.Verify.instr_results)
            0 report.Verify.ports
        in
        Alcotest.(check int) "all nine instructions" 9 checked);
    t "report pretty-printer runs on failures" (fun () ->
        let d = Store_buffer.design_abstract in
        let bug = List.hd d.Design.bugs in
        let report = Design.verify_buggy d bug in
        let s = Format.asprintf "%a" Verify.pp_report report in
        Alcotest.(check bool) "mentions FAILED" true
          (String.length s > 0 && Verify.proved report = false));
  ]

let format_error_tests =
  [
    t "refmap_text rejects unknown keywords" (fun () ->
        try
          ignore
            (Refmap_text.parse ~ila:Decoder_8051.ila ~rtl:Decoder_8051.rtl
               "bogus line here\n");
          Alcotest.fail "expected Syntax_error"
        with Refmap_text.Syntax_error _ -> ());
    t "refmap_text rejects missing finish" (fun () ->
        try
          ignore
            (Refmap_text.parse ~ila:Decoder_8051.ila ~rtl:Decoder_8051.rtl
               "instruction \"stall\" start (not wait_data)\n");
          Alcotest.fail "expected Syntax_error"
        with Refmap_text.Syntax_error _ -> ());
    t "refmap_text validation still applies" (fun () ->
        (* syntactically fine, but incomplete: Refmap.make rejects it *)
        try
          ignore
            (Refmap_text.parse ~ila:Decoder_8051.ila ~rtl:Decoder_8051.rtl
               "state step = status\n");
          Alcotest.fail "expected Invalid_refmap"
        with Refmap.Invalid_refmap _ -> ());
    t "ila_text rejects bad sorts and kinds" (fun () ->
        (try
           ignore (Ila_text.parse "ila X\ninput a bv0\n");
           Alcotest.fail "expected Syntax_error"
         with Ila_text.Syntax_error _ | Invalid_argument _ -> ());
        try
          ignore (Ila_text.parse "ila X\nstate s bv4 sideways\n");
          Alcotest.fail "expected Syntax_error"
        with Ila_text.Syntax_error _ -> ());
    t "ila_text requires the header" (fun () ->
        try
          ignore (Ila_text.parse "input a bool\n");
          Alcotest.fail "expected Syntax_error"
        with Ila_text.Syntax_error _ -> ());
    t "ila_text validation still applies" (fun () ->
        (* parses, but the update targets an unknown state *)
        try
          ignore
            (Ila_text.parse
               "ila X\ninput go bool\ninstruction \"I\" decode go\n  update \
                ghost = go\nend\n");
          Alcotest.fail "expected an error"
        with Ila.Invalid_ila _ -> ());
  ]

let sketch_tests =
  [
    t "properties of every quick design pretty-print" (fun () ->
        List.iter
          (fun (d : Design.t) ->
            List.iter
              (fun (port : Ila.t) ->
                let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
                List.iter
                  (fun p ->
                    Alcotest.(check bool) "nonempty" true
                      (String.length (Format.asprintf "%a" Property.pp p) > 40))
                  (Propgen.generate ~ila:port ~rtl:d.Design.rtl ~refmap))
              d.Design.module_ila.Module_ila.ports)
          [ Decoder_8051.design; Mem_iface_8051.design ]);
    t "traces pretty-print with memory values" (fun () ->
        let d = Store_buffer.design_abstract in
        let bug = List.hd d.Design.bugs in
        let report = Design.verify_buggy d bug in
        match report.Verify.first_failure with
        | Some { verdict = Checker.Failed trace; _ } ->
          let s = Format.asprintf "%a" Trace.pp trace in
          Alcotest.(check bool) "mentions sb_mem" true
            (String.length s > 0)
        | _ -> Alcotest.fail "expected failure");
  ]

let suite =
  [
    ("misc:verify-options", verify_tests);
    ("misc:format-errors", format_error_tests);
    ("misc:pretty", sketch_tests);
  ]
