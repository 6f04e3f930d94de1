(* Tests for DIMACS import/export: round trips and cross-checks of
   exported bit-blasting queries against an independent solve. *)

open Ilv_expr
open Ilv_sat

let t name f = Alcotest.test_case name `Quick f

let result =
  Alcotest.testable
    (fun fmt -> function
      | Sat.Sat -> Format.pp_print_string fmt "SAT"
      | Sat.Unsat -> Format.pp_print_string fmt "UNSAT")
    ( = )

let unit_tests =
  [
    t "parse a simple instance" (fun () ->
        let p =
          Dimacs.of_string "c comment\np cnf 3 2\n1 -2 0\n2 3 0\n"
        in
        Alcotest.(check int) "vars" 3 p.Dimacs.n_vars;
        Alcotest.(check (list (list int)))
          "clauses"
          [ [ 1; -2 ]; [ 2; 3 ] ]
          p.Dimacs.clauses);
    t "multi-line clauses and blank lines" (fun () ->
        let p = Dimacs.of_string "p cnf 2 1\n\n1\n-2 0\n" in
        Alcotest.(check (list (list int))) "clauses" [ [ 1; -2 ] ] p.Dimacs.clauses);
    t "reject literal out of range" (fun () ->
        try
          ignore (Dimacs.of_string "p cnf 1 1\n2 0\n");
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "reject clause before header" (fun () ->
        try
          ignore (Dimacs.of_string "1 0\n");
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "reject unterminated clause" (fun () ->
        try
          ignore (Dimacs.of_string "p cnf 1 1\n1\n");
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "solve a sat and an unsat instance" (fun () ->
        Alcotest.check result "sat" Sat.Sat
          (Dimacs.solve (Dimacs.of_string "p cnf 2 2\n1 2 0\n-1 0\n"));
        Alcotest.check result "unsat" Sat.Unsat
          (Dimacs.solve
             (Dimacs.of_string "p cnf 1 2\n1 0\n-1 0\n")));
  ]

let arb_cnf =
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "%d vars, %d clauses" n (List.length cs))
    QCheck.Gen.(
      int_range 1 8 >>= fun n_vars ->
      let lit = int_range 1 n_vars >>= fun v -> oneofl [ v; -v ] in
      list_size (int_range 0 30) (list_size (int_range 1 3) lit)
      >>= fun clauses -> return (n_vars, clauses))

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"to_string/of_string round-trips" ~count:300
         arb_cnf (fun (n_vars, clauses) ->
           let p = { Dimacs.n_vars; clauses } in
           let p' = Dimacs.of_string (Dimacs.to_string p) in
           p'.Dimacs.n_vars = n_vars && p'.Dimacs.clauses = clauses));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"export of a bit-blast query solves to the same verdict"
         ~count:100
         QCheck.(pair (int_range 0 255) (int_range 0 255))
         (fun (a, b) ->
           (* query: exists x,y at width 8 with x+y = a and x xor y = b *)
           let ctx = Bitblast.create () in
           let x = Build.bv_var "x" 8 and y = Build.bv_var "y" 8 in
           Bitblast.assert_bool ctx Build.(eq (x +: y) (bv ~width:8 a));
           Bitblast.assert_bool ctx Build.(eq (x ^: y) (bv ~width:8 b));
           let exported = Dimacs.of_bitblast ctx in
           let direct = Bitblast.check ctx in
           let reimported =
             Dimacs.solve (Dimacs.of_string (Dimacs.to_string exported))
           in
           match (direct, reimported) with
           | Bitblast.Sat _, Sat.Sat | Bitblast.Unsat, Sat.Unsat -> true
           | _, _ -> false));
  ]

(* [Checker.query_cnf] exports every obligation of a property in one
   CNF; an independent solve of its DIMACS text must agree with
   [Checker.check]. *)
let export_agrees (p : Ilv_core.Property.t) =
  let open Ilv_core in
  let exported =
    Dimacs.solve (Dimacs.of_string (Dimacs.to_string (Checker.query_cnf p)))
  in
  let expected =
    match fst (Checker.check p) with
    | Checker.Proved -> Sat.Unsat
    | Checker.Failed _ -> Sat.Sat
    | Checker.Unknown r -> Alcotest.failf "unknown: %s" r
  in
  Alcotest.check result p.Property.prop_name expected exported;
  exported

(* every property of a design variant, with its export's answer *)
let exports (d : Ilv_designs.Design.t) rtl =
  let open Ilv_core in
  List.concat_map
    (fun (port : Ila.t) ->
      let refmap = d.Ilv_designs.Design.refmap_for rtl port.Ila.name in
      List.map
        (fun (p : Property.t) -> (p.Property.prop_name, export_agrees p))
        (Propgen.generate ~ila:port ~rtl ~refmap))
    d.Ilv_designs.Design.module_ila.Module_ila.ports

let checker_tests =
  let open Ilv_designs in
  [
    t "the export is UNSAT for every UART TX and Decoder instruction"
      (fun () ->
        List.iter
          (fun (d : Design.t) ->
            List.iter
              (fun (name, r) ->
                Alcotest.check result (d.Design.name ^ " " ^ name) Sat.Unsat r)
              (exports d d.Design.rtl))
          [ Uart_tx.design; Decoder_8051.design ]);
    t "the export is SAT for the failing AXI Slave rd_burst property"
      (fun () ->
        let d = Axi_slave.design in
        let rtl =
          match Design.variant d (Some "rd_burst") with
          | Ok (_, rtl) -> rtl
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check bool)
          "some instruction's export is SAT" true
          (List.exists (fun (_, r) -> r = Sat.Sat) (exports d rtl)));
    t "a failure in the last obligation alone makes the export SAT"
      (fun () ->
        let open Ilv_core in
        let d = Uart_tx.design in
        let port = List.hd d.Design.module_ila.Module_ila.ports in
        let p =
          List.find
            (fun (p : Property.t) ->
              p.Property.instr.Ila.instr_name = "SEND")
            (Propgen.generate ~ila:port ~rtl:d.Design.rtl
               ~refmap:(d.Design.refmap_for d.Design.rtl port.Ila.name))
        in
        let obs = List.rev p.Property.obligations in
        Alcotest.(check bool) "SEND has many obligations" true
          (List.length obs > 2);
        let failing =
          { (List.hd obs) with guard = Build.bool true; goal = Build.bool false }
        in
        let p =
          { p with obligations = List.rev (failing :: List.tl obs) }
        in
        Alcotest.check result "SAT" Sat.Sat (export_agrees p));
  ]

let suite =
  [
    ("dimacs:unit", unit_tests);
    ("dimacs:props", prop_tests);
    ("dimacs:checker", checker_tests);
  ]
