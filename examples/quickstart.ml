(* Quickstart: specify, implement and verify a small hardware module.

   The module is a command-driven min/max tracker: it watches a stream
   of samples and keeps the smallest and largest value seen since the
   last reset command.  We
     1. write its ILA (the instruction-level spec),
     2. write an RTL implementation,
     3. connect them with a refinement map,
     4. let the tool generate and check the complete property set,
     5. break the implementation and look at the counterexample.

   Run with: dune exec examples/quickstart.exe *)

open Ilv_expr
open Ilv_rtl
open Ilv_core
open Build

(* ---------------------------------------------------------------- *)
(* 1. The specification: an ILA                                      *)
(*                                                                   *)
(* The command interface is (cmd, sample): cmd 1 = TRACK a sample,   *)
(* cmd 2 = RESET the bounds, anything else = NOP.  Architectural     *)
(* state: the running minimum and maximum.                           *)
(* ---------------------------------------------------------------- *)

let ila =
  let cmd = bv_var "cmd" 2 in
  let sample = bv_var "sample" 8 in
  let low = bv_var "low" 8 in
  let high = bv_var "high" 8 in
  Ila.make ~name:"MINMAX"
    ~inputs:[ ("cmd", Sort.bv 2); ("sample", Sort.bv 8) ]
    ~states:
      [
        Ila.state "low" (Sort.bv 8) ~init:(Value.of_int ~width:8 255) ();
        Ila.state "high" (Sort.bv 8) ();
      ]
    ~instructions:
      [
        Ila.instr "TRACK" ~decode:(eq_int cmd 1)
          ~updates:
            [
              ("low", ite (sample <: low) sample low);
              ("high", ite (sample >: high) sample high);
            ]
          ();
        Ila.instr "RESET" ~decode:(eq_int cmd 2)
          ~updates:[ ("low", bv ~width:8 255); ("high", bv ~width:8 0) ]
          ();
        Ila.instr "NOP"
          ~decode:(not_ (eq_int cmd 1) &&: not_ (eq_int cmd 2))
          ~updates:[] ();
      ]

(* ---------------------------------------------------------------- *)
(* 2. The implementation                                             *)
(*                                                                   *)
(* The RTL computes the comparisons through a shared subtractor      *)
(* (checking the borrow) instead of two comparators — a typical      *)
(* implementation trick the refinement check must see through.      *)
(* ---------------------------------------------------------------- *)

let rtl ~buggy =
  let cmd = bv_var "cmd" 2 in
  let sample = bv_var "sample" 8 in
  let low_q = bv_var "low_q" 8 in
  let high_q = bv_var "high_q" 8 in
  let borrow a b = bit (zext a 9 -: zext b 9) 8 in
  Rtl.make ~name:(if buggy then "minmax_buggy" else "minmax")
    ~inputs:[ ("cmd", Sort.bv 2); ("sample", Sort.bv 8) ]
    ~wires:
      [
        ("track", eq_int cmd 1);
        ("reset", eq_int cmd 2);
        ("below", borrow sample low_q);
        (* BUG in the buggy variant: >= instead of > keeps rewriting
           the maximum with equal samples — harmless — but the
           injected mistake swaps the operands, so the test is
           really "high < sample" computed as "sample < high". *)
        ( "above",
          if buggy then borrow sample high_q else borrow high_q sample );
      ]
    ~registers:
      [
        Rtl.reg "low_q" (Sort.bv 8)
          ~init:(Value.of_int ~width:8 255)
          (ite (bool_var "reset") (bv ~width:8 255)
             (ite (bool_var "track" &&: bool_var "below") sample low_q));
        Rtl.reg "high_q" (Sort.bv 8)
          (ite (bool_var "reset") (bv ~width:8 0)
             (ite (bool_var "track" &&: bool_var "above") sample high_q));
      ]
    ~outputs:[ "low_q"; "high_q" ]

(* ---------------------------------------------------------------- *)
(* 3. The refinement map                                             *)
(* ---------------------------------------------------------------- *)

let refmap rtl =
  Refmap.make ~ila ~rtl
    ~state_map:[ ("low", bv_var "low_q" 8); ("high", bv_var "high_q" 8) ]
    ~interface_map:
      [ ("cmd", bv_var "cmd" 2); ("sample", bv_var "sample" 8) ]
    ~instruction_maps:
      [
        Refmap.imap "TRACK" (Refmap.After_cycles 1);
        Refmap.imap "RESET" (Refmap.After_cycles 1);
        Refmap.imap "NOP" (Refmap.After_cycles 1);
      ]
    ()

(* ---------------------------------------------------------------- *)
(* 4. Verify                                                         *)
(* ---------------------------------------------------------------- *)

let verify rtl =
  let module_ila = Compose.union ~name:"MINMAX" [ ila ] in
  fst
    (Ilv_engine.Engine.verify ~name:"minmax" module_ila rtl
       ~refmap_for:(fun _ -> refmap rtl))

let () =
  Format.printf "The specification:@.@.%a@.@." Ila.pp_sketch ila;
  (* the decode functions cover every command and never overlap *)
  (match (Ila_check.coverage ila, Ila_check.determinism ila) with
  | Ila_check.Covered, Ila_check.Deterministic ->
    Format.printf "decode functions: complete and deterministic@.@."
  | _ -> Format.printf "decode functions: incomplete or ambiguous!@.@.");
  (* verify the good implementation: a complete set of properties is
     generated (one per instruction) and discharged *)
  let good = verify (rtl ~buggy:false) in
  Format.printf "%a@.@." Verify.pp_report good;
  (* now the broken one *)
  Format.printf "Injecting the swapped-comparison bug...@.@.";
  let bad = verify (rtl ~buggy:true) in
  Format.printf "%a@." Verify.pp_report bad;
  if Verify.proved good && not (Verify.proved bad) then
    Format.printf
      "@.quickstart complete: the good design proves, the bug is caught.@."
  else begin
    Format.printf "@.unexpected result!@.";
    exit 1
  end
