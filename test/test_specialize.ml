(* Tests for Property.specialize, the rewrite of a property under its
   literal assumptions that the checker applies to every obligation it
   solves: verdicts and counterexamples must be those of the property
   as generated, and the frozen key frame must not see it. *)

open Ilv_expr
open Ilv_core
open Ilv_designs
open Ilv_engine

let t name f = Alcotest.test_case name `Quick f

(* The property as generated, decided without specialization: one fresh
   solver per obligation over its assumptions, guard and negated goal.
   [true] when some obligation is satisfiable. *)
let fails_unspecialized (p : Property.t) =
  List.exists
    (fun (ob : Property.obligation) ->
      let ctx = Ilv_sat.Bitblast.create () in
      List.iter (Ilv_sat.Bitblast.assert_bool ctx) p.Property.assumptions;
      Ilv_sat.Bitblast.assert_bool ctx ob.Property.guard;
      Ilv_sat.Bitblast.assert_not ctx ob.Property.goal;
      match Ilv_sat.Bitblast.check_assuming ctx ~assumptions:[] with
      | Ilv_sat.Bitblast.Sat _ -> true
      | Ilv_sat.Bitblast.Unsat -> false
      | Ilv_sat.Bitblast.Unknown r -> Alcotest.failf "unbounded check: %s" r)
    p.Property.obligations

let decoder_properties () =
  let d = Decoder_8051.design in
  let port = List.hd d.Design.module_ila.Module_ila.ports in
  let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
  Propgen.generate ~ila:port ~rtl:d.Design.rtl ~refmap

(* A hand-made property over the Decoder's generated one: the given
   assumptions and one obligation per goal. *)
let with_formulas ~assumptions goals =
  let p = List.hd (decoder_properties ()) in
  {
    p with
    Property.prop_name = "hand-made";
    assumptions;
    obligations =
      List.mapi
        (fun i goal ->
          {
            Property.at_cycle = 0;
            guard = Build.tt;
            goal;
            label = Printf.sprintf "goal %d" i;
          })
        goals;
    ila_bindings = [];
  }

let verdict_class = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown r -> "unknown: " ^ r

(* both checking modes, each on the specialized encoding *)
let both_modes p =
  let fresh, _ = Checker.check p in
  let shared, _ = Checker.check_shared (Checker.prepare_shared [ p ]) 0 in
  [ ("fresh", fresh); ("incremental", shared) ]

let x = Build.bool_var "x"
let y = Build.bv_var "y" 4

(* ------------------------------------------------------------------ *)
(* Random Decoder-sized decodes                                        *)
(* ------------------------------------------------------------------ *)

(* One instruction over the Decoder's inputs and states, with a random
   decode and the updates of one of the Decoder's leaf instructions.
   Most decodes disagree with what the RTL does in that state, so the
   property fails; those that match it prove. *)
type case = { conjuncts : (string * Expr.t) list; updates_of : int }

let gen_case =
  let open QCheck.Gen in
  let wait = Build.bool_var "wait" in
  let step = Build.bv_var "step" 2 in
  let word_in = Build.bv_var "word_in" 8 in
  let current_word = Build.bv_var "current_word" 8 in
  let conjunct =
    oneof
      [
        return ("wait", wait);
        return ("!wait", Build.not_ wait);
        map
          (fun c -> (Printf.sprintf "step=%d" c, Build.eq_int step c))
          (0 -- 3);
        map
          (fun c -> (Printf.sprintf "word_in=%d" c, Build.eq_int word_in c))
          (0 -- 255);
        map
          (fun c ->
            (Printf.sprintf "current_word=%d" c, Build.eq_int current_word c))
          (0 -- 255);
        (* not literals: left for the solver *)
        map
          (fun k -> (Printf.sprintf "word_in[%d]" k, Build.bit word_in k))
          (0 -- 7);
        map
          (fun c ->
            ( Printf.sprintf "wait|step=%d" c,
              Build.( ||: ) wait (Build.eq_int step c) ))
          (0 -- 3);
      ]
  in
  map2
    (fun conjuncts updates_of -> { conjuncts; updates_of })
    (list_size (1 -- 4) conjunct)
    (0 -- 4)

let arb_case =
  QCheck.make
    ~print:(fun c ->
      Printf.sprintf "decode %s, updates of leaf %d"
        (String.concat " & " (List.map fst c.conjuncts))
        c.updates_of)
    gen_case

let random_design c =
  let ila = Decoder_8051.ila in
  let leaf = List.nth (Ila.leaf_instructions ila) c.updates_of in
  let ila =
    Ila.make ~name:ila.Ila.name ~inputs:ila.Ila.inputs ~states:ila.Ila.states
      ~instructions:
        [
          Ila.instr "random"
            ~decode:(Build.and_list (List.map snd c.conjuncts))
            ~updates:leaf.Ila.updates ();
        ]
  in
  let base = Decoder_8051.design.Design.refmap_for Decoder_8051.rtl "DECODER" in
  let refmap =
    Refmap.make ~ila ~rtl:Decoder_8051.rtl ~state_map:base.Refmap.state_map
      ~interface_map:base.Refmap.interface_map
      ~instruction_maps:[ Refmap.imap "random" (Refmap.After_cycles 1) ]
      ()
  in
  (ila, refmap)

let same_verdict_and_replay c =
  let ila, refmap = random_design c in
  let p =
    Propgen.generate_for ~ila ~rtl:Decoder_8051.rtl ~refmap
      (List.hd (Ila.leaf_instructions ila))
  in
  let expected = if fails_unspecialized p then "failed" else "proved" in
  List.for_all
    (fun (mode, v) ->
      if verdict_class v <> expected then
        QCheck.Test.fail_reportf "%s: %s, unspecialized %s" mode
          (verdict_class v) expected;
      match v with
      | Checker.Failed trace -> (
        match Replay.confirm ~ila ~rtl:Decoder_8051.rtl ~refmap trace with
        | Replay.Confirmed _ -> true
        | Replay.Not_reproduced ->
          QCheck.Test.fail_reportf "%s: the trace does not reproduce" mode
        | Replay.Inapplicable r ->
          QCheck.Test.fail_reportf "%s: the trace is inapplicable: %s" mode r)
      | Checker.Proved | Checker.Unknown _ -> true)
    (both_modes p)

let property_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~count:80
         ~name:
           "random decodes: same verdict as unspecialized, every failure \
            replays"
         arb_case same_verdict_and_replay);
  ]

(* ------------------------------------------------------------------ *)
(* Edge cases                                                          *)
(* ------------------------------------------------------------------ *)

let edge_tests =
  [
    t "a goal equal to a collected fact still proves" (fun () ->
        let fact = Build.( &&: ) x (Build.eq_int y 3) in
        let p =
          with_formulas ~assumptions:[ fact ] [ x; Build.eq_int y 3; fact ]
        in
        let sp = Property.specialize p in
        List.iter
          (fun (ob : Property.obligation) ->
            Alcotest.(check bool)
              (ob.Property.label ^ " rewritten to true")
              true
              (Expr.equal ob.Property.goal Build.tt))
          sp.Property.obligations;
        (* the facts stay asserted, one assumption each *)
        Alcotest.(check int)
          "facts asserted" 2
          (List.length sp.Property.assumptions);
        Alcotest.(check bool) "proves unspecialized" false
          (fails_unspecialized p);
        List.iter
          (fun (mode, v) ->
            Alcotest.(check string) mode "proved" (verdict_class v))
          (both_modes p));
    t "contradictory facts prove in both forms" (fun () ->
        List.iter
          (fun (what, assumptions) ->
            let p = with_formulas ~assumptions [ Build.ff ] in
            Alcotest.(check bool)
              (what ^ ": proves unspecialized")
              false (fails_unspecialized p);
            Alcotest.(check bool)
              (what ^ ": a false assumption after specialization")
              true
              (List.exists
                 (fun a -> Expr.equal a Build.ff)
                 (Property.specialize p).Property.assumptions);
            List.iter
              (fun (mode, v) ->
                Alcotest.(check string) (what ^ ", " ^ mode) "proved"
                  (verdict_class v))
              (both_modes p))
          [
            ("x & !x", [ Build.( &&: ) x (Build.not_ x) ]);
            ("x, !x", [ x; Build.not_ x ]);
            ("y=3, y=4", [ Build.eq_int y 3; Build.eq_int y 4 ]);
          ]);
    t "a rewrite that exposes a literal is folded too" (fun () ->
        (* x makes the ite a literal over y, which the second round
           collects *)
        let p =
          with_formulas
            ~assumptions:
              [ x; Build.ite x (Build.eq_int y 5) (Build.eq_int y 6) ]
            [ Build.eq_int y 5 ]
        in
        let sp = Property.specialize p in
        let goal = (List.hd sp.Property.obligations).Property.goal in
        Alcotest.(check bool)
          "goal rewritten to true" true
          (Expr.equal goal Build.tt));
    t "a property without literal assumptions is left as it is" (fun () ->
        let p =
          with_formulas
            ~assumptions:[ Build.( ||: ) x (Build.eq_int y 1) ]
            [ x ]
        in
        Alcotest.(check bool)
          "physically equal" true
          (Property.specialize p == p));
  ]

(* ------------------------------------------------------------------ *)
(* Key frames                                                          *)
(* ------------------------------------------------------------------ *)

let frame_tests =
  [
    t "the frozen frame's digest and selectors ignore the specialization"
      (fun () ->
        let props = decoder_properties () in
        let frame sh =
          ( Proof_cache.frame_digest (Checker.shared_cnf sh),
            List.mapi (fun i _ -> Checker.shared_frame_selectors sh i) props )
        in
        let unsolved = frame (Checker.prepare_shared props) in
        (* solving encodes every property specialized into the live
           context before the freeze *)
        let solved = Checker.prepare_shared props in
        List.iteri
          (fun i _ ->
            Alcotest.(check string)
              "proved" "proved"
              (verdict_class (fst (Checker.check_shared solved i))))
          props;
        Alcotest.(check bool) "digest and selectors unchanged" true
          (frame solved = unsolved);
        (* not vacuous: a frame of the specialized properties differs *)
        let specialized =
          frame (Checker.prepare_shared (List.map Property.specialize props))
        in
        Alcotest.(check bool) "a specialized frame would move the key" true
          (fst specialized <> fst unsolved));
  ]

let suite =
  [
    ("specialize:random", property_tests);
    ("specialize:edges", edge_tests);
    ("specialize:frame", frame_tests);
  ]
