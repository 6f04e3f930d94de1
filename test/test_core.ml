(* Tests for the core ILA methodology: model validation, instruction
   simulation, decode coverage/determinism, composition (union and
   cross-product integration with conflict resolution), refinement maps,
   property generation and end-to-end refinement checking. *)

open Ilv_expr
open Ilv_rtl
open Ilv_core

let t name f = Alcotest.test_case name `Quick f

(* ---------- a tiny single-port accumulator ---------- *)

(* Commands: cmd=1 ADD operand, cmd=2 CLEAR, anything else NOP. *)
let acc_ila =
  let open Build in
  let cmd = bv_var "cmd" 2 and operand = bv_var "operand" 8 in
  let acc = bv_var "acc" 8 in
  Ila.make ~name:"ACC"
    ~inputs:[ ("cmd", Sort.bv 2); ("operand", Sort.bv 8) ]
    ~states:[ Ila.state "acc" (Sort.bv 8) () ]
    ~instructions:
      [
        Ila.instr "ADD" ~decode:(eq_int cmd 1)
          ~updates:[ ("acc", acc +: operand) ]
          ();
        Ila.instr "CLEAR" ~decode:(eq_int cmd 2)
          ~updates:[ ("acc", bv ~width:8 0) ]
          ();
        Ila.instr "NOP"
          ~decode:(not_ (eq_int cmd 1) &&: not_ (eq_int cmd 2))
          ~updates:[] ();
      ]

(* Single-cycle implementation. *)
let acc_rtl =
  let open Build in
  let cmd = bv_var "cmd" 2 and operand = bv_var "operand" 8 in
  let acc = bv_var "acc_q" 8 in
  Rtl.make ~name:"acc_rtl"
    ~inputs:[ ("cmd", Sort.bv 2); ("operand", Sort.bv 8) ]
    ~registers:
      [
        Rtl.reg "acc_q" (Sort.bv 8)
          (ite (eq_int cmd 1) (acc +: operand)
             (ite (eq_int cmd 2) (bv ~width:8 0) acc));
      ]
    ~wires:[] ~outputs:[ "acc_q" ]

(* Buggy implementation: CLEAR sets 1 instead of 0. *)
let acc_rtl_buggy =
  let open Build in
  let cmd = bv_var "cmd" 2 and operand = bv_var "operand" 8 in
  let acc = bv_var "acc_q" 8 in
  Rtl.make ~name:"acc_rtl_buggy"
    ~inputs:[ ("cmd", Sort.bv 2); ("operand", Sort.bv 8) ]
    ~registers:
      [
        Rtl.reg "acc_q" (Sort.bv 8)
          (ite (eq_int cmd 1) (acc +: operand)
             (ite (eq_int cmd 2) (bv ~width:8 1) acc));
      ]
    ~wires:[] ~outputs:[ "acc_q" ]

let acc_refmap rtl =
  Refmap.make ~ila:acc_ila ~rtl
    ~state_map:[ ("acc", Build.bv_var "acc_q" 8) ]
    ~interface_map:
      [ ("cmd", Build.bv_var "cmd" 2); ("operand", Build.bv_var "operand" 8) ]
    ~instruction_maps:
      [
        Refmap.imap "ADD" (Refmap.After_cycles 1);
        Refmap.imap "CLEAR" (Refmap.After_cycles 1);
        Refmap.imap "NOP" (Refmap.After_cycles 1);
      ]
    ()

(* ---------- a two-cycle implementation of the same ILA ---------- *)

(* ADD takes two cycles: latch the operand, then accumulate.  While
   busy, new commands are ignored, so the architectural update is
   visible two cycles after an accepted ADD. *)
let slow_rtl =
  let open Build in
  let cmd = bv_var "cmd" 2 and operand = bv_var "operand" 8 in
  let busy = bool_var "busy" in
  let acc = bv_var "acc_q" 8 and latched = bv_var "latched" 8 in
  let accept_add = eq_int cmd 1 &&: not_ busy in
  let accept_clear = eq_int cmd 2 &&: not_ busy in
  Rtl.make ~name:"acc_rtl_slow"
    ~inputs:[ ("cmd", Sort.bv 2); ("operand", Sort.bv 8) ]
    ~registers:
      [
        Rtl.reg "busy" Sort.bool (ite busy ff accept_add);
        Rtl.reg "latched" (Sort.bv 8) (ite accept_add operand latched);
        Rtl.reg "acc_q" (Sort.bv 8)
          (ite busy (acc +: latched) (ite accept_clear (bv ~width:8 0) acc));
      ]
    ~wires:[] ~outputs:[ "acc_q" ]

let slow_refmap ~use_within =
  let open Build in
  let not_busy = not_ (bool_var "busy") in
  let add_finish =
    if use_within then
      (* finish at the first cycle where busy has fallen again *)
      Refmap.Within { bound = 3; condition = not_ (bool_var "busy") }
    else Refmap.After_cycles 2
  in
  Refmap.make ~ila:acc_ila ~rtl:slow_rtl
    ~state_map:[ ("acc", bv_var "acc_q" 8) ]
    ~interface_map:
      [ ("cmd", bv_var "cmd" 2); ("operand", bv_var "operand" 8) ]
    ~instruction_maps:
      [
        Refmap.imap "ADD" ~start:not_busy add_finish;
        Refmap.imap "CLEAR" ~start:not_busy (Refmap.After_cycles 1);
        Refmap.imap "NOP" ~start:not_busy (Refmap.After_cycles 1);
      ]
    ()

let module_of ila = Compose.union ~name:"m" [ ila ]

let verify ?stop ila rtl refmap =
  fst
    (Ilv_engine.Engine.verify ?stop_at_first_failure:stop ~name:"test"
       (module_of ila) rtl
       ~refmap_for:(fun _ -> refmap))

(* ---------- ILA model tests ---------- *)

let ila_tests =
  [
    t "validation: decode must be boolean" (fun () ->
        try
          ignore
            (Ila.make ~name:"bad" ~inputs:[]
               ~states:[ Ila.state "s" (Sort.bv 4) () ]
               ~instructions:
                 [
                   Ila.instr "i" ~decode:(Build.bv ~width:4 0) ~updates:[] ();
                 ]);
          Alcotest.fail "expected Invalid_ila"
        with Ila.Invalid_ila _ -> ());
    t "validation: update of unknown state" (fun () ->
        try
          ignore
            (Ila.make ~name:"bad" ~inputs:[] ~states:[]
               ~instructions:
                 [
                   Ila.instr "i" ~decode:Build.tt
                     ~updates:[ ("ghost", Build.bv ~width:4 0) ]
                     ();
                 ]);
          Alcotest.fail "expected Invalid_ila"
        with Ila.Invalid_ila _ -> ());
    t "validation: update sort mismatch" (fun () ->
        try
          ignore
            (Ila.make ~name:"bad" ~inputs:[]
               ~states:[ Ila.state "s" (Sort.bv 4) () ]
               ~instructions:
                 [
                   Ila.instr "i" ~decode:Build.tt
                     ~updates:[ ("s", Build.bv ~width:8 0) ]
                     ();
                 ]);
          Alcotest.fail "expected Invalid_ila"
        with Ila.Invalid_ila _ -> ());
    t "validation: unknown sub-instruction parent" (fun () ->
        try
          ignore
            (Ila.make ~name:"bad" ~inputs:[] ~states:[]
               ~instructions:
                 [ Ila.instr "i" ~parent:"nope" ~decode:Build.tt ~updates:[] () ]);
          Alcotest.fail "expected Invalid_ila"
        with Ila.Invalid_ila _ -> ());
    t "leaf instructions exclude parents with children" (fun () ->
        let ila =
          Ila.make ~name:"multi" ~inputs:[]
            ~states:[ Ila.state "step" (Sort.bv 2) ~kind:Ila.Internal () ]
            ~instructions:
              [
                Ila.instr "process" ~decode:Build.tt ~updates:[] ();
                Ila.instr "process-s0" ~parent:"process"
                  ~decode:(Build.eq_int (Build.bv_var "step" 2) 0)
                  ~updates:[] ();
                Ila.instr "process-s1" ~parent:"process"
                  ~decode:(Build.eq_int (Build.bv_var "step" 2) 1)
                  ~updates:[] ();
              ]
        in
        Alcotest.(check (list string))
          "leaves"
          [ "process-s0"; "process-s1" ]
          (List.map
             (fun i -> i.Ila.instr_name)
             (Ila.leaf_instructions ila)));
    t "next_state_fn completes unchanged states" (fun () ->
        let add =
          match Ila.find_instruction acc_ila "NOP" with
          | Some i -> i
          | None -> Alcotest.fail "NOP not found"
        in
        let next = Ila.next_state_fn acc_ila add in
        Alcotest.(check int) "all states" 1 (List.length next);
        let _, e = List.hd next in
        Alcotest.(check string) "identity" "acc" (Pp_expr.to_string e));
    t "state bits" (fun () ->
        Alcotest.(check int) "bits" 8 (Ila.state_bits acc_ila));
  ]

(* ---------- ILA simulation ---------- *)

let cmdv c op =
  [ ("cmd", Value.of_int ~width:2 c); ("operand", Value.of_int ~width:8 op) ]

let sim_tests =
  [
    t "accumulator executes its instructions" (fun () ->
        let sim = Ila_sim.create acc_ila in
        Alcotest.(check int) "init" 0 (Value.to_int (Ila_sim.state sim "acc"));
        (match Ila_sim.step sim (cmdv 1 7) with
        | Ila_sim.Stepped "ADD" -> ()
        | _ -> Alcotest.fail "expected ADD");
        Alcotest.(check int) "acc" 7 (Value.to_int (Ila_sim.state sim "acc"));
        ignore (Ila_sim.step sim (cmdv 1 5));
        Alcotest.(check int) "acc" 12 (Value.to_int (Ila_sim.state sim "acc"));
        (match Ila_sim.step sim (cmdv 2 0) with
        | Ila_sim.Stepped "CLEAR" -> ()
        | _ -> Alcotest.fail "expected CLEAR");
        Alcotest.(check int) "cleared" 0
          (Value.to_int (Ila_sim.state sim "acc")));
    t "nop leaves state unchanged" (fun () ->
        let sim = Ila_sim.create acc_ila in
        ignore (Ila_sim.step sim (cmdv 1 9));
        (match Ila_sim.step sim (cmdv 0 99) with
        | Ila_sim.Stepped "NOP" -> ()
        | _ -> Alcotest.fail "expected NOP");
        Alcotest.(check int) "unchanged" 9
          (Value.to_int (Ila_sim.state sim "acc")));
    t "triggered lists hot decodes" (fun () ->
        let sim = Ila_sim.create acc_ila in
        Alcotest.(check (list string)) "add" [ "ADD" ]
          (Ila_sim.triggered sim (cmdv 1 0)));
  ]

(* ---------- decode coverage and determinism ---------- *)

let check_tests =
  [
    t "accumulator decodes are covered and deterministic" (fun () ->
        (match Ila_check.coverage acc_ila with
        | Ila_check.Covered -> ()
        | Ila_check.Uncovered _ -> Alcotest.fail "expected coverage");
        match Ila_check.determinism acc_ila with
        | Ila_check.Deterministic -> ()
        | Ila_check.Overlap _ -> Alcotest.fail "expected determinism");
    t "missing command is reported with a witness" (fun () ->
        let partial =
          Ila.make ~name:"partial"
            ~inputs:[ ("cmd", Sort.bv 2) ]
            ~states:[]
            ~instructions:
              [
                Ila.instr "ONLY1"
                  ~decode:(Build.eq_int (Build.bv_var "cmd" 2) 1)
                  ~updates:[] ();
              ]
        in
        match Ila_check.coverage partial with
        | Ila_check.Covered -> Alcotest.fail "expected a gap"
        | Ila_check.Uncovered witness ->
          let v = Value.to_int (witness "cmd" (Sort.bv 2)) in
          Alcotest.(check bool) "cmd not 1" true (v <> 1));
    t "overlapping decodes are reported" (fun () ->
        let overlapping =
          Ila.make ~name:"overlap"
            ~inputs:[ ("cmd", Sort.bv 2) ]
            ~states:[]
            ~instructions:
              [
                Ila.instr "LOW"
                  ~decode:Build.(bv_var "cmd" 2 <=: bv ~width:2 1)
                  ~updates:[] ();
                Ila.instr "ZERO"
                  ~decode:(Build.eq_int (Build.bv_var "cmd" 2) 0)
                  ~updates:[] ();
              ]
        in
        match Ila_check.determinism overlapping with
        | Ila_check.Deterministic -> Alcotest.fail "expected overlap"
        | Ila_check.Overlap { witness; _ } ->
          Alcotest.(check int) "cmd=0" 0
            (Value.to_int (witness "cmd" (Sort.bv 2))));
    t "assumptions can restrict the command space" (fun () ->
        let partial =
          Ila.make ~name:"partial"
            ~inputs:[ ("cmd", Sort.bv 2) ]
            ~states:[]
            ~instructions:
              [
                Ila.instr "ONLY1"
                  ~decode:(Build.eq_int (Build.bv_var "cmd" 2) 1)
                  ~updates:[] ();
              ]
        in
        match
          Ila_check.coverage
            ~assuming:[ Build.eq_int (Build.bv_var "cmd" 2) 1 ]
            partial
        with
        | Ila_check.Covered -> ()
        | Ila_check.Uncovered _ -> Alcotest.fail "expected coverage");
  ]

(* ---------- composition ---------- *)

(* Two ports sharing a wait flag, as in the 8051 memory interface:
   REQ sets it to 1, IDLE sets it to 0, and the spec says 1 wins. *)
let port name prefix =
  let open Build in
  let req = bool_var (prefix ^ "_req") in
  Ila.make ~name
    ~inputs:[ (prefix ^ "_req", Sort.bool) ]
    ~states:
      [
        Ila.state (prefix ^ "_addr") (Sort.bv 4) ();
        Ila.state "wait_flag" (Sort.bv 1) ~kind:Ila.Internal ();
      ]
    ~instructions:
      [
        Ila.instr (String.uppercase_ascii prefix ^ "_REQ") ~decode:req
          ~updates:
            [
              ( prefix ^ "_addr",
                add_int (bv_var (prefix ^ "_addr") 4) 1 );
              ("wait_flag", bv ~width:1 1);
            ]
          ();
        Ila.instr
          (String.uppercase_ascii prefix ^ "_IDLE")
          ~decode:(not_ req)
          ~updates:[ ("wait_flag", bv ~width:1 0) ]
          ();
      ]

let compose_tests =
  [
    t "union of independent ports" (fun () ->
        let a =
          Ila.make ~name:"A"
            ~inputs:[ ("x", Sort.bool) ]
            ~states:[ Ila.state "sa" Sort.bool () ]
            ~instructions:[ Ila.instr "IA" ~decode:Build.tt ~updates:[] () ]
        in
        let b =
          Ila.make ~name:"B"
            ~inputs:[ ("y", Sort.bool) ]
            ~states:[ Ila.state "sb" Sort.bool () ]
            ~instructions:[ Ila.instr "IB" ~decode:Build.tt ~updates:[] () ]
        in
        let m = Compose.union ~name:"AB" [ a; b ] in
        Alcotest.(check int) "ports" 2 (Module_ila.n_ports m);
        Alcotest.(check int) "instrs" 2 (Module_ila.total_instructions m));
    t "union rejects shared state" (fun () ->
        let rom = port "ROM" "rom" and ram = port "RAM" "ram" in
        try
          ignore (Compose.union ~name:"bad" [ rom; ram ]);
          Alcotest.fail "expected Not_independent"
        with Module_ila.Not_independent _ -> ());
    t "shared_states finds the overlap" (fun () ->
        let rom = port "ROM" "rom" and ram = port "RAM" "ram" in
        Alcotest.(check (list string))
          "shared" [ "wait_flag" ]
          (Compose.shared_states rom ram));
    t "integration without resolver flags the gap" (fun () ->
        let rom = port "ROM" "rom" and ram = port "RAM" "ram" in
        match Compose.integrate ~name:"ROM-RAM" [ rom; ram ] with
        | Ok _ -> Alcotest.fail "expected gaps"
        | Error gaps ->
          Alcotest.(check bool) "some gaps" true (List.length gaps > 0);
          List.iter
            (fun (g : Compose.gap) ->
              Alcotest.(check string) "state" "wait_flag" g.Compose.state)
            gaps);
    t "integration with value priority resolves" (fun () ->
        let rom = port "ROM" "rom" and ram = port "RAM" "ram" in
        match
          Compose.integrate ~name:"ROM-RAM"
            ~resolve:(Compose.Resolve.priority_value (Value.of_int ~width:1 1))
            [ rom; ram ]
        with
        | Error _ -> Alcotest.fail "expected resolution"
        | Ok integrated ->
          (* 2 x 2 cross product *)
          Alcotest.(check int) "instructions" 4
            (List.length integrated.Ila.instructions);
          (* the conflicting combination REQ & IDLE must update to 1 *)
          let sim = Ila_sim.create integrated in
          (match
             Ila_sim.step sim
               [
                 ("rom_req", Value.of_bool true);
                 ("ram_req", Value.of_bool false);
               ]
           with
          | Ila_sim.Stepped name ->
            Alcotest.(check string) "name" "ROM_REQ & RAM_IDLE" name
          | _ -> Alcotest.fail "expected a step");
          Alcotest.(check int) "wait wins" 1
            (Value.to_int (Ila_sim.state sim "wait_flag")));
    t "integrated decode is the conjunction" (fun () ->
        let rom = port "ROM" "rom" and ram = port "RAM" "ram" in
        match
          Compose.integrate ~name:"ROM-RAM"
            ~resolve:(Compose.Resolve.priority_value (Value.of_int ~width:1 1))
            [ rom; ram ]
        with
        | Error _ -> Alcotest.fail "unexpected gaps"
        | Ok integrated -> (
          match Ila_check.determinism integrated with
          | Ila_check.Deterministic -> ()
          | Ila_check.Overlap _ -> Alcotest.fail "cross product must stay deterministic"));
    t "port priority resolver" (fun () ->
        let rom = port "ROM" "rom" and ram = port "RAM" "ram" in
        match
          Compose.integrate ~name:"ROM-RAM"
            ~resolve:(Compose.Resolve.port_priority [ "RAM"; "ROM" ])
            [ rom; ram ]
        with
        | Error _ -> Alcotest.fail "expected resolution"
        | Ok integrated ->
          let sim = Ila_sim.create integrated in
          (* ROM_REQ wants 1, RAM_IDLE wants 0; RAM has priority *)
          ignore
            (Ila_sim.step sim
               [
                 ("rom_req", Value.of_bool true);
                 ("ram_req", Value.of_bool false);
               ]);
          Alcotest.(check int) "ram wins" 0
            (Value.to_int (Ila_sim.state sim "wait_flag")));
    t "agreeing updates do not conflict" (fun () ->
        (* both ports write the same expression: no resolver needed *)
        let mk name =
          Ila.make ~name
            ~inputs:[ (String.lowercase_ascii name ^ "_go", Sort.bool) ]
            ~states:[ Ila.state "shared" (Sort.bv 1) ~kind:Ila.Internal () ]
            ~instructions:
              [
                Ila.instr (name ^ "_SET")
                  ~decode:(Build.bool_var (String.lowercase_ascii name ^ "_go"))
                  ~updates:[ ("shared", Build.bv ~width:1 1) ]
                  ();
                Ila.instr (name ^ "_OFF")
                  ~decode:
                    (Build.not_
                       (Build.bool_var (String.lowercase_ascii name ^ "_go")))
                  ~updates:[] ();
              ]
        in
        match Compose.integrate ~name:"X-Y" [ mk "X"; mk "Y" ] with
        | Ok integrated ->
          Alcotest.(check int) "instructions" 4
            (List.length integrated.Ila.instructions)
        | Error _ -> Alcotest.fail "agreement should not be a gap");
  ]

(* ---------- refinement map validation ---------- *)

let refmap_tests =
  [
    t "valid map builds" (fun () -> ignore (acc_refmap acc_rtl));
    t "missing state mapping rejected" (fun () ->
        try
          ignore
            (Refmap.make ~ila:acc_ila ~rtl:acc_rtl ~state_map:[]
               ~interface_map:
                 [
                   ("cmd", Build.bv_var "cmd" 2);
                   ("operand", Build.bv_var "operand" 8);
                 ]
               ~instruction_maps:[] ());
          Alcotest.fail "expected Invalid_refmap"
        with Refmap.Invalid_refmap _ -> ());
    t "ill-sorted state mapping rejected" (fun () ->
        try
          ignore
            (Refmap.make ~ila:acc_ila ~rtl:acc_rtl
               ~state_map:[ ("acc", Build.bv_var "cmd" 2) ]
               ~interface_map:
                 [
                   ("cmd", Build.bv_var "cmd" 2);
                   ("operand", Build.bv_var "operand" 8);
                 ]
               ~instruction_maps:[] ());
          Alcotest.fail "expected Invalid_refmap"
        with Refmap.Invalid_refmap _ -> ());
    t "missing instruction map rejected" (fun () ->
        try
          ignore
            (Refmap.make ~ila:acc_ila ~rtl:acc_rtl
               ~state_map:[ ("acc", Build.bv_var "acc_q" 8) ]
               ~interface_map:
                 [
                   ("cmd", Build.bv_var "cmd" 2);
                   ("operand", Build.bv_var "operand" 8);
                 ]
               ~instruction_maps:[ Refmap.imap "ADD" (Refmap.After_cycles 1) ]
               ());
          Alcotest.fail "expected Invalid_refmap"
        with Refmap.Invalid_refmap _ -> ());
    t "unknown RTL name rejected" (fun () ->
        try
          ignore
            (Refmap.make ~ila:acc_ila ~rtl:acc_rtl
               ~state_map:[ ("acc", Build.bv_var "ghost" 8) ]
               ~interface_map:
                 [
                   ("cmd", Build.bv_var "cmd" 2);
                   ("operand", Build.bv_var "operand" 8);
                 ]
               ~instruction_maps:
                 [
                   Refmap.imap "ADD" (Refmap.After_cycles 1);
                   Refmap.imap "CLEAR" (Refmap.After_cycles 1);
                   Refmap.imap "NOP" (Refmap.After_cycles 1);
                 ]
               ());
          Alcotest.fail "expected Invalid_refmap"
        with Refmap.Invalid_refmap _ -> ());
    t "refmap loc is positive" (fun () ->
        Alcotest.(check bool) "loc" true (Refmap.loc (acc_refmap acc_rtl) > 0));
  ]

(* ---------- property generation ---------- *)

let propgen_tests =
  [
    t "one property per leaf instruction" (fun () ->
        let props =
          Propgen.generate ~ila:acc_ila ~rtl:acc_rtl ~refmap:(acc_refmap acc_rtl)
        in
        Alcotest.(check (list string))
          "names"
          [ "ACC:ADD"; "ACC:CLEAR"; "ACC:NOP" ]
          (List.map (fun p -> p.Property.prop_name) props));
    t "After_cycles yields a single obligation" (fun () ->
        let p =
          Propgen.generate_for ~ila:acc_ila ~rtl:acc_rtl
            ~refmap:(acc_refmap acc_rtl)
            (Option.get (Ila.find_instruction acc_ila "ADD"))
        in
        Alcotest.(check int) "obligations" 1 (List.length p.Property.obligations);
        Alcotest.(check int) "cycles" 1 p.Property.n_cycles);
    t "Within yields per-cycle obligations plus termination" (fun () ->
        let p =
          Propgen.generate_for ~ila:acc_ila ~rtl:slow_rtl
            ~refmap:(slow_refmap ~use_within:true)
            (Option.get (Ila.find_instruction acc_ila "ADD"))
        in
        Alcotest.(check int) "obligations" 4 (List.length p.Property.obligations));
    t "property pretty-prints" (fun () ->
        let p =
          Propgen.generate_for ~ila:acc_ila ~rtl:acc_rtl
            ~refmap:(acc_refmap acc_rtl)
            (Option.get (Ila.find_instruction acc_ila "ADD"))
        in
        let s = Format.asprintf "%a" Property.pp p in
        Alcotest.(check bool) "mentions instr" true
          (String.length s > 0));
  ]

(* A port's shared generator reuses one unrolling and its memos; it
   must give exactly the one-shot properties, in any call order.
   Expressions are hash-consed, so "the same" is physical equality. *)
let same_property (a : Property.t) (b : Property.t) =
  let same_list xs ys =
    List.length xs = List.length ys && List.for_all2 ( == ) xs ys
  in
  a.Property.prop_name = b.Property.prop_name
  && same_list a.Property.assumptions b.Property.assumptions
  && same_list
       (List.map snd a.Property.ila_bindings)
       (List.map snd b.Property.ila_bindings)
  && List.length a.Property.obligations = List.length b.Property.obligations
  && List.for_all2
       (fun (o : Property.obligation) (o' : Property.obligation) ->
         o.Property.guard == o'.Property.guard
         && o.Property.goal == o'.Property.goal
         && o.Property.at_cycle = o'.Property.at_cycle)
       a.Property.obligations b.Property.obligations

let mentions_missing_map msg =
  let needle = "no instruction map" in
  let n = String.length needle in
  let rec at i =
    i + n <= String.length msg && (String.sub msg i n = needle || at (i + 1))
  in
  at 0

(* [d]'s refinement maps, with the entry of instruction [victim] of
   port [port] left out *)
let refmap_without (d : Ilv_designs.Design.t) ~port ~victim name =
  let r = d.Ilv_designs.Design.refmap_for d.Ilv_designs.Design.rtl name in
  if name <> port then r
  else
    {
      r with
      Refmap.instruction_maps =
        List.filter
          (fun (m : Refmap.instr_map) -> m.Refmap.instr <> victim)
          r.Refmap.instruction_maps;
    }

let propgen_sharing_tests =
  let open Ilv_designs in
  let open Ilv_engine in
  [
    t "a shared generator gives the one-shot properties in any order"
      (fun () ->
        List.iter
          (fun (d : Design.t) ->
            List.iter
              (fun (port : Ila.t) ->
                let rtl = d.Design.rtl in
                let refmap = d.Design.refmap_for rtl port.Ila.name in
                let instrs = Ila.leaf_instructions port in
                let one_shot =
                  List.map (Propgen.generate_for ~ila:port ~rtl ~refmap) instrs
                in
                let forward =
                  List.map (Propgen.generator ~ila:port ~rtl ~refmap) instrs
                in
                let reverse =
                  (* rev_map calls the generator on the last instruction
                     first *)
                  List.rev_map
                    (Propgen.generator ~ila:port ~rtl ~refmap)
                    (List.rev instrs)
                in
                List.iteri
                  (fun k p ->
                    let what order =
                      Printf.sprintf "%s %s (%s order)" d.Design.name
                        p.Property.prop_name order
                    in
                    Alcotest.(check bool)
                      (what "forward") true
                      (same_property p (List.nth forward k));
                    Alcotest.(check bool)
                      (what "reverse") true
                      (same_property p (List.nth reverse k)))
                  one_shot)
              d.Design.module_ila.Module_ila.ports)
          Catalog.quick);
    t "an instruction without a map entry fails only its own job" (fun () ->
        let d = Decoder_8051.design in
        let port = List.hd d.Design.module_ila.Module_ila.ports in
        let instrs =
          List.map (fun (i : Ila.instruction) -> i.Ila.instr_name)
            (Ila.leaf_instructions port)
        in
        Alcotest.(check bool)
          "several instructions" true
          (List.length instrs > 2);
        List.iter
          (fun victim ->
            let refmap_for =
              refmap_without d ~port:port.Ila.name ~victim
            in
            (* the engine: one lazy generator for the port's jobs *)
            let results, summary =
              Engine.run ~jobs:1
                (Engine.jobs_of ~name:d.Design.name d.Design.module_ila
                   d.Design.rtl ~refmap_for ())
            in
            Alcotest.(check int)
              (victim ^ ": one error")
              1 summary.Engine.n_errors;
            List.iter
              (fun (r : Engine.result) ->
                let failed_alone =
                  match r.Engine.verdict with
                  | Checker.Proved -> r.Engine.r_instr <> victim
                  | Checker.Unknown msg ->
                    r.Engine.r_instr = victim
                    && r.Engine.backend = "error"
                    && mentions_missing_map msg
                  | Checker.Failed _ -> false
                in
                Alcotest.(check bool)
                  (Printf.sprintf "engine, %s missing: %s" victim
                     r.Engine.r_instr)
                  true failed_alone)
              results;
            (* Verify.prepare_port: one generator for the port *)
            let pr =
              Verify.prepare_port ~name:d.Design.name ~port ~rtl:d.Design.rtl
                ~refmap:(refmap_for port.Ila.name) ()
            in
            List.iter
              (fun instr ->
                let ok =
                  match Verify.prepared_slot pr instr with
                  | Ok _ -> instr <> victim
                  | Error msg ->
                    instr = victim
                    && mentions_missing_map msg
                in
                Alcotest.(check bool)
                  (Printf.sprintf "prepare_port, %s missing: %s" victim instr)
                  true ok)
              instrs)
          [ List.hd instrs; List.nth instrs (List.length instrs / 2) ]);
  ]

(* ---------- end-to-end refinement checking ---------- *)

let e2e_tests =
  [
    t "single-cycle accumulator is verified" (fun () ->
        let report = verify acc_ila acc_rtl (acc_refmap acc_rtl) in
        Alcotest.(check bool) "proved" true (Verify.proved report));
    t "buggy CLEAR is caught with a counterexample" (fun () ->
        let report = verify acc_ila acc_rtl_buggy (acc_refmap acc_rtl_buggy) in
        Alcotest.(check bool) "failed" false (Verify.proved report);
        match report.Verify.first_failure with
        | Some { instr = "CLEAR"; verdict = Checker.Failed trace; _ } ->
          (* the trace must assign the CLEAR command *)
          let cmd = List.assoc "cmd" trace.Trace.ila_vars in
          Alcotest.(check int) "cmd=2" 2 (Value.to_int cmd)
        | Some { instr; _ } -> Alcotest.failf "wrong instruction %s" instr
        | None -> Alcotest.fail "expected a failure");
    t "ADD and NOP still hold in the buggy design" (fun () ->
        let report =
          verify ~stop:false acc_ila acc_rtl_buggy (acc_refmap acc_rtl_buggy)
        in
        List.iter
          (fun p ->
            List.iter
              (fun (ir : Verify.instr_result) ->
                let expected_fail = ir.Verify.instr = "CLEAR" in
                match ir.Verify.verdict with
                | Checker.Proved ->
                  if expected_fail then Alcotest.fail "CLEAR should fail"
                | Checker.Failed _ ->
                  if not expected_fail then
                    Alcotest.failf "%s should hold" ir.Verify.instr
                | Checker.Unknown reason ->
                  Alcotest.failf "%s unknown: %s" ir.Verify.instr reason)
              p.Verify.instr_results)
          report.Verify.ports);
    t "two-cycle implementation verified with After_cycles" (fun () ->
        let report = verify acc_ila slow_rtl (slow_refmap ~use_within:false) in
        Alcotest.(check bool) "proved" true (Verify.proved report));
    t "two-cycle implementation verified with Within finish" (fun () ->
        let report = verify acc_ila slow_rtl (slow_refmap ~use_within:true) in
        Alcotest.(check bool) "proved" true (Verify.proved report));
    t "integrated shared-state module verifies end to end" (fun () ->
        (* RTL implementing the two REQ/IDLE ports with the priority rule *)
        let open Build in
        let rom_req = bool_var "rom_req" and ram_req = bool_var "ram_req" in
        let rtl =
          Rtl.make ~name:"waitctl"
            ~inputs:[ ("rom_req", Sort.bool); ("ram_req", Sort.bool) ]
            ~registers:
              [
                Rtl.reg "rom_addr_q" (Sort.bv 4)
                  (ite rom_req
                     (add_int (bv_var "rom_addr_q" 4) 1)
                     (bv_var "rom_addr_q" 4));
                Rtl.reg "ram_addr_q" (Sort.bv 4)
                  (ite ram_req
                     (add_int (bv_var "ram_addr_q" 4) 1)
                     (bv_var "ram_addr_q" 4));
                Rtl.reg "wait_q" (Sort.bv 1)
                  (ite (rom_req ||: ram_req) (bv ~width:1 1) (bv ~width:1 0));
              ]
            ~wires:[] ~outputs:[ "wait_q" ]
        in
        let rom = port "ROM" "rom" and ram = port "RAM" "ram" in
        let integrated =
          match
            Compose.integrate ~name:"ROM-RAM"
              ~resolve:
                (Compose.Resolve.priority_value (Value.of_int ~width:1 1))
              [ rom; ram ]
          with
          | Ok i -> i
          | Error _ -> Alcotest.fail "integration failed"
        in
        let refmap =
          Refmap.make ~ila:integrated ~rtl
            ~state_map:
              [
                ("rom_addr", bv_var "rom_addr_q" 4);
                ("ram_addr", bv_var "ram_addr_q" 4);
                ("wait_flag", bv_var "wait_q" 1);
              ]
            ~interface_map:
              [ ("rom_req", rom_req); ("ram_req", ram_req) ]
            ~instruction_maps:
              (List.map
                 (fun (i : Ila.instruction) ->
                   Refmap.imap i.Ila.instr_name (Refmap.After_cycles 1))
                 integrated.Ila.instructions)
            ()
        in
        let report = verify integrated rtl refmap in
        Alcotest.(check bool) "proved" true (Verify.proved report));
    t "memory-typed architectural state verifies" (fun () ->
        (* a tiny register file: WRITE stores data, READ latches output *)
        let open Build in
        let we = bool_var "we" in
        let addr = bv_var "addr" 2 and data = bv_var "data" 8 in
        let ila =
          Ila.make ~name:"RF"
            ~inputs:
              [ ("we", Sort.bool); ("addr", Sort.bv 2); ("data", Sort.bv 8) ]
            ~states:
              [
                Ila.state "rf" (Sort.mem ~addr_width:2 ~data_width:8)
                  ~kind:Ila.Internal ();
                Ila.state "out" (Sort.bv 8) ();
              ]
            ~instructions:
              [
                Ila.instr "WRITE" ~decode:we
                  ~updates:
                    [
                      ( "rf",
                        write (mem_var "rf" ~addr_width:2 ~data_width:8) addr
                          data );
                    ]
                  ();
                Ila.instr "READ" ~decode:(not_ we)
                  ~updates:
                    [
                      ( "out",
                        read (mem_var "rf" ~addr_width:2 ~data_width:8) addr );
                    ]
                  ();
              ]
        in
        let rtl =
          Rtl.make ~name:"rf_rtl"
            ~inputs:
              [ ("we", Sort.bool); ("addr", Sort.bv 2); ("data", Sort.bv 8) ]
            ~registers:
              [
                Rtl.reg "rf_q"
                  (Sort.mem ~addr_width:2 ~data_width:8)
                  (ite we
                     (write (mem_var "rf_q" ~addr_width:2 ~data_width:8) addr
                        data)
                     (mem_var "rf_q" ~addr_width:2 ~data_width:8));
                Rtl.reg "out_q" (Sort.bv 8)
                  (ite we (bv_var "out_q" 8)
                     (read (mem_var "rf_q" ~addr_width:2 ~data_width:8) addr));
              ]
            ~wires:[] ~outputs:[ "out_q" ]
        in
        let refmap =
          Refmap.make ~ila ~rtl
            ~state_map:
              [
                ("rf", mem_var "rf_q" ~addr_width:2 ~data_width:8);
                ("out", bv_var "out_q" 8);
              ]
            ~interface_map:
              [ ("we", we); ("addr", addr); ("data", data) ]
            ~instruction_maps:
              [
                Refmap.imap "WRITE" (Refmap.After_cycles 1);
                Refmap.imap "READ" (Refmap.After_cycles 1);
              ]
            ()
        in
        let report = verify ila rtl refmap in
        Alcotest.(check bool) "proved" true (Verify.proved report));
  ]

(* A two-cycle implementation that can hang: when the stuck input is
   high, busy never falls, so the Within finish's termination obligation
   (a bounded-liveness check) must fail. *)
let liveness_tests =
  [
    t "Within finish catches an instruction that never completes" (fun () ->
        let open Build in
        let cmd = bv_var "cmd" 2 and operand = bv_var "operand" 8 in
        let busy = bool_var "busy" in
        let stuck = bool_var "stuck" in
        let acc = bv_var "acc_q" 8 and latched = bv_var "latched" 8 in
        let accept_add = eq_int cmd 1 &&: not_ busy in
        let hang_rtl =
          Rtl.make ~name:"acc_rtl_hang"
            ~inputs:
              [ ("cmd", Sort.bv 2); ("operand", Sort.bv 8); ("stuck", Sort.bool) ]
            ~registers:
              [
                (* busy stays high while stuck is held *)
                Rtl.reg "busy" Sort.bool
                  (ite busy stuck accept_add);
                Rtl.reg "latched" (Sort.bv 8) (ite accept_add operand latched);
                Rtl.reg "acc_q" (Sort.bv 8)
                  (ite (busy &&: not_ stuck) (acc +: latched)
                     (ite (eq_int cmd 2 &&: not_ busy) (bv ~width:8 0) acc));
              ]
            ~wires:[] ~outputs:[ "acc_q" ]
        in
        (* the spec still promises completion within 3 cycles *)
        let refmap =
          Refmap.make ~ila:acc_ila ~rtl:hang_rtl
            ~state_map:[ ("acc", bv_var "acc_q" 8) ]
            ~interface_map:
              [ ("cmd", bv_var "cmd" 2); ("operand", bv_var "operand" 8) ]
            ~instruction_maps:
              [
                Refmap.imap "ADD" ~start:(not_ busy)
                  (Refmap.Within { bound = 3; condition = not_ busy });
                Refmap.imap "CLEAR" ~start:(not_ busy) (Refmap.After_cycles 1);
                Refmap.imap "NOP" ~start:(not_ busy) (Refmap.After_cycles 1);
              ]
            ()
        in
        let report = verify acc_ila hang_rtl refmap in
        Alcotest.(check bool) "fails" false (Verify.proved report);
        match report.Verify.first_failure with
        | Some { verdict = Checker.Failed trace; _ } ->
          (* the counterexample must exercise the hang *)
          Alcotest.(check bool) "has cycles" true
            (List.length trace.Trace.cycles >= 3)
        | _ -> Alcotest.fail "expected a failing trace");
    t "zero-command module verifies" (fun () ->
        let report = Ilv_designs.Design.verify Ilv_designs.Clock_gen.design in
        Alcotest.(check bool) "proved" true (Verify.proved report));
    t "zero-command coverage holds under power_on" (fun () ->
        match
          Ila_check.coverage
            ~assuming:[ Build.bool_var "power_on" ]
            Ilv_designs.Clock_gen.ila
        with
        | Ila_check.Covered -> ()
        | Ila_check.Uncovered _ -> Alcotest.fail "expected coverage");
  ]

let suite =
  [
    ("core:ila", ila_tests);
    ("core:ila-sim", sim_tests);
    ("core:ila-check", check_tests);
    ("core:compose", compose_tests);
    ("core:refmap", refmap_tests);
    ("core:propgen", propgen_tests @ propgen_sharing_tests);
    ("core:e2e", e2e_tests);
    ("core:liveness", liveness_tests);
  ]
