(* Differential tests of the memory abstraction: on randomly generated
   memory-heavy properties, the CEGAR driver must agree verdict-for-
   verdict with the concrete bit-blasting checker, and every abstract
   counterexample it reports must be {e genuine} — its trace, replayed
   through the evaluator on the concrete property, really violates the
   obligation.  This is the property-based complement of the catalog
   sweep in [abstraction_smoke]. *)

open Ilv_expr
open Ilv_core

let t name f = Alcotest.test_case name `Quick f

(* One fixed variable universe, wide enough to trigger the abstraction
   (2^5 = 32 words > the default window of 12).  Names live in the
   [rtl.*@0] namespace so failing traces capture them. *)

let mem_sort = Sort.Mem { addr_width = 5; data_width = 8 }
let m = Build.mem_var "rtl.mem@0" ~addr_width:5 ~data_width:8
let a = Build.bv_var "rtl.a@0" 5
let b = Build.bv_var "rtl.b@0" 5
let d = Build.bv_var "rtl.d@0" 8

let base_bindings =
  [
    ("rtl.mem@0", Value.default_of_sort mem_sort);
    ("rtl.a@0", Value.default_of_sort (Sort.Bitvec 5));
    ("rtl.b@0", Value.default_of_sort (Sort.Bitvec 5));
    ("rtl.d@0", Value.default_of_sort (Sort.Bitvec 8));
  ]

let mk_prop ~assumptions goal =
  {
    Property.prop_name = "qc";
    port = "qc";
    instr =
      { Ila.instr_name = "qc"; parent = None; decode = Build.tt; updates = [] };
    assumptions;
    obligations =
      [ { Property.at_cycle = 0; guard = Build.tt; goal; label = "goal" } ];
    n_cycles = 0;
    ila_bindings = [];
    display =
      {
        Property.equal_states = [];
        corresponding_inputs = [];
        start_condition = "";
        finish_condition = "";
        checked_states = [];
      };
  }

let gen_prop =
  let open QCheck.Gen in
  let k w i = Build.bv ~width:w i in
  let addr = oneof [ return a; return b; (int_range 0 31 >|= k 5) ] in
  let data = oneof [ return d; (int_range 0 255 >|= k 8) ] in
  let rec memt n =
    if n = 0 then
      oneof
        [
          return m;
          ( int_range 0 255 >|= fun i ->
            Expr.mem_init ~addr_width:5 ~default:(Bitvec.of_int ~width:8 i) );
        ]
    else
      frequency
        [
          ( 3,
            triple (memt (n - 1)) addr data >|= fun (mm, aa, dd) ->
            Expr.write ~mem:mm ~addr:aa ~data:dd );
          (1, memt 0);
          ( 1,
            triple (memt (n - 1)) (memt (n - 1)) (pair addr addr)
            >|= fun (m1, m2, (x, y)) -> Expr.ite (Build.eq x y) m1 m2 );
        ]
  in
  let read_ =
    pair (memt 2) addr >|= fun (mm, aa) -> Expr.read ~mem:mm ~addr:aa
  in
  let goal =
    frequency
      [
        (* mostly falsifiable: a read against a free datum *)
        (3, pair read_ data >|= fun (r, dd) -> Build.eq r dd);
        (* valid by read-over-write forwarding *)
        ( 2,
          triple (memt 1) addr data >|= fun (mm, aa, dd) ->
          Build.eq (Expr.read ~mem:(Expr.write ~mem:mm ~addr:aa ~data:dd) ~addr:aa) dd
        );
        (* two reads of independently generated memories *)
        (2, pair read_ read_ >|= fun (r1, r2) -> Build.eq r1 r2);
        (* whole-memory equality: exercises the witness/slot-wise path *)
        (1, pair (memt 2) (memt 2) >|= fun (m1, m2) -> Build.eq m1 m2);
      ]
  in
  let assumptions =
    frequency
      [
        (2, return []);
        (1, (int_range 0 31 >|= fun i -> [ Build.eq a (k 5 i) ]));
        ( 1,
          pair (int_range 0 31) (int_range 0 255) >|= fun (i, j) ->
          [ Build.eq a (k 5 i); Build.eq d (k 8 j) ] );
        (1, return [ Build.eq a b ]);
      ]
  in
  pair assumptions goal >|= fun (assumptions, goal) ->
  mk_prop ~assumptions goal

let arb_prop =
  QCheck.make
    ~print:(fun p -> Format.asprintf "%a" Property.pp p)
    gen_prop

let verdict_shape = function
  | Checker.Proved -> "proved"
  | Checker.Failed _ -> "failed"
  | Checker.Unknown _ -> "unknown"

(* Rebuild an evaluator environment from a counterexample trace.
   Variables the simplifier eliminated from the query are absent from
   the model; the formula's value cannot depend on them (the rewrite
   preserves semantics), so they default. *)
let env_of_trace (tr : Trace.t) =
  let bindings =
    List.map (fun (n, v) -> ("ila." ^ n, v)) tr.Trace.ila_vars
    @ List.concat_map
        (fun (c, vars) ->
          List.map (fun (n, v) -> (Printf.sprintf "rtl.%s@%d" n c, v)) vars)
        tr.Trace.cycles
  in
  List.fold_left
    (fun e (n, v) -> Eval.env_add n v e)
    (Eval.env_of_list base_bindings)
    bindings

let genuine (p : Property.t) (tr : Trace.t) =
  let env = env_of_trace tr in
  match p.Property.obligations with
  | [ ob ] -> (
    match
      List.for_all (Eval.eval_bool env) p.Property.assumptions
      && Eval.eval_bool env ob.Property.guard
      && not (Eval.eval_bool env ob.Property.goal)
    with
    | genuine -> genuine
    | exception Eval.Unbound_variable _ -> false)
  | _ -> false

(* Whether the property has a memory-sorted subterm the abstraction
   takes over — the test [Mem_abstract.create] applies.  Every
   generated memory (32 words) exceeds the default window, so any
   memory sort counts, a constant memory ([mem_init], writes over it)
   as much as the variable. *)
let has_wide_memory (p : Property.t) =
  List.exists
    (Expr.fold
       (fun acc n ->
         acc || match Expr.sort n with Sort.Mem _ -> true | _ -> false)
       false)
    (p.Property.assumptions
    @ List.concat_map
        (fun (ob : Property.obligation) -> [ ob.Property.guard; ob.Property.goal ])
        p.Property.obligations)

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"abstract and concrete verdicts agree on random properties"
         ~count:150 arb_prop (fun p ->
           let concrete, _ = Checker.check p in
           let abstract, _, rung =
             Verify.check_property ~memory_abstraction:true p
           in
           (* the smart constructors can fold a goal over constant
              memories down to a constant: exactly the properties left
              without a wide memory take the concrete path *)
           (rung = "sat") = not (has_wide_memory p)
           && verdict_shape concrete = verdict_shape abstract));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"abstract counterexamples are genuine under replay" ~count:150
         arb_prop (fun p ->
           match Verify.check_property ~memory_abstraction:true p with
           | Checker.Failed tr, _, _ -> genuine p tr
           | (Checker.Proved | Checker.Unknown _), _, _ ->
             QCheck.assume_fail ()));
  ]

let unit_tests =
  [
    t "create declines memory-free groups" (fun () ->
        let p = mk_prop ~assumptions:[] (Build.eq a b) in
        Alcotest.(check bool) "no abstraction" true (Mem_abstract.create [ p ] = None));
    t "create declines memories smaller than the window" (fun () ->
        let small = Build.mem_var "rtl.t@0" ~addr_width:3 ~data_width:8 in
        let goal =
          Build.eq (Expr.read ~mem:small ~addr:(Build.bv ~width:3 1)) d
        in
        let p = mk_prop ~assumptions:[] goal in
        Alcotest.(check bool) "8 words bit-blast better" true
          (Mem_abstract.create [ p ] = None));
    t "create accepts a wide memory" (fun () ->
        let goal = Build.eq (Expr.read ~mem:m ~addr:a) d in
        let p = mk_prop ~assumptions:[] goal in
        Alcotest.(check bool) "32 words abstract" true
          (Mem_abstract.create [ p ] <> None));
  ]

let suite =
  [
    ("abstraction:unit", unit_tests);
    ("abstraction:diff", prop_tests);
  ]
