(* Tests for the expression language: hash-consing, sort checking,
   smart-constructor simplification, evaluation and substitution. *)

open Ilv_expr

let t name f = Alcotest.test_case name `Quick f
let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let expr_eq = Alcotest.testable Pp_expr.pp Expr.equal

let a8 = Build.bv_var "a" 8
let b8 = Build.bv_var "b" 8
let p = Build.bool_var "p"
let q = Build.bool_var "q"

let hashcons_tests =
  [
    t "identical constructions share" (fun () ->
        let open Build in
        check_bool "physical" true (Expr.equal (a8 +: b8) (a8 +: b8));
        check_bool "ids" true (Expr.id (a8 +: b8) = Expr.id (a8 +: b8)));
    t "distinct constructions differ" (fun () ->
        let open Build in
        check_bool "a+b vs b+a" false (Expr.equal (a8 +: b8) (b8 +: a8)));
    t "same name different sorts are distinct" (fun () ->
        let x1 = Build.bv_var "x" 8 and x2 = Build.bv_var "x" 9 in
        check_bool "distinct" false (Expr.equal x1 x2));
    t "dag_size counts shared nodes once" (fun () ->
        let open Build in
        let s = a8 +: b8 in
        let e = s *: s in
        (* a, b, a+b, (a+b)*(a+b) *)
        check_int "dag" 4 (Expr.dag_size e));
    t "vars are sorted and unique" (fun () ->
        let open Build in
        let e = (a8 +: b8) *: a8 in
        Alcotest.(check (list string))
          "names" [ "a"; "b" ]
          (List.map fst (Expr.vars e)));
  ]

let sort_tests =
  [
    t "and of bv raises" (fun () ->
        try
          ignore (Expr.and_ a8 b8);
          Alcotest.fail "expected Sort_error"
        with Expr.Sort_error _ -> ());
    t "add of bool raises" (fun () ->
        try
          ignore (Expr.binop Expr.Bv_add p q);
          Alcotest.fail "expected Sort_error"
        with Expr.Sort_error _ -> ());
    t "eq across widths raises" (fun () ->
        try
          ignore (Build.eq a8 (Build.bv_var "c" 9));
          Alcotest.fail "expected Sort_error"
        with Expr.Sort_error _ -> ());
    t "ite branch mismatch raises" (fun () ->
        try
          ignore (Expr.ite p a8 q);
          Alcotest.fail "expected Sort_error"
        with Expr.Sort_error _ -> ());
    t "extract out of range raises" (fun () ->
        try
          ignore (Expr.extract ~hi:8 ~lo:0 a8);
          Alcotest.fail "expected Sort_error"
        with Expr.Sort_error _ -> ());
    t "read with wrong addr width raises" (fun () ->
        let m = Build.mem_var "m" ~addr_width:4 ~data_width:8 in
        try
          ignore (Expr.read ~mem:m ~addr:a8);
          Alcotest.fail "expected Sort_error"
        with Expr.Sort_error _ -> ());
  ]

let simp_tests =
  [
    t "boolean identities" (fun () ->
        let open Build in
        Alcotest.check expr_eq "p && true" p (p &&: tt);
        Alcotest.check expr_eq "p && false" ff (p &&: ff);
        Alcotest.check expr_eq "p || false" p (p ||: ff);
        Alcotest.check expr_eq "p || true" tt (p ||: tt);
        Alcotest.check expr_eq "p && p" p (p &&: p);
        Alcotest.check expr_eq "not not p" p (not_ (not_ p));
        Alcotest.check expr_eq "p ==> p" tt (p ==>: p);
        Alcotest.check expr_eq "xor p p" ff (xor p p));
    t "bitvector identities" (fun () ->
        let open Build in
        let z = bv ~width:8 0 in
        Alcotest.check expr_eq "a+0" a8 (a8 +: z);
        Alcotest.check expr_eq "a-a" z (a8 -: a8);
        Alcotest.check expr_eq "a&0" z (a8 &: z);
        Alcotest.check expr_eq "a|0" a8 (a8 |: z);
        Alcotest.check expr_eq "a^a" z (a8 ^: a8);
        Alcotest.check expr_eq "a&ones" a8 (a8 &: bv ~width:8 255));
    t "constant folding" (fun () ->
        let open Build in
        Alcotest.check expr_eq "2+3" (bv ~width:8 5) (bv ~width:8 2 +: bv ~width:8 3);
        Alcotest.check expr_eq "cmp" tt (bv ~width:8 2 <: bv ~width:8 3);
        Alcotest.check expr_eq "eq" ff (eq (bv ~width:8 2) (bv ~width:8 3)));
    t "ite simplification" (fun () ->
        let open Build in
        Alcotest.check expr_eq "ite true" a8 (ite tt a8 b8);
        Alcotest.check expr_eq "ite false" b8 (ite ff a8 b8);
        Alcotest.check expr_eq "same branches" a8 (ite p a8 a8);
        Alcotest.check expr_eq "bool ite to c" p (ite p tt ff));
    t "eq reflexivity folds" (fun () ->
        let open Build in
        Alcotest.check expr_eq "a==a" tt (eq a8 a8));
    t "extract of concat folds" (fun () ->
        let open Build in
        let c = concat a8 b8 in
        Alcotest.check expr_eq "high" a8 (extract ~hi:15 ~lo:8 c);
        Alcotest.check expr_eq "low" b8 (extract ~hi:7 ~lo:0 c);
        Alcotest.check expr_eq "full" c (extract ~hi:15 ~lo:0 c));
    t "read over write forwards" (fun () ->
        let open Build in
        let m = mem_var "m" ~addr_width:4 ~data_width:8 in
        let addr = bv_var "addr" 4 in
        let m' = write m addr a8 in
        Alcotest.check expr_eq "same addr" a8 (read m' addr);
        (* different constant addresses skip the write *)
        let m2 = write m (bv ~width:4 3) a8 in
        Alcotest.check expr_eq "other addr" (read m (bv ~width:4 5))
          (read m2 (bv ~width:4 5)));
    t "read of const mem folds" (fun () ->
        let open Build in
        let m = const_mem ~addr_width:4 ~default:(Bitvec.of_int ~width:8 7) in
        Alcotest.check expr_eq "default" (bv ~width:8 7)
          (read m (bv_var "addr" 4)));
  ]

let eval_tests =
  let env =
    Eval.env_of_list
      [
        ("a", Value.of_int ~width:8 10);
        ("b", Value.of_int ~width:8 3);
        ("p", Value.of_bool true);
        ("q", Value.of_bool false);
      ]
  in
  [
    t "arith" (fun () ->
        let open Build in
        check_int "a+b" 13 (Eval.eval_int env (a8 +: b8));
        check_int "a-b" 7 (Eval.eval_int env (a8 -: b8));
        check_int "a*b" 30 (Eval.eval_int env (a8 *: b8));
        check_int "a/b" 3 (Eval.eval_int env (udiv a8 b8));
        check_int "a%b" 1 (Eval.eval_int env (urem a8 b8)));
    t "bool" (fun () ->
        let open Build in
        check_bool "p&&q" false (Eval.eval_bool env (p &&: q));
        check_bool "p||q" true (Eval.eval_bool env (p ||: q));
        check_bool "p==>q" false (Eval.eval_bool env (p ==>: q));
        check_bool "a<b" false (Eval.eval_bool env (a8 <: b8)));
    t "ite and eq" (fun () ->
        let open Build in
        check_int "ite" 10 (Eval.eval_int env (ite p a8 b8));
        check_bool "eq" false (Eval.eval_bool env (eq a8 b8)));
    t "memory" (fun () ->
        let open Build in
        let m = const_mem ~addr_width:4 ~default:(Bitvec.zero 8) in
        let m' = write m (bv ~width:4 2) a8 in
        check_int "read written" 10
          (Eval.eval_int env (read m' (bv ~width:4 2)));
        check_int "read default" 0
          (Eval.eval_int env (read m' (bv ~width:4 3))));
    t "unbound variable raises" (fun () ->
        try
          ignore (Eval.eval env (Build.bv_var "nope" 8));
          Alcotest.fail "expected Unbound_variable"
        with Eval.Unbound_variable "nope" -> ());
    t "sort clash between env and use raises" (fun () ->
        let env = Eval.env_of_list [ ("x", Value.of_bool true) ] in
        try
          ignore (Eval.eval env (Build.bv_var "x" 8));
          Alcotest.fail "expected Eval_error"
        with Eval.Eval_error _ -> ());
  ]

let subst_tests =
  [
    t "substitute constant folds" (fun () ->
        let open Build in
        let e = a8 +: b8 in
        let r = Subst.apply [ ("a", bv ~width:8 2); ("b", bv ~width:8 3) ] e in
        Alcotest.check expr_eq "folded" (bv ~width:8 5) r);
    t "partial substitution keeps the rest" (fun () ->
        let open Build in
        let e = a8 +: b8 in
        let r = Subst.apply [ ("a", bv ~width:8 0) ] e in
        Alcotest.check expr_eq "identity" b8 r);
    t "wrong-sorted binding raises" (fun () ->
        try
          ignore (Subst.apply [ ("a", Build.tt) ] a8);
          Alcotest.fail "expected Sort_error"
        with Expr.Sort_error _ -> ());
    t "rename prefixes variables" (fun () ->
        let open Build in
        let e = a8 +: b8 in
        let r = Subst.rename (fun n -> "ila." ^ n) e in
        Alcotest.(check (list string))
          "names" [ "ila.a"; "ila.b" ]
          (List.map fst (Expr.vars r)));
  ]

(* Random expression generator for the eval-vs-subst consistency law. *)
let arb_env_expr =
  let gen =
    QCheck.Gen.(
      let leaf =
        oneof
          [
            return (Build.bv_var "x" 8);
            return (Build.bv_var "y" 8);
            (int_range 0 255 >|= fun n -> Build.bv ~width:8 n);
          ]
      in
      let rec expr n =
        if n = 0 then leaf
        else
          oneof
            [
              leaf;
              ( pair (expr (n - 1)) (expr (n - 1)) >|= fun (a, b) ->
                Build.( +: ) a b );
              ( pair (expr (n - 1)) (expr (n - 1)) >|= fun (a, b) ->
                Build.( &: ) a b );
              ( pair (expr (n - 1)) (expr (n - 1)) >|= fun (a, b) ->
                Build.( ^: ) a b );
              ( triple (expr (n - 1)) (expr (n - 1)) (expr (n - 1))
              >|= fun (c, a, b) -> Build.ite (Build.bv_to_bool c) a b );
            ]
      in
      triple (expr 4) (int_range 0 255) (int_range 0 255))
  in
  QCheck.make
    ~print:(fun (e, x, y) ->
      Printf.sprintf "%s with x=%d y=%d" (Pp_expr.to_string e) x y)
    gen

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"subst constants = eval" ~count:300 arb_env_expr
         (fun (e, x, y) ->
           let env =
             Eval.env_of_list
               [ ("x", Value.of_int ~width:8 x); ("y", Value.of_int ~width:8 y) ]
           in
           let direct = Eval.eval env e in
           let substituted =
             Subst.apply
               [
                 ("x", Build.bv ~width:8 x); ("y", Build.bv ~width:8 y);
               ]
               e
           in
           (* after substituting all variables, folding must reach a
              constant equal to the evaluation result *)
           match Expr.node substituted with
           | Expr.Bv_const v -> Value.equal direct (Value.of_bv v)
           | _ -> false));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"compiled program = eval" ~count:300 arb_env_expr
         (fun (e, x, y) ->
           (* [e] itself, both [ite] branches computed, and memory
              reads, writes, equality and choice built around it *)
           let m = Build.mem_var "m" ~addr_width:8 ~data_width:8 in
           let x_e = Build.bv_var "x" 8 and y_e = Build.bv_var "y" 8 in
           let w = Build.write (Build.write m x_e e) e y_e in
           let es =
             [
               e;
               Build.read w (Build.( ^: ) e x_e);
               Build.eq w (Build.write m e y_e);
               Build.ite (Build.bv_to_bool e) w m;
               Build.( <: ) e y_e;
             ]
           in
           let env =
             Eval.env_of_list
               [
                 ("x", Value.of_int ~width:8 x);
                 ("y", Value.of_int ~width:8 y);
                 ( "m",
                   Value.V_mem
                     (Value.mem_write
                        (Value.to_mem
                           (Value.mem_const ~addr_width:8
                              ~default:(Bitvec.of_int ~width:8 y)))
                        (Bitvec.of_int ~width:8 x)
                        (Bitvec.of_int ~width:8 (x + y))) );
               ]
           in
           let layout = Eval.layout () in
           let vars = Hashtbl.create 4 in
           let var name =
             match Hashtbl.find_opt vars name with
             | Some s -> s
             | None ->
               let s = Eval.slot layout in
               Hashtbl.add vars name s;
               s
           in
           let program, slots = Eval.compile layout ~var es in
           let frame = Eval.frame layout in
           Hashtbl.iter
             (fun name s -> frame.(s) <- Option.get (Eval.env_find name env))
             vars;
           Eval.run program frame;
           List.for_all2
             (fun e s -> Value.equal (Eval.eval env e) frame.(s))
             es slots));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"pretty-printing never raises" ~count:200
         arb_env_expr (fun (e, _, _) ->
           ignore (Pp_expr.to_string e);
           ignore (Pp_expr.infix_to_string e);
           Pp_expr.line_count e >= 1));
  ]

let suite =
  [
    ("expr:hashcons", hashcons_tests);
    ("expr:sorts", sort_tests);
    ("expr:simplify", simp_tests);
    ("expr:eval", eval_tests);
    ("expr:subst", subst_tests);
    ("expr:props", prop_tests);
  ]
