(* Tests for the CDCL solver: hand-written instances, pigeonhole
   problems, and random CNFs cross-checked against brute force. *)

open Ilv_sat

let t name f = Alcotest.test_case name `Quick f

let result =
  Alcotest.testable
    (fun fmt -> function
      | Sat.Sat -> Format.pp_print_string fmt "SAT"
      | Sat.Unsat -> Format.pp_print_string fmt "UNSAT")
    ( = )

let mk n_vars clauses =
  let s = Sat.create () in
  for _ = 1 to n_vars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) clauses;
  s

let solve n_vars clauses = Sat.solve (mk n_vars clauses)

(* the exported clauses of two or more literals, each sorted: watching
   reorders a stored clause's literals *)
let stored s =
  List.filter_map
    (fun c -> if List.length c >= 2 then Some (List.sort compare c) else None)
    (snd (Sat.export s))

(* does the last model satisfy every clause? *)
let satisfies s clauses =
  List.for_all (List.exists (fun l -> Sat.value s (abs l) = (l > 0))) clauses

let unit_tests =
  [
    t "empty problem is sat" (fun () ->
        Alcotest.check result "sat" Sat.Sat (solve 0 []));
    t "single unit" (fun () ->
        let s = mk 1 [ [ 1 ] ] in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        Alcotest.(check bool) "v1" true (Sat.value s 1));
    t "contradicting units" (fun () ->
        Alcotest.check result "unsat" Sat.Unsat (solve 1 [ [ 1 ]; [ -1 ] ]));
    t "empty clause" (fun () ->
        Alcotest.check result "unsat" Sat.Unsat (solve 1 [ [] ]));
    t "tautology is dropped" (fun () ->
        Alcotest.check result "sat" Sat.Sat (solve 1 [ [ 1; -1 ] ]));
    t "implication chain forces value" (fun () ->
        (* 1, 1->2, 2->3, 3->4 *)
        let s = mk 4 [ [ 1 ]; [ -1; 2 ]; [ -2; 3 ]; [ -3; 4 ] ] in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        List.iter
          (fun v -> Alcotest.(check bool) (string_of_int v) true (Sat.value s v))
          [ 1; 2; 3; 4 ]);
    t "xor chain unsat" (fun () ->
        (* x1 xor x2 = 1, x2 xor x3 = 1, x1 xor x3 = 1 is unsatisfiable *)
        let xor_cnf a b =
          [ [ a; b ]; [ -a; -b ] ]
        in
        let clauses = xor_cnf 1 2 @ xor_cnf 2 3 @ xor_cnf 1 3 in
        Alcotest.check result "unsat" Sat.Unsat (solve 3 clauses));
    t "add_clause rejects unknown vars" (fun () ->
        let s = mk 1 [] in
        try
          Sat.add_clause s [ 2 ];
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    t "incremental: clauses can be added between solves" (fun () ->
        let s = mk 2 [ [ 1; 2 ] ] in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        Sat.add_clause s [ -1 ];
        Alcotest.check result "still sat" Sat.Sat (Sat.solve s);
        Alcotest.(check bool) "v2 forced" true (Sat.value s 2);
        Sat.add_clause s [ -2 ];
        Alcotest.check result "now unsat" Sat.Unsat (Sat.solve s));
    t "assumptions restrict without committing" (fun () ->
        let s = mk 2 [ [ 1; 2 ] ] in
        Alcotest.check result "unsat under -1 -2" Sat.Unsat
          (Sat.solve ~assumptions:[ -1; -2 ] s);
        Alcotest.check result "sat under -1" Sat.Sat
          (Sat.solve ~assumptions:[ -1 ] s);
        Alcotest.(check bool) "model has 2" true (Sat.value s 2);
        Alcotest.check result "sat unconstrained" Sat.Sat (Sat.solve s));
    t "assumption contradicting a unit is unsat" (fun () ->
        let s = mk 1 [ [ 1 ] ] in
        Alcotest.check result "unsat" Sat.Unsat (Sat.solve ~assumptions:[ -1 ] s);
        Alcotest.check result "sat again" Sat.Sat (Sat.solve s));
    t "more assumptions than variables" (fun () ->
        (* an assumption that already holds opens a placeholder
           decision level, so levels can outnumber variables *)
        let s = mk 2 [ [ 1; 2 ] ] in
        Alcotest.check result "sat" Sat.Sat
          (Sat.solve ~assumptions:(List.init 20 (fun _ -> 1)) s);
        Alcotest.check result "unsat" Sat.Unsat
          (Sat.solve ~assumptions:(List.init 20 (fun _ -> -1) @ [ -2 ]) s));
  ]

(* Pigeonhole principle: [php p h] encodes "p pigeons into h holes". *)
let php pigeons holes =
  let var p h = (p * holes) + h + 1 in
  let n_vars = pigeons * holes in
  let every_pigeon_somewhere =
    List.init pigeons (fun p -> List.init holes (fun h -> var p h))
  in
  let no_two_in_same_hole =
    List.concat_map
      (fun h ->
        List.concat_map
          (fun p1 ->
            List.filter_map
              (fun p2 ->
                if p1 < p2 then Some [ -var p1 h; -var p2 h ] else None)
              (List.init pigeons Fun.id))
          (List.init pigeons Fun.id))
      (List.init holes Fun.id)
  in
  (n_vars, every_pigeon_somewhere @ no_two_in_same_hole)

let pigeonhole_tests =
  [
    t "php 3 into 3 is sat" (fun () ->
        let n, cs = php 3 3 in
        Alcotest.check result "sat" Sat.Sat (solve n cs));
    t "php 4 into 3 is unsat" (fun () ->
        let n, cs = php 4 3 in
        Alcotest.check result "unsat" Sat.Unsat (solve n cs));
    t "php 6 into 5 is unsat" (fun () ->
        let n, cs = php 6 5 in
        Alcotest.check result "unsat" Sat.Unsat (solve n cs));
    t "php 7 into 7 is sat with valid model" (fun () ->
        let n, cs = php 7 7 in
        let s = mk n cs in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        let ok =
          List.for_all
            (fun clause ->
              List.exists (fun l -> Sat.value s (abs l) = (l > 0)) clause)
            cs
        in
        Alcotest.(check bool) "model satisfies" true ok);
    t "php 8 into 7 reaches reduce_db and the solver stays incremental"
      (fun () ->
        (* Hard enough that the learnt DB outgrows 4000 + 2 * clauses, so
           reduce_db deletes learnts and purges their watchers.  Then the
           engine's between-query step: retire the query, simplify (a
           second purge), and solve a sat query on the same variables,
           php 7 7, whose models are permutations. *)
        let n, cs = php 8 7 in
        let s = mk n [] in
        let act = Sat.new_selector s in
        List.iter (fun c -> Sat.add_clause ~activation:true s (-act :: c)) cs;
        (* the same solve, traced in a child process so this process's
           counters stay untouched *)
        let file = Filename.temp_file "ilv-sat-test" ".jsonl" in
        let child =
          match Unix.fork () with
          | 0 ->
            Ilv_obs.Obs.configure ~trace_out:file ();
            ignore (Sat.solve ~assumptions:[ act ] s);
            Ilv_obs.Obs.shutdown ();
            Unix._exit 0
          | pid -> pid
        in
        let verdict = Sat.solve ~assumptions:[ act ] s in
        ignore (Unix.waitpid [] child);
        let raw = In_channel.with_open_bin file In_channel.input_all in
        Sys.remove file;
        Alcotest.check result "unsat under act" Sat.Unsat verdict;
        let conflicts = (Sat.stats s).Sat.conflicts in
        Alcotest.(check bool)
          (Printf.sprintf "%d conflicts > 4000 + 2 * %d clauses" conflicts
             (Sat.num_clauses s))
          true
          (conflicts > 4000 + (2 * Sat.num_clauses s));
        let solve_event =
          match Ilv_obs.Json.parse_lines raw with
          | Ok lines ->
            List.find
              (fun j ->
                Option.bind (Ilv_obs.Json.member "name" j)
                  Ilv_obs.Json.to_string
                = Some "sat.solve")
              lines
          | Error msg -> Alcotest.fail msg
        in
        let field k =
          Option.bind (Ilv_obs.Json.member k solve_event) Ilv_obs.Json.to_int
        in
        Alcotest.(check bool)
          "sat.solve reports reductions" true
          (Option.value ~default:0 (field "reductions") >= 1);
        Alcotest.(check bool)
          "sat.solve reports live learnts" true
          (field "learnts" <> None);
        Sat.add_clause ~activation:true s [ -act ];
        ignore (Sat.simplify s);
        let php77 = snd (php 7 7) in
        let act2 = Sat.new_var s and act3 = Sat.new_var s in
        List.iter
          (fun c -> Sat.add_clause ~activation:true s (-act2 :: c))
          php77;
        Alcotest.check result "php 7 7 under act2" Sat.Sat
          (Sat.solve ~assumptions:[ act2 ] s);
        Alcotest.(check bool) "model is a permutation" true (satisfies s php77);
        (* activation-guarded extra clauses: act2 also keeps pigeon 0
           out of hole 0, act3 puts it there *)
        Sat.add_clause ~activation:true s [ -act2; -1 ];
        Sat.add_clause ~activation:true s [ -act3; 1 ];
        Alcotest.check result "sat under act2" Sat.Sat
          (Sat.solve ~assumptions:[ act2 ] s);
        Alcotest.(check bool)
          "model satisfies the guarded clause" true
          (satisfies s ([ -1 ] :: php77));
        Alcotest.check result "unsat under act2 and act3" Sat.Unsat
          (Sat.solve ~assumptions:[ act2; act3 ] s);
        Alcotest.check result "sat without assumptions" Sat.Sat (Sat.solve s));
  ]

(* --- activation literals and between-query maintenance: the solver
   side of the incremental assumption-based checking scheme --- *)

let activation_tests =
  [
    t "activation literal deactivates its cone" (fun () ->
        (* act guards a contradiction: unsat only while act is assumed *)
        let s = mk 2 [] in
        Sat.add_clause ~activation:true s [ -1; 2 ];
        Sat.add_clause ~activation:true s [ -1; -2 ];
        Alcotest.check result "unsat under act" Sat.Unsat
          (Sat.solve ~assumptions:[ 1 ] s);
        Alcotest.check result "sat without act" Sat.Sat (Sat.solve s);
        (* retiring the cone (unit -act) leaves the instance sat *)
        Sat.add_clause ~activation:true s [ -1 ];
        Alcotest.check result "sat after retire" Sat.Sat (Sat.solve s));
    t "independent cones coexist in one solver" (fun () ->
        (* cone 1 forces x, cone 2 forces -x: each is consistent alone,
           both together clash *)
        let s = mk 3 [] in
        Sat.add_clause ~activation:true s [ -1; 3 ];
        Sat.add_clause ~activation:true s [ -2; -3 ];
        Alcotest.check result "cone 1 alone" Sat.Sat
          (Sat.solve ~assumptions:[ 1 ] s);
        Alcotest.(check bool) "forces x" true (Sat.value s 3);
        Alcotest.check result "cone 2 alone" Sat.Sat
          (Sat.solve ~assumptions:[ 2 ] s);
        Alcotest.(check bool) "forces -x" false (Sat.value s 3);
        Alcotest.check result "both cones clash" Sat.Unsat
          (Sat.solve ~assumptions:[ 1; 2 ] s));
    t "learnt clauses persist across assumption solves" (fun () ->
        (* The same hard query twice: with clause learning carrying
           over, the second solve must need strictly fewer conflicts
           (in practice near zero).  This is the property the shared
           per-design solver of the engine relies on. *)
        let n, cs = php 5 4 in
        let s = mk (n + 1) [] in
        let act = n + 1 in
        List.iter (fun c -> Sat.add_clause ~activation:true s (-act :: c)) cs;
        let c0 = (Sat.stats s).Sat.conflicts in
        Alcotest.check result "first solve unsat" Sat.Unsat
          (Sat.solve ~assumptions:[ act ] s);
        let c1 = (Sat.stats s).Sat.conflicts in
        Alcotest.check result "second solve unsat" Sat.Unsat
          (Sat.solve ~assumptions:[ act ] s);
        let c2 = (Sat.stats s).Sat.conflicts in
        Alcotest.(check bool)
          "first solve had to work" true
          (c1 - c0 > 0);
        Alcotest.(check bool)
          (Printf.sprintf "second solve cheaper (%d < %d)" (c2 - c1) (c1 - c0))
          true
          (c2 - c1 < c1 - c0));
    t "problem and activation clauses are counted separately" (fun () ->
        let s = mk 4 [ [ 3; 4 ]; [ -3; 4 ] ] in
        let act = Sat.new_selector s in
        Sat.add_clause ~activation:true s [ -act; 2 ];
        Sat.add_clause ~activation:true s [ -act; 1 ];
        Alcotest.(check int) "problem" 2 (Sat.num_problem_clauses s);
        Alcotest.(check int) "activation" 2 (Sat.num_activation_clauses s);
        Alcotest.(check int) "total" 4 (Sat.num_clauses s);
        (* a retire unit becomes a level-0 fact, not a stored clause,
           and level-0 simplification then sheds the satisfied guards *)
        Sat.add_clause ~activation:true s [ -act ];
        Alcotest.(check int) "unit not stored" 4 (Sat.num_clauses s);
        ignore (Sat.simplify s);
        Alcotest.(check int) "guards shed" 0 (Sat.num_activation_clauses s);
        Alcotest.(check int) "problem intact" 2 (Sat.num_problem_clauses s));
    t "age_activity leaves verdicts intact" (fun () ->
        let n, cs = php 4 3 in
        let s = mk n cs in
        Alcotest.check result "unsat" Sat.Unsat (Sat.solve s);
        Sat.age_activity s;
        Alcotest.check result "still unsat" Sat.Unsat (Sat.solve s);
        (* repeated aging must not overflow the activity scale *)
        for _ = 1 to 50 do
          Sat.age_activity s
        done;
        Alcotest.check result "after 50 agings" Sat.Unsat (Sat.solve s));
  ]

let simplify_tests =
  [
    t "simplify keeps what a non-selector unit satisfies; the frame store \
       sheds it" (fun () ->
        (* the unit arrives after the clauses are attached: it satisfies
           [1;2] and leaves [-1;3] to propagate the fact 3 *)
        let clauses = [ [ 1; 2 ]; [ -1; 3 ] ] in
        let s = mk 3 clauses in
        Sat.add_clause s [ 1 ];
        Alcotest.(check int) "watched: nothing removed" 0 (Sat.simplify s);
        Alcotest.(check (pair int (list (list int))))
          "watched: facts, then both clauses"
          (3, [ [ 1 ]; [ 3 ]; [ 1; 2 ]; [ -1; 3 ] ])
          (let n, cnf = Sat.export s in
           (n, List.map (List.sort compare) cnf));
        Alcotest.check result "sat" Sat.Sat (Sat.solve s);
        Alcotest.(check bool) "v1" true (Sat.value s 1);
        Alcotest.(check bool) "v3" true (Sat.value s 3);
        let f = Sat.frame () in
        for _ = 1 to 3 do
          ignore (Sat.new_var f)
        done;
        List.iter (Sat.add_clause f) (clauses @ [ [ 1 ] ]);
        Alcotest.(check int) "frame: both clauses shed" 2 (Sat.simplify f);
        Alcotest.(check (pair int (list (list int))))
          "frame: the facts alone" (3, [ [ 1 ]; [ 3 ] ]) (Sat.export f));
    t "simplify after retire sheds the retired cone's guards" (fun () ->
        let s = Sat.create () in
        let act = Sat.new_selector s in
        let x = Sat.new_var s in
        Sat.add_clause ~activation:true s [ -act; x ];
        Sat.add_clause ~activation:true s [ -act; -x ];
        Sat.add_clause ~activation:true s [ -act ];
        (* the unit -act satisfies both guarded clauses *)
        Alcotest.(check int) "both guards shed" 2 (Sat.simplify s);
        Alcotest.check result "sat" Sat.Sat (Sat.solve s));
    t "duplicate and subsumed clauses: the watched context keeps them, the \
       frame store removes them" (fun () ->
        let dup = [ [ 1; 2 ]; [ 1; 2 ]; [ 1; 2; 3 ] ] in
        let s = mk 3 dup in
        Alcotest.(check int) "watched: nothing removed" 0 (Sat.simplify s);
        Alcotest.(check (list (list int))) "watched: all three stored" dup
          (stored s);
        Alcotest.check result "still sat" Sat.Sat (Sat.solve s);
        let f = Sat.frame () in
        for _ = 1 to 3 do
          ignore (Sat.new_var f)
        done;
        List.iter (Sat.add_clause f) dup;
        Alcotest.(check int)
          "frame: the duplicate and the subsumed clause" 2 (Sat.simplify f);
        Alcotest.(check (pair int (list (list int))))
          "frame: one clause left" (3, [ [ 1; 2 ] ]) (Sat.export f));
    t "simplify on an unsat instance is sound" (fun () ->
        let s = mk 1 [ [ 1 ]; [ -1 ] ] in
        ignore (Sat.simplify s);
        Alcotest.check result "unsat" Sat.Unsat (Sat.solve s));
  ]

(* Random CNF cross-check against brute force. *)

let brute_force n_vars clauses =
  let rec go assignment v =
    if v > n_vars then
      if
        List.for_all
          (List.exists (fun l ->
               let value = List.nth assignment (abs l - 1) in
               if l > 0 then value else not value))
          clauses
      then Some assignment
      else None
    else
      match go (assignment @ [ true ]) (v + 1) with
      | Some a -> Some a
      | None -> go (assignment @ [ false ]) (v + 1)
  in
  go [] 1

let arb_cnf =
  let gen =
    QCheck.Gen.(
      int_range 1 9 >>= fun n_vars ->
      int_range 0 40 >>= fun n_clauses ->
      let lit = int_range 1 n_vars >>= fun v -> oneofl [ v; -v ] in
      let clause = list_size (int_range 1 3) lit in
      list_size (return n_clauses) clause >>= fun clauses ->
      return (n_vars, clauses))
  in
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "%d vars: %s" n
        (String.concat " "
           (List.map
              (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
              cs)))
    gen

let prop_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random cnf matches brute force" ~count:400
         arb_cnf (fun (n_vars, clauses) ->
           let expected =
             match brute_force n_vars clauses with
             | Some _ -> Sat.Sat
             | None -> Sat.Unsat
           in
           solve n_vars clauses = expected));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"sat models satisfy all clauses" ~count:400
         arb_cnf (fun (n_vars, clauses) ->
           let s = mk n_vars clauses in
           match Sat.solve s with
           | Sat.Unsat -> true
           | Sat.Sat ->
             List.for_all
               (fun clause ->
                 clause = []
                 || List.exists (fun l -> Sat.value s (abs l) = (l > 0)) clause)
               clauses));
  ]

let arb_cnf_with_assumptions =
  QCheck.make
    ~print:(fun ((n, cs), assumptions) ->
      Printf.sprintf "%d vars, %d clauses, assume %s" n (List.length cs)
        (String.concat "," (List.map string_of_int assumptions)))
    QCheck.Gen.(
      int_range 1 8 >>= fun n_vars ->
      let lit = int_range 1 n_vars >>= fun v -> oneofl [ v; -v ] in
      list_size (int_range 0 30) (list_size (int_range 1 3) lit)
      >>= fun clauses ->
      list_size (int_range 0 3) lit >>= fun assumptions ->
      return ((n_vars, clauses), assumptions))

let incremental_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"solving under assumptions equals solving with unit clauses"
         ~count:400 arb_cnf_with_assumptions
         (fun ((n_vars, clauses), assumptions) ->
           let s = mk n_vars clauses in
           let under = Sat.solve ~assumptions s in
           let s' = mk n_vars (clauses @ List.map (fun l -> [ l ]) assumptions) in
           under = Sat.solve s'));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"a second unconstrained solve is consistent with the first"
         ~count:200 arb_cnf_with_assumptions
         (fun ((n_vars, clauses), assumptions) ->
           let s = mk n_vars clauses in
           let first = Sat.solve s in
           ignore (Sat.solve ~assumptions s);
           first = Sat.solve s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"simplify preserves the verdict" ~count:300
         arb_cnf_with_assumptions
         (fun ((n_vars, clauses), assumptions) ->
           let reference = Sat.solve ~assumptions (mk n_vars clauses) in
           let s = mk n_vars clauses in
           ignore (Sat.simplify s);
           Sat.solve ~assumptions s = reference));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"age_activity preserves the verdict" ~count:200
         arb_cnf_with_assumptions
         (fun ((n_vars, clauses), assumptions) ->
           let s = mk n_vars clauses in
           let first = Sat.solve ~assumptions s in
           Sat.age_activity s;
           first = Sat.solve ~assumptions s));
  ]

(* Incremental differential check: random step sequences over one
   solver, each solve compared with brute force over every clause added
   so far plus the assumptions as units.  Interleaving additions,
   simplification and aging with solves exercises watchers left behind
   by earlier searches and by deleted clauses. *)
type step =
  | Add of int list list
  | Solve of int list
  | Simplify
  | Age

let pp_step = function
  | Add cs ->
    "add "
    ^ String.concat " "
        (List.map
           (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
           cs)
  | Solve a -> "solve [" ^ String.concat "," (List.map string_of_int a) ^ "]"
  | Simplify -> "simplify"
  | Age -> "age"

let arb_steps =
  QCheck.make
    ~print:(fun (n, steps) ->
      Printf.sprintf "%d vars: %s" n
        (String.concat "; " (List.map pp_step steps)))
    QCheck.Gen.(
      int_range 1 8 >>= fun n_vars ->
      let lit = int_range 1 n_vars >>= fun v -> oneofl [ v; -v ] in
      let clause = list_size (int_range 1 4) lit in
      let step =
        frequency
          [
            (3, map (fun cs -> Add cs) (list_size (int_range 1 8) clause));
            (3, map (fun a -> Solve a) (list_size (int_range 0 3) lit));
            (2, return Simplify);
            (1, return Age);
          ]
      in
      list_size (int_range 1 16) step >>= fun steps ->
      return (n_vars, steps @ [ Solve [] ]))

let step_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"step sequences on one solver match brute force" ~count:1000
         arb_steps (fun (n_vars, steps) ->
           let s = mk n_vars [] in
           let added = ref [] in
           List.for_all
             (function
               | Add cs ->
                 List.iter (Sat.add_clause s) cs;
                 added := cs @ !added;
                 true
               | Simplify ->
                 ignore (Sat.simplify s);
                 true
               | Age ->
                 Sat.age_activity s;
                 true
               | Solve assumptions -> (
                 let units = List.map (fun l -> [ l ]) assumptions in
                 let expected = brute_force n_vars (units @ !added) in
                 match (Sat.solve ~assumptions s, expected) with
                 | Sat.Unsat, None -> true
                 | Sat.Sat, Some _ -> satisfies s (units @ !added)
                 | _ -> false))
             steps));
  ]

(* --- the search, pinned ---

   Decision, propagation, conflict and restart counts of a few fixed
   instances.  The solver's bookkeeping (heap layout, value and reason
   arrays, clause intake) may change for speed, but the search it runs
   must not: any change to the branching order, the tie-breaking of
   equal activities, the propagation order or the literal order of a
   stored clause moves these numbers. *)

let counts s =
  let st = Sat.stats s in
  (st.Sat.decisions, st.Sat.propagations, st.Sat.conflicts, st.Sat.restarts)

let pp_counts (d, p, c, r) =
  Printf.sprintf "decisions %d, propagations %d, conflicts %d, restarts %d" d
    p c r

let counts_t =
  Alcotest.testable
    (fun fmt c -> Format.pp_print_string fmt (pp_counts c))
    ( = )

(* [n_clauses] clauses of three literals drawn uniformly, duplicates and
   tautologies included *)
let random_3sat ~seed ~n_vars ~n_clauses =
  let st = Random.State.make [| seed |] in
  let lit () =
    let v = 1 + Random.State.int st n_vars in
    if Random.State.bool st then v else -v
  in
  let clause () =
    let a = lit () in
    let b = lit () in
    [ a; b; lit () ]
  in
  let rec go k acc =
    if k = 0 then List.rev acc else go (k - 1) (clause () :: acc)
  in
  go n_clauses []

let pinned_search_tests =
  [
    t "php 7 6: pinned search counts" (fun () ->
        let n, cs = php 7 6 in
        let s = mk n cs in
        Alcotest.check result "unsat" Sat.Unsat (Sat.solve s);
        Alcotest.check counts_t "counts" (942, 9295, 754, 6) (counts s));
    t "random 3-SAT: pinned search counts" (fun () ->
        let sat_cs = random_3sat ~seed:7 ~n_vars:150 ~n_clauses:600 in
        let s_sat = mk 150 sat_cs in
        Alcotest.check result "sat" Sat.Sat (Sat.solve s_sat);
        Alcotest.(check bool) "model" true (satisfies s_sat sat_cs);
        (* hard enough for the learnt DB to be reduced *)
        let s_unsat =
          mk 200 (random_3sat ~seed:11 ~n_vars:200 ~n_clauses:860)
        in
        Alcotest.check result "unsat" Sat.Unsat (Sat.solve s_unsat);
        Alcotest.(check (list counts_t))
          "sat 150/600 (seed 7), unsat 200/860 (seed 11)"
          [ (286, 5795, 187, 2); (14362, 426807, 11711, 62) ]
          [ counts s_sat; counts s_unsat ]);
    t "guarded incremental sequence: pinned search counts" (fun () ->
        (* the engine's pattern on one solver: each query guarded by an
           activation literal, solved under it, retired by a unit,
           followed by simplification and aging *)
        let s = Sat.create () in
        let guarded (n, cs) =
          let base = Sat.num_vars s in
          for _ = 1 to n + 1 do
            ignore (Sat.new_var s)
          done;
          let act = base + n + 1 in
          let shift l = if l > 0 then l + base else l - base in
          List.iter
            (fun c ->
              Sat.add_clause ~activation:true s (-act :: List.map shift c))
            cs;
          act
        in
        let query name expected act =
          Alcotest.check result name expected (Sat.solve ~assumptions:[ act ] s);
          let c = counts s in
          Sat.add_clause ~activation:true s [ -act ];
          c
        in
        let a1 = guarded (php 6 5) in
        let c1 = query "php 6 5" Sat.Unsat a1 in
        ignore (Sat.simplify s);
        Sat.age_activity s;
        let a2 = guarded (40, random_3sat ~seed:3 ~n_vars:40 ~n_clauses:200) in
        let c2 = query "3-SAT 40/200" Sat.Unsat a2 in
        ignore (Sat.simplify s);
        Sat.age_activity s;
        let a3 = guarded (php 7 7) in
        let c3 = query "php 7 7" Sat.Sat a3 in
        ignore (Sat.simplify s);
        Sat.age_activity s;
        let a4 = guarded (70, random_3sat ~seed:5 ~n_vars:70 ~n_clauses:250) in
        let c4 = query "3-SAT 70/250" Sat.Sat a4 in
        Alcotest.check result "all retired" Sat.Sat (Sat.solve s);
        Alcotest.(check (list counts_t))
          "after each query, and at the end"
          [
            (202, 1784, 163, 2);
            (280, 2241, 202, 2);
            (378, 2370, 203, 2);
            (752, 5181, 330, 3);
            (941, 5371, 330, 3);
          ]
          [ c1; c2; c3; c4; counts s ]);
    t "units after the clauses: pinned search counts, no strengthening"
      (fun () ->
        (* units asserted after the clauses leave false literals in
           them; [simplify] on a watched context strengthens none of
           them and removes nothing a non-selector unit satisfies, so
           the search that follows is the one a solver that never ran
           the cleanup takes.  The frame store's pass strengthens the
           same CNF to the unit closure. *)
        let cs = random_3sat ~seed:13 ~n_vars:150 ~n_clauses:640 in
        let units = [ 4; -5; 6; -7; 8; -9 ] in
        let run ~clean =
          let s = mk 150 cs in
          Alcotest.check result "unsat under the assumptions" Sat.Unsat
            (Sat.solve ~assumptions:[ 1; -2; 3 ] s);
          let c1 = counts s in
          List.iter (fun l -> Sat.add_clause s [ l ]) units;
          if clean then
            Alcotest.(check int) "clauses removed" 0 (Sat.simplify s);
          Alcotest.check result "unsat" Sat.Unsat (Sat.solve s);
          (s, [ c1; counts s ])
        in
        let s, c = run ~clean:true in
        Alcotest.(check (list counts_t))
          "under the assumptions, then after the cleanup"
          [ (464, 11643, 379, 4); (547, 13258, 441, 4) ]
          c;
        Alcotest.(check (list counts_t))
          "as without the cleanup" (snd (run ~clean:false)) c;
        Alcotest.(check (list (list int)))
          "stored clauses as added" (stored (mk 150 cs)) (stored s);
        let f = Sat.frame () in
        for _ = 1 to 150 do
          ignore (Sat.new_var f)
        done;
        List.iter (Sat.add_clause f) (cs @ List.map (fun l -> [ l ]) units);
        ignore (Sat.simplify f);
        let n, fcnf = Sat.export f in
        Alcotest.(check bool)
          "frame: no clause holds a false or satisfied unit's literal" true
          (List.for_all
             (fun c ->
               List.length c = 1
               || List.for_all
                    (fun l -> not (List.mem l units || List.mem (-l) units))
                    c)
             fcnf);
        Alcotest.check result "frame: unsat" Sat.Unsat (solve n fcnf));
  ]

(* --- clause intake against the list-based reference ---

   [reference_intake] is the list-based [add_clause] front end the flat
   one replaced, kept as the oracle: given the literals fixed at level 0
   it says what a clause becomes.  Literals use the solver's internal
   encoding (2v positive, 2v + 1 negative), so [List.sort_uniq] orders
   a stored clause exactly as the solver must. *)
type intake = Dropped | Empty | Unit of int | Stored of int list

let reference_intake ~n_vars ~fixed ext_lits =
  let internal l =
    let v = abs l in
    if v = 0 || v > n_vars then invalid_arg "unknown literal";
    if l > 0 then 2 * v else (2 * v) + 1
  in
  let ext l = if l land 1 = 1 then -(l / 2) else l / 2 in
  let lits = List.sort_uniq compare (List.map internal ext_lits) in
  let value l =
    if List.mem (ext l) fixed then 1
    else if List.mem (-ext l) fixed then 2
    else 0
  in
  let tautology =
    List.exists (fun l -> List.mem (l lxor 1) lits) lits
    || List.exists (fun l -> value l = 1) lits
  in
  if tautology then Dropped
  else
    match List.map ext (List.filter (fun l -> value l <> 2) lits) with
    | [] -> Empty
    | [ l ] -> Unit l
    | ls -> Stored ls

(* level-0 unit propagation to fixpoint, by rescanning: [None] on a
   conflict.  Unit propagation reaches the same fixpoint in any order,
   so this is the set the solver's trail must hold. *)
let unit_closure fixed clauses =
  let fixed = ref fixed and changed = ref true and conflict = ref false in
  while !changed && not !conflict do
    changed := false;
    List.iter
      (fun c ->
        if not (!conflict || List.exists (fun l -> List.mem l !fixed) c) then
          match List.filter (fun l -> not (List.mem (-l) !fixed)) c with
          | [] -> conflict := true
          | [ l ] ->
            fixed := l :: !fixed;
            changed := true
          | _ -> ())
      clauses
  done;
  if !conflict then None else Some (List.sort_uniq compare !fixed)

let arb_intake =
  let gen =
    QCheck.Gen.(
      int_range 1 8 >>= fun n_vars ->
      let lit = int_range 1 n_vars >>= fun v -> oneofl [ v; -v ] in
      let unknown = oneofl [ 0; n_vars + 1; -(n_vars + 1); n_vars + 7 ] in
      let clause =
        list_size (int_range 0 5) lit >>= fun base ->
        (* duplicates, complements (tautologies) and, rarely, a literal
           of a variable that was never allocated *)
        let again f =
          if base = [] then return [] else map (fun l -> [ f l ]) (oneofl base)
        in
        let extra =
          frequency
            [
              (4, return []);
              (2, again Fun.id);
              (1, again Int.neg);
              (1, map (fun u -> [ u ]) unknown);
            ]
        in
        extra >>= fun e -> shuffle_l (base @ e)
      in
      let step = frequency [ (3, clause); (1, map (fun l -> [ l ]) lit) ] in
      list_size (int_range 1 30) step >>= fun steps -> return (n_vars, steps))
  in
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "%d vars: %s" n
        (String.concat " "
           (List.map
              (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
              cs)))
    gen

let intake_matches_reference (n_vars, steps) =
  let s = mk n_vars [] in
  let accepted = ref [] in
  let check_step c =
    let m, before = Sat.export s in
    assert (m = n_vars);
    let unsat_before = List.mem [] before in
    let fixed =
      List.filter_map (function [ l ] -> Some l | _ -> None) before
    and stored = List.filter (fun c -> List.length c >= 2) before in
    let n_before = Sat.num_clauses s in
    let expected =
      if unsat_before then Ok Dropped
      else
        try Ok (reference_intake ~n_vars ~fixed c)
        with Invalid_argument _ -> Error ()
    in
    let raised =
      match Sat.add_clause s c with
      | () -> false
      | exception Invalid_argument _ -> true
    in
    let _, after = Sat.export s in
    let n_after = Sat.num_clauses s in
    match expected with
    | Error () -> raised && after = before && n_after = n_before
    | Ok _ when raised -> false
    | Ok outcome -> (
      if not unsat_before then accepted := c :: !accepted;
      let units l = List.filter_map (function [ u ] -> Some u | _ -> None) l in
      let stored_after = List.filter (fun c -> List.length c >= 2) after in
      match outcome with
      | Dropped -> after = before && n_after = n_before
      | Stored ls ->
        n_after = n_before + 1
        && stored_after = stored @ [ ls ]
        && units after = fixed
        && not (List.mem [] after)
      | Empty -> List.mem [] after && n_after = n_before
      | Unit l -> (
        n_after = n_before
        &&
        match unit_closure (l :: fixed) stored with
        | None -> List.mem [] after
        | Some closure ->
          (not (List.mem [] after))
          && List.sort compare (units after) = closure))
  in
  List.for_all check_step steps
  &&
  let verdict = Sat.solve s in
  match brute_force n_vars !accepted with
  | None -> verdict = Sat.Unsat
  | Some _ -> verdict = Sat.Sat && satisfies s !accepted

let intake_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"add_clause equals the list-based reference intake"
         ~count:1000 arb_intake intake_matches_reference);
  ]

(* --- the retire pass against a fresh solver ---

   [simplify] on a watched context is the retire pass: it deletes the
   clauses that a retired selector's unit satisfies, read from the
   selector's occurrence vector, and touches nothing else.  Each step
   of a sequence runs on one solver, selectors from {!Sat.new_selector},
   and is followed by a cleanup; the query's answer and, after the
   cleanup, the answer of a solve without assumptions must equal a
   fresh solver's on every clause added so far, and unless a level-0
   conflict stopped the cleanups, no exported clause may hold a retired
   selector's (true) negation.  Frame units, learnt
   units and guard clauses holding [+act] leave clauses the pass does
   not shed: satisfied by a unit on another variable, or holding a
   false literal. *)
type retire_step =
  | Cone of int list list * int list option
      (* guarded clauses; a guard clause holding [+act] *)
  | Frame of int list (* an unguarded clause, possibly a unit *)
  | Cleanup (* a second cleanup, with no retire since the first *)

let pp_clause c = "(" ^ String.concat "|" (List.map string_of_int c) ^ ")"

let pp_retire_step = function
  | Cone (cs, plus) ->
    "cone "
    ^ String.concat " " (List.map pp_clause cs)
    ^ (match plus with Some c -> " +act" ^ pp_clause c | None -> "")
  | Frame c -> "frame " ^ pp_clause c
  | Cleanup -> "simplify"

let arb_retire =
  QCheck.make
    ~print:(fun (n, frame, steps) ->
      Printf.sprintf "%d vars, frame %s: %s" n
        (String.concat " " (List.map pp_clause frame))
        (String.concat "; " (List.map pp_retire_step steps)))
    QCheck.Gen.(
      int_range 3 9 >>= fun n_vars ->
      let lit = int_range 1 n_vars >>= fun v -> oneofl [ v; -v ] in
      let clause = list_size (int_range 1 3) lit in
      list_size (int_range 0 10) (list_size (int_range 2 3) lit)
      >>= fun frame ->
      let cone =
        list_size (int_range 1 10) clause >>= fun cs ->
        let plus = map Option.some (list_size (int_range 1 2) lit) in
        frequency [ (5, return None); (1, plus) ] >>= fun plus ->
        return (Cone (cs, plus))
      in
      let step =
        frequency
          [
            (6, cone);
            (1, map (fun c -> Frame c) (list_size (int_range 1 2) lit));
            (1, return Cleanup);
          ]
      in
      list_size (int_range 1 10) step >>= fun steps ->
      return (n_vars, frame, steps))

(* Runs a sequence and returns the solver, and per step whether it
   agreed with the fresh solver and shed every retired guard. *)
let run_retire (n_vars, frame, steps) =
  let s = mk n_vars frame in
  ignore (Sat.simplify s);
  let added = ref frame and retired = ref [] in
  let add ?activation c =
    Sat.add_clause ?activation s c;
    added := c :: !added
  in
  let fresh assumptions =
    Sat.solve ~assumptions (mk (Sat.num_vars s) !added)
  in
  let checks =
    List.map
      (fun step ->
        let answered =
          match step with
          | Frame c ->
            add c;
            true
          | Cleanup ->
            ignore (Sat.simplify s);
            true
          | Cone (cs, plus) ->
            let act = Sat.new_selector s in
            List.iter (fun c -> add ~activation:true (-act :: c)) cs;
            Option.iter (fun c -> add ~activation:true (act :: c)) plus;
            let r = Sat.solve ~assumptions:[ act ] s in
            let expected = fresh [ act ] in
            add ~activation:true [ -act ];
            retired := -act :: !retired;
            r = expected
        in
        ignore (Sat.simplify s);
        Sat.age_activity s;
        let cnf = snd (Sat.export s) in
        let shed =
          List.mem [] cnf
          || List.for_all
               (fun c ->
                 List.length c < 2
                 || not (List.exists (fun l -> List.mem l !retired) c))
               cnf
        in
        answered && Sat.solve s = fresh [] && shed)
      steps
  in
  (s, checks)

let check_retire seq =
  let s, checks = run_retire seq in
  List.iteri
    (fun k ok ->
      Alcotest.(check bool)
        (Printf.sprintf "step %d as a fresh solver" k)
        true ok)
    checks;
  s

let retire_tests =
  [
    t "retire pass: retired cones leave only the frame" (fun () ->
        let cone k =
          Cone (random_3sat ~seed:k ~n_vars:12 ~n_clauses:(30 + (10 * k)), None)
        in
        let frame = random_3sat ~seed:9 ~n_vars:12 ~n_clauses:12 in
        let s = check_retire (12, frame, List.init 4 cone) in
        Alcotest.(check int)
          "activation clauses" 0
          (Sat.num_activation_clauses s);
        Alcotest.(check (list (list int)))
          "stored clauses are the frame's"
          (stored (mk 12 frame))
          (stored s));
    t "retire pass: a +act guard and a frame unit leave their clauses"
      (fun () ->
        (* the +act guard holds its retired selector as a false literal:
           not satisfied, so it stays, and so does the frame *)
        let s =
          check_retire
            ( 6,
              [ [ 1; 2 ]; [ -2; 3 ] ],
              [
                Cone ([ [ 4; 5 ]; [ -4; 6 ] ], Some [ 5; 6 ]);
                Cone ([ [ -1 ] ], None);
                Frame [ 4 ];
                Cone ([ [ -5; -6 ] ], None);
              ] )
        in
        Alcotest.(check (list (list int)))
          "frame and the +act guard"
          [ [ 1; 2 ]; [ -2; 3 ]; [ 5; 6; 7 ] ]
          (stored s));
    t "retire pass: a learnt frame unit leaves the clauses it satisfies"
      (fun () ->
        (* deciding -1 (the initial phase) conflicts at once, so the
           query learns the unit 1 *)
        let s =
          check_retire
            ( 3,
              [ [ 1; 2 ]; [ 1; -2 ] ],
              [ Cone ([ [ 3 ] ], None); Cone ([ [ -3 ] ], None) ] )
        in
        let _, cnf = Sat.export s in
        Alcotest.(check bool) "the fact 1" true (List.mem [ 1 ] cnf);
        Alcotest.(check (list (list int)))
          "both frame clauses" [ [ 1; 2 ]; [ -2; 1 ] ] (stored s));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"retire pass: every step answers as a fresh solver" ~count:500
         arb_retire (fun seq -> List.for_all Fun.id (snd (run_retire seq))));
  ]

(* [f ()] and the Obs counters it left, in a counter session of its
   own *)
let with_counters f =
  Ilv_obs.Obs.configure ~trace_out:Filename.null ();
  Fun.protect ~finally:Ilv_obs.Obs.shutdown (fun () ->
      let x = f () in
      (x, Ilv_obs.Obs.counters ()))

let counter name counters =
  Option.value ~default:0 (List.assoc_opt name counters)

(* --- the clause arena under compaction ---

   A long guarded sequence on one solver: a frame, then cones over
   variables of their own, two of them hard enough for [reduce_db] to
   run more than once.  Deleted learnts and retired cones fill the arena
   with garbage until it is compacted.  Every answer must equal a fresh
   solver's on the frame plus the cone, and once every cone is retired
   only the frame is left, as it was stored. *)
let arena_tests =
  [
    t "compaction keeps answers and leaves only the frame" (fun () ->
        let frame_vars = 30 in
        let frame = random_3sat ~seed:4 ~n_vars:frame_vars ~n_clauses:60 in
        let cones =
          [
            php 6 5;
            (200, random_3sat ~seed:11 ~n_vars:200 ~n_clauses:860);
            php 7 7;
            php 8 7;
            (150, random_3sat ~seed:7 ~n_vars:150 ~n_clauses:600);
          ]
        in
        let s = mk frame_vars frame in
        ignore (Sat.simplify s);
        let frame_stored = stored s in
        let answers, counters =
          with_counters (fun () ->
              List.map
                (fun (n, cs) ->
                  let base = Sat.num_vars s in
                  for _ = 1 to n do
                    ignore (Sat.new_var s)
                  done;
                  let shift l = if l > 0 then l + base else l - base in
                  let cs = List.map (List.map shift) cs in
                  let act = Sat.new_selector s in
                  List.iter
                    (fun c -> Sat.add_clause ~activation:true s (-act :: c))
                    cs;
                  let r = Sat.solve ~assumptions:[ act ] s in
                  Sat.add_clause ~activation:true s [ -act ];
                  ignore (Sat.simplify s);
                  Sat.age_activity s;
                  (r, Sat.solve (mk (base + n) (frame @ cs))))
                cones)
        in
        List.iteri
          (fun k (got, fresh) ->
            Alcotest.check result (Printf.sprintf "cone %d" k) fresh got)
          answers;
        let at_least name n =
          let got = counter name counters in
          Alcotest.(check bool) (Printf.sprintf "%d %s" got name) true (got >= n)
        in
        at_least "sat.reductions" 2;
        at_least "sat.compactions" 1;
        Alcotest.(check int)
          "activation clauses" 0
          (Sat.num_activation_clauses s);
        (* the frame as it was stored: the retire pass sheds only the
           retired cones *)
        Alcotest.(check (list (list int)))
          "stored clauses are the frame's" frame_stored (stored s));
  ]

(* --- the frame store against a list-based reference ---

   [reference_subsume] is the list-based dedup/subsumption pass the
   store's sort-based one replaced, kept as the oracle (on records
   instead of stored clauses): given the clauses newest first, in the
   solver's internal literal encoding, it marks the ones the rule
   deletes. *)

type ref_clause = { r_lits : int array; mutable r_deleted : bool }

let reference_subsume n_vars clauses =
  let canon c =
    let a = Array.copy c.r_lits in
    Array.sort compare a;
    a
  in
  let keyed =
    List.filter_map
      (fun c -> if c.r_deleted then None else Some (c, canon c))
      clauses
  in
  let tbl = Hashtbl.create (max 16 (List.length keyed)) in
  List.iter
    (fun (c, k) ->
      let key = Array.to_list k in
      if Hashtbl.mem tbl key then c.r_deleted <- true
      else Hashtbl.add tbl key ())
    keyed;
  let keyed = List.filter (fun (c, _) -> not c.r_deleted) keyed in
  let occ = Array.make ((2 * n_vars) + 2) [] in
  List.iter
    (fun ck -> Array.iter (fun l -> occ.(l) <- ck :: occ.(l)) (snd ck))
    keyed;
  let subset a b =
    let na = Array.length a and nb = Array.length b in
    let rec go i j =
      if i >= na then true
      else if j >= nb then false
      else if a.(i) = b.(j) then go (i + 1) (j + 1)
      else if a.(i) > b.(j) then go i (j + 1)
      else false
    in
    go 0 0
  in
  List.iter
    (fun (c, k) ->
      if (not c.r_deleted) && Array.length k <= 8 then begin
        let rarest = ref k.(0) in
        Array.iter
          (fun l ->
            if List.length occ.(l) < List.length occ.(!rarest) then
              rarest := l)
          k;
        List.iter
          (fun (d, kd) ->
            if
              d != c
              && (not d.r_deleted)
              && Array.length kd > Array.length k
              && subset k kd
            then d.r_deleted <- true)
          occ.(!rarest)
      end)
    keyed

(* A stream of problem and guard clauses (a guard holds its selector
   negatively), with units before, among and after them. *)
type frame_step = Clause of bool * int list (* activation? *) | Unit of int

let pp_frame_step = function
  | Clause (act, c) -> (if act then "guard " else "") ^ pp_clause c
  | Unit l -> "unit " ^ string_of_int l


(* The store's pass on lists: the unit closure of every clause of the
   stream ([None] on a level-0 conflict), then the clauses it does not
   satisfy, stripped of their false literals, that keep at least two
   literals, and of those the ones [reference_subsume] keeps, with
   their activation flags.  Tautologies never reach the store. *)
let reference_frame n_vars steps =
  let clauses =
    List.filter_map
      (function
        | Unit l -> Some (false, [ l ])
        | Clause (act, c) ->
          let c = List.sort_uniq compare c in
          if List.exists (fun l -> List.mem (-l) c) c then None
          else Some (act, c))
      steps
  in
  match unit_closure [] (List.map snd clauses) with
  | None -> None
  | Some facts ->
    let internal l = if l > 0 then 2 * l else (2 * -l) + 1 in
    let ext l = if l land 1 = 0 then l / 2 else -(l / 2) in
    let records =
      List.rev
        (List.filter_map
           (fun (act, c) ->
             if List.exists (fun l -> List.mem l facts) c then None
             else
               match List.filter (fun l -> not (List.mem (-l) facts)) c with
               | _ :: _ :: _ as c ->
                 let lits = Array.of_list (List.map internal c) in
                 Some (act, { r_lits = lits; r_deleted = false })
               | _ -> None)
           clauses)
    in
    reference_subsume n_vars (List.map snd records);
    let kept =
      List.filter_map
        (fun (act, r) ->
          if r.r_deleted then None
          else
            Some
              (act, List.sort compare (List.map ext (Array.to_list r.r_lits))))
        records
    in
    Some (facts, kept)

(* A frame-only context fed [steps], [n_vars] variables allocated first
   and the rest as the clauses first use them: after [simplify], its
   export, clause count and activation clause count are the
   reference's, and [simplify] reports the clauses it removed. *)
let frame_matches_reference n_vars steps =
  let s = Sat.frame () in
  let use l =
    while Sat.num_vars s < abs l do
      ignore (Sat.new_var s)
    done
  in
  use n_vars;
  List.iter
    (function
      | Clause (activation, c) ->
        List.iter use c;
        Sat.add_clause ~activation s c
      | Unit l ->
        use l;
        Sat.add_clause s [ l ])
    steps;
  let before = Sat.num_clauses s in
  let removed = Sat.simplify s in
  let n_vars, cnf = Sat.export s in
  removed = before - Sat.num_clauses s
  &&
  match reference_frame n_vars steps with
  | None -> List.mem [] cnf
  | Some (facts, kept) ->
    let units, clauses = List.partition (fun c -> List.length c = 1) cnf in
    (not (List.mem [] cnf))
    && List.sort compare (List.concat units) = facts
    && List.sort compare clauses = List.sort compare (List.map snd kept)
    && Sat.num_clauses s = List.length kept
    && Sat.num_activation_clauses s = List.length (List.filter fst kept)

(* CNFs built to hit every case of the rule: exact duplicates (in
   another literal order), strict supersets of short and of long
   (> 8 literals, never subsuming) clauses, and unit clauses placed
   anywhere in the list, so that some literals are already false when
   later clauses arrive and others only become false in [simplify]. *)
let arb_subsumption_cnf =
  let gen st =
    let n_vars = 10 + Random.State.int st 4 in
    let var () = 1 + Random.State.int st n_vars in
    let lit () = if Random.State.bool st then var () else -var () in
    let shuffle l =
      List.map snd
        (List.sort compare (List.map (fun x -> (Random.State.bits st, x)) l))
    in
    (* [c] plus up to [n] literals over variables not in it *)
    let rec grow c n tries =
      if n = 0 || tries = 0 then c
      else
        let l = lit () in
        if List.exists (fun x -> abs x = abs l) c then grow c n (tries - 1)
        else grow (l :: c) (n - 1) (tries - 1)
    in
    let extend c n = shuffle (grow c n 50) in
    let base =
      List.init (2 + Random.State.int st 10) (fun _ ->
          extend []
            (if Random.State.int st 4 = 0 then 9 + Random.State.int st 3
             else 2 + Random.State.int st 4))
    in
    let pick () = List.nth base (Random.State.int st (List.length base)) in
    let derived =
      List.init (Random.State.int st 12) (fun _ ->
          match Random.State.int st 3 with
          | 0 -> shuffle (pick ())
          | 1 -> extend (pick ()) (1 + Random.State.int st 3)
          | _ -> extend [] (1 + Random.State.int st 3))
    in
    let units = List.init (Random.State.int st 3) (fun _ -> [ lit () ]) in
    (n_vars, shuffle (base @ derived @ units))
  in
  QCheck.make
    ~print:(fun (n, cs) ->
      Printf.sprintf "%d vars: %s" n
        (String.concat " "
           (List.map
              (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
              cs)))
    gen

let subsumption_props =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"the frame store's dedup/subsumption equals the reference pass"
         ~count:1000 arb_subsumption_cnf (fun (n_vars, clauses) ->
           frame_matches_reference n_vars
             (List.map (fun c -> Clause (false, c)) clauses)));
  ]

(* Streams that also hold a cascade three deep ([-a|b], [-b|c], [-c|d]
   and the unit [a], in any order), a clause satisfied by a later unit,
   and a problem clause and an activation copy of it (literals
   reversed), in either order: the newest of equal clauses stays, so
   the activation count says whether the copy does. *)
let arb_frame_stream =
  let gen st =
    let int = Random.State.int st in
    let n_plain = 8 + int 13 and n_sel = int 4 in
    let plain () = (1 + int n_plain) * if Random.State.bool st then 1 else -1 in
    let clause () = List.init (2 + int 3) (fun _ -> plain ()) in
    let random =
      List.init (int 21) (fun _ ->
          if n_sel > 0 && Random.State.bool st then
            Clause (true, -(n_plain + 1 + int n_sel) :: clause ())
          else Clause (false, clause ()))
      @ List.init (int 4) (fun _ ->
            if n_sel > 0 && int 3 = 0 then Unit (-(n_plain + 1 + int n_sel))
            else Unit (plain ()))
    in
    let keyed = List.map (fun step -> (int 1000, step)) random in
    let a, b, c, d = (plain (), plain (), plain (), plain ()) in
    let cascade =
      List.map
        (fun step -> (int 1000, step))
        [
          Clause (false, [ -a; b ]);
          Clause (false, [ -b; c ]);
          Clause (false, [ -c; d ]);
          Unit a;
        ]
    in
    let x = plain () in
    let k = int 1000 in
    let satisfied =
      [ (k, Clause (false, [ x; plain (); plain () ])); (k + 1 + int 1000, Unit x) ]
    in
    let c = clause () in
    let copies =
      [ (int 1000, Clause (false, c)); (int 1000, Clause (true, List.rev c)) ]
    in
    ( n_plain,
      n_sel,
      List.stable_sort
        (fun (i, _) (j, _) -> compare i j)
        (keyed @ cascade @ satisfied @ copies)
      |> List.map snd )
  in
  QCheck.make
    ~print:(fun (n_plain, n_sel, steps) ->
      Printf.sprintf "%d vars, %d selectors: %s" n_plain n_sel
        (String.concat "; " (List.map pp_frame_step steps)))
    gen

(* Streams of frame size: thousands of variables, allocated as the
   clauses first use them, and mostly new ones as the stream goes on,
   as a Tseitin encoding allocates them (every 50th is a selector,
   held negatively by the guards); thousands of clauses, among them
   re-added duplicates (literals shuffled and repeated), supersets of
   earlier clauses and subsets added after them; and units among them
   that satisfy and strip clauses. *)
let arb_big_frame_stream =
  let gen st =
    let int = Random.State.int st in
    let n_vars = 1000 + int 3000 and n = 2000 + int 6000 in
    let steps = ref [] in
    let past = Array.make n (Clause (false, [])) in
    for i = 0 to n - 1 do
      let seen = 2 + (n_vars * i / n) in
      let var () =
        let v = 1 + int seen in
        if v mod 50 = 0 then v + 1 else v
      in
      let lit () = if Random.State.bool st then var () else -var () in
      let fresh () =
        let c = List.init (2 + int 3) (fun _ -> lit ()) in
        if int 4 = 0 then
          Clause (true, -(50 * (1 + int (1 + (seen / 50)))) :: c)
        else Clause (false, c)
      in
      let step =
        match (int 10, past.(int (max 1 i))) with
        | 0, Clause (act, c) when i > 0 ->
          Clause (act, List.rev (List.hd c :: c))
        | 1, Clause (act, c) when i > 0 -> Clause (act, lit () :: c)
        | 2, Clause (act, (_ :: _ :: _ :: _ as c)) when i > 0 ->
          Clause (act, List.tl c)
        | _ -> fresh ()
      in
      past.(i) <- step;
      steps := step :: !steps;
      if int 400 = 0 then steps := Unit (lit ()) :: !steps
    done;
    (n_vars, List.rev !steps)
  in
  QCheck.make
    ~print:(fun (n_vars, steps) ->
      Printf.sprintf "%d vars, %d steps" n_vars (List.length steps))
    gen

let frame_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"the frame store's pass equals the list-based reference"
         ~count:1000 arb_frame_stream (fun (n_plain, n_sel, steps) ->
           frame_matches_reference (n_plain + n_sel) steps));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"frame-sized streams: the store's pass equals the reference"
         ~count:25 arb_big_frame_stream (fun (_, steps) ->
           frame_matches_reference 0 steps));
    t "solving a frame-only context raises" (fun () ->
        let s = Sat.frame () in
        let v = Sat.new_var s in
        Sat.add_clause s [ v ];
        List.iter
          (fun solve ->
            match solve s with
            | _ -> Alcotest.fail "a frame-only context solved"
            | exception Invalid_argument _ -> ())
          [
            (fun s -> ignore (Sat.solve s));
            (fun s -> ignore (Sat.solve_bounded ~assumptions:[ v ] s));
          ]);
  ]


let suite =
  [
    ("sat:unit", unit_tests);
    ("sat:pigeonhole", pigeonhole_tests);
    ("sat:activation", activation_tests);
    ("sat:simplify", simplify_tests @ subsumption_props);
    ("sat:props", prop_tests);
    ("sat:incremental", incremental_props @ step_props);
    ("sat:pinned", pinned_search_tests);
    ("sat:intake", intake_props);
    ("sat:retire", retire_tests);
    ("sat:arena", arena_tests);
    ("sat:frame", frame_tests);
  ]
