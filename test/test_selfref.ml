(* Self-refinement fuzzing of the verification pipeline.

   Oracle 1: every RTL design refines its mechanically derived
   single-instruction ILA, so Verify must prove it.

   Oracle 2: after a semantic mutation of one register's next-state
   function (confirmed semantic by random evaluation), Verify must
   FAIL.  Together these fuzz property generation, unrolling,
   bit-blasting and the SAT solver from both directions. *)

open Ilv_expr
open Ilv_rtl
open Ilv_core
open Ilv_designs
open Ilv_engine

let t name f = Alcotest.test_case name `Quick f

let self_verify rtl =
  let ila, refmap = Ila_of_rtl.derive rtl in
  fst
    (Engine.verify ~name:("self:" ^ rtl.Rtl.name)
       (Compose.union ~name:"SELF" [ ila ])
       rtl
       ~refmap_for:(fun _ -> refmap))

let selfref_tests =
  List.map
    (fun (rtl : Rtl.t) ->
      t (rtl.Rtl.name ^ " refines its derived step-ILA") (fun () ->
          let report = self_verify rtl in
          if not (Verify.proved report) then
            Alcotest.failf "self-refinement failed:@ %a"
              (fun fmt () -> Verify.pp_report fmt report)
              ()))
    ([
       Decoder_8051.rtl;
       Axi_slave.rtl;
       Mem_iface_8051.design.Design.rtl;
       Clock_gen.design.Design.rtl;
       Store_buffer.design_abstract.Design.rtl;
     ]
    @ [ Soc_top.rtl ])

(* ---------- mutation testing ---------- *)

(* Rebuild [e] with the [target]-th distinct subexpression transformed
   by [f] (identity on non-bitvector/bool nodes it cannot change). *)
let mutate_nth rng e =
  let size = Expr.dag_size e in
  let target = Random.State.int rng size in
  let counter = ref (-1) in
  let memo : (int, Expr.t) Hashtbl.t = Hashtbl.create 64 in
  let mutate_node e' =
    (* structural tweaks that usually change semantics *)
    match Expr.node e' with
    | Expr.Binop (Expr.Bv_add, a, b) -> Build.( -: ) a b
    | Expr.Binop (Expr.Bv_sub, a, b) -> Build.( +: ) a b
    | Expr.Binop (Expr.Bv_and, a, b) -> Build.( |: ) a b
    | Expr.Binop (Expr.Bv_or, a, b) -> Build.( &: ) a b
    | Expr.Binop (Expr.Bv_xor, a, b) -> Build.( |: ) a b
    | Expr.And (a, b) -> Build.( ||: ) a b
    | Expr.Or (a, b) -> Build.( &&: ) a b
    | Expr.Not a -> a
    | Expr.Ite (c, a, b) -> Build.ite c b a
    | Expr.Eq (a, b) when Sort.is_bv (Expr.sort a) -> Build.( <: ) a b
    | Expr.Cmp (Expr.Bv_ult, a, b) -> Build.( <=: ) a b
    | Expr.Cmp (Expr.Bv_ule, a, b) -> Build.( <: ) a b
    | Expr.Bv_const v ->
      Build.bv_of (Bitvec.lognot v)
    | Expr.Bool_const b -> Build.bool (not b)
    | Expr.Extract { hi; lo; arg } when lo > 0 ->
      Build.extract ~hi:(hi - 1) ~lo:(lo - 1) arg
    | _ -> e'
  in
  let rec go e' =
    match Hashtbl.find_opt memo (Expr.id e') with
    | Some r -> r
    | None ->
      incr counter;
      let this = !counter in
      let rebuilt =
        match Expr.node e' with
        | Expr.Var _ | Expr.Bool_const _ | Expr.Bv_const _ | Expr.Mem_init _
          -> e'
        | Expr.Not a -> Build.not_ (go a)
        | Expr.And (a, b) -> Build.( &&: ) (go a) (go b)
        | Expr.Or (a, b) -> Build.( ||: ) (go a) (go b)
        | Expr.Xor (a, b) -> Build.xor (go a) (go b)
        | Expr.Implies (a, b) -> Build.( ==>: ) (go a) (go b)
        | Expr.Eq (a, b) -> Build.eq (go a) (go b)
        | Expr.Ite (c, a, b) -> Build.ite (go c) (go a) (go b)
        | Expr.Unop (Expr.Bv_not, a) -> Build.bv_not (go a)
        | Expr.Unop (Expr.Bv_neg, a) -> Build.bv_neg (go a)
        | Expr.Binop (op, a, b) -> Expr.binop op (go a) (go b)
        | Expr.Cmp (op, a, b) -> Expr.cmp op (go a) (go b)
        | Expr.Concat (a, b) -> Build.concat (go a) (go b)
        | Expr.Extract { hi; lo; arg } -> Build.extract ~hi ~lo (go arg)
        | Expr.Extend { signed; width; arg } ->
          if signed then Build.sext (go arg) width
          else Build.zext (go arg) width
        | Expr.Read { mem; addr } -> Build.read (go mem) (go addr)
        | Expr.Write { mem; addr; data } ->
          Build.write (go mem) (go addr) (go data)
      in
      let result = if this = target then mutate_node rebuilt else rebuilt in
      Hashtbl.add memo (Expr.id e') result;
      result
  in
  let mutated = go e in
  if Expr.equal mutated e then None else Some mutated

let random_value rng sort =
  match sort with
  | Sort.Bool -> Value.of_bool (Random.State.bool rng)
  | Sort.Bitvec w ->
    Value.of_bv
      (Bitvec.of_bits (List.init w (fun _ -> Random.State.bool rng)))
  | Sort.Mem { addr_width; data_width } ->
    Value.mem_const ~addr_width
      ~default:
        (Bitvec.of_bits (List.init data_width (fun _ -> Random.State.bool rng)))

(* Is the mutated expression observably different?  Sample random
   environments; if any distinguishes them, the mutation is semantic. *)
let observably_different rng original mutated =
  let vars = Expr.vars original in
  let distinguishes () =
    let env =
      Eval.env_of_list
        (List.map (fun (n, sort) -> (n, random_value rng sort)) vars)
    in
    not (Value.equal (Eval.eval env original) (Eval.eval env mutated))
  in
  let rec try_n n = n > 0 && (distinguishes () || try_n (n - 1)) in
  try_n 64

let mutate_design rng (rtl : Rtl.t) =
  (* pick a register and mutate its (wire-inlined equivalent) next fn;
     mutate the RTL-side expression directly so the design still
     validates *)
  let regs = Array.of_list rtl.Rtl.registers in
  let victim = regs.(Random.State.int rng (Array.length regs)) in
  match mutate_nth rng victim.Rtl.next with
  | None -> None
  | Some next' ->
    if not (Sort.equal (Expr.sort next') victim.Rtl.sort) then None
    else if not (observably_different rng victim.Rtl.next next') then None
    else
      Some
        (Rtl.make ~name:(rtl.Rtl.name ^ "_mut") ~inputs:rtl.Rtl.inputs
           ~registers:
             (List.map
                (fun (r : Rtl.register) ->
                  if r.Rtl.reg_name = victim.Rtl.reg_name then
                    { r with Rtl.next = next' }
                  else r)
                rtl.Rtl.registers)
           ~wires:rtl.Rtl.wires ~outputs:rtl.Rtl.outputs)

let mutation_case (rtl : Rtl.t) seeds =
  t (rtl.Rtl.name ^ ": semantic mutations are caught") (fun () ->
      let ila, _ = Ila_of_rtl.derive rtl in
      let caught = ref 0 and tried = ref 0 in
      List.iter
        (fun seed ->
          let rng = Random.State.make [| seed |] in
          match mutate_design rng rtl with
          | None -> () (* mutation was neutral or ill-typed; skip *)
          | Some mutated ->
            incr tried;
            (* the reference ILA comes from the ORIGINAL design; only
               the refinement map is rebuilt against the mutated RTL
               (same net names) *)
            let refmap_for _ =
              Refmap.make ~ila ~rtl:mutated
                ~state_map:
                  (List.map
                     (fun (r : Rtl.register) ->
                       (r.Rtl.reg_name, Expr.var r.Rtl.reg_name r.Rtl.sort))
                     rtl.Rtl.registers)
                ~interface_map:
                  (List.map
                     (fun (n, sort) -> (n, Expr.var n sort))
                     rtl.Rtl.inputs)
                ~instruction_maps:[ Refmap.imap "STEP" (Refmap.After_cycles 1) ]
                ()
            in
            let report, _ =
              Engine.verify ~name:"mutation"
                (Compose.union ~name:"SELF" [ ila ])
                mutated ~refmap_for
            in
            if not (Verify.proved report) then incr caught
            else
              Alcotest.failf "seed %d: semantic mutation went undetected" seed)
        seeds;
      if !tried = 0 then Alcotest.fail "no semantic mutation was generated";
      Alcotest.(check int) "all caught" !tried !caught)

let mutation_tests =
  [
    mutation_case Decoder_8051.rtl (List.init 25 (fun i -> i));
    mutation_case Clock_gen.design.Design.rtl (List.init 25 (fun i -> i + 100));
    mutation_case Mem_iface_8051.design.Design.rtl
      (List.init 15 (fun i -> i + 200));
  ]

let suite =
  [ ("selfref:prove", selfref_tests); ("selfref:mutations", mutation_tests) ]
