open Ilv_expr
open Ilv_rtl

type operator =
  | Stuck_at_0
  | Stuck_at_1
  | Const_bit_flip of int
  | And_or_swap
  | Add_sub_swap
  | Cmp_off_by_one
  | Guard_negate
  | Reset_corrupt

type location = Wire of string | Reg_next of string | Reg_init of string

type mutation = {
  m_id : int;
  location : location;
  operator : operator;
  detail : string;
}

type mutant = { mutation : mutation; rtl : Rtl.t }

let operator_name = function
  | Stuck_at_0 -> "stuck-at-0"
  | Stuck_at_1 -> "stuck-at-1"
  | Const_bit_flip i -> Printf.sprintf "const-bit-flip[%d]" i
  | And_or_swap -> "and-or-swap"
  | Add_sub_swap -> "add-sub-swap"
  | Cmp_off_by_one -> "cmp-off-by-one"
  | Guard_negate -> "guard-negate"
  | Reset_corrupt -> "reset-corrupt"

let location_name = function
  | Wire w -> "wire " ^ w
  | Reg_next r -> "reg " ^ r ^ ".next"
  | Reg_init r -> "reg " ^ r ^ ".init"

let describe m =
  Printf.sprintf "#%d %s at %s%s" m.m_id (operator_name m.operator)
    (location_name m.location)
    (if m.detail = "" then "" else " (" ^ m.detail ^ ")")

(* one line: each break Format made becomes one space, as if the
   margin were never reached *)
let truncated e =
  let s =
    String.split_on_char '\n' (Pp_expr.infix_to_string e)
    |> List.map String.trim |> String.concat " "
  in
  if String.length s <= 32 then s else String.sub s 0 29 ^ "..."

(* Replace every occurrence of the (hash-consed) node [target] inside
   [e] with [replacement], rebuilding through the checked smart
   constructors so the result is well-sorted by construction. *)
let replace ~target ~replacement e =
  let memo : (int, Expr.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go e =
    if Expr.equal e target then replacement
    else
      match Hashtbl.find_opt memo (Expr.id e) with
      | Some r -> r
      | None ->
        let r = compute e in
        Hashtbl.add memo (Expr.id e) r;
        r
  and compute e =
    match Expr.node e with
    | Expr.Var _ | Expr.Bool_const _ | Expr.Bv_const _ | Expr.Mem_init _ -> e
    | Expr.Not a -> Build.not_ (go a)
    | Expr.And (a, b) -> Build.( &&: ) (go a) (go b)
    | Expr.Or (a, b) -> Build.( ||: ) (go a) (go b)
    | Expr.Xor (a, b) -> Build.xor (go a) (go b)
    | Expr.Implies (a, b) -> Build.( ==>: ) (go a) (go b)
    | Expr.Eq (a, b) -> Build.eq (go a) (go b)
    | Expr.Ite (c, a, b) -> Build.ite (go c) (go a) (go b)
    | Expr.Unop (op, a) -> (
      match op with
      | Expr.Bv_not -> Build.bv_not (go a)
      | Expr.Bv_neg -> Build.bv_neg (go a))
    | Expr.Binop (op, a, b) -> (
      let x = go a and y = go b in
      match op with
      | Expr.Bv_add -> Build.( +: ) x y
      | Expr.Bv_sub -> Build.( -: ) x y
      | Expr.Bv_mul -> Build.( *: ) x y
      | Expr.Bv_udiv -> Build.udiv x y
      | Expr.Bv_urem -> Build.urem x y
      | Expr.Bv_and -> Build.( &: ) x y
      | Expr.Bv_or -> Build.( |: ) x y
      | Expr.Bv_xor -> Build.( ^: ) x y
      | Expr.Bv_shl -> Build.shl x y
      | Expr.Bv_lshr -> Build.lshr x y
      | Expr.Bv_ashr -> Build.ashr x y)
    | Expr.Cmp (op, a, b) -> (
      let x = go a and y = go b in
      match op with
      | Expr.Bv_ult -> Build.( <: ) x y
      | Expr.Bv_ule -> Build.( <=: ) x y
      | Expr.Bv_slt -> Build.slt x y
      | Expr.Bv_sle -> Build.sle x y)
    | Expr.Concat (hi, lo) -> Build.concat (go hi) (go lo)
    | Expr.Extract { hi; lo; arg } -> Build.extract ~hi ~lo (go arg)
    | Expr.Extend { signed; width; arg } ->
      if signed then Build.sext (go arg) width else Build.zext (go arg) width
    | Expr.Read { mem; addr } -> Build.read (go mem) (go addr)
    | Expr.Write { mem; addr; data } ->
      Build.write (go mem) (go addr) (go data)
  in
  go e

(* The node-level fault candidates inside one expression, in
   deterministic (bottom-up, each distinct node once) order.  Each
   candidate is the mutated node paired with the operator and a
   human-readable anchor. *)
let node_faults e =
  let candidates = ref [] in
  let add op target replacement =
    if not (Expr.equal target replacement) then
      candidates := (op, target, replacement, truncated target) :: !candidates
  in
  let visit () n =
    match Expr.node n with
    | Expr.And (a, b) -> add And_or_swap n (Build.( ||: ) a b)
    | Expr.Or (a, b) -> add And_or_swap n (Build.( &&: ) a b)
    | Expr.Binop (Expr.Bv_and, a, b) -> add And_or_swap n (Build.( |: ) a b)
    | Expr.Binop (Expr.Bv_or, a, b) -> add And_or_swap n (Build.( &: ) a b)
    | Expr.Binop (Expr.Bv_add, a, b) -> add Add_sub_swap n (Build.( -: ) a b)
    | Expr.Binop (Expr.Bv_sub, a, b) -> add Add_sub_swap n (Build.( +: ) a b)
    | Expr.Cmp (Expr.Bv_ult, a, b) -> add Cmp_off_by_one n (Build.( <=: ) a b)
    | Expr.Cmp (Expr.Bv_ule, a, b) -> add Cmp_off_by_one n (Build.( <: ) a b)
    | Expr.Cmp (Expr.Bv_slt, a, b) -> add Cmp_off_by_one n (Build.sle a b)
    | Expr.Cmp (Expr.Bv_sle, a, b) -> add Cmp_off_by_one n (Build.slt a b)
    | Expr.Ite (c, t, f) -> add Guard_negate n (Build.ite (Build.not_ c) t f)
    | Expr.Bool_const b -> add (Const_bit_flip 0) n (Build.bool (not b))
    | Expr.Bv_const v ->
      let w = Bitvec.width v in
      let flip i =
        add (Const_bit_flip i) n
          (Build.bv_of (Bitvec.logxor v (Bitvec.shl (Bitvec.one w) i)))
      in
      flip 0;
      if w > 1 then flip (w - 1)
    | _ -> ()
  in
  Expr.fold visit () e;
  List.rev !candidates

(* The whole-net faults: tie the expression to constant 0 / constant 1
   (all-ones).  Memories have no useful stuck-at constant; skip them. *)
let stuck_faults e =
  match Expr.sort e with
  | Sort.Bool -> [ (Stuck_at_0, Build.ff); (Stuck_at_1, Build.tt) ]
  | Sort.Bitvec w ->
    [
      (Stuck_at_0, Build.bv_of (Bitvec.zero w));
      (Stuck_at_1, Build.bv_of (Bitvec.ones w));
    ]
  | Sort.Mem _ -> []

let corrupt_init r =
  match Rtl.init_value r with
  | Value.V_bool b -> Some (Value.of_bool (not b))
  | Value.V_bv v ->
    Some (Value.of_bv (Bitvec.logxor v (Bitvec.one (Bitvec.width v))))
  | Value.V_mem _ -> None

let remake (d : Rtl.t) ~registers ~wires =
  Rtl.make ~name:d.Rtl.name ~inputs:d.Rtl.inputs ~registers ~wires
    ~outputs:d.Rtl.outputs

(* One mutant per fault: rebuild the design with exactly one location's
   expression (or one register's reset value) replaced. *)
let apply (d : Rtl.t) location mutated_expr init_value =
  match location with
  | Wire w ->
    remake d ~registers:d.Rtl.registers
      ~wires:
        (List.map
           (fun (n, e) -> if n = w then (n, Option.get mutated_expr) else (n, e))
           d.Rtl.wires)
  | Reg_next r ->
    remake d ~wires:d.Rtl.wires
      ~registers:
        (List.map
           (fun (reg : Rtl.register) ->
             if reg.Rtl.reg_name = r then
               { reg with Rtl.next = Option.get mutated_expr }
             else reg)
           d.Rtl.registers)
  | Reg_init r ->
    remake d ~wires:d.Rtl.wires
      ~registers:
        (List.map
           (fun (reg : Rtl.register) ->
             if reg.Rtl.reg_name = r then
               { reg with Rtl.init = Some (Option.get init_value) }
             else reg)
           d.Rtl.registers)

type site = {
  fault : mutation;
  design : Rtl.t;
  mutated_expr : Expr.t option;
  init_value : Value.t option;
}

let sites (d : Rtl.t) =
  let faults = ref [] in
  (* deterministic site order: register nexts, register resets, wires *)
  let expr_site location e =
    List.iter
      (fun (op, repl) ->
        if not (Expr.equal e repl) then
          faults := (location, op, Some repl, None, "") :: !faults)
      (stuck_faults e);
    List.iter
      (fun (op, target, replacement, detail) ->
        let mutated = replace ~target ~replacement e in
        if not (Expr.equal mutated e) then
          faults := (location, op, Some mutated, None, detail) :: !faults)
      (node_faults e)
  in
  List.iter
    (fun (r : Rtl.register) -> expr_site (Reg_next r.Rtl.reg_name) r.Rtl.next)
    d.Rtl.registers;
  List.iter
    (fun (r : Rtl.register) ->
      match corrupt_init r with
      | Some v ->
        faults :=
          ( Reg_init r.Rtl.reg_name,
            Reset_corrupt,
            None,
            Some v,
            Value.to_string (Rtl.init_value r) )
          :: !faults
      | None -> ())
    d.Rtl.registers;
  List.iter (fun (n, e) -> expr_site (Wire n) e) d.Rtl.wires;
  Array.of_list
    (List.mapi
       (fun i (location, operator, mutated_expr, init_value, detail) ->
         {
           fault = { m_id = i; location; operator; detail };
           design = d;
           mutated_expr;
           init_value;
         })
       (List.rev !faults))

let site_mutation s = s.fault

let build s =
  {
    mutation = s.fault;
    rtl = apply s.design s.fault.location s.mutated_expr s.init_value;
  }

let pick ~seed ~max_mutants all =
  let max_mutants = max 0 max_mutants in
  let all = Array.copy all in
  let n = Array.length all in
  if n <= max_mutants then Array.to_list all
  else begin
    (* seeded Fisher-Yates prefix: deterministic for a given seed *)
    let rng = Random.State.make [| seed; n |] in
    for i = 0 to max_mutants - 1 do
      let j = i + Random.State.int rng (n - i) in
      let tmp = all.(i) in
      all.(i) <- all.(j);
      all.(j) <- tmp
    done;
    Array.to_list (Array.sub all 0 max_mutants)
  end
