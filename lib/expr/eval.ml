module Str_map = Map.Make (String)

type env = Value.t Str_map.t

exception Unbound_variable of string
exception Eval_error of string

let env_empty = Str_map.empty
let env_add = Str_map.add
let env_find name env = Str_map.find_opt name env
let env_bindings env = Str_map.bindings env

let env_of_list l =
  List.fold_left (fun m (k, v) -> Str_map.add k v m) Str_map.empty l

let err fmt = Format.kasprintf (fun s -> raise (Eval_error s)) fmt

let as_bool = function
  | Value.V_bool b -> b
  | Value.V_bv _ | Value.V_mem _ -> err "expected bool"

let as_bv = function
  | Value.V_bv v -> v
  | Value.V_bool _ | Value.V_mem _ -> err "expected bitvector"

let as_mem = function
  | Value.V_mem m -> m
  | Value.V_bool _ | Value.V_bv _ -> err "expected memory"

(* the operator semantics, shared by [eval] and [compile] *)
let unop = function Expr.Bv_not -> Bitvec.lognot | Expr.Bv_neg -> Bitvec.neg

let binop = function
  | Expr.Bv_add -> Bitvec.add
  | Expr.Bv_sub -> Bitvec.sub
  | Expr.Bv_mul -> Bitvec.mul
  | Expr.Bv_udiv -> Bitvec.udiv
  | Expr.Bv_urem -> Bitvec.urem
  | Expr.Bv_and -> Bitvec.logand
  | Expr.Bv_or -> Bitvec.logor
  | Expr.Bv_xor -> Bitvec.logxor
  | Expr.Bv_shl -> Bitvec.shl_bv
  | Expr.Bv_lshr -> Bitvec.lshr_bv
  | Expr.Bv_ashr -> Bitvec.ashr_bv

let cmp = function
  | Expr.Bv_ult -> Bitvec.ult
  | Expr.Bv_ule -> Bitvec.ule
  | Expr.Bv_slt -> Bitvec.slt
  | Expr.Bv_sle -> Bitvec.sle

let extend ~signed width x =
  if signed then Bitvec.sign_extend x width else Bitvec.zero_extend x width

let eval env e =
  let memo : (int, Value.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo (Expr.id e) with
    | Some v -> v
    | None ->
      let v = compute e in
      Hashtbl.add memo (Expr.id e) v;
      v
  and bool_of e = as_bool (go e)
  and bv_of e = as_bv (go e)
  and compute e =
    match Expr.node e with
    | Expr.Var name -> (
      match Str_map.find_opt name env with
      | Some v ->
        if not (Sort.equal (Value.sort v) (Expr.sort e)) then
          err "variable %s bound at sort %a, used at %a" name Sort.pp
            (Value.sort v) Sort.pp (Expr.sort e)
        else v
      | None -> raise (Unbound_variable name))
    | Expr.Bool_const b -> Value.V_bool b
    | Expr.Bv_const v -> Value.V_bv v
    | Expr.Not a -> Value.V_bool (not (bool_of a))
    | Expr.And (a, b) -> Value.V_bool (bool_of a && bool_of b)
    | Expr.Or (a, b) -> Value.V_bool (bool_of a || bool_of b)
    | Expr.Xor (a, b) -> Value.V_bool (bool_of a <> bool_of b)
    | Expr.Implies (a, b) -> Value.V_bool ((not (bool_of a)) || bool_of b)
    | Expr.Eq (a, b) -> Value.V_bool (Value.equal (go a) (go b))
    | Expr.Ite (c, a, b) -> if bool_of c then go a else go b
    | Expr.Unop (op, a) -> Value.V_bv (unop op (bv_of a))
    | Expr.Binop (op, a, b) ->
      let x = bv_of a and y = bv_of b in
      Value.V_bv (binop op x y)
    | Expr.Cmp (op, a, b) ->
      let x = bv_of a and y = bv_of b in
      Value.V_bool (cmp op x y)
    | Expr.Concat (hi, lo) -> Value.V_bv (Bitvec.concat (bv_of hi) (bv_of lo))
    | Expr.Extract { hi; lo; arg } ->
      Value.V_bv (Bitvec.extract ~hi ~lo (bv_of arg))
    | Expr.Extend { signed; width; arg } ->
      Value.V_bv (extend ~signed width (bv_of arg))
    | Expr.Read { mem; addr } ->
      Value.V_bv (Value.mem_read (as_mem (go mem)) (bv_of addr))
    | Expr.Write { mem; addr; data } ->
      Value.V_mem
        (Value.mem_write (as_mem (go mem)) (bv_of addr) (bv_of data))
    | Expr.Mem_init { addr_width; default } ->
      Value.mem_const ~addr_width ~default
  in
  go e

let eval_bool env e = Value.to_bool (eval env e)
let eval_int env e = Value.to_int (eval env e)

(* ---- compiled evaluation ---- *)

type layout = { mutable n_slots : int }
type program = (Value.t array -> unit) array

let layout () = { n_slots = 0 }

let slot l =
  let s = l.n_slots in
  l.n_slots <- s + 1;
  s

let frame l = Array.make l.n_slots (Value.V_bool false)
let v_true = Value.V_bool true
let v_false = Value.V_bool false
let of_bool b = if b then v_true else v_false

let compile l ~var ?(defs = fun _ -> None) es =
  let memo : (int, int) Hashtbl.t = Hashtbl.create 64 in
  let def_slots : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let code = ref [] in
  (* one instruction: [f] computes the node's value from the frame *)
  let emit f =
    let s = slot l in
    code := (fun v -> v.(s) <- f v) :: !code;
    s
  in
  let rec go e =
    match Hashtbl.find_opt memo (Expr.id e) with
    | Some s -> s
    | None ->
      let s = compute e in
      Hashtbl.add memo (Expr.id e) s;
      s
  and variable name =
    match Hashtbl.find_opt def_slots name with
    | Some s -> s
    | None -> (
      match defs name with
      | Some d ->
        let s = go d in
        Hashtbl.add def_slots name s;
        s
      | None -> var name)
  and compute e =
    let bool1 f a =
      let a = go a in
      emit (fun v -> of_bool (f (as_bool v.(a))))
    and bool2 f a b =
      let a = go a and b = go b in
      emit (fun v -> of_bool (f (as_bool v.(a)) (as_bool v.(b))))
    in
    match Expr.node e with
    | Expr.Var name -> variable name
    | Expr.Bool_const b ->
      let c = of_bool b in
      emit (fun _ -> c)
    | Expr.Bv_const x ->
      let c = Value.V_bv x in
      emit (fun _ -> c)
    | Expr.Mem_init { addr_width; default } ->
      let c = Value.mem_const ~addr_width ~default in
      emit (fun _ -> c)
    | Expr.Not a -> bool1 not a
    | Expr.And (a, b) -> bool2 ( && ) a b
    | Expr.Or (a, b) -> bool2 ( || ) a b
    | Expr.Xor (a, b) -> bool2 ( <> ) a b
    | Expr.Implies (a, b) -> bool2 (fun x y -> (not x) || y) a b
    | Expr.Eq (a, b) ->
      let a = go a and b = go b in
      emit (fun v -> of_bool (Value.equal v.(a) v.(b)))
    | Expr.Ite (c, a, b) ->
      let c = go c and a = go a and b = go b in
      emit (fun v -> if as_bool v.(c) then v.(a) else v.(b))
    | Expr.Unop (op, a) ->
      let f = unop op and a = go a in
      emit (fun v -> Value.V_bv (f (as_bv v.(a))))
    | Expr.Binop (op, a, b) ->
      let f = binop op and a = go a and b = go b in
      emit (fun v -> Value.V_bv (f (as_bv v.(a)) (as_bv v.(b))))
    | Expr.Cmp (op, a, b) ->
      let f = cmp op and a = go a and b = go b in
      emit (fun v -> of_bool (f (as_bv v.(a)) (as_bv v.(b))))
    | Expr.Concat (hi, lo) ->
      let hi = go hi and lo = go lo in
      emit (fun v -> Value.V_bv (Bitvec.concat (as_bv v.(hi)) (as_bv v.(lo))))
    | Expr.Extract { hi; lo; arg } ->
      let a = go arg in
      emit (fun v -> Value.V_bv (Bitvec.extract ~hi ~lo (as_bv v.(a))))
    | Expr.Extend { signed; width; arg } ->
      let a = go arg in
      emit (fun v -> Value.V_bv (extend ~signed width (as_bv v.(a))))
    | Expr.Read { mem; addr } ->
      let m = go mem and a = go addr in
      emit (fun v -> Value.V_bv (Value.mem_read (as_mem v.(m)) (as_bv v.(a))))
    | Expr.Write { mem; addr; data } ->
      let m = go mem and a = go addr and d = go data in
      emit (fun v ->
          Value.V_mem
            (Value.mem_write (as_mem v.(m)) (as_bv v.(a)) (as_bv v.(d))))
  in
  let outs = List.map go es in
  (Array.of_list (List.rev !code), outs)

let run (p : program) v = Array.iter (fun f -> f v) p
