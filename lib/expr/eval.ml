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

let eval env e =
  let memo : (int, Value.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go e =
    match Hashtbl.find_opt memo (Expr.id e) with
    | Some v -> v
    | None ->
      let v = compute e in
      Hashtbl.add memo (Expr.id e) v;
      v
  and bool_of e =
    match go e with
    | Value.V_bool b -> b
    | Value.V_bv _ | Value.V_mem _ -> err "expected bool"
  and bv_of e =
    match go e with
    | Value.V_bv v -> v
    | Value.V_bool _ | Value.V_mem _ -> err "expected bitvector"
  and mem_of e =
    match go e with
    | Value.V_mem m -> m
    | Value.V_bool _ | Value.V_bv _ -> err "expected memory"
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
    | Expr.Unop (op, a) ->
      let x = bv_of a in
      Value.V_bv
        (match op with
        | Expr.Bv_not -> Bitvec.lognot x
        | Expr.Bv_neg -> Bitvec.neg x)
    | Expr.Binop (op, a, b) ->
      let x = bv_of a and y = bv_of b in
      Value.V_bv
        (match op with
        | Expr.Bv_add -> Bitvec.add x y
        | Expr.Bv_sub -> Bitvec.sub x y
        | Expr.Bv_mul -> Bitvec.mul x y
        | Expr.Bv_udiv -> Bitvec.udiv x y
        | Expr.Bv_urem -> Bitvec.urem x y
        | Expr.Bv_and -> Bitvec.logand x y
        | Expr.Bv_or -> Bitvec.logor x y
        | Expr.Bv_xor -> Bitvec.logxor x y
        | Expr.Bv_shl -> Bitvec.shl_bv x y
        | Expr.Bv_lshr -> Bitvec.lshr_bv x y
        | Expr.Bv_ashr -> Bitvec.ashr_bv x y)
    | Expr.Cmp (op, a, b) ->
      let x = bv_of a and y = bv_of b in
      Value.V_bool
        (match op with
        | Expr.Bv_ult -> Bitvec.ult x y
        | Expr.Bv_ule -> Bitvec.ule x y
        | Expr.Bv_slt -> Bitvec.slt x y
        | Expr.Bv_sle -> Bitvec.sle x y)
    | Expr.Concat (hi, lo) -> Value.V_bv (Bitvec.concat (bv_of hi) (bv_of lo))
    | Expr.Extract { hi; lo; arg } ->
      Value.V_bv (Bitvec.extract ~hi ~lo (bv_of arg))
    | Expr.Extend { signed; width; arg } ->
      let x = bv_of arg in
      Value.V_bv
        (if signed then Bitvec.sign_extend x width
         else Bitvec.zero_extend x width)
    | Expr.Read { mem; addr } ->
      Value.V_bv (Value.mem_read (mem_of mem) (bv_of addr))
    | Expr.Write { mem; addr; data } ->
      Value.V_mem (Value.mem_write (mem_of mem) (bv_of addr) (bv_of data))
    | Expr.Mem_init { addr_width; default } ->
      Value.mem_const ~addr_width ~default
  in
  go e

let eval_bool env e = Value.to_bool (eval env e)
let eval_int env e = Value.to_int (eval env e)
