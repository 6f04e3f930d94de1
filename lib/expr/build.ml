let tt = Expr.bool_const true
let ff = Expr.bool_const false
let bool b = if b then tt else ff
let bv ~width n = Expr.bv_const (Bitvec.of_int ~width n)
let bv_of v = Expr.bv_const v
let var = Expr.var
let bool_var name = Expr.var name Sort.Bool
let bv_var name w = Expr.var name (Sort.bv w)

let mem_var name ~addr_width ~data_width =
  Expr.var name (Sort.mem ~addr_width ~data_width)

let const_mem ~addr_width ~default = Expr.mem_init ~addr_width ~default

let as_bool e =
  match Expr.node e with Expr.Bool_const b -> Some b | _ -> None

let as_bv e = match Expr.node e with Expr.Bv_const v -> Some v | _ -> None

let not_ a =
  match Expr.node a with
  | Expr.Bool_const b -> bool (not b)
  | Expr.Not x -> x
  | _ -> Expr.not_ a

let ( &&: ) a b =
  match (as_bool a, as_bool b) with
  | Some true, _ -> b
  | Some false, _ -> ff
  | _, Some true -> a
  | _, Some false -> ff
  | None, None -> if Expr.equal a b then a else Expr.and_ a b

let ( ||: ) a b =
  match (as_bool a, as_bool b) with
  | Some false, _ -> b
  | Some true, _ -> tt
  | _, Some false -> a
  | _, Some true -> tt
  | None, None -> if Expr.equal a b then a else Expr.or_ a b

let xor a b =
  match (as_bool a, as_bool b) with
  | Some x, Some y -> bool (x <> y)
  | Some false, None -> b
  | Some true, None -> not_ b
  | None, Some false -> a
  | None, Some true -> not_ a
  | None, None -> if Expr.equal a b then ff else Expr.xor_ a b

let ( ==>: ) a b =
  match (as_bool a, as_bool b) with
  | Some false, _ | _, Some true -> tt
  | Some true, _ -> b
  | _, Some false -> not_ a
  | None, None -> if Expr.equal a b then tt else Expr.implies a b

let and_list es = List.fold_left ( &&: ) tt es
let or_list es = List.fold_left ( ||: ) ff es

let eq a b =
  if not (Sort.equal (Expr.sort a) (Expr.sort b)) then
    (* let the raw constructor raise a proper sort error *)
    Expr.eq a b
  else if Expr.equal a b then tt
  else
    match (Expr.node a, Expr.node b) with
    | Expr.Bool_const x, Expr.Bool_const y -> bool (x = y)
    | Expr.Bv_const x, Expr.Bv_const y -> bool (Bitvec.equal x y)
    | Expr.Bool_const true, _ -> b
    | _, Expr.Bool_const true -> a
    | Expr.Bool_const false, _ -> not_ b
    | _, Expr.Bool_const false -> not_ a
    | Expr.Mem_init x, Expr.Mem_init y ->
      (* constant memories of the same sort are equal iff the defaults
         agree (the address space is never empty) *)
      bool (Bitvec.equal x.default y.default)
    | _ -> Expr.eq a b

let iff a b = eq a b

let ( ==: ) = eq
let neq a b = not_ (eq a b)

let ite c a b =
  match as_bool c with
  | Some true -> a
  | Some false -> b
  | None ->
    if Expr.equal a b then a
    else begin
      match (as_bool a, as_bool b) with
      | Some true, Some false -> c
      | Some false, Some true -> not_ c
      | Some true, None -> c ||: b
      | Some false, None -> not_ c &&: b
      | None, Some true -> not_ c ||: a
      | None, Some false -> c &&: a
      | _ -> Expr.ite c a b
    end

let lift_unop op f a =
  match as_bv a with Some v -> bv_of (f v) | None -> Expr.unop op a

let bv_not = lift_unop Expr.Bv_not Bitvec.lognot
let bv_neg = lift_unop Expr.Bv_neg Bitvec.neg

let is_zero_const e =
  match as_bv e with Some v -> Bitvec.is_zero v | None -> false

let is_ones_const e =
  match as_bv e with
  | Some v -> Bitvec.equal v (Bitvec.ones (Bitvec.width v))
  | None -> false

let lift_binop op f a b =
  match (as_bv a, as_bv b) with
  | Some x, Some y -> bv_of (f x y)
  | _ -> Expr.binop op a b

let ( +: ) a b =
  if is_zero_const a then b
  else if is_zero_const b then a
  else lift_binop Expr.Bv_add Bitvec.add a b

let ( -: ) a b =
  if is_zero_const b then a
  else if Expr.equal a b then bv ~width:(Expr.width a) 0
  else lift_binop Expr.Bv_sub Bitvec.sub a b

let ( *: ) a b =
  if is_zero_const a then a
  else if is_zero_const b then b
  else lift_binop Expr.Bv_mul Bitvec.mul a b

let udiv a b = lift_binop Expr.Bv_udiv Bitvec.udiv a b
let urem a b = lift_binop Expr.Bv_urem Bitvec.urem a b

let ( &: ) a b =
  if is_zero_const a then a
  else if is_zero_const b then b
  else if is_ones_const a then b
  else if is_ones_const b then a
  else if Expr.equal a b then a
  else lift_binop Expr.Bv_and Bitvec.logand a b

let ( |: ) a b =
  if is_zero_const a then b
  else if is_zero_const b then a
  else if is_ones_const a then a
  else if is_ones_const b then b
  else if Expr.equal a b then a
  else lift_binop Expr.Bv_or Bitvec.logor a b

let ( ^: ) a b =
  if is_zero_const a then b
  else if is_zero_const b then a
  else if Expr.equal a b then bv ~width:(Expr.width a) 0
  else lift_binop Expr.Bv_xor Bitvec.logxor a b

let shl a b =
  if is_zero_const b then a else lift_binop Expr.Bv_shl Bitvec.shl_bv a b

let lshr a b =
  if is_zero_const b then a else lift_binop Expr.Bv_lshr Bitvec.lshr_bv a b

let ashr a b =
  if is_zero_const b then a else lift_binop Expr.Bv_ashr Bitvec.ashr_bv a b

let shli a k = shl a (bv ~width:(Expr.width a) k)

let lift_cmp op f a b =
  match (as_bv a, as_bv b) with
  | Some x, Some y -> bool (f x y)
  | _ -> Expr.cmp op a b

let ( <: ) a b = if Expr.equal a b then ff else lift_cmp Expr.Bv_ult Bitvec.ult a b
let ( <=: ) a b = if Expr.equal a b then tt else lift_cmp Expr.Bv_ule Bitvec.ule a b
let ( >: ) a b = b <: a
let ( >=: ) a b = b <=: a
let slt a b = if Expr.equal a b then ff else lift_cmp Expr.Bv_slt Bitvec.slt a b
let sle a b = if Expr.equal a b then tt else lift_cmp Expr.Bv_sle Bitvec.sle a b

let concat hi lo =
  match (as_bv hi, as_bv lo) with
  | Some x, Some y -> bv_of (Bitvec.concat x y)
  | _ -> Expr.concat hi lo

let concat_list = function
  | [] -> invalid_arg "Build.concat_list: empty"
  | e :: rest -> List.fold_left concat e rest

let rec extract ~hi ~lo a =
  if lo = 0 && hi = Expr.width a - 1 then a
  else
    match as_bv a with
    | Some v -> bv_of (Bitvec.extract ~hi ~lo v)
    | None -> (
      match Expr.node a with
      | Expr.Concat (h, l) when lo >= Expr.width l ->
        extract ~hi:(hi - Expr.width l) ~lo:(lo - Expr.width l) h
      | Expr.Concat (_, l) when hi < Expr.width l -> extract ~hi ~lo l
      | Expr.Extract { hi = _; lo = lo'; arg } ->
        extract ~hi:(hi + lo') ~lo:(lo + lo') arg
      | _ -> Expr.extract ~hi ~lo a)

let bit a i =
  let b = extract ~hi:i ~lo:i a in
  match as_bv b with
  | Some v -> bool (Bitvec.bit v 0)
  | None -> eq b (bv ~width:1 1)

let zext a w =
  if w = Expr.width a then a
  else
    match as_bv a with
    | Some v -> bv_of (Bitvec.zero_extend v w)
    | None -> Expr.extend ~signed:false ~width:w a

let sext a w =
  if w = Expr.width a then a
  else
    match as_bv a with
    | Some v -> bv_of (Bitvec.sign_extend v w)
    | None -> Expr.extend ~signed:true ~width:w a

let eq_int a n = eq a (bv ~width:(Expr.width a) n)
let add_int a n = a +: bv ~width:(Expr.width a) n
let sub_int a n = a -: bv ~width:(Expr.width a) n

let bool_to_bv c = ite c (bv ~width:1 1) (bv ~width:1 0)
let bv_to_bool a = neq a (bv ~width:(Expr.width a) 0)

let rec read m addr =
  match Expr.node m with
  | Expr.Mem_init { default; _ } -> bv_of default
  | Expr.Write w ->
    if Expr.equal w.addr addr then w.data
    else begin
      (* forward past a write to a provably different constant address *)
      match (as_bv w.addr, as_bv addr) with
      | Some x, Some y when not (Bitvec.equal x y) -> read w.mem addr
      | _ -> Expr.read ~mem:m ~addr
    end
  | _ -> Expr.read ~mem:m ~addr

let write m addr data = Expr.write ~mem:m ~addr ~data

let mux default cases =
  List.fold_right (fun (c, v) acc -> ite c v acc) cases default

let switch sel ~default cases =
  mux default (List.map (fun (k, v) -> (eq_int sel k, v)) cases)
