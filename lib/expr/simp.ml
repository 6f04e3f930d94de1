(* Bottom-up rewriting with a DAG memo.  Children are simplified first,
   then one layer of rules fires on the rebuilt node.  All rules are
   context-free and modular-arithmetic sound. *)

let is_const e =
  match Expr.node e with
  | Expr.Bool_const _ | Expr.Bv_const _ -> true
  | _ -> false

(* ite with a negated condition: normalize to the positive form. *)
let rule_ite c t e =
  match Expr.node c with
  | Expr.Not c' -> Build.ite c' e t
  | _ -> (
    (* same condition nested directly in a branch is decided there *)
    let t =
      match Expr.node t with
      | Expr.Ite (c', t', _) when Expr.equal c c' -> t'
      | _ -> t
    in
    let e =
      match Expr.node e with
      | Expr.Ite (c', _, e') when Expr.equal c c' -> e'
      | _ -> e
    in
    match (Expr.node t, Expr.node e) with
    (* ite c (ite d a b) (ite d a' b') with shared arms collapses *)
    | Expr.Ite (d1, a1, b1), Expr.Ite (d2, a2, b2)
      when Expr.equal d1 d2 && Expr.equal a1 a2 ->
      Build.ite d1 a1 (Build.ite c b1 b2)
    | Expr.Ite (d1, a1, b1), Expr.Ite (d2, a2, b2)
      when Expr.equal d1 d2 && Expr.equal b1 b2 ->
      Build.ite d1 (Build.ite c a1 a2) b1
    | _ -> Build.ite c t e)

let rule_add a b =
  (* x - y + y = x;  (x + c1) + c2 folds via Build *)
  match (Expr.node a, Expr.node b) with
  | Expr.Binop (Expr.Bv_sub, x, y), _ when Expr.equal y b -> x
  | _, Expr.Binop (Expr.Bv_sub, x, y) when Expr.equal y a -> x
  | _ -> Build.( +: ) a b

let rule_sub a b =
  (* (x + y) - y = x; (x + y) - x = y *)
  match Expr.node a with
  | Expr.Binop (Expr.Bv_add, x, y) when Expr.equal y b -> x
  | Expr.Binop (Expr.Bv_add, x, y) when Expr.equal x b -> y
  | _ -> Build.( -: ) a b

let rule_xor_bv a b =
  (* (x ^ y) ^ y = x *)
  match (Expr.node a, Expr.node b) with
  | Expr.Binop (Expr.Bv_xor, x, y), _ when Expr.equal y b -> x
  | Expr.Binop (Expr.Bv_xor, x, y), _ when Expr.equal x b -> y
  | _, Expr.Binop (Expr.Bv_xor, x, y) when Expr.equal y a -> x
  | _, Expr.Binop (Expr.Bv_xor, x, y) when Expr.equal x a -> y
  | _ -> Build.( ^: ) a b

let rule_and a b =
  (* absorption: a && (a || b) = a; complement: a && !a = false *)
  match (Expr.node a, Expr.node b) with
  | _, Expr.Not b' when Expr.equal a b' -> Build.ff
  | Expr.Not a', _ when Expr.equal a' b -> Build.ff
  | _, Expr.Or (x, y) when Expr.equal a x || Expr.equal a y -> a
  | Expr.Or (x, y), _ when Expr.equal b x || Expr.equal b y -> b
  | _ -> Build.( &&: ) a b

let rule_or a b =
  match (Expr.node a, Expr.node b) with
  | _, Expr.Not b' when Expr.equal a b' -> Build.tt
  | Expr.Not a', _ when Expr.equal a' b -> Build.tt
  | _, Expr.And (x, y) when Expr.equal a x || Expr.equal a y -> a
  | Expr.And (x, y), _ when Expr.equal b x || Expr.equal b y -> b
  | _ -> Build.( ||: ) a b

(* Width-directed equality split: comparing concatenations piecewise
   lets the per-slice rules (and constant folding) fire on each part.
   Both operands are already known to have equal widths when the rule
   applies; otherwise fall through and let [Build.eq] raise. *)
let rule_eq_concat a b =
  match (Expr.node a, Expr.node b) with
  | Expr.Concat (x, y), Expr.Concat (u, v)
    when Expr.width a = Expr.width b && Expr.width x = Expr.width u ->
    Build.( &&: ) (Build.eq x u) (Build.eq y v)
  | Expr.Concat (x, y), Expr.Bv_const _ when Expr.width a = Expr.width b ->
    let wy = Expr.width y in
    Build.( &&: )
      (Build.eq x (Build.extract ~hi:(Expr.width b - 1) ~lo:wy b))
      (Build.eq y (Build.extract ~hi:(wy - 1) ~lo:0 b))
  | Expr.Bv_const _, Expr.Concat (u, v) when Expr.width a = Expr.width b ->
    let wv = Expr.width v in
    Build.( &&: )
      (Build.eq (Build.extract ~hi:(Expr.width a - 1) ~lo:wv a) u)
      (Build.eq (Build.extract ~hi:(wv - 1) ~lo:0 a) v)
  | _ -> Build.eq a b

let rule_eq a b =
  (* ite c x y == x with x,y distinct constants decides c *)
  match (Expr.node a, Expr.node b) with
  | Expr.Ite (c, x, y), _
    when Expr.equal x b && is_const x && is_const y && not (Expr.equal x y)
    -> c
  | Expr.Ite (c, x, y), _
    when Expr.equal y b && is_const x && is_const y && not (Expr.equal x y)
    -> Build.not_ c
  | _, Expr.Ite (c, x, y)
    when Expr.equal x a && is_const x && is_const y && not (Expr.equal x y)
    -> c
  | _, Expr.Ite (c, x, y)
    when Expr.equal y a && is_const x && is_const y && not (Expr.equal x y)
    -> Build.not_ c
  | _ -> rule_eq_concat a b

(* Extract distributing over structure the constructor-local rules in
   [Build] cannot see: an [ite] with a constant arm (the constant side
   folds away), and extends (the slice lands entirely in the base or
   entirely in the zero padding). *)
let rule_extract ~hi ~lo arg =
  match Expr.node arg with
  | Expr.Ite (c, a, b) when is_const a || is_const b ->
    Build.ite c (Build.extract ~hi ~lo a) (Build.extract ~hi ~lo b)
  | Expr.Extend { signed = _; width = _; arg = x } when hi < Expr.width x ->
    Build.extract ~hi ~lo x
  | Expr.Extend { signed = false; width = _; arg = x } when lo >= Expr.width x
    ->
    Build.bv ~width:(hi - lo + 1) 0
  | _ -> Build.extract ~hi ~lo arg

(* Adjacent slices of the same word reassemble into one slice. *)
let rule_concat a b =
  match (Expr.node a, Expr.node b) with
  | ( Expr.Extract { hi = h1; lo = l1; arg = x },
      Expr.Extract { hi = h2; lo = l2; arg = y } )
    when Expr.equal x y && l1 = h2 + 1 ->
    Build.extract ~hi:h1 ~lo:l2 x
  | _ -> Build.concat a b

(* Shifting a w-bit vector by a constant >= w leaves nothing. *)
let shifts_everything_out a b =
  match Expr.node b with
  | Expr.Bv_const k ->
    Bitvec.width k <= 62 && Bitvec.to_int k >= Expr.width a
  | _ -> false

let rule_shl a b =
  if shifts_everything_out a b then Build.bv ~width:(Expr.width a) 0
  else Build.shl a b

let rule_lshr a b =
  if shifts_everything_out a b then Build.bv ~width:(Expr.width a) 0
  else Build.lshr a b

(* Read-over-write forwarding.  A read that reaches past a write chain
   turns each write into an address-compare mux:
     read (write m a d) a'  →  ite (a = a') d (read m a')
   with the compare folded away when both addresses are constants (and
   [Build.read] already handles the syntactically-equal case).  A read
   of an initializer is its default, and a read of a memory mux is a
   mux of reads — both expose the data words to the bitvector rules. *)
let rec rule_read mem addr =
  match Expr.node mem with
  | Expr.Write { mem = m; addr = a; data = d } -> (
    match (Expr.node a, Expr.node addr) with
    | Expr.Bv_const ka, Expr.Bv_const kb ->
      if Bitvec.equal ka kb then d else rule_read m addr
    | _ ->
      if Expr.equal a addr then d
      else rule_ite (Build.eq a addr) d (rule_read m addr))
  | Expr.Mem_init { default; _ } -> Expr.bv_const default
  | Expr.Ite (c, m1, m2) when Sort.is_mem (Expr.sort m1) ->
    rule_ite c (rule_read m1 addr) (rule_read m2 addr)
  | _ -> Build.read mem addr

let simplify e =
  let memo : (int, Expr.t) Hashtbl.t = Hashtbl.create 256 in
  let rec go e =
    match Hashtbl.find_opt memo (Expr.id e) with
    | Some r -> r
    | None ->
      let r = rewrite e in
      Hashtbl.add memo (Expr.id e) r;
      r
  and rewrite e =
    match Expr.node e with
    | Expr.Var _ | Expr.Bool_const _ | Expr.Bv_const _ | Expr.Mem_init _ -> e
    | Expr.Not a -> Build.not_ (go a)
    | Expr.And (a, b) -> rule_and (go a) (go b)
    | Expr.Or (a, b) -> rule_or (go a) (go b)
    | Expr.Xor (a, b) -> Build.xor (go a) (go b)
    | Expr.Implies (a, b) -> Build.( ==>: ) (go a) (go b)
    | Expr.Eq (a, b) -> rule_eq (go a) (go b)
    | Expr.Ite (c, a, b) -> rule_ite (go c) (go a) (go b)
    | Expr.Unop (Expr.Bv_not, a) -> Build.bv_not (go a)
    | Expr.Unop (Expr.Bv_neg, a) -> Build.bv_neg (go a)
    | Expr.Binop (Expr.Bv_add, a, b) -> rule_add (go a) (go b)
    | Expr.Binop (Expr.Bv_sub, a, b) -> rule_sub (go a) (go b)
    | Expr.Binop (Expr.Bv_xor, a, b) -> rule_xor_bv (go a) (go b)
    | Expr.Binop (Expr.Bv_mul, a, b) -> Build.( *: ) (go a) (go b)
    | Expr.Binop (Expr.Bv_udiv, a, b) -> Build.udiv (go a) (go b)
    | Expr.Binop (Expr.Bv_urem, a, b) -> Build.urem (go a) (go b)
    | Expr.Binop (Expr.Bv_and, a, b) -> Build.( &: ) (go a) (go b)
    | Expr.Binop (Expr.Bv_or, a, b) -> Build.( |: ) (go a) (go b)
    | Expr.Binop (Expr.Bv_shl, a, b) -> rule_shl (go a) (go b)
    | Expr.Binop (Expr.Bv_lshr, a, b) -> rule_lshr (go a) (go b)
    | Expr.Binop (Expr.Bv_ashr, a, b) -> Build.ashr (go a) (go b)
    | Expr.Cmp (Expr.Bv_ult, a, b) -> Build.( <: ) (go a) (go b)
    | Expr.Cmp (Expr.Bv_ule, a, b) -> Build.( <=: ) (go a) (go b)
    | Expr.Cmp (Expr.Bv_slt, a, b) -> Build.slt (go a) (go b)
    | Expr.Cmp (Expr.Bv_sle, a, b) -> Build.sle (go a) (go b)
    | Expr.Concat (a, b) -> rule_concat (go a) (go b)
    | Expr.Extract { hi; lo; arg } -> rule_extract ~hi ~lo (go arg)
    | Expr.Extend { signed; width; arg } ->
      if signed then Build.sext (go arg) width else Build.zext (go arg) width
    | Expr.Read { mem; addr } -> rule_read (go mem) (go addr)
    | Expr.Write { mem; addr; data } -> Build.write (go mem) (go addr) (go data)
  in
  go e

let simplify_fix e =
  let rec go n e =
    if n = 0 then e
    else
      let e' = simplify e in
      if Expr.equal e' e then e else go (n - 1) e'
  in
  go 4 e
