module Str_map = Map.Make (String)

(* rebuilt subterms by the id of the original *)
type memo = (int, Expr.t) Hashtbl.t

let memo () : memo = Hashtbl.create 64

let rebuild ?(memo = memo ()) lookup e =
  let rec go e =
    match Hashtbl.find_opt memo (Expr.id e) with
    | Some r -> r
    | None ->
      let r = compute e in
      (if not (Sort.equal (Expr.sort r) (Expr.sort e)) then
         let msg =
           Format.asprintf "substitution changed sort %a to %a" Sort.pp
             (Expr.sort e) Sort.pp (Expr.sort r)
         in
         raise (Expr.Sort_error msg));
      Hashtbl.add memo (Expr.id e) r;
      r
  and compute e =
    match Expr.node e with
    | Expr.Var name -> lookup name (Expr.sort e) e
    | Expr.Bool_const _ | Expr.Bv_const _ | Expr.Mem_init _ -> e
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
    | Expr.Binop (op, a, b) ->
      let x = go a and y = go b in
      (match op with
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
    | Expr.Cmp (op, a, b) ->
      let x = go a and y = go b in
      (match op with
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

let apply_map ?memo map e =
  let lookup name sort_ orig =
    match Str_map.find_opt name map with
    | Some r ->
      if not (Sort.equal (Expr.sort r) sort_) then
        raise
          (Expr.Sort_error
             (Format.asprintf "substitute %s: expected %a, got %a" name
                Sort.pp sort_ Sort.pp (Expr.sort r)))
      else r
    | None -> orig
  in
  rebuild ?memo lookup e

let apply bindings e =
  apply_map
    (List.fold_left (fun m (k, v) -> Str_map.add k v m) Str_map.empty bindings)
    e

let rename f e =
  let lookup name sort_ _orig = Expr.var (f name) sort_ in
  rebuild lookup e
