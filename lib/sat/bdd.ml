type t = Leaf of bool | Node of { id : int; var : int; lo : t; hi : t }

let id = function Leaf false -> 0 | Leaf true -> 1 | Node { id; _ } -> id

module Key = struct
  type nonrec t = int * t * t

  let equal (v1, l1, h1) (v2, l2, h2) = v1 = v2 && l1 == l2 && h1 == h2
  let hash (v, l, h) = (v * 65599) + (id l * 31) + id h
end

module Unique = Hashtbl.Make (Key)

module Ite_key = struct
  type t = int * int * int

  let equal (a1, b1, c1) (a2, b2, c2) = a1 = a2 && b1 = b2 && c1 = c2
  let hash (a, b, c) = (a * 65599) + (b * 31) + c
end

module Ite_memo = Hashtbl.Make (Ite_key)

type man = {
  unique : t Unique.t;
  ite_memo : t Ite_memo.t;
  mutable next_id : int;
}

let manager () =
  { unique = Unique.create 4096; ite_memo = Ite_memo.create 4096; next_id = 2 }

let tt _ = Leaf true
let ff _ = Leaf false
let equal a b = a == b
let is_tt = function Leaf true -> true | Leaf false | Node _ -> false
let is_ff = function Leaf false -> true | Leaf true | Node _ -> false

let top_var = function Leaf _ -> max_int | Node { var; _ } -> var

let cofactor v f =
  match f with
  | Node { var; lo; hi; _ } when var = v -> (lo, hi)
  | _ -> (f, f)

let mk_node man var lo hi =
  if lo == hi then lo
  else begin
    let key = (var, lo, hi) in
    match Unique.find_opt man.unique key with
    | Some n -> n
    | None ->
      let n = Node { id = man.next_id; var; lo; hi } in
      man.next_id <- man.next_id + 1;
      Unique.add man.unique key n;
      n
  end

let var man v = mk_node man v (Leaf false) (Leaf true)

(* Shannon-expansion ite with memoization: the single primitive all
   connectives reduce to. *)
let rec mk_ite man f g h =
  match f with
  | Leaf true -> g
  | Leaf false -> h
  | Node _ ->
    if g == h then g
    else if is_tt g && is_ff h then f
    else begin
      let key = (id f, id g, id h) in
      match Ite_memo.find_opt man.ite_memo key with
      | Some r -> r
      | None ->
        let v = min (top_var f) (min (top_var g) (top_var h)) in
        let f0, f1 = cofactor v f in
        let g0, g1 = cofactor v g in
        let h0, h1 = cofactor v h in
        let lo = mk_ite man f0 g0 h0 in
        let hi = mk_ite man f1 g1 h1 in
        let r = mk_node man v lo hi in
        Ite_memo.add man.ite_memo key r;
        r
    end

let neg man f = mk_ite man f (Leaf false) (Leaf true)
let mk_and man a b = mk_ite man a b (Leaf false)
let mk_or man a b = mk_ite man a (Leaf true) b
let mk_xor man a b = mk_ite man a (neg man b) b
let mk_iff man a b = mk_ite man a b (neg man b)

let quantify man ~combine vars f =
  let vars = List.sort_uniq compare vars in
  let memo : (int, t) Hashtbl.t = Hashtbl.create 256 in
  let rec go f =
    match f with
    | Leaf _ -> f
    | Node { id; var; lo; hi } -> (
      match Hashtbl.find_opt memo id with
      | Some r -> r
      | None ->
        let r =
          if List.mem var vars then combine (go lo) (go hi)
          else mk_node man var (go lo) (go hi)
        in
        Hashtbl.add memo id r;
        r)
  in
  go f

let exists man vars f = quantify man ~combine:(mk_or man) vars f
let forall man vars f = quantify man ~combine:(mk_and man) vars f

(* Relational product: exists vars (f /\ g) in one pass. *)
let and_exists man vars f g =
  let in_vars =
    let tbl = Hashtbl.create 16 in
    List.iter (fun v -> Hashtbl.replace tbl v ()) vars;
    fun v -> Hashtbl.mem tbl v
  in
  let memo : (int * int, t) Hashtbl.t = Hashtbl.create 1024 in
  let rec go f g =
    if is_ff f || is_ff g then Leaf false
    else if is_tt f then exists man vars g
    else if is_tt g then exists man vars f
    else begin
      let key = if id f <= id g then (id f, id g) else (id g, id f) in
      match Hashtbl.find_opt memo key with
      | Some r -> r
      | None ->
        let v = min (top_var f) (top_var g) in
        let f0, f1 = cofactor v f in
        let g0, g1 = cofactor v g in
        let r =
          if in_vars v then begin
            let lo = go f0 g0 in
            if is_tt lo then lo
            else mk_or man lo (go f1 g1)
          end
          else mk_node man v (go f0 g0) (go f1 g1)
        in
        Hashtbl.add memo key r;
        r
    end
  in
  go f g

let rename man f_map f =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 256 in
  let rec go f =
    match f with
    | Leaf _ -> f
    | Node { id; var; lo; hi } -> (
      match Hashtbl.find_opt memo id with
      | Some r -> r
      | None ->
        let lo' = go lo and hi' = go hi in
        let v' = f_map var in
        if v' >= top_var lo' || v' >= top_var hi' then
          invalid_arg "Bdd.rename: mapping is not order-preserving";
        let r = mk_node man v' lo' hi' in
        Hashtbl.add memo id r;
        r)
  in
  go f

let restrict man v value f =
  let memo : (int, t) Hashtbl.t = Hashtbl.create 64 in
  let rec go f =
    match f with
    | Leaf _ -> f
    | Node { id; var; lo; hi } -> (
      if var > v then f
      else
        match Hashtbl.find_opt memo id with
        | Some r -> r
        | None ->
          let r =
            if var = v then if value then hi else lo
            else mk_node man var (go lo) (go hi)
          in
          Hashtbl.add memo id r;
          r)
  in
  go f

let any_sat f =
  let rec go acc = function
    | Leaf true -> Some (List.rev acc)
    | Leaf false -> None
    | Node { var; lo; hi; _ } -> (
      match go ((var, false) :: acc) lo with
      | Some a -> Some a
      | None -> go ((var, true) :: acc) hi)
  in
  go [] f

let size f =
  let seen = Hashtbl.create 64 in
  let rec go f =
    match f with
    | Leaf _ -> ()
    | Node { id; lo; hi; _ } ->
      if not (Hashtbl.mem seen id) then begin
        Hashtbl.add seen id ();
        go lo;
        go hi
      end
  in
  go f;
  Hashtbl.length seen + 2 (* the two leaves *)
