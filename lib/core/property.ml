open Ilv_expr

type obligation = {
  at_cycle : int;
  guard : Expr.t;
  goal : Expr.t;
  label : string;
}

type display = {
  equal_states : (string * string) list;
  corresponding_inputs : (string * string) list;
  start_condition : string;
  finish_condition : string;
  checked_states : (string * string) list;
}

type t = {
  prop_name : string;
  port : string;
  instr : Ila.instruction;
  assumptions : Expr.t list;
  obligations : obligation list;
  n_cycles : int;
  ila_bindings : (string * Expr.t) list;
  display : display;
}

let pp fmt p =
  let open Format in
  let d = p.display in
  fprintf fmt "@[<v>property %s (port %s):@," p.prop_name p.port;
  fprintf fmt "  [ (* equivalent start states *)@,";
  List.iter
    (fun (a, b) -> fprintf fmt "    (%s == %s) &&@," a b)
    d.equal_states;
  fprintf fmt "    (* corresponding inputs *)@,";
  List.iter
    (fun (a, b) -> fprintf fmt "    (%s == %s) &&@," a b)
    d.corresponding_inputs;
  fprintf fmt "    (* start condition: %s *)@," d.start_condition;
  fprintf fmt "  ] ->@,";
  fprintf fmt "  (* finish: %s *)@," d.finish_condition;
  fprintf fmt "  X^k [@,";
  List.iteri
    (fun i (a, b) ->
      fprintf fmt "    (%s == %s)%s@," a b
        (if i = List.length d.checked_states - 1 then "" else " &&"))
    d.checked_states;
  fprintf fmt "  ]@]"

(* --- specialization under the literal assumptions --- *)

module Str_map = Map.Make (String)

(* The literal conjuncts of an assumption's [And] tree, added to
   [facts] as variable |-> constant.  A variable bound already keeps
   its first value: a contradicting literal is rewritten to false. *)
let rec collect facts e =
  let bind x v = if Str_map.mem x facts then facts else Str_map.add x v facts in
  match Expr.node e with
  | Expr.And (a, b) -> collect (collect facts a) b
  | Expr.Var x -> bind x Build.tt
  | Expr.Not a -> (
    match Expr.node a with Expr.Var x -> bind x Build.ff | _ -> facts)
  | Expr.Eq (a, b) -> (
    match (Expr.node a, Expr.node b) with
    | Expr.Var x, Expr.Bv_const _ -> bind x b
    | Expr.Bv_const _, Expr.Var x -> bind x a
    | _ -> facts)
  | _ -> facts

let specialize p =
  let rec fix facts assumptions =
    let memo = Subst.memo () in
    let sub = Subst.apply_map ~memo facts in
    let rewritten = List.map sub assumptions in
    let facts' = List.fold_left collect facts rewritten in
    if Str_map.cardinal facts' > Str_map.cardinal facts then
      fix facts' rewritten
    else (facts, sub, rewritten)
  in
  let facts = List.fold_left collect Str_map.empty p.assumptions in
  if Str_map.is_empty facts then p
  else
    let facts, sub, rewritten = fix facts p.assumptions in
    let asserted =
      Str_map.fold
        (fun x v acc -> Build.eq (Expr.var x (Expr.sort v)) v :: acc)
        facts []
    in
    {
      p with
      assumptions =
        List.rev_append asserted
          (List.filter (fun a -> not (Expr.equal a Build.tt)) rewritten);
      obligations =
        List.map
          (fun ob -> { ob with guard = sub ob.guard; goal = sub ob.goal })
          p.obligations;
    }
