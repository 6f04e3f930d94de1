open Ilv_rtl
open Ilv_expr
module Str_map = Map.Make (String)

(* A materialized cycle: every net's symbolic value, and the memo of
   substitutions through that environment, kept for the unrolling's
   lifetime so expressions evaluated at the cycle again (by
   [at_cycle], or as the next cycle's register updates) share the
   work. *)
type cycle = { env : Expr.t Str_map.t; memo : Subst.memo }

type t = {
  rtl : Rtl.t;
  mutable cycles : cycle array; (* index = cycle *)
  mutable base : (string * Sort.t) list;
}

let base_var name cycle = Printf.sprintf "rtl.%s@%d" name cycle

let create rtl = { rtl; cycles = [||]; base = [] }

let fresh_base u name sort cycle =
  let n = base_var name cycle in
  if not (List.mem_assoc n u.base) then u.base <- (n, sort) :: u.base;
  Expr.var n sort

(* Build the environment of cycle [c]: registers first (from the
   previous cycle or as fresh base vars), then this cycle's inputs, then
   wires in topological order. *)
let rec cycle_at u c =
  if c < Array.length u.cycles then u.cycles.(c)
  else begin
    let prev = if c = 0 then None else Some (cycle_at u (c - 1)) in
    let regs =
      List.fold_left
        (fun m (r : Rtl.register) ->
          let value =
            match prev with
            | None -> fresh_base u r.Rtl.reg_name r.Rtl.sort 0
            | Some p -> Subst.apply_map ~memo:p.memo p.env r.Rtl.next
          in
          Str_map.add r.Rtl.reg_name value m)
        Str_map.empty u.rtl.Rtl.registers
    in
    let with_inputs =
      List.fold_left
        (fun m (name, sort) -> Str_map.add name (fresh_base u name sort c) m)
        regs u.rtl.Rtl.inputs
    in
    let env =
      List.fold_left
        (fun m (name, e) -> Str_map.add name (Subst.apply_map m e) m)
        with_inputs u.rtl.Rtl.wires
    in
    (* cycles are materialized in order, so this append stays aligned *)
    assert (Array.length u.cycles = c);
    let cy = { env; memo = Subst.memo () } in
    u.cycles <- Array.append u.cycles [| cy |];
    cy
  end

let net u ~cycle name =
  match Str_map.find_opt name (cycle_at u cycle).env with
  | Some e -> e
  | None -> raise Not_found

let at_cycle u ~cycle e =
  let cy = cycle_at u cycle in
  Subst.apply_map ~memo:cy.memo cy.env e

let base_vars_used u = List.rev u.base
