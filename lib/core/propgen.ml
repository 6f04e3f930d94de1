open Ilv_expr
module Str_map = Map.Make (String)

let ila_var name = "ila." ^ name

let rename_ila e = Subst.rename ila_var e

(* The port's instructions share one unrolling of the RTL, whose
   cycles keep their substitutions, and everything that depends on the
   port alone.  The shared parts that can raise (a map expression of
   the wrong sort) are lazy, forced where a one-shot generation would
   compute them: an instruction fails with the exception it would
   raise alone, and one without a map entry fails before touching
   them. *)
let generator ~ila ~rtl ~refmap =
  let u = Unroll.create rtl in
  let at c e = Unroll.at_cycle u ~cycle:c e in
  (* The "equivalent start states" and "corresponding inputs" parts of
     the refinement map are pure equalities between ILA variables and
     cycle-0 RTL expressions, so the ILA variables are eliminated by
     substitution instead of asserting the equalities.  This is exactly
     equivalent, and it lets the bit-blaster share gates between the two
     sides wherever the specification and the implementation use the
     same word-level function (the structural-hashing trick hardware
     model checkers rely on). *)
  let bindings =
    lazy
      (let ila_bindings =
         List.map
           (fun (s, rtl_e) -> (ila_var s, at 0 rtl_e))
           refmap.Refmap.state_map
         @ List.map
             (fun (w, rtl_e) -> (ila_var w, at 0 rtl_e))
             refmap.Refmap.interface_map
       in
       let map =
         List.fold_left
           (fun m (k, v) -> Str_map.add k v m)
           Str_map.empty ila_bindings
       in
       let memo = Subst.memo () in
       (ila_bindings, fun e -> Subst.apply_map ~memo map (rename_ila e)))
  in
  let invariants = lazy (List.map (at 0) refmap.Refmap.invariants) in
  (* Only the states this port *owns* (updates in some instruction) are
     checked: a state the port merely reads is maintained by another
     port, which may update it concurrently — its equivalence is that
     port's obligation.  For single-port modules every mapped state is
     owned. *)
  let owned =
    List.concat_map
      (fun (j : Ila.instruction) -> List.map fst j.Ila.updates)
      (Ila.leaf_instructions ila)
    |> List.sort_uniq String.compare
  in
  let rtl_text map =
    List.map
      (fun (s, e) -> (ila_var s, "rtl." ^ Pp_expr.infix_to_string e))
      map
  in
  let equal_states = rtl_text refmap.Refmap.state_map
  and corresponding_inputs = rtl_text refmap.Refmap.interface_map in
  fun (i : Ila.instruction) ->
    let m =
      match Refmap.find_instr_map refmap i.Ila.instr_name with
      | Some m -> m
      | None ->
        raise
          (Refmap.Invalid_refmap
             ("no instruction map for " ^ i.Ila.instr_name))
    in
    let ila_bindings, inst = Lazy.force bindings in
    (* start condition: the decode function over ILA names, plus any
       RTL-side start condition from the instruction map *)
    let decode_assumption = inst i.Ila.decode in
    let start_assumption =
      match m.Refmap.start with
      | Some e -> [ at 0 e ]
      | None -> []
    in
    let invariants = Lazy.force invariants in
    let max_cycle =
      match m.Refmap.finish with
      | Refmap.After_cycles k -> k
      | Refmap.Within { bound; _ } -> bound
    in
    let step_assumptions =
      List.concat_map
        (fun e ->
          List.init (max 0 (max_cycle - 1)) (fun j -> at (j + 1) e))
        refmap.Refmap.step_assumptions
    in
    let assumptions =
      (decode_assumption :: start_assumption) @ invariants @ step_assumptions
    in
    (* The equivalence goal at cycle k: N_i applied to the ILA state must
       match the state map evaluated at cycle k, on the owned states. *)
    let next_fn = Ila.next_state_fn ila i in
    let goal_at k =
      Build.and_list
        (List.filter_map
           (fun (s, rtl_e) ->
             if not (List.mem s owned) then None
             else
               let ila_next =
                 match List.assoc_opt s next_fn with
                 | Some e -> inst e
                 | None -> assert false
               in
               Some (Build.eq ila_next (at k rtl_e)))
           refmap.Refmap.state_map)
    in
    let obligations, finish_desc =
      match m.Refmap.finish with
      | Refmap.After_cycles k ->
        ( [
            {
              Property.at_cycle = k;
              guard = Build.tt;
              goal = goal_at k;
              label = Printf.sprintf "equivalence after %d cycle(s)" k;
            };
          ],
          Printf.sprintf "%d cycle(s)" k )
      | Refmap.Within { bound; condition } ->
        let cond_at j = at j condition in
        let not_before k =
          Build.and_list (List.init (k - 1) (fun j -> Build.not_ (cond_at (j + 1))))
        in
        let per_cycle =
          List.init bound (fun idx ->
              let k = idx + 1 in
              {
                Property.at_cycle = k;
                guard = Build.( &&: ) (not_before k) (cond_at k);
                goal = goal_at k;
                label = Printf.sprintf "equivalence when finishing at cycle %d" k;
              })
        in
        let termination =
          {
            Property.at_cycle = bound;
            guard = not_before (bound + 1);
            goal = Build.ff;
            label = Printf.sprintf "instruction finishes within %d cycles" bound;
          }
        in
        ( per_cycle @ [ termination ],
          Printf.sprintf "first (%s) within %d cycles"
            (Pp_expr.infix_to_string condition)
            bound )
    in
    let display =
      {
        Property.equal_states;
        corresponding_inputs;
        start_condition = Pp_expr.infix_to_string i.Ila.decode;
        finish_condition = finish_desc;
        checked_states =
          List.filter_map
            (fun (s, e) ->
              if not (List.mem s owned) then None
              else
                let ila_next =
                  match List.assoc_opt s next_fn with
                  | Some e -> "ila'." ^ Pp_expr.infix_to_string e
                  | None -> assert false
                in
                Some (ila_next, "rtl." ^ Pp_expr.infix_to_string e ^ "@finish"))
            refmap.Refmap.state_map;
      }
    in
    {
      Property.prop_name = ila.Ila.name ^ ":" ^ i.Ila.instr_name;
      port = ila.Ila.name;
      instr = i;
      assumptions;
      obligations;
      n_cycles = max_cycle;
      ila_bindings;
      display;
    }

let generate_for ~ila ~rtl ~refmap i = generator ~ila ~rtl ~refmap i

let generate ~ila ~rtl ~refmap =
  List.map (generator ~ila ~rtl ~refmap) (Ila.leaf_instructions ila)
