open Ilv_expr

(* Memory abstraction with counterexample-guided refinement.

   Concrete bit-blasting materializes a [Sort.Mem] as [2^addr_width]
   words, which dominates solving time on array-heavy designs (the L2
   cache).  This module rewrites a group of properties into an
   equisatisfiable-or-weaker form with no memory-sorted subterms at
   all, so everything downstream (shared frames, the proof cache)
   works unchanged:

   - Each memory sort gets a bounded {e window} of address terms
     [A_0 .. A_{k-1}]: the syntactic (memory-free) read addresses of
     the property group, one fresh witness address variable per
     memory-sorted equality, and any constants added by refinement.
   - A base memory variable [m] is represented by window data
     variables [m$w_i], standing for [m[A_i]]; pairwise functional-
     consistency assumptions [(A_i = A_j) -> (m$w_i = m$w_j)] are
     prepended to every property.
   - [Write]/[Mem_init]/[Ite] update the window pointwise (exactly);
     [Read M a] becomes a mux over the window with a fresh,
     unconstrained {e havoc} variable as the off-window fallback;
     [Eq M1 M2] becomes slot-wise equality (the witness slot makes
     this exact for the canonical extension of any concrete model).

   Every concrete model extends to an abstract model giving all
   formulas the same truth values (data slots take [m[A_i]], havoc
   variables take the actual read values, witnesses take a differing
   address when one exists), so an UNSAT abstract obligation is a
   sound proof.  A SAT abstract model is replayed concretely through
   {!Eval}; if it does not reproduce, the addresses of the havoc'd
   reads under the model are concretized into the window and the
   caller re-encodes — classic CEGAR, with strict window growth
   guaranteeing termination. *)

(* ---- detection ---- *)

let expr_has_mem e =
  Expr.fold (fun acc n -> acc || Sort.is_mem (Expr.sort n)) false e

let property_has_mem (p : Property.t) =
  List.exists expr_has_mem p.Property.assumptions
  || List.exists
       (fun (ob : Property.obligation) ->
         expr_has_mem ob.Property.guard || expr_has_mem ob.Property.goal)
       p.Property.obligations

(* An address term usable as a window slot must be evaluable without
   any memory: no memory-sorted subterm and no [Read]. *)
let mem_free e =
  Expr.fold
    (fun acc n ->
      acc
      && (not (Sort.is_mem (Expr.sort n)))
      &&
      match Expr.node n with
      | Expr.Read _ -> false
      | _ -> true)
    true e

(* ---- state ---- *)

type window = {
  w_sort : Sort.t;
  w_addr_width : int;
  w_data_width : int;
  mutable w_addrs : Expr.t list;
      (* slot address terms, in deterministic discovery order; grows
         monotonically under refinement *)
}

type build = {
  b_generation : int;
  b_props : Property.t array;  (* abstract (memory-free) properties *)
  b_reads : (window * Expr.t) list;
      (* per [Read] occurrence: its window and rewritten address term,
         for spurious-model address harvesting *)
}

type t = {
  ab_props : Property.t array;  (* concrete originals *)
  ab_label : string;
  mutable ab_windows : window list;
  mutable ab_refinements : int;
  mutable ab_generation : int;
  mutable ab_build : build option;
}

(* syntactic read addresses admitted per memory sort *)
let window_cap = 12

(* A memory is only worth abstracting when its array is larger than
   the window would be: below that, bit-blasting the whole array is
   both smaller and exact (the NoC router's 8-entry routing table
   loses badly to a 12-slot window plus consistency assumptions).
   Arrays too wide for [lsl] are always abstracted — they cannot be
   bit-blasted at all ({!Ilv_sat.Bitblast.max_concrete_addr_width}). *)
let abstracts = function
  | Sort.Mem { addr_width; _ } ->
    addr_width >= Sys.int_size - 2 || 1 lsl addr_width > window_cap
  | Sort.Bool | Sort.Bitvec _ -> false

let generation t = t.ab_generation
let refinements t = t.ab_refinements
let concrete_properties t = t.ab_props

let window_sizes t =
  List.map (fun w -> (Sort.to_string w.w_sort, List.length w.w_addrs))
    t.ab_windows

let window_for t sort =
  match List.find_opt (fun w -> Sort.equal w.w_sort sort) t.ab_windows with
  | Some w -> w
  | None ->
    let addr_width, data_width =
      match sort with
      | Sort.Mem { addr_width; data_width } -> (addr_width, data_width)
      | Sort.Bool | Sort.Bitvec _ ->
        invalid_arg "Mem_abstract.window_for: not a memory sort"
    in
    let w = { w_sort = sort; w_addr_width = addr_width; w_data_width = data_width; w_addrs = [] } in
    t.ab_windows <- t.ab_windows @ [ w ];
    w

(* Window variables use '$' so they can never collide with design
   variables ("rtl.x@k" / "ila.x") and are dropped by [Trace] parsing. *)
let slot_name base i = Printf.sprintf "%s$w%d" base i
let havoc_name j = Printf.sprintf "$mem$r%d" j
let witness_name j = Printf.sprintf "$mem$eqw%d" j

let create ?(label = "") props =
  let arr = Array.of_list props in
  let expr_has_wide_mem e =
    Expr.fold (fun acc n -> acc || abstracts (Expr.sort n)) false e
  in
  let property_has_wide_mem (p : Property.t) =
    List.exists expr_has_wide_mem p.Property.assumptions
    || List.exists
         (fun (ob : Property.obligation) ->
           expr_has_wide_mem ob.Property.guard
           || expr_has_wide_mem ob.Property.goal)
         p.Property.obligations
  in
  if not (Array.exists property_has_wide_mem arr) then None
  else begin
    let t =
      {
        ab_props = arr;
        ab_label = label;
        ab_windows = [];
        ab_refinements = 0;
        ab_generation = 0;
        ab_build = None;
      }
    in
    (* Pass 1: syntactic read addresses, capped per window.  The cap
       only bounds this phase — witnesses and refinement constants are
       always admitted (soundness never depends on window contents;
       coverage only affects how much reads havoc). *)
    let add_addr w a =
      if
        List.length w.w_addrs < window_cap
        && not (List.exists (Expr.equal a) w.w_addrs)
      then w.w_addrs <- w.w_addrs @ [ a ]
    in
    let each_expr f =
      Array.iter
        (fun (p : Property.t) ->
          List.iter f p.Property.assumptions;
          List.iter
            (fun (ob : Property.obligation) ->
              f ob.Property.guard;
              f ob.Property.goal)
            p.Property.obligations)
        arr
    in
    each_expr (fun e ->
        Expr.fold
          (fun () n ->
            match Expr.node n with
            | Expr.Read { mem; addr }
              when abstracts (Expr.sort mem) && mem_free addr ->
              add_addr (window_for t (Expr.sort mem)) addr
            | _ -> ())
          () e);
    (* Pass 2: one witness address variable per memory-sorted equality
       node.  Without it, two memories differing only off-window would
       satisfy the slot-wise equality and an UNSAT answer would be
       unsound; with it, the canonical extension of a concrete model
       can always exhibit the difference. *)
    let witnesses = ref 0 in
    let seen = Hashtbl.create 16 in
    each_expr (fun e ->
        Expr.fold
          (fun () n ->
            match Expr.node n with
            | Expr.Eq (a, _)
              when abstracts (Expr.sort a)
                   && not (Hashtbl.mem seen (Expr.id n)) ->
              Hashtbl.add seen (Expr.id n) ();
              let w = window_for t (Expr.sort a) in
              let v = Build.bv_var (witness_name !witnesses) w.w_addr_width in
              incr witnesses;
              w.w_addrs <- w.w_addrs @ [ v ]
            | _ -> ())
          () e);
    Some t
  end

(* ---- the rewrite ---- *)

let build t =
  match t.ab_build with
  | Some b when b.b_generation = t.ab_generation -> b
  | _ ->
    let addr_memo = ref [] in
    let addr_array w =
      match List.find_opt (fun (w', _) -> w' == w) !addr_memo with
      | Some (_, a) -> a
      | None ->
        let a = Array.of_list w.w_addrs in
        addr_memo := (w, a) :: !addr_memo;
        a
    in
    let havoc = ref 0 in
    let reads = ref [] in
    let base_mems = ref [] in (* (name, window, slot vars), discovery order *)
    let mem_slots : (int, window * Expr.t array) Hashtbl.t =
      Hashtbl.create 64
    in
    let memo : (int, Expr.t) Hashtbl.t = Hashtbl.create 1024 in
    let rec go_mem e =
      match Hashtbl.find_opt mem_slots (Expr.id e) with
      | Some r -> r
      | None ->
        let w = window_for t (Expr.sort e) in
        let addrs = addr_array w in
        let r =
          match Expr.node e with
          | Expr.Var name ->
            let slots =
              Array.init (Array.length addrs) (fun i ->
                  Build.bv_var (slot_name name i) w.w_data_width)
            in
            if not (List.exists (fun (n, _, _) -> n = name) !base_mems)
            then base_mems := (name, w, slots) :: !base_mems;
            (w, slots)
          | Expr.Mem_init { default; _ } ->
            (w, Array.map (fun _ -> Expr.bv_const default) addrs)
          | Expr.Write { mem; addr; data } ->
            let _, slots = go_mem mem in
            let addr' = go addr and data' = go data in
            ( w,
              Array.mapi
                (fun i s -> Build.ite (Build.eq addr' addrs.(i)) data' s)
                slots )
          | Expr.Ite (c, m1, m2) ->
            let c' = go c in
            let _, s1 = go_mem m1 in
            let _, s2 = go_mem m2 in
            (w, Array.init (Array.length s1) (fun i -> Build.ite c' s1.(i) s2.(i)))
          | _ -> invalid_arg "Mem_abstract: unexpected memory-sorted node"
        in
        Hashtbl.add mem_slots (Expr.id e) r;
        r
    and go e =
      match Hashtbl.find_opt memo (Expr.id e) with
      | Some r -> r
      | None ->
        let r = rewrite e in
        Hashtbl.add memo (Expr.id e) r;
        r
    and rewrite e =
      match Expr.node e with
      | Expr.Read { mem; addr } when abstracts (Expr.sort mem) ->
        let w, slots = go_mem mem in
        let addrs = addr_array w in
        let addr' = go addr in
        reads := (w, addr') :: !reads;
        let fallback = Build.bv_var (havoc_name !havoc) w.w_data_width in
        incr havoc;
        let acc = ref fallback in
        for i = Array.length addrs - 1 downto 0 do
          acc := Build.ite (Build.eq addr' addrs.(i)) slots.(i) !acc
        done;
        !acc
      | Expr.Read { mem; addr } -> Build.read (go mem) (go addr)
      | Expr.Eq (a, b) when abstracts (Expr.sort a) ->
        let _, sa = go_mem a in
        let _, sb = go_mem b in
        Build.and_list
          (Array.to_list (Array.map2 (fun x y -> Build.eq x y) sa sb))
      | Expr.Var _ | Expr.Bool_const _ | Expr.Bv_const _ -> e
      | Expr.Not a -> Build.not_ (go a)
      | Expr.And (a, b) -> Build.( &&: ) (go a) (go b)
      | Expr.Or (a, b) -> Build.( ||: ) (go a) (go b)
      | Expr.Xor (a, b) -> Build.xor (go a) (go b)
      | Expr.Implies (a, b) -> Build.( ==>: ) (go a) (go b)
      | Expr.Eq (a, b) -> Build.eq (go a) (go b)
      | Expr.Ite (c, a, b) -> Build.ite (go c) (go a) (go b)
      | Expr.Unop (op, a) -> Expr.unop op (go a)
      | Expr.Binop (op, a, b) -> Expr.binop op (go a) (go b)
      | Expr.Cmp (op, a, b) -> Expr.cmp op (go a) (go b)
      | Expr.Concat (a, b) -> Build.concat (go a) (go b)
      | Expr.Extract { hi; lo; arg } -> Build.extract ~hi ~lo (go arg)
      | Expr.Extend { signed; width; arg } ->
        Expr.extend ~signed ~width (go arg)
      (* only reachable for memories below the abstraction threshold,
         which stay concrete in the rewritten property *)
      | Expr.Write { mem; addr; data } ->
        Build.write (go mem) (go addr) (go data)
      | Expr.Mem_init _ -> e
    in
    let rewritten =
      Array.map
        (fun (p : Property.t) ->
          let assumptions = List.map go p.Property.assumptions in
          let obligations =
            List.map
              (fun (ob : Property.obligation) ->
                {
                  ob with
                  Property.guard = go ob.Property.guard;
                  goal = go ob.Property.goal;
                })
              p.Property.obligations
          in
          (p, assumptions, obligations))
        t.ab_props
    in
    (* Functional consistency over the base slots: aliased window
       addresses must read the same data.  Derived memories preserve
       this inductively (their slots are pointwise muxes). *)
    let consistency =
      List.concat_map
        (fun (_, w, slots) ->
          let addrs = addr_array w in
          let n = Array.length addrs in
          let acc = ref [] in
          for i = n - 1 downto 0 do
            for j = n - 1 downto i + 1 do
              acc :=
                Build.( ==>: )
                  (Build.eq addrs.(i) addrs.(j))
                  (Build.eq slots.(i) slots.(j))
                :: !acc
            done
          done;
          !acc)
        (List.rev !base_mems)
    in
    let props =
      Array.map
        (fun (p, assumptions, obligations) ->
          { p with Property.assumptions = consistency @ assumptions; obligations })
        rewritten
    in
    let b =
      { b_generation = t.ab_generation; b_props = props; b_reads = List.rev !reads }
    in
    t.ab_build <- Some b;
    b

let abstract_properties t = (build t).b_props

(* ---- counterexample replay and refinement ---- *)

(* Evaluate an abstract-side (memory-free) term under the model. *)
let eval_abs model e =
  let env =
    Eval.env_of_list (List.map (fun (n, s) -> (n, model n s)) (Expr.vars e))
  in
  Eval.eval env e

let obs_fields t =
  [ ("group", Ilv_obs.Obs.S t.ab_label) ]

(* Replay the abstract model against the concrete property.  Returns
   [Some verdict] for a genuine counterexample (the verdict carries a
   trace built from the concrete property), or [None] after either
   refining the window (generation bumped — caller re-encodes) or
   concluding no refinement is possible (generation unchanged — caller
   falls back to the concrete encoding). *)
let replay t ~prop_index ~ob_index model =
  let b = build t in
  let p = t.ab_props.(prop_index) in
  let ob = List.nth p.Property.obligations ob_index in
  let catches f ~default = try f () with
    | Eval.Unbound_variable _ | Eval.Eval_error _ | Invalid_argument _ ->
      default
  in
  (* concrete environment: non-memory variables straight from the
     model, memories rebuilt from their window slots (first slot wins;
     the consistency assumptions make aliased slots agree) *)
  let vars = Checker.base_vars p ob in
  let env =
    List.map
      (fun (nm, sort) ->
        match sort with
        | Sort.Mem { addr_width; data_width } when abstracts sort ->
          let w = window_for t sort in
          let m0 =
            Value.to_mem
              (Value.mem_const ~addr_width ~default:(Bitvec.zero data_width))
          in
          let m, _ =
            List.fold_left
              (fun (m, i) a ->
                catches ~default:(m, i + 1) (fun () ->
                    let av = Value.to_bv (eval_abs model a) in
                    if Value.Int_map.mem (Bitvec.to_int av) m.Value.assoc then
                      (m, i + 1)
                    else
                      let dv =
                        Value.to_bv
                          (model (slot_name nm i) (Sort.bv data_width))
                      in
                      (Value.mem_write m av dv, i + 1)))
              (m0, 0) w.w_addrs
          in
          (nm, Value.V_mem m)
        | Sort.Mem _ | Sort.Bool | Sort.Bitvec _ -> (nm, model nm sort))
      vars
  in
  let eenv = Eval.env_of_list env in
  let holds e = catches ~default:false (fun () -> Eval.eval_bool eenv e) in
  let genuine =
    List.for_all holds p.Property.assumptions
    && holds ob.Property.guard
    && catches ~default:false (fun () -> not (Eval.eval_bool eenv ob.Property.goal))
  in
  if genuine then begin
    if Ilv_obs.Obs.enabled () then
      Ilv_obs.Obs.event "cegar.genuine"
        (obs_fields t @ [ ("prop", Ilv_obs.Obs.S p.Property.prop_name) ]);
    let lookup nm sort =
      match List.assoc_opt nm env with
      | Some v -> v
      | None -> model nm sort
    in
    Some (Checker.failed_of_model p ob lookup)
  end
  else begin
    (* spurious: concretize the addresses the havoc'd reads actually
       used.  Every candidate is, by construction, outside the current
       window's values under this model, so admitting it strictly grows
       the window — guaranteed progress, bounded by 2^addr_width. *)
    let added = ref 0 in
    List.iter
      (fun (w, addr') ->
        catches ~default:() (fun () ->
            let av = Value.to_bv (eval_abs model addr') in
            let in_window =
              List.exists
                (fun a ->
                  catches ~default:false (fun () ->
                      Bitvec.equal av (Value.to_bv (eval_abs model a))))
                w.w_addrs
            in
            if not in_window then begin
              let c = Expr.bv_const av in
              if not (List.exists (Expr.equal c) w.w_addrs) then begin
                w.w_addrs <- w.w_addrs @ [ c ];
                incr added
              end
            end))
      b.b_reads;
    if Ilv_obs.Obs.enabled () then begin
      Ilv_obs.Obs.count "cegar.spurious" 1;
      if !added > 0 then Ilv_obs.Obs.count "cegar.refine" !added;
      Ilv_obs.Obs.event "cegar.replay"
        (obs_fields t
        @ [
            ("prop", Ilv_obs.Obs.S p.Property.prop_name);
            ("outcome", Ilv_obs.Obs.S "spurious");
            ("added", Ilv_obs.Obs.I !added);
          ])
    end;
    if !added > 0 then begin
      t.ab_refinements <- t.ab_refinements + !added;
      t.ab_generation <- t.ab_generation + 1
    end;
    None
  end

let hook t : Checker.sat_hook =
 fun ~prop_index ~ob_index model -> replay t ~prop_index ~ob_index model

(* The refinement ceiling of the CEGAR drivers (in [Verify]). *)
let max_rounds = 16
