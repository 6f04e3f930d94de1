open Ilv_expr
open Ilv_sat

type verdict = Proved | Failed of Trace.t | Unknown of string

type budget = {
  conflicts : int option;
  wall_s : float option;
  deadline_s : float option;
  escalations : int;
}

let unlimited =
  { conflicts = None; wall_s = None; deadline_s = None; escalations = 0 }

let budget ?conflicts ?wall_s ?deadline_s ?(escalations = 2) () =
  { conflicts; wall_s; deadline_s; escalations }

let is_unlimited b =
  b.conflicts = None && b.wall_s = None && b.deadline_s = None

let with_deadline d b = { b with deadline_s = Some d }

let with_timeout timeout_s b =
  match timeout_s with
  | None -> b
  | Some t ->
    Some
      (with_deadline
         (Unix.gettimeofday () +. t)
         (Option.value b ~default:unlimited))

let limit_of b =
  Sat.limit ?conflicts:b.conflicts ?wall_s:b.wall_s ?deadline_s:b.deadline_s ()

let past_deadline b =
  match b.deadline_s with
  | None -> false
  | Some d -> Unix.gettimeofday () > d

(* Structured sentinels: a reason carrying one is a machine-readable
   signal to the retry loops, not prose.  Both must survive wrapping
   (encoders prefix solver reasons with context, "obligation
   equivalence after N cycle(s): deadline: ..."), so they match as
   substrings anywhere in the reason. *)
let has_sentinel sentinel r =
  let m = String.length sentinel in
  let n = String.length r in
  let rec at i = i + m <= n && (String.sub r i m = sentinel || at (i + 1)) in
  at 0

(* The absolute group-deadline expiry.  It is deliberately NOT the word
   "timeout": solver and encoder reasons are free-form prose (a
   per-call wall budget may well say "timeout: ..." someday), and
   anything that happens to contain the sentinel would wrongly suppress
   escalation and the degradation ladder.  Its one producer is
   {!Ilv_sat.Sat.deadline_reason}.  Escalation must not retry it (the
   clock that ran out is not per-call), and the degradation ladder
   stops at it rather than burning more rungs against a wall that will
   not move. *)
let deadline_sentinel = Sat.deadline_sentinel
let is_deadline_reason = has_sentinel deadline_sentinel

(* A spurious abstract counterexample: the SAT-model hook rejected the
   model and (usually) refined the abstraction, so the frame it was
   solved in is stale.  The degradation ladder must not descend on it —
   lower rungs would re-solve the same stale abstraction instead of
   letting the CEGAR driver re-encode. *)
let spurious_sentinel = "cegar-spurious:"
let is_spurious_reason = has_sentinel spurious_sentinel

type stats = {
  time_s : float;
  obligation_times_s : float list;
  n_obligations : int;
  cnf_vars : int;
  cnf_clauses : int;
  conflicts : int;
  restarts : int;
  attempts : int;
}

let zero_stats =
  {
    time_s = 0.0;
    obligation_times_s = [];
    n_obligations = 0;
    cnf_vars = 0;
    cnf_clauses = 0;
    conflicts = 0;
    restarts = 0;
    attempts = 0;
  }

(* the stats of a property no solver ran on *)
let unchecked (p : Property.t) =
  { zero_stats with n_obligations = List.length p.Property.obligations }

let base_vars (p : Property.t) (ob : Property.obligation) =
  let add acc e = Expr.vars e @ acc in
  let all =
    List.fold_left add (add (add [] ob.Property.guard) ob.Property.goal)
      p.Property.assumptions
  in
  let all =
    List.fold_left (fun acc (_, e) -> add acc e) all p.Property.ila_bindings
  in
  List.sort_uniq (fun (a, _) (b, _) -> String.compare a b) all

(* The generator substituted the ILA variables away; recover their
   valuation for the trace by evaluating the bindings under the model. *)
let ila_view (p : Property.t) vars model =
  let env =
    Eval.env_of_list (List.map (fun (n, sort) -> (n, model n sort)) vars)
  in
  List.map (fun (n, e) -> (n, Eval.eval env e)) p.Property.ila_bindings

let failed_of_model (p : Property.t) (ob : Property.obligation) model =
  let vars = base_vars p ob in
  Failed
    (Trace.of_model ~property:p.Property.prop_name
       ~obligation:ob.Property.label ~vars
       ~ila_values:(ila_view p vars model) model)

(* A SAT-model interposer (the CEGAR replay): given the property and
   obligation indices and the raw solver model, either produce the
   final verdict (a genuine counterexample, typically re-traced against
   the concrete property) or return [None] — the model was spurious,
   the abstraction was refined, and the current encoding is stale. *)
type sat_hook =
  prop_index:int ->
  ob_index:int ->
  (string -> Sort.t -> Value.t) ->
  verdict option

(* Every escalation multiplies the per-call limits by this factor. *)
let escalation_factor = 4

(* Decide one obligation under its assumption literals, escalating the
   budget on [Unknown]: attempt [k] runs under the initial limit scaled
   by [escalation_factor^k].  Learnt clauses persist in [ctx], so a
   retry resumes rather than restarts the search. *)
let decide ctx ~budget:b ~assumptions attempts =
  if is_unlimited b then begin
    incr attempts;
    Bitblast.check_assuming ctx ~assumptions
  end
  else begin
    let base = limit_of b in
    let rec go k =
      let limit =
        if k = 0 then base
        else
          Sat.scale_limit
            (int_of_float (float_of_int escalation_factor ** float_of_int k))
            base
      in
      incr attempts;
      match Bitblast.check_assuming ~limit ctx ~assumptions with
      | Bitblast.Unknown reason
        when k < b.escalations && not (is_deadline_reason reason) ->
        go (k + 1)
      | answer -> answer
    in
    go 0
  end

(* The per-obligation loop of both checking modes: decide each
   (obligation, assumption literals) query of [p] in order, stopping at
   the first failure.  [retire j] deactivates obligation [j]'s cone once
   it is decided (a no-op on a fresh context); a spurious model retires
   nothing, since the caller discards the stale frame.  Solver stats
   are deltas over the loop, so a shared solver does not report the
   work of properties decided before [p]. *)
let check_queries ~mode ~budget ~retire ~on_sat ctx (p : Property.t) queries =
  let stats0 = Bitblast.solver_stats ctx in
  let attempts = ref 0 in
  let obligation_times = ref [] in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    obligation_times := (Unix.gettimeofday () -. t0) :: !obligation_times;
    r
  in
  let rec go j unknowns = function
    | [] -> (
      match List.rev unknowns with
      | [] -> Proved
      | (label, reason) :: _ ->
        Unknown (Printf.sprintf "obligation %s: %s" label reason))
    | ((ob : Property.obligation), _) :: rest when past_deadline budget ->
      (* the group clock ran out: no more solver calls, every remaining
         obligation degrades to a timestamped Unknown *)
      retire j;
      let reason = Sat.deadline_reason (Option.get budget.deadline_s) in
      go (j + 1) ((ob.Property.label, reason) :: unknowns) rest
    | (ob, assumptions) :: rest -> (
      let span =
        if Ilv_obs.Obs.enabled () then
          Some
            (Ilv_obs.Obs.span_begin "checker.obligation"
               [
                 ("prop", Ilv_obs.Obs.S p.Property.prop_name);
                 ("port", Ilv_obs.Obs.S p.Property.port);
                 ("instr", Ilv_obs.Obs.S p.Property.instr.Ila.instr_name);
                 ("label", Ilv_obs.Obs.S ob.Property.label);
                 ("mode", Ilv_obs.Obs.S mode);
               ])
        else None
      in
      let attempts0 = !attempts in
      let result =
        timed (fun () ->
            if
              Ilv_obs.Inject.fire_once ~point:"solver.stall"
                ~key:(p.Property.prop_name ^ "/" ^ ob.Property.label)
              = Ilv_obs.Inject.Fault
            then Bitblast.Unknown "chaos: injected solver stall"
            else decide ctx ~budget ~assumptions attempts)
      in
      (match span with
      | None -> ()
      | Some id ->
        let open Ilv_obs.Obs in
        let tries = !attempts - attempts0 in
        count "checker.obligations" 1;
        count "checker.escalations" (max 0 (tries - 1));
        span_end
          ~fields:
            [
              ( "outcome",
                S
                  (match result with
                  | Bitblast.Unsat -> "unsat"
                  | Bitblast.Sat _ -> "sat"
                  | Bitblast.Unknown _ -> "unknown") );
              ("attempts", I tries);
              ("escalation_level", I (max 0 (tries - 1)));
            ]
          id);
      match result with
      | Bitblast.Unsat ->
        retire j;
        go (j + 1) unknowns rest
      | Bitblast.Unknown reason ->
        (* keep going: a definite failure on a later obligation is more
           informative than this obligation's timeout *)
        retire j;
        go (j + 1) ((ob.Property.label, reason) :: unknowns) rest
      | Bitblast.Sat model -> (
        (* decode before retiring: retiring adds a clause, which
           invalidates the model *)
        let disposition =
          match on_sat with
          | None -> Some (failed_of_model p ob model)
          | Some hook -> hook ~ob_index:j model
        in
        match disposition with
        | Some verdict ->
          for k = j to j + List.length rest do
            retire k
          done;
          verdict
        | None ->
          (* spurious: the abstraction moved under this encoding; the
             remaining obligations would solve against the same stale
             frame, so stop and let the CEGAR driver re-encode *)
          Unknown
            (spurious_sentinel
           ^ " abstract counterexample rejected; re-encode and retry")))
  in
  let verdict = go 0 [] queries in
  let cnf_vars, cnf_clauses = Bitblast.cnf_size ctx in
  let solver_stats = Bitblast.solver_stats ctx in
  let obligation_times_s = List.rev !obligation_times in
  ( verdict,
    {
      (* summed per-obligation wall clock, each delta captured exactly
         once around the solver call: correct and monotone even when
         checking stopped early at a failing obligation *)
      time_s = List.fold_left ( +. ) 0.0 obligation_times_s;
      obligation_times_s;
      n_obligations = List.length p.Property.obligations;
      cnf_vars;
      cnf_clauses;
      conflicts = solver_stats.Sat.conflicts - stats0.Sat.conflicts;
      restarts = solver_stats.Sat.restarts - stats0.Sat.restarts;
      attempts = !attempts;
    } )

(* The fresh path's preparation: the assumptions are asserted into a
   new bit-blasting context, and every obligation's guard and negated
   goal are pre-encoded to solver literals, before the SAT search
   starts.  The solver sees the specialized property; models decode
   against [p]. *)
let prepare_fresh ~simplify (p : Property.t) =
  let ctx = Bitblast.create () in
  let prep e = if simplify then Simp.simplify_fix e else e in
  let sp = Property.specialize p in
  List.iter
    (fun a -> Bitblast.assert_bool ctx (prep a))
    sp.Property.assumptions;
  let queries =
    List.map2
      (fun ob (sob : Property.obligation) ->
        ( ob,
          List.map (Bitblast.lit_of ctx)
            [ prep sob.Property.guard; Build.not_ (prep sob.Property.goal) ] ))
      p.Property.obligations sp.Property.obligations
  in
  (ctx, queries)

let check ?(simplify = true) ?on_sat ?(budget = unlimited) (p : Property.t) =
  let ctx, queries = prepare_fresh ~simplify p in
  check_queries ~mode:"fresh" ~budget ~retire:ignore ~on_sat ctx p queries

(* One fresh variable per obligation implies that obligation's query
   literals, and one clause asks for any of them: satisfiable iff some
   query of [check] is. *)
let query_cnf p =
  let ctx, queries = prepare_fresh ~simplify:true p in
  let { Dimacs.n_vars; clauses } = Dimacs.of_bitblast ctx in
  let sel j = n_vars + j + 1 in
  let implied =
    List.concat
      (List.mapi
         (fun j (_, lits) -> List.map (fun l -> [ -sel j; l ]) lits)
         queries)
  in
  {
    Dimacs.n_vars = n_vars + List.length queries;
    clauses = clauses @ implied @ [ List.mapi (fun j _ -> sel j) queries ];
  }

(* --- shared-frame incremental checking --- *)

(* All properties of one design share a single bit-blasting context:
   the unrolled transition relation uses the same "rtl.<name>@<cycle>"
   base variables for every instruction, so hash-consing makes the
   common frame encode once and the gate cache turns re-encoding into
   lookups.  Nothing is asserted unguarded: every constraint of
   property [i]'s obligation [j] sits behind activation literals
   ([p_act] for the property's assumptions, [ob_act] per obligation)
   and the query is [Sat.solve ~assumptions:[p_act; ob_act]].  Learnt
   clauses about the shared frame transfer between obligations; a
   decided obligation is retired ([¬ob_act]) so its cone never burdens
   later queries.

   The live context encodes each property specialized under its literal
   assumptions ({!Property.specialize}); the frozen snapshot encodes it
   as generated.  Keys, selectors and stored frames come from the
   snapshot only, so they do not depend on the specialization. *)

type enc =
  | Pending
  | Encoded of int * int list (* property and obligation activation lits *)
  | Enc_failed of string

type shared = {
  sh_props : Property.t array;
  sh_ctx : Bitblast.t;
  sh_label : string; (* what the frame belongs to, for observability *)
  sh_enc : enc array;
  sh_done : (verdict * stats) option array;
      (* memo: a checked property's cones are retired, so re-solving
         them would vacuously return Unsat *)
  mutable sh_frozen : (Sat.flat * int list list array) option;
      (* frame CNF + per-property selector lists, built on a throwaway
         context so the live solver can stay lazy *)
  sh_on_sat : sat_hook option;
}

let prepare_shared ?(label = "") ?on_sat props =
  let n = List.length props in
  {
    sh_props = Array.of_list props;
    sh_ctx = Bitblast.create ();
    sh_label = label;
    sh_enc = Array.make n Pending;
    sh_done = Array.make n None;
    sh_frozen = None;
    sh_on_sat = on_sat;
  }

(* The guarded encoding of one property: a fresh activation literal per
   cone, Tseitin clauses guarded so the cone only binds while its
   selector is assumed.  Deterministic for a given context state — the
   freeze below relies on replaying it on a pristine context producing
   the same clauses and selector numbers on every worker. *)
let encode_property ctx p =
  let p_act = Bitblast.fresh_selector ctx in
  List.iter
    (fun a -> Bitblast.guard_bool ctx ~act:p_act (Simp.simplify_fix a))
    p.Property.assumptions;
  let acts =
    List.map
      (fun (ob : Property.obligation) ->
        let act = Bitblast.fresh_selector ctx in
        Bitblast.guard_bool ctx ~act (Simp.simplify_fix ob.Property.guard);
        Bitblast.guard_not ctx ~act (Simp.simplify_fix ob.Property.goal);
        act)
      p.Property.obligations
  in
  (p_act, acts)

(* Encoding is lazy (per property, on first use): with
   [stop_at_first_failure] most callers never query every instruction,
   and an encoding error must only poison its own property.  A failed
   encode asserts nothing unguarded, so the context stays sound.
   Laziness is also the point of the incremental hot path: a query only
   drags its own cone (plus already-shared frame structure) into the
   solver's watch lists, instead of every sibling instruction's. *)
let encode_shared sh idx =
  match sh.sh_enc.(idx) with
  | Encoded _ | Enc_failed _ -> ()
  | Pending ->
    let p = sh.sh_props.(idx) in
    let span =
      if Ilv_obs.Obs.enabled () then
        Some
          (Ilv_obs.Obs.span_begin "checker.encode_shared"
             [
               ("prop", Ilv_obs.Obs.S p.Property.prop_name);
               ("port", Ilv_obs.Obs.S p.Property.port);
               ("instr", Ilv_obs.Obs.S p.Property.instr.Ila.instr_name);
             ])
      else None
    in
    (match encode_property sh.sh_ctx (Property.specialize p) with
    | p_act, acts -> sh.sh_enc.(idx) <- Encoded (p_act, acts)
    | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
    | exception e -> sh.sh_enc.(idx) <- Enc_failed (Printexc.to_string e));
    match span with
    | None -> ()
    | Some id ->
      let problem, activation = Bitblast.cnf_split sh.sh_ctx in
      Ilv_obs.Obs.span_end
        ~fields:
          [
            ("n_problem_clauses", Ilv_obs.Obs.I problem);
            ("n_activation_clauses", Ilv_obs.Obs.I activation);
          ]
        id

(* Freezing replays the full encoding — every property, in list order —
   on a throwaway frame-only context, runs the CNF pass on it, and
   snapshots the result plus each property's selector lists.  The
   context attaches no watchers: the freeze's only level-0 units are
   the true literal and negated selectors, selectors occur only
   negatively, so nothing propagates and the simplified CNF is the one
   a watched context reaches.  The snapshot is what
   makes the shared frame a sound content address for the proof cache:
   built on a pristine context, it contains no solving residue (learnt
   clauses, retire units) and its selector numbering is identical on
   every worker regardless of which subset of jobs the worker solves.
   Crucially it leaves the *live* solver untouched, so queries keep the
   lazy working set: frame + own cone, never every sibling's cone. *)
let shared_freeze sh =
  if sh.sh_frozen = None then begin
    let span =
      if Ilv_obs.Obs.enabled () then
        Some
          ( Ilv_obs.Obs.span_begin "checker.prepare_shared"
              [
                ("design", Ilv_obs.Obs.S sh.sh_label);
                ("n_properties", Ilv_obs.Obs.I (Array.length sh.sh_props));
              ],
            Ilv_obs.Obs.allocated_words () )
      else None
    in
    let ctx = Bitblast.frame () in
    let selectors =
      Array.map
        (fun p ->
          match encode_property ctx p with
          | p_act, acts -> List.map (fun act -> [ p_act; act ]) acts
          | exception ((Out_of_memory | Stack_overflow) as fatal) ->
            raise fatal
          | exception _ -> [] (* uncacheable; check_shared reports it *))
        sh.sh_props
    in
    let t0 = Ilv_obs.Obs.now_s () in
    let removed = Bitblast.simplify ctx in
    let simplify_s = Ilv_obs.Obs.now_s () -. t0 in
    sh.sh_frozen <- Some (Bitblast.cnf ctx, selectors);
    match span with
    | None -> ()
    | Some (id, words) ->
      let vars, clauses = Bitblast.cnf_size ctx in
      let problem, activation = Bitblast.cnf_split ctx in
      Ilv_obs.Obs.span_end
        ~fields:
          [
            ("cnf_vars", Ilv_obs.Obs.I vars);
            ("cnf_clauses", Ilv_obs.Obs.I clauses);
            ("n_problem_clauses", Ilv_obs.Obs.I problem);
            ("n_activation_clauses", Ilv_obs.Obs.I activation);
            ("simplify_removed", Ilv_obs.Obs.I removed);
            ("simplify_s", Ilv_obs.Obs.F simplify_s);
            ( "alloc_words",
              Ilv_obs.Obs.I (Ilv_obs.Obs.allocated_words () - words) );
          ]
        id
  end

let shared_frame sh =
  shared_freeze sh;
  fst (Option.get sh.sh_frozen)

let shared_cnf sh = Sat.lists_of_flat (shared_frame sh)

let shared_frame_selectors sh idx =
  shared_freeze sh;
  (snd (Option.get sh.sh_frozen)).(idx)

let shared_error sh idx =
  encode_shared sh idx;
  match sh.sh_enc.(idx) with
  | Enc_failed msg -> Some msg
  | Encoded _ -> None
  | Pending -> assert false

let check_shared ?(budget = unlimited) sh idx =
  match sh.sh_done.(idx) with
  | Some r -> r
  | None ->
    encode_shared sh idx;
    let p = sh.sh_props.(idx) in
    let r =
      match sh.sh_enc.(idx) with
      | Pending -> assert false
      | Enc_failed msg -> (Unknown ("exception: " ^ msg), unchecked p)
      | Encoded (p_act, acts) ->
        let ob_act = Array.of_list acts in
        let verdict, stats =
          check_queries ~mode:"incremental" ~budget
            ~retire:(fun j -> Bitblast.retire sh.sh_ctx ob_act.(j))
            ~on_sat:(Option.map (fun hook -> hook ~prop_index:idx) sh.sh_on_sat)
            sh.sh_ctx p
            (List.map2
               (fun ob act -> (ob, [ p_act; act ]))
               p.Property.obligations acts)
        in
        (* the whole property is decided: retire its assumption cone
           too, then shed every clause the retire units satisfy — the
           guarded cones and any learnt clause mentioning a retired
           activation literal — so watch lists don't grow with each
           finished property *)
        Bitblast.retire sh.sh_ctx p_act;
        ignore (Bitblast.simplify sh.sh_ctx);
        Bitblast.age_activity sh.sh_ctx;
        let cnf_vars, cnf_clauses = Bitblast.cnf_size sh.sh_ctx in
        (verdict, { stats with cnf_vars; cnf_clauses })
    in
    sh.sh_done.(idx) <- Some r;
    r

(* --- degradation ladder --- *)

(* Ladder stats accumulate across rungs: wall clock, conflicts and
   attempts are real work and sum; CNF sizes describe the biggest
   context consulted. *)
let merge_stats a b =
  {
    time_s = a.time_s +. b.time_s;
    obligation_times_s = a.obligation_times_s @ b.obligation_times_s;
    n_obligations = max a.n_obligations b.n_obligations;
    cnf_vars = max a.cnf_vars b.cnf_vars;
    cnf_clauses = max a.cnf_clauses b.cnf_clauses;
    conflicts = a.conflicts + b.conflicts;
    restarts = a.restarts + b.restarts;
    attempts = a.attempts + b.attempts;
  }

let degrade_event (p : Property.t) ~from_rung ~to_rung ~reason =
  if Ilv_obs.Obs.enabled () then begin
    Ilv_obs.Obs.count "checker.degradations" 1;
    Ilv_obs.Obs.event "checker.degrade"
      [
        ("prop", Ilv_obs.Obs.S p.Property.prop_name);
        ("port", Ilv_obs.Obs.S p.Property.port);
        ("from", Ilv_obs.Obs.S from_rung);
        ("to", Ilv_obs.Obs.S to_rung);
        ("reason", Ilv_obs.Obs.S reason);
      ]
  end

(* A fresh-context retry of one property.  [check] re-prepares from
   scratch, so an exception that poisoned the shared encoding resurfaces
   here; it must map to [Unknown], not propagate — the ladder's whole
   point is that one property's trouble never aborts the sweep. *)
let check_fresh ?on_sat ~budget ~simplify p =
  match check ~simplify ?on_sat ~budget p with
  | r -> r
  | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
  | exception e -> (Unknown ("exception: " ^ Printexc.to_string e), unchecked p)

let check_shared_degrading ?(budget = unlimited) sh idx =
  let p = sh.sh_props.(idx) in
  (* the ladder's fresh rung re-solves the same (possibly abstract)
     property, so the SAT-model hook must ride along or a spurious
     abstract model would masquerade as a genuine failure *)
  let on_sat =
    Option.map (fun hook -> hook ~prop_index:idx) sh.sh_on_sat
  in
  let v1, s1 = check_shared ~budget sh idx in
  match v1 with
  | Proved | Failed _ -> (v1, s1, "incremental")
  | Unknown r1 when is_deadline_reason r1 ->
    (* the group deadline passed; the fresh rung faces the same wall *)
    (v1, s1, "incremental")
  | Unknown r1 when is_spurious_reason r1 ->
    (* the abstraction was refined: the whole frame is stale, so the
       fresh rung would also solve a stale encoding — return to the
       CEGAR driver, which re-prepares and retries *)
    (v1, s1, "incremental")
  | Unknown r1 -> (
    degrade_event p ~from_rung:"incremental" ~to_rung:"fresh" ~reason:r1;
    let v2, s2 = check_fresh ?on_sat ~budget ~simplify:true p in
    let s12 = merge_stats s1 s2 in
    match v2 with
    | Proved | Failed _ -> (v2, s12, "fresh")
    | Unknown r2 when is_deadline_reason r2 || is_spurious_reason r2 ->
      (v2, s12, "fresh")
    | Unknown r2 ->
      degrade_event p ~from_rung:"fresh" ~to_rung:"unknown" ~reason:r2;
      ( Unknown (Printf.sprintf "degraded(incremental->fresh): %s" r2),
        s12,
        "degraded" ))
