open Ilv_core

type t = {
  s_prepared : Verify.prepared_port;
  s_digest : string Lazy.t;  (* of the generation-0 frozen frame *)
  mutable s_canonical : (Checker.shared * (int * int list list)) option;
      (* canonical CNF of the last live frame stored against *)
}

let create pr =
  let frame0 = Verify.key_frame pr in
  {
    s_prepared = pr;
    s_digest = lazy (Proof_cache.frame_digest (Checker.shared_cnf frame0));
    s_canonical = None;
  }

let prepared s = s.s_prepared

(* the entry's slot in the frame, with its key *)
let slot_key s name =
  let pr = s.s_prepared in
  match Verify.prepared_slot pr name with
  | Error _ -> None
  | Ok idx -> (
    match Checker.shared_frame_selectors (Verify.key_frame pr) idx with
    | [] -> None (* encoding failed: uncacheable *)
    | selectors ->
      let mode =
        Option.map (fun _ -> "abstract") (Verify.prepared_abstraction pr)
      in
      Some
        ( idx,
          Proof_cache.key_of_shared ?mode ~frame:(Lazy.force s.s_digest)
            ~selectors () ))

let key s name = Option.map snd (slot_key s name)

(* The live frame's canonical CNF, kept until a CEGAR refinement
   replaces the frame. *)
let canonical s sh =
  match s.s_canonical with
  | Some (sh', cnf) when sh' == sh -> cnf
  | _ ->
    let cnf = Proof_cache.canonical_cnf (Checker.shared_cnf sh) in
    s.s_canonical <- Some (sh, cnf);
    cnf

(* The one lookup -> decide -> store step of both solving modes.  [key]
   yields the entry's cache key with a thunk for the CNF and selectors
   to store beside it; [decide] solves on a miss; [storable] is the
   mode's store rule on the deciding rung.  Only definitive verdicts are
   stored. *)
let cached ?cache ~design ~instr ~key ~storable decide =
  let keyed =
    match cache with
    | None -> None
    | Some c -> Option.map (fun k -> (c, k)) (key ())
  in
  match Option.bind keyed (fun (c, (k, _)) -> Proof_cache.lookup c k) with
  | Some e -> (e.Proof_cache.verdict, e.Proof_cache.stats, "cache", true)
  | None ->
    let verdict, stats, rung = decide () in
    (match (keyed, verdict) with
    | Some (c, (key, proof)), (Checker.Proved | Checker.Failed _)
      when storable rung ->
      let cnf, hyps = proof () in
      Proof_cache.store c
        {
          Proof_cache.key;
          engine_version = Proof_cache.version;
          design;
          instr;
          verdict;
          stats;
          cnf;
          hyps;
          created_s = Unix.gettimeofday ();
        }
    | _ -> ());
    (verdict, stats, rung, false)

let check ?budget ?cache ~design ~instr s name =
  let pr = s.s_prepared in
  cached ?cache ~design ~instr
    ~key:(fun () ->
      Option.map
        (fun (idx, key) ->
          ( key,
            fun () ->
              (* the decision-time frame: CEGAR may have replaced the
                 one the key came from *)
              let sh = Verify.prepared_shared pr in
              (canonical s sh, Checker.shared_frame_selectors sh idx) ))
        (slot_key s name))
    ~storable:Verify.is_cacheable_rung
    (fun () -> Verify.check_port_instr ?budget pr name)

(* A fresh context's key must be taken before solving: the solver
   appends learnt clauses to the context's CNF. *)
let fresh_key ?mode pr =
  let n_vars, clauses = Checker.cnf pr in
  let hyps = Checker.hypothesis_literals pr in
  ( Proof_cache.key_of_cnf ?mode ~n_vars ~clauses ~hyps (),
    fun () -> (Proof_cache.canonical_cnf (n_vars, clauses), hyps) )

let check_property ?budget ?cache ~memory_abstraction ~design ~instr p =
  match if memory_abstraction then Mem_abstract.create [ p ] else None with
  | None ->
    let pr = Checker.prepare p in
    cached ?cache ~design ~instr
      ~key:(fun () -> Some (fresh_key pr))
      ~storable:(fun _ -> true)
      (fun () ->
        let verdict, stats = Checker.check_prepared ?budget pr in
        (verdict, stats, "sat"))
  | Some ab ->
    (* keyed on the generation-0 abstract encoding, and stored only when
       generation 0 decided, so the stored CNF re-solves to the stored
       verdict shape under [Proof_cache.validate] *)
    cached ?cache ~design ~instr
      ~key:(fun () ->
        Some
          (fresh_key ~mode:"abstract"
             (Checker.prepare (Mem_abstract.abstract_properties ab).(0))))
      ~storable:(String.equal "abstract")
      (fun () -> Verify.check_property ?budget p)
