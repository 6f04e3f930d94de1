open Ilv_core

type memo = (string, Checker.verdict) Hashtbl.t

let memo () : memo = Hashtbl.create 256

type t = {
  s_prepared : Verify.prepared_port;
  s_cache : Proof_cache.t option;
  s_memo : memo option;
  s_frame0 : Proof_cache.frame Lazy.t;
      (* the generation-0 frozen frame, canonical; forced only with a
         cache, where its key and its stored blob share it *)
  s_digest : string Lazy.t;  (* of [s_frame0] *)
  mutable s_refined : (Checker.shared * Proof_cache.frame) option;
      (* canonical CNF of the last CEGAR-refined frame stored against *)
}

let create ?cache ?memo pr =
  let cnf0 () = Checker.shared_frame (Verify.key_frame pr) in
  let frame0 = lazy (Proof_cache.canonical_frame (cnf0 ())) in
  {
    s_prepared = pr;
    s_cache = cache;
    s_memo = memo;
    s_frame0 = frame0;
    s_digest =
      lazy
        (match cache with
        | Some _ -> Proof_cache.digest (Lazy.force frame0)
        | None -> Proof_cache.digest (Proof_cache.canonical_frame (cnf0 ())));
    s_refined = None;
  }

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

let memoized_keys s names =
  match s.s_memo with
  | None -> None
  | Some m ->
    let keys = List.filter_map (key s) names in
    if
      List.compare_lengths keys names = 0 && List.for_all (Hashtbl.mem m) keys
    then Some (Array.of_list keys)
    else None

let recall memo key =
  Option.map
    (fun verdict -> (verdict, Checker.zero_stats, "memo", false))
    (Hashtbl.find_opt memo key)

(* The live frame's canonical CNF: the generation-0 one until a CEGAR
   refinement replaces the frame. *)
let canonical s sh =
  if sh == Verify.key_frame s.s_prepared then Lazy.force s.s_frame0
  else
    match s.s_refined with
    | Some (sh', fr) when sh' == sh -> fr
    | _ ->
      let fr = Proof_cache.canonical_frame (Checker.shared_frame sh) in
      s.s_refined <- Some (sh, fr);
      fr

(* The one lookup -> decide -> store step: the in-memory [memo], then
   the persistent [cache], then [decide].  [key] yields the entry's key
   with a thunk for the CNF and selectors to store beside it.  Only
   definitive verdicts are memoized, and only those of a cacheable
   rung are stored. *)
let cached ?cache ?memo ~design ~instr ~key decide =
  let key = if cache = None && memo = None then None else key () in
  let find tier lookup =
    match (tier, key) with Some t, Some (k, _) -> lookup t k | _ -> None
  in
  match find memo recall with
  | Some answer -> answer
  | None ->
    let ((verdict, _, _, _) as answer) =
      match find cache Proof_cache.lookup with
      | Some e -> (e.Proof_cache.verdict, e.Proof_cache.stats, "cache", true)
      | None ->
        let verdict, stats, rung = decide () in
        (match (cache, key, verdict) with
        | Some c, Some (key, proof), (Checker.Proved | Checker.Failed _)
          when Verify.is_cacheable_rung rung ->
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
    in
    (match (memo, key, verdict) with
    | Some m, Some (k, _), (Checker.Proved | Checker.Failed _) ->
      Hashtbl.replace m k verdict
    | _ -> ());
    answer

let check ?budget ~design ~instr s name =
  let pr = s.s_prepared in
  cached ?cache:s.s_cache ?memo:s.s_memo ~design ~instr
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
    (fun () -> Verify.check_port_instr ?budget pr name)
