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

let check ?budget ?cache ~design ~instr s name =
  let keyed =
    match cache with
    | None -> None
    | Some c -> Option.map (fun (idx, k) -> (c, idx, k)) (slot_key s name)
  in
  match Option.bind keyed (fun (c, _, k) -> Proof_cache.lookup c k) with
  | Some e -> (e.Proof_cache.verdict, e.Proof_cache.stats, "cache", true)
  | None ->
    let pr = s.s_prepared in
    let verdict, stats, rung = Verify.check_port_instr ?budget pr name in
    (match (keyed, verdict) with
    | Some (c, idx, key), (Checker.Proved | Checker.Failed _)
      when Verify.is_cacheable_rung rung ->
      let sh = Verify.prepared_shared pr in
      Proof_cache.store c
        {
          Proof_cache.key;
          engine_version = Proof_cache.version;
          design;
          instr;
          verdict;
          stats;
          cnf = canonical s sh;
          hyps = Checker.shared_frame_selectors sh idx;
          created_s = Unix.gettimeofday ();
        }
    | _ -> ());
    (verdict, stats, rung, false)
