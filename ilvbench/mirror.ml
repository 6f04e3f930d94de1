(* The traced run's pipelines, with a bench-side span around each call
   into a layer's public functions.

   A bug hunt runs through Verify's own prepare-once/check-many
   functions, as Verify.run does.  A sweep cannot: Engine.run keeps its
   group state private, so [sweep_design] repeats its incremental path
   (the same public calls in the same order) to reach the proof cache's
   key, lookup and store steps.  The traced run checks that this copy
   does the engine's work: its exact solver, obligation and cache counts
   must equal those of untraced Engine.run sweeps (see Ilvbench). *)

open Ilv_core
open Ilv_designs
open Ilv_engine

(* refinement ceiling of Engine *)
let max_cegar_rounds = 16

type outcome = {
  o_port : string;
  o_instr : string;
  o_verdict : Checker.verdict;
  o_cache_hit : bool;
}

let generation = function Some ab -> Mem_abstract.generation ab | None -> 0

(* One port as one engine group: generate, abstract, build and freeze
   the shared frame, then key, look up, check and store each leaf
   instruction. *)
let check_port ~cache ~design ~label ~(port : Ila.t) ~rtl ~refmap =
  let props =
    Layers.span "propgen.busy" (fun () -> Propgen.generate ~ila:port ~rtl ~refmap)
  in
  Layers.count "propgen.calls" (List.length props);
  let ab =
    Layers.span "mem_abstract.busy" (fun () -> Mem_abstract.create ~label props)
  in
  if ab <> None then Layers.count "mem_abstract.groups" 1;
  let build () =
    Layers.span "bitblast.busy" (fun () ->
        let sh =
          match ab with
          | None -> Checker.prepare_shared ~label props
          | Some ab ->
            let rewritten =
              Layers.span "mem_abstract.busy" (fun () ->
                  Mem_abstract.abstract_properties ab)
            in
            Checker.prepare_shared ~label ~on_sat:(Mem_abstract.hook ab)
              (Array.to_list rewritten)
        in
        Checker.shared_freeze sh;
        sh)
  in
  let sh = ref (build ()) in
  let gen = ref (generation ab) in
  let canonical = ref (lazy (Proof_cache.canonical_cnf (Checker.shared_cnf !sh))) in
  (* cache keys come from the generation-0 frame, as in the engine *)
  let sh0 = !sh in
  let mode = Option.map (fun _ -> "abstract") ab in
  let frame0 =
    lazy
      (Layers.span "proof_cache.key" (fun () ->
           Proof_cache.frame_digest (Checker.shared_cnf sh0)))
  in
  let concrete = Array.of_list props in
  (* the CEGAR loop: a spurious abstract counterexample re-encodes the
     refined window; stalled refinement decides the concrete property on
     a fresh solver, and that verdict is not cached *)
  let rec attempt idx round =
    let verdict, stats, _ =
      Layers.span "checker.busy" (fun () -> Checker.check_shared_degrading !sh idx)
    in
    match (verdict, ab) with
    | Checker.Unknown r, Some a when Checker.is_spurious_reason r ->
      if Mem_abstract.generation a > !gen && round < max_cegar_rounds then begin
        sh := build ();
        gen := Mem_abstract.generation a;
        canonical := lazy (Proof_cache.canonical_cnf (Checker.shared_cnf !sh));
        attempt idx (round + 1)
      end
      else begin
        Layers.count "mem_abstract.concrete_fallbacks" 1;
        let v, s =
          Layers.span "checker.busy" (fun () ->
              Checker.check_fresh ~budget:Checker.unlimited ~simplify:true
                concrete.(idx))
        in
        (v, s, false)
      end
    | _ -> (verdict, stats, true)
  in
  List.mapi
    (fun idx (i : Ila.instruction) ->
      let key =
        Layers.span "proof_cache.key" (fun () ->
            match Checker.shared_frame_selectors sh0 idx with
            | [] -> None
            | selectors ->
              Some (Proof_cache.key_of_shared ?mode ~frame:(Lazy.force frame0) ~selectors ()))
      in
      let hit =
        Option.bind key (fun k ->
            Layers.span "proof_cache.lookup" (fun () -> Proof_cache.lookup cache k))
      in
      let verdict, cache_hit =
        match hit with
        | Some e -> (e.Proof_cache.verdict, true)
        | None ->
          let verdict, stats, storable = attempt idx 0 in
          (match key with
          | Some k when storable ->
            Layers.span "proof_cache.store" (fun () ->
                Proof_cache.store cache
                  {
                    Proof_cache.key = k;
                    engine_version = Proof_cache.version;
                    design;
                    instr = port.Ila.name ^ "." ^ i.Ila.instr_name;
                    verdict;
                    stats;
                    cnf = Lazy.force !canonical;
                    hyps = Checker.shared_frame_selectors !sh idx;
                    created_s = Unix.gettimeofday ();
                  })
          | _ -> ());
          (verdict, false)
      in
      { o_port = port.Ila.name; o_instr = i.Ila.instr_name; o_verdict = verdict; o_cache_hit = cache_hit })
    (Ila.leaf_instructions port)

(* One design as Engine.run schedules it: one group per port on a pool
   of [jobs] workers.  Returns the outcomes and the number of processes
   that worked on them (the pool runs a single group in-process). *)
let sweep_design ~jobs ~cache (d : Design.t) =
  let ports = d.Design.module_ila.Module_ila.ports in
  let results =
    Pool.map ~jobs
      (fun (port : Ila.t) ->
        Layers.collect (fun () ->
            check_port ~cache ~design:d.Design.name
              ~label:(d.Design.name ^ "/" ^ port.Ila.name)
              ~port ~rtl:d.Design.rtl
              ~refmap:(d.Design.refmap_for d.Design.rtl port.Ila.name)))
      ports
  in
  let outcomes =
    List.concat_map
      (function
        | Pool.Done (outs, snap) ->
          Layers.absorb snap;
          List.map Result.ok outs
        | Pool.Crashed why | Pool.Poisoned why -> [ Error why ])
      results
  in
  let n = List.length ports in
  (outcomes, if jobs <= 1 || n <= 1 then 1 else min jobs n)

(* Verify.run with stop_at_first_failure on a buggy variant: every port
   is prepared, and checking stops at the first failing instruction,
   which is returned. *)
let hunt (d : Design.t) (bug : Design.bug) =
  let name = d.Design.name ^ " [" ^ bug.Design.bug_label ^ "]" in
  let rtl = bug.Design.buggy_rtl in
  List.fold_left
    (fun found (port : Ila.t) ->
      let pr =
        Layers.span "verify.prepare" (fun () ->
            Verify.prepare_port ~memory_abstraction:true ~name ~port ~rtl
              ~refmap:(d.Design.refmap_for rtl port.Ila.name)
              ())
      in
      let instrs = Verify.prepared_instrs pr in
      Layers.count "propgen.calls" (List.length instrs);
      if Verify.prepared_abstraction pr <> None then Layers.count "mem_abstract.groups" 1;
      List.fold_left
        (fun found instr ->
          if found <> None then found
          else
            let verdict, _, rung =
              Layers.span "checker.busy" (fun () -> Verify.check_port_instr pr instr)
            in
            if rung = "abstract>concrete" then
              Layers.count "mem_abstract.concrete_fallbacks" 1;
            match verdict with
            | Checker.Failed _ ->
              Some
                { o_port = port.Ila.name; o_instr = instr; o_verdict = verdict; o_cache_hit = false }
            | _ -> None)
        found instrs)
    None d.Design.module_ila.Module_ila.ports
