(* Tests for the parallel verification engine: proof-cache key
   stability and corruption handling, worker-pool determinism and
   failure isolation, and end-to-end engine runs with a warm cache. *)

open Ilv_core
open Ilv_designs
open Ilv_engine

let t name f = Alcotest.test_case name `Quick f

let fresh_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "ilv-test-cache-%d-%d" (Unix.getpid ()) !counter)
    in
    (try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
    d

let design name =
  List.find (fun d -> d.Design.name = name) Catalog.all

(* A fresh shared frame holding the design's first property (never
   solved on). *)
let shared_of (d : Design.t) =
  let port = List.hd d.Design.module_ila.Module_ila.ports in
  let instr = List.hd (Ila.leaf_instructions port) in
  let refmap = d.Design.refmap_for d.Design.rtl port.Ila.name in
  Checker.prepare_shared ~label:d.Design.name
    [ Propgen.generate_for ~ila:port ~rtl:d.Design.rtl ~refmap instr ]

let jobs_of (d : Design.t) =
  Engine.jobs_of ~name:d.Design.name d.Design.module_ila d.Design.rtl
    ~refmap_for:(fun port -> d.Design.refmap_for d.Design.rtl port)
    ()

(* A Store Buffer property that needs one CEGAR refinement: its goal
   reads a 13th address, past the 12-slot window. *)
let refining_property d =
  let open Ilv_expr in
  let m = Build.mem_var "rtl.mem@0" ~addr_width:5 ~data_width:8 in
  let read mem i = Expr.read ~mem ~addr:(Build.bv ~width:5 i) in
  let byte = Build.bv ~width:8 in
  let p = Lazy.force (List.hd (jobs_of d)).Engine.property in
  {
    p with
    Property.prop_name = "refines";
    assumptions =
      List.init 12 (fun i -> Build.eq (read m i) (byte 0))
      @ [ Build.eq (read m 12) (byte 5) ];
    obligations =
      [
        {
          Property.at_cycle = 0;
          guard = Build.tt;
          goal =
            Build.eq
              (read (Expr.write ~mem:m ~addr:(Build.bv ~width:5 0)
                       ~data:(byte 0)) 12)
              (byte 5);
          label = "goal";
        };
      ];
    ila_bindings = [];
  }

(* ------------------------------------------------------------------ *)
(* Cache keys                                                          *)
(* ------------------------------------------------------------------ *)

let key_tests =
  [
    t "key insensitive to clause and literal order" (fun () ->
        let clauses = [ [ 1; -2; 3 ]; [ -1; 4 ]; [ 2; -3; -4 ]; [ 5 ] ] in
        let key clauses selectors =
          Proof_cache.key_of_shared
            ~frame:(Proof_cache.frame_digest (8, clauses))
            ~selectors ()
        in
        let k = key clauses [ [ 6 ]; [ 7; 8 ] ] in
        let permuted =
          [ [ 5 ]; [ 2; -4; -3 ]; [ 3; 1; -2 ]; [ 4; -1 ] ]
        in
        Alcotest.(check string)
          "permuted CNF keys equal" k
          (key permuted [ [ 6 ]; [ 7; 8 ] ]);
        (* ...but not to the actual content *)
        let changed = [ [ 1; -2; 3 ]; [ -1; 4 ]; [ 2; -3; 4 ]; [ 5 ] ] in
        Alcotest.(check bool)
          "flipped literal changes the key" true
          (k <> key changed [ [ 6 ]; [ 7; 8 ] ]);
        Alcotest.(check bool)
          "different selectors change the key" true
          (k <> key clauses [ [ 6 ] ]));
    t "key insensitive to selector-list order and duplicates (regression)"
      (fun () ->
        (* Pre-fix, keys hashed the selector lists exactly as given
           while canonicalizing the clauses: the same proof problem
           with its obligations enumerated in a different order
           silently missed the cache. *)
        let frame = Proof_cache.frame_digest (8, [ [ 1; -2 ]; [ 2; 3 ] ]) in
        let key selectors = Proof_cache.key_of_shared ~frame ~selectors () in
        let k = key [ [ 6; 7 ]; [ 8 ] ] in
        Alcotest.(check string)
          "permuted selector lists keys equal" k
          (key [ [ 8 ]; [ 7; 6 ] ]);
        Alcotest.(check string)
          "duplicated selector literal keys equal" k
          (key [ [ 6; 7; 6 ]; [ 8 ] ]);
        Alcotest.(check bool)
          "different selector content still changes the key" true
          (k <> key [ [ 6; 7 ]; [ 7 ] ]));
    t "key stable across independent property regenerations" (fun () ->
        let d = design "AXI Slave" in
        let key () =
          let sh = shared_of d in
          Proof_cache.key_of_shared
            ~frame:(Proof_cache.frame_digest (Checker.shared_cnf sh))
            ~selectors:(Checker.shared_frame_selectors sh 0)
            ()
        in
        Alcotest.(check string) "same property, same key" (key ()) (key ()));
    t "solving leaves a shared frame's key unchanged (the freeze is pristine)"
      (fun () ->
        (* The solver appends learnt clauses and retire units to the
           live context; the frozen snapshot is replayed on a throwaway
           one, so a key taken before, after, or only after solving must
           match an unsolved frame's.  A snapshot of the live context
           would make a worker that solved first miss every entry. *)
        let d = design "AXI Slave" in
        let key sh =
          Proof_cache.key_of_shared
            ~frame:(Proof_cache.frame_digest (Checker.shared_cnf sh))
            ~selectors:(Checker.shared_frame_selectors sh 0)
            ()
        in
        let k_unsolved = key (shared_of d) in
        let frozen_first = shared_of d in
        let k_before = key frozen_first in
        let _ = Checker.check_shared frozen_first 0 in
        Alcotest.(check string)
          "frozen then solved: key unchanged" k_before (key frozen_first);
        let solved_first = shared_of d in
        let _ = Checker.check_shared solved_first 0 in
        Alcotest.(check string)
          "solved then frozen: key of an unsolved frame" k_unsolved
          (key solved_first);
        Alcotest.(check string) "all three agree" k_unsolved k_before);
    t "shared-frame keys are pinned (golden, proof-cache version /5)"
      (fun () ->
        (* Keys of warm caches must survive refactors of the drivers:
           these literals were computed before the engine and the
           daemon shared one session, and both of its constructors
           must still mint them.  A deliberate key change bumps
           [Proof_cache.version] and these literals with it. *)
        let first_key (d : Design.t) ~memory_abstraction =
          let port = List.hd d.Design.module_ila.Module_ila.ports in
          let rtl = d.Design.rtl in
          let refmap = d.Design.refmap_for rtl port.Ila.name in
          let by_port =
            Session.create
              (Verify.prepare_port ~memory_abstraction ~name:d.Design.name
                 ~port ~rtl ~refmap ())
          in
          let by_jobs =
            Session.create
              (Verify.prepare_properties ~memory_abstraction
                 ~label:d.Design.name
                 (List.map
                    (fun (i : Ila.instruction) ->
                      ( i.Ila.instr_name,
                        Ok (Propgen.generate_for ~ila:port ~rtl ~refmap i) ))
                    (Ila.leaf_instructions port)))
          in
          let instr =
            (List.hd (Ila.leaf_instructions port)).Ila.instr_name
          in
          let k = Session.key by_port instr in
          Alcotest.(check (option string))
            (d.Design.name ^ ": both constructors agree")
            k (Session.key by_jobs instr);
          (* with a cache the key comes from the canonical frame the
             session stores, not from [frame_digest] *)
          let with_cache =
            Session.create
              ~cache:(Proof_cache.open_ ~dir:(fresh_dir ()) ())
              (Verify.prepare_port ~memory_abstraction ~name:d.Design.name
                 ~port ~rtl ~refmap ())
          in
          Alcotest.(check (option string))
            (d.Design.name ^ ": a session with a cache agrees")
            k (Session.key with_cache instr);
          k
        in
        Alcotest.(check (option string))
          "Decoder, concrete" (Some "acfae2d23f6dbf049c71dcc22efda35e")
          (first_key (design "Decoder") ~memory_abstraction:false);
        Alcotest.(check (option string))
          "Store Buffer, abstract" (Some "3c520d3dba09d10ca93b500af92acb6e")
          (first_key (design "Store Buffer") ~memory_abstraction:true));
  ]

(* The list-based canonical form and serialization that frame digests
   and keys were defined by (proof-cache version /5), kept as the
   reference for the implementation that writes bytes directly: its
   digests and keys must be byte-for-byte what these produce. *)
let reference_lists lists =
  String.concat ""
    (List.map
       (fun lits ->
         ";"
         ^ String.concat "" (List.map (fun l -> string_of_int l ^ ",") lits))
       (List.sort compare (List.map (List.sort_uniq compare) lists)))

let reference_text (n_vars, clauses) =
  "v" ^ string_of_int n_vars ^ reference_lists clauses

let md5 s = Digest.to_hex (Digest.string s)

let show_clauses l =
  String.concat " "
    (List.map
       (fun c -> "(" ^ String.concat "|" (List.map string_of_int c) ^ ")")
       l)

(* CNFs with the cases the serialization must get right: negative and
   repeated literals, clauses that are prefixes of others ([1] vs
   [1;2]), the empty clause among units, [n_vars] 0, literals of many
   digits (far beyond [n_vars]), clauses of 4-12 literals (a counting
   sort pass per position, where a Tseitin frame needs 3), and frames of
   200+ clauses that extend a few long stems, so that many clauses
   share long prefixes. *)
let arb_frame_cnf =
  let gen st =
    let int = Random.State.int st in
    let n_vars = int 9 + if int 4 = 0 then int 60 else 0 in
    let lit () =
      let v =
        if int 20 = 0 then 1 + int 1_000_000 else 1 + int (max 1 n_vars)
      in
      if Random.State.bool st then v else -v
    in
    let clause len = List.init len (fun _ -> lit ()) in
    let short () = clause (int 6) in
    let long () = clause (4 + int 9) in
    let base =
      match int 3 with
      | 0 -> List.init (int 12) (fun _ -> short ())
      | 1 ->
        List.init (int 12) (fun _ ->
            if Random.State.bool st then long () else short ())
      | _ ->
        let stems = Array.init (1 + int 4) (fun _ -> long ()) in
        List.init
          (200 + int 100)
          (fun _ ->
            let stem = stems.(int (Array.length stems)) in
            let k = int (List.length stem + 1) in
            List.filteri (fun i _ -> i < k) stem @ clause (int 4))
    in
    let prefixes =
      List.filter_map
        (fun c ->
          if c <> [] && Random.State.bool st then
            let k = int (List.length c) in
            Some (List.filteri (fun i _ -> i < k) c)
          else None)
        base
    in
    let units =
      List.init (int 4) (fun _ -> clause 1) @ if int 3 = 0 then [ [] ] else []
    in
    (* units and the empty clause land anywhere in the clause order *)
    let clauses =
      List.map (fun c -> (int 1000, c)) (units @ base @ prefixes)
      |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
      |> List.map snd
    in
    let hyps = List.init (int 4) (fun _ -> short ()) in
    ((n_vars, clauses), hyps)
  in
  QCheck.make
    ~print:(fun ((n, cs), hyps) ->
      Printf.sprintf "%d vars: %s; hyps %s" n (show_clauses cs)
        (show_clauses hyps))
    gen

(* A random CNF for a solver to simplify and export: units among the
   clauses, so the export carries level-0 facts and stripped clauses. *)
let arb_solver_cnf =
  let gen st =
    let int = Random.State.int st in
    let n_vars = 1 + int 30 in
    let lit () = (1 + int n_vars) * if Random.State.bool st then 1 else -1 in
    ( n_vars,
      List.init (int 80) (fun _ ->
          List.init (if int 8 = 0 then 1 else 2 + int 3) (fun _ -> lit ())) )
  in
  QCheck.make
    ~print:(fun (n, cs) -> Printf.sprintf "%d vars: %s" n (show_clauses cs))
    gen

let canonical_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"frame text and keys are byte-identical to the list-based ones"
         ~count:1000 arb_frame_cnf (fun (cnf, hyps) ->
           let text = reference_text cnf in
           Proof_cache.frame_digest cnf = md5 text
           && Proof_cache.digest (Proof_cache.canonical_cnf cnf) = md5 text
           && Proof_cache.key_of_shared ~frame:(md5 text) ~selectors:hyps ()
              = md5 ("I;" ^ md5 text ^ "#S" ^ reference_lists hyps)
           && Proof_cache.key_of_shared ~mode:"abstract" ~frame:(md5 text)
                ~selectors:hyps ()
              = md5 ("I;Mabstract;" ^ md5 text ^ "#S" ^ reference_lists hyps)));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"a solver's flat export canonicalizes as its list export"
         ~count:300 arb_solver_cnf (fun (n_vars, clauses) ->
           List.for_all
             (fun make ->
               let s = make () in
               for _ = 1 to n_vars do
                 ignore (Ilv_sat.Sat.new_var s)
               done;
               List.iter (Ilv_sat.Sat.add_clause s) clauses;
               ignore (Ilv_sat.Sat.simplify s);
               let text = reference_text (Ilv_sat.Sat.export s) in
               Proof_cache.digest
                 (Proof_cache.canonical_frame (Ilv_sat.Sat.export_flat s))
               = md5 text
               && Proof_cache.frame_digest (Ilv_sat.Sat.export s) = md5 text)
             [ Ilv_sat.Sat.create; Ilv_sat.Sat.frame ]));
    t "edge-case frames serialize as the list-based text" (fun () ->
        List.iter
          (fun cnf ->
            Alcotest.(check string)
              (reference_text cnf) (md5 (reference_text cnf))
              (Proof_cache.frame_digest cnf))
          [
            (0, []);
            (0, [ [] ]);
            (2, [ [ 1; 2 ]; [ 1 ]; []; [ 2; 1; 1 ]; [ -1; -2 ] ]);
            (12, [ [ -12; 10 ]; [ 10; -12 ]; [ -10 ]; [ 9; 100 ] ]);
          ]);
    t "every quick-catalog frame digest is pinned (golden, version /5)"
      (fun () ->
        (* The digests of the 15 generation-0 frames the engine keys a
           quick sweep on (memory abstraction on, as the CLI default),
           in catalog and port order, hashed together: any change to
           the freeze's encoding, its CNF simplification or the frame
           serialization moves it. *)
        let digests =
          List.concat_map
            (fun (d : Design.t) ->
              List.map
                (fun (port : Ila.t) ->
                  let pr =
                    Verify.prepare_port ~memory_abstraction:true
                      ~name:d.Design.name ~port ~rtl:d.Design.rtl
                      ~refmap:(d.Design.refmap_for d.Design.rtl port.Ila.name)
                      ()
                  in
                  Proof_cache.frame_digest
                    (Checker.shared_cnf (Verify.key_frame pr)))
                d.Design.module_ila.Module_ila.ports)
            Catalog.quick
        in
        Alcotest.(check int) "15 frames" 15 (List.length digests);
        Alcotest.(check string)
          "digest of the frame digests" "d8d529ac3d73463104951d4d186b1eff"
          (md5 (String.concat "," digests)));
    t "the engine's own key path writes the pinned frame blobs (golden)"
      (fun () ->
        (* The test above reaches its digests through the list views;
           this one pins what Engine.run itself canonicalizes and
           stores on a cold quick sweep (memory abstraction on): the
           sorted blob names, hashed together, and every blob's MD5
           equal to its name. *)
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let jobs =
          List.concat_map jobs_of Catalog.quick
          |> List.mapi (fun i (j : Engine.job) -> { j with Engine.id = i })
        in
        let _, summary = Engine.run ~cache ~memory_abstraction:true jobs in
        Alcotest.(check int) "every job proved" summary.Engine.n_jobs
          summary.Engine.n_proved;
        let blobs = Proof_cache.blob_files cache in
        let names =
          List.map
            (fun path -> Filename.chop_suffix (Filename.basename path) ".cnf")
            blobs
        in
        Alcotest.(check int) "15 blobs" 15 (List.length blobs);
        List.iter2
          (fun path name ->
            Alcotest.(check string)
              (name ^ ": MD5 is the name") name
              (Digest.to_hex (Digest.file path)))
          blobs names;
        Alcotest.(check string)
          "digest of the blob names" "d52d85cccfac1924f5aab178c9659691"
          (md5 (String.concat "," names));
        ignore (Proof_cache.clear cache));
  ]

(* ------------------------------------------------------------------ *)
(* Cache store / lookup robustness                                     *)
(* ------------------------------------------------------------------ *)

(* A shared-frame entry, as a cache-backed session stores it. *)
let entry_of (d : Design.t) =
  let sh = shared_of d in
  let cnf = Proof_cache.canonical_cnf (Checker.shared_cnf sh) in
  let hyps = Checker.shared_frame_selectors sh 0 in
  let key =
    Proof_cache.key_of_shared ~frame:(Proof_cache.digest cnf) ~selectors:hyps
      ()
  in
  let verdict, stats = Checker.check_shared sh 0 in
  {
    Proof_cache.key;
    engine_version = Proof_cache.version;
    design = d.Design.name;
    instr = "test";
    verdict;
    stats;
    cnf;
    hyps;
    created_s = 0.0;
  }

let stored_entry (d : Design.t) cache =
  let entry = entry_of d in
  Proof_cache.store cache entry;
  entry

let entry_path dir key = Filename.concat dir (key ^ ".proof")

let cache_tests =
  [
    t "store then lookup round-trips the verdict" (fun () ->
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let e = stored_entry (design "AXI Slave") cache in
        (match Proof_cache.lookup cache e.Proof_cache.key with
        | Some got ->
          Alcotest.(check bool)
            "verdict is Proved" true
            (got.Proof_cache.verdict = Checker.Proved)
        | None -> Alcotest.fail "expected a hit");
        Alcotest.(check int) "one entry" 1 (Proof_cache.stats cache).entries;
        Alcotest.(check int) "clear removes it" 1 (Proof_cache.clear cache));
    t "truncated entry is a miss, not a crash" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = stored_entry (design "AXI Slave") cache in
        let path = entry_path dir e.Proof_cache.key in
        let size = (Unix.stat path).Unix.st_size in
        Unix.truncate path (size / 2);
        Alcotest.(check bool)
          "truncated file misses" true
          (Proof_cache.lookup cache e.Proof_cache.key = None);
        (* the lookup quarantined the torn file on contact: it no
           longer occupies the key space, but is kept as evidence *)
        Alcotest.(check int)
          "no corrupt entry remains in the key space" 0
          (Proof_cache.stats cache).corrupt;
        Alcotest.(check int)
          "it was quarantined, not deleted" 1
          (Proof_cache.quarantined_count cache);
        (* and a re-store re-occupies the key slot *)
        let e2 = stored_entry (design "AXI Slave") cache in
        Alcotest.(check bool)
          "re-stored entry hits again" true
          (Proof_cache.lookup cache e2.Proof_cache.key <> None));
    t "garbage and version-mismatched entries are misses" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let key = String.make 32 'a' in
        let oc = open_out_bin (Filename.concat dir (key ^ ".proof")) in
        output_string oc "not a proof cache entry at all";
        close_out oc;
        Alcotest.(check bool)
          "garbage misses" true
          (Proof_cache.lookup cache key = None);
        let e = stored_entry (design "AXI Slave") cache in
        Proof_cache.store cache
          { e with Proof_cache.engine_version = "some-other-engine/9" };
        Alcotest.(check bool)
          "foreign engine version misses" true
          (Proof_cache.lookup cache e.Proof_cache.key = None));
    t "unknown verdicts are never stored" (fun () ->
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let e = stored_entry (design "AXI Slave") cache in
        ignore (Proof_cache.clear cache);
        Proof_cache.store cache
          { e with Proof_cache.verdict = Checker.Unknown "budget" };
        Alcotest.(check int)
          "store dropped it" 0
          (Proof_cache.stats cache).entries);
    t "validate agrees with freshly stored entries" (fun () ->
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        ignore (stored_entry (design "AXI Slave") cache);
        let v = Proof_cache.validate ~sample:5 cache in
        Alcotest.(check int) "checked" 1 v.Proof_cache.checked;
        Alcotest.(check int) "agreed" 1 v.Proof_cache.agreed);
    t "entries of one frame share one blob and stay small" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = entry_of (design "AXI Slave") in
        let keys = List.init 6 (fun i -> Printf.sprintf "%02x-sibling" i) in
        List.iter
          (fun key -> Proof_cache.store cache { e with Proof_cache.key })
          keys;
        let blobs = Sys.readdir (Filename.concat dir "frames") in
        Alcotest.(check int) "exactly one blob" 1 (Array.length blobs);
        let digest = Proof_cache.digest e.Proof_cache.cnf in
        Alcotest.(check string)
          "the blob is named by the frame digest" (digest ^ ".cnf") blobs.(0);
        Alcotest.(check string)
          "the frame digest is frame_digest of its CNF"
          (Proof_cache.frame_digest
             (Checker.shared_cnf (shared_of (design "AXI Slave"))))
          digest;
        List.iter
          (fun key ->
            let size = (Unix.stat (entry_path dir key)).Unix.st_size in
            Alcotest.(check bool)
              (Printf.sprintf "entry %s is %d B, under 1 KiB" key size)
              true (size < 1024))
          keys;
        let s = Proof_cache.stats cache in
        Alcotest.(check int) "entries" 6 s.Proof_cache.entries;
        Alcotest.(check int) "frames" 1 s.Proof_cache.frames;
        Alcotest.(check int) "clear removes the entries" 6
          (Proof_cache.clear cache);
        Alcotest.(check bool)
          "and the frames directory" false
          (Sys.file_exists (Filename.concat dir "frames")));
    t "a format-/2 file under a live key is a miss, and a store replaces it"
      (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = entry_of (design "AXI Slave") in
        let path = entry_path dir e.Proof_cache.key in
        let payload = Marshal.to_string (e.Proof_cache.key, "old CNF") [] in
        let oc = open_out_bin path in
        output_string oc
          ("ilaverif-proof-cache/2\n"
          ^ Digest.to_hex (Digest.string payload)
          ^ "\n" ^ payload);
        close_out oc;
        Alcotest.(check bool)
          "miss" true
          (Proof_cache.lookup cache e.Proof_cache.key = None);
        Alcotest.(check int) "stale, not damage" 1
          (Proof_cache.stats cache).stale;
        Alcotest.(check int) "nothing quarantined" 0
          (Proof_cache.quarantined_count cache);
        Proof_cache.store cache e;
        Alcotest.(check bool)
          "the store replaced it" true
          (Proof_cache.lookup cache e.Proof_cache.key <> None);
        Alcotest.(check int) "no stale file left" 0
          (Proof_cache.stats cache).stale);
    t "a read that fails is a plain miss and quarantines nothing" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = entry_of (design "AXI Slave") in
        (* a directory under the entry's name: opening it works, reading
           it fails with EISDIR, as a read under EMFILE or of a file a
           concurrent clear removed fails *)
        let path = entry_path dir e.Proof_cache.key in
        Unix.mkdir path 0o755;
        Alcotest.(check bool)
          "miss" true
          (Proof_cache.lookup cache e.Proof_cache.key = None);
        Alcotest.(check int) "not quarantined" 0
          (Proof_cache.quarantined_count cache);
        Alcotest.(check int) "recover leaves it" 0 (Proof_cache.recover cache);
        Alcotest.(check int) "not counted corrupt" 0
          (Proof_cache.stats cache).corrupt;
        Unix.rmdir path);
    t "a rewritten blob is quarantined with the entries that refer to it"
      (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = entry_of (design "AXI Slave") in
        let keys = [ "aa-first"; "bb-second"; "cc-third" ] in
        List.iter
          (fun key -> Proof_cache.store cache { e with Proof_cache.key })
          keys;
        let blob =
          Filename.concat
            (Filename.concat dir "frames")
            (Proof_cache.digest e.Proof_cache.cnf ^ ".cnf")
        in
        (* well-formed frame text, but not the frame named *)
        let oc = open_out_bin blob in
        output_string oc "v1;1,;-1,";
        close_out oc;
        Alcotest.(check bool)
          "lookup reads no blob: still a hit" true
          (Proof_cache.lookup cache "aa-first" <> None);
        Alcotest.(check int) "stats counts the blob and its entries" 4
          (Proof_cache.stats cache).corrupt;
        let v = Proof_cache.validate ~full:true cache in
        Alcotest.(check (list string))
          "every referring entry reported"
          (List.map (fun k -> k ^ ".proof") keys)
          (List.sort compare v.Proof_cache.corrupt_entries);
        Alcotest.(check int) "none re-solved" 0 v.Proof_cache.checked;
        Alcotest.(check int) "blob and entries quarantined" 4
          (Proof_cache.quarantined_count cache);
        Alcotest.(check bool) "the blob left the frames directory" false
          (Sys.file_exists blob);
        let s = Proof_cache.stats cache in
        Alcotest.(check int) "nothing corrupt left" 0 s.Proof_cache.corrupt;
        Alcotest.(check int) "no entries left" 0 s.Proof_cache.entries);
    t "validate agrees on an entry whose blob a sibling wrote" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = entry_of (design "AXI Slave") in
        Proof_cache.store cache { e with Proof_cache.key = "aa-writer" };
        let blob =
          Filename.concat
            (Filename.concat dir "frames")
            (Proof_cache.digest e.Proof_cache.cnf ^ ".cnf")
        in
        let mtime () = (Unix.stat blob).Unix.st_mtime in
        Unix.utimes blob 1.0 1.0;
        Proof_cache.store cache { e with Proof_cache.key = "bb-sibling" };
        Alcotest.(check (float 0.0)) "the sibling left the blob alone" 1.0
          (mtime ());
        Sys.remove (entry_path dir "aa-writer");
        (match Proof_cache.lookup cache "bb-sibling" with
        | Some got ->
          Alcotest.(check string)
            "its frame is the writer's" (Proof_cache.digest e.Proof_cache.cnf)
            (Proof_cache.digest got.Proof_cache.cnf)
        | None -> Alcotest.fail "expected a hit");
        let v = Proof_cache.validate ~sample:5 cache in
        Alcotest.(check int) "checked" 1 v.Proof_cache.checked;
        Alcotest.(check int) "agreed" 1 v.Proof_cache.agreed);
    t "stale (foreign version) and corrupt entries classify separately"
      (fun () ->
        (* Pre-fix, both landed in the same [corrupt] bucket, so a
           routine engine upgrade was indistinguishable from disk
           damage in [stats] and [validate]. *)
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = stored_entry (design "AXI Slave") cache in
        Proof_cache.store cache
          {
            e with
            Proof_cache.key = String.make 32 'b';
            engine_version = "some-other-engine/9";
          };
        let oc =
          open_out_bin (Filename.concat dir (String.make 32 'c' ^ ".proof"))
        in
        output_string oc "definitely not a proof cache entry";
        close_out oc;
        let s = Proof_cache.stats cache in
        Alcotest.(check int) "usable entries" 1 s.Proof_cache.entries;
        Alcotest.(check int) "stale" 1 s.Proof_cache.stale;
        Alcotest.(check int) "corrupt" 1 s.Proof_cache.corrupt;
        let v = Proof_cache.validate ~sample:10 cache in
        Alcotest.(check int) "checked only the usable one" 1
          v.Proof_cache.checked;
        Alcotest.(check int) "it agreed" 1 v.Proof_cache.agreed;
        Alcotest.(check int) "one stale file" 1
          (List.length v.Proof_cache.stale_entries);
        Alcotest.(check int) "one corrupt file" 1
          (List.length v.Proof_cache.corrupt_entries));
    t "validate strides across the whole listing (regression)" (fun () ->
        (* Pre-fix, [validate ~sample:n] re-solved the lexicographically
           first [n] entry files: an entry whose digest sorted late was
           never re-checked no matter how often validation ran.  Ten
           synthetic entries, the single rotted one keyed to sort last;
           a stride of 5 must include the last file and catch it. *)
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let no_stats =
          {
            Checker.time_s = 0.0;
            obligation_times_s = [];
            n_obligations = 1;
            cnf_vars = 1;
            cnf_clauses = 2;
            conflicts = 0;
            restarts = 0;
            attempts = 1;
          }
        in
        let synthetic ~key ~cnf =
          {
            Proof_cache.key;
            engine_version = Proof_cache.version;
            design = "synthetic";
            instr = "t";
            verdict = Checker.Proved;
            stats = no_stats;
            cnf = Proof_cache.canonical_cnf cnf;
            hyps = [ [ 1 ] ];
            created_s = 0.0;
          }
        in
        (* nine honest entries: x /\ not x is UNSAT, so Proved agrees *)
        for i = 0 to 8 do
          Proof_cache.store cache
            (synthetic
               ~key:(Printf.sprintf "%02d-good" i)
               ~cnf:(1, [ [ 1 ]; [ -1 ] ]))
        done;
        (* one rotted entry, keyed to sort after every honest one: its
           stored CNF is satisfiable, so Proved is a lie *)
        Proof_cache.store cache
          (synthetic ~key:"zz-rotted" ~cnf:(1, [ [ 1 ] ]));
        let v = Proof_cache.validate ~sample:5 cache in
        Alcotest.(check int) "checked the sample" 5 v.Proof_cache.checked;
        Alcotest.(check (list string))
          "the late-sorting rotted entry is caught" [ "zz-rotted" ]
          v.Proof_cache.mismatched);
    t "entries sit directly under the root, blobs under frames/" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = stored_entry (design "AXI Slave") cache in
        let key = e.Proof_cache.key in
        Alcotest.(check (list string))
          "one entry file and the frames directory, nothing else"
          [ key ^ ".proof"; "frames" ]
          (List.sort compare (Array.to_list (Sys.readdir dir)));
        Alcotest.(check (list string))
          "entry_files lists it" [ entry_path dir key ]
          (Proof_cache.entry_files cache);
        (* a file in a two-hex-character subdirectory is not an entry:
           no lookup, stats or clear reads one *)
        let sub = Filename.concat dir (String.sub key 0 2) in
        Unix.mkdir sub 0o755;
        Sys.rename (entry_path dir key) (entry_path sub key);
        Alcotest.(check bool) "a subdirectory file misses" true
          (Proof_cache.lookup cache key = None);
        Alcotest.(check int) "stats does not count it" 0
          (Proof_cache.stats cache).entries;
        Sys.rename (entry_path sub key) (entry_path dir key);
        Unix.rmdir sub;
        Alcotest.(check bool) "back under the root, it hits" true
          (Proof_cache.lookup cache key <> None);
        Alcotest.(check int) "clear removes it" 1 (Proof_cache.clear cache);
        Alcotest.(check bool) "the file is gone" false
          (Sys.file_exists (entry_path dir key)));
    t "two writers racing one key leave one whole entry" (fun () ->
        (* No lock orders same-key writers: each renames a whole temp
           file of its own over the entry and the last rename wins.  A
           reader in the meantime must see a whole entry or none. *)
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let e = entry_of (design "AXI Slave") in
        let key = e.Proof_cache.key in
        let rounds = 200 in
        (* writer [w]'s round [i] stores conflicts [1000 w + i] and
           created_s [i], so a hit names one whole store *)
        let writer w =
          match Unix.fork () with
          | 0 ->
            (try
               for i = 1 to rounds do
                 Proof_cache.store cache
                   {
                     e with
                     Proof_cache.created_s = float_of_int i;
                     stats =
                       {
                         e.Proof_cache.stats with
                         Checker.conflicts = (1000 * w) + i;
                       };
                   }
               done
             with _ -> Unix._exit 1);
            Unix._exit 0
          | pid -> pid
        in
        let pids = [ writer 1; writer 2 ] in
        let whole (got : Proof_cache.entry) =
          let i = got.Proof_cache.stats.Checker.conflicts mod 1000 in
          got.Proof_cache.key = key
          && got.Proof_cache.verdict = e.Proof_cache.verdict
          && List.mem (got.Proof_cache.stats.Checker.conflicts / 1000) [ 1; 2 ]
          && got.Proof_cache.created_s = float_of_int i
        in
        let torn = ref 0 in
        let look () =
          match Proof_cache.lookup cache key with
          | None -> ()
          | Some got -> if not (whole got) then incr torn
        in
        let running = ref pids and codes = ref [] in
        while !running <> [] do
          look ();
          running :=
            List.filter
              (fun pid ->
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ -> true
                | _, Unix.WEXITED c ->
                  codes := c :: !codes;
                  false
                | _, _ ->
                  codes := -1 :: !codes;
                  false)
              !running
        done;
        Alcotest.(check (list int)) "both writers finished" [ 0; 0 ] !codes;
        Alcotest.(check int) "no lookup saw a torn or mixed entry" 0 !torn;
        Alcotest.(check bool) "the final lookup is a whole hit" true
          (match Proof_cache.lookup cache key with
          | Some got -> whole got
          | None -> false);
        Alcotest.(check int) "nothing quarantined" 0
          (Proof_cache.quarantined_count cache);
        Alcotest.(check (list string))
          "one entry file and the frames directory, no temp file"
          [ key ^ ".proof"; "frames" ]
          (List.sort compare (Array.to_list (Sys.readdir dir)));
        Alcotest.(check bool) "no temp file among the blobs" true
          (Array.for_all
             (fun f -> Filename.check_suffix f ".cnf")
             (Sys.readdir (Filename.concat dir "frames")));
        let v = Proof_cache.validate ~full:true cache in
        Alcotest.(check int) "validate checks the entry" 1
          v.Proof_cache.checked;
        Alcotest.(check int) "and agrees" 1 v.Proof_cache.agreed);
    t "clear keeps its files as spares and a refill reuses them" (fun () ->
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let axi = entry_of (design "AXI Slave") in
        let keys = List.init 4 (fun i -> Printf.sprintf "%02x-spare" i) in
        List.iter
          (fun key -> Proof_cache.store cache { axi with Proof_cache.key })
          keys;
        let inode path = (Unix.stat path).Unix.st_ino in
        let files () =
          Proof_cache.entry_files cache @ Proof_cache.blob_files cache
        in
        let before = List.map inode (files ()) in
        let size path = (Unix.stat path).Unix.st_size in
        let axi_blob = size (List.hd (Proof_cache.blob_files cache)) in
        let spare = Filename.concat dir "spare" in
        Alcotest.(check int) "clear removes the entries" 4
          (Proof_cache.clear cache);
        Alcotest.(check int) "every file is kept as a spare" 5
          (Array.length (Sys.readdir spare));
        List.iter
          (fun key ->
            Alcotest.(check bool)
              ("a spare answers no lookup: " ^ key)
              true
              (Proof_cache.lookup cache key = None))
          keys;
        Alcotest.(check int) "stats see no spare" 0
          (Proof_cache.stats cache).Proof_cache.entries;
        (* the most recent spare (the AXI Slave blob) takes the smaller
           Decoder blob and must be cut to its length; a handle opened
           after the clear finds the rest *)
        let dec = entry_of (design "Decoder") in
        Proof_cache.store cache dec;
        Alcotest.(check bool) "the reused spare is cut to the smaller blob" true
          (List.exists
             (fun path -> size path < axi_blob)
             (Proof_cache.blob_files cache));
        let other = Proof_cache.open_ ~dir () in
        Proof_cache.store other { axi with Proof_cache.key = List.hd keys };
        List.iter
          (fun path ->
            Alcotest.(check bool)
              ("no inode is created: " ^ Filename.basename path)
              true
              (List.mem (inode path) before))
          (files ());
        Alcotest.(check int) "one spare is left" 1
          (Array.length (Sys.readdir spare));
        let s = Proof_cache.stats other in
        Alcotest.(check int) "entries" 2 s.Proof_cache.entries;
        Alcotest.(check int) "frames" 2 s.Proof_cache.frames;
        Alcotest.(check int) "nothing corrupt" 0 s.Proof_cache.corrupt;
        let v = Proof_cache.validate ~full:true other in
        Alcotest.(check int) "both re-solve to their verdicts" 2
          v.Proof_cache.agreed;
        Alcotest.(check bool) "the small entry reads back" true
          (Option.map
             (fun e -> e.Proof_cache.verdict)
             (Proof_cache.lookup other dec.Proof_cache.key)
          = Some dec.Proof_cache.verdict));
  ]

(* ------------------------------------------------------------------ *)
(* Worker pool                                                         *)
(* ------------------------------------------------------------------ *)

let pool_tests =
  [
    t "-j1 and -j4 produce identical results in identical order" (fun () ->
        let items = List.init 23 Fun.id in
        let f x = (x * x) + 1 in
        let seq = Pool.map ~jobs:1 f items in
        let par = Pool.map ~jobs:4 f items in
        Alcotest.(check bool) "same outcomes" true (seq = par);
        Alcotest.(check bool)
          "ordered as the input" true
          (par = List.map (fun x -> Pool.Done (f x)) items));
    t "an exception isolates to its own job" (fun () ->
        let items = [ 0; 1; 2; 3; 4; 5 ] in
        let f x = if x = 3 then failwith "boom" else x * 10 in
        List.iter
          (fun jobs ->
            let out = Pool.map ~jobs f items in
            List.iteri
              (fun i o ->
                match o with
                | Pool.Done y ->
                  Alcotest.(check bool)
                    "non-faulting jobs succeed" true
                    (i <> 3 && y = i * 10)
                | Pool.Crashed reason ->
                  let mentions_boom =
                    let n = String.length reason in
                    let rec scan i =
                      i + 4 <= n
                      && (String.sub reason i 4 = "boom" || scan (i + 1))
                    in
                    scan 0
                  in
                  Alcotest.(check bool)
                    "only job 3 crashed, with the exception text" true
                    (i = 3 && mentions_boom)
                | Pool.Poisoned _ ->
                  Alcotest.fail
                    "a deterministic error must not poison the job")
              out)
          [ 1; 4 ]);
    t "a persistently dying worker process poisons its job" (fun () ->
        let items = [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
        (* [Unix._exit] skips every at_exit handler: the worker vanishes
           mid-job exactly like a segfault would.  Job 2 kills its first
           host, earns a supervised retry, kills the second host too —
           and is quarantined as [Poisoned] instead of meeting a third
           worker. *)
        let f x = if x = 2 then Unix._exit 9 else x + 100 in
        let out = Pool.map ~jobs:3 f items in
        List.iteri
          (fun i o ->
            match o with
            | Pool.Done y ->
              Alcotest.(check bool) "survivors" true (i <> 2 && y = i + 100)
            | Pool.Poisoned _ ->
              Alcotest.(check int) "only the dying job" 2 i
            | Pool.Crashed _ ->
              Alcotest.fail "two kills must poison, not crash")
          out);
    t "a worker death retries the job once, then succeeds (regression)"
      (fun () ->
        (* Pre-fix, the first worker death doomed its in-flight job to
           [Crashed] even though the death was the worker's fault, not
           the job's.  The marker file makes job 2 kill its first host
           and succeed on the retry. *)
        let marker =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilv-pool-retry-%d" (Unix.getpid ()))
        in
        (try Sys.remove marker with Sys_error _ -> ());
        let f x =
          if x = 2 && not (Sys.file_exists marker) then begin
            close_out (open_out marker);
            Unix._exit 9
          end
          else x + 100
        in
        let out = Pool.map ~jobs:3 f (List.init 8 Fun.id) in
        (try Sys.remove marker with Sys_error _ -> ());
        List.iteri
          (fun i o ->
            Alcotest.(check bool)
              (Printf.sprintf "job %d done after at most one retry" i)
              true
              (o = Pool.Done (i + 100)))
          out);
    t "a job that kills every host runs exactly twice, then is poisoned"
      (fun () ->
        let attempts =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilv-pool-attempts-%d" (Unix.getpid ()))
        in
        (try Sys.remove attempts with Sys_error _ -> ());
        let f x =
          if x = 2 then begin
            let oc =
              open_out_gen [ Open_append; Open_creat ] 0o644 attempts
            in
            output_string oc "x";
            close_out oc;
            Unix._exit 9
          end
          else x + 100
        in
        let out = Pool.map ~jobs:3 f (List.init 8 Fun.id) in
        let executions =
          try (Unix.stat attempts).Unix.st_size with Unix.Unix_error _ -> 0
        in
        (try Sys.remove attempts with Sys_error _ -> ());
        Alcotest.(check int) "ran twice: original + one retry" 2 executions;
        List.iteri
          (fun i o ->
            match o with
            | Pool.Done y ->
              Alcotest.(check bool) "survivors" true (i <> 2 && y = i + 100)
            | Pool.Poisoned reason ->
              Alcotest.(check int) "only the unkillable job" 2 i;
              Alcotest.(check bool)
                "the poisoned disposition carries the kill history" true
                (let n = String.length reason in
                 let needle = "killed 2 workers" in
                 let m = String.length needle in
                 let rec scan i =
                   i + m <= n && (String.sub reason i m = needle || scan (i + 1))
                 in
                 scan 0)
            | Pool.Crashed _ ->
              Alcotest.fail "two kills must poison, not crash")
          out);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end engine runs                                              *)
(* ------------------------------------------------------------------ *)

let summary_verdicts results =
  List.map
    (fun (r : Engine.result) ->
      ( r.Engine.job_id,
        r.Engine.r_port,
        r.Engine.r_instr,
        match r.Engine.verdict with
        | Checker.Proved -> "proved"
        | Checker.Failed _ -> "failed"
        | Checker.Unknown _ -> "unknown" ))
    results

(* The jobs with job 0's property made unencodable: one variable at two
   sorts, which bit-blasting rejects. *)
let clash_first jobs =
  let clash (p : Property.t) =
    {
      p with
      Property.assumptions =
        Ilv_expr.(
          Expr.var "clash" Sort.Bool
          :: Build.eq
               (Expr.var "clash" (Sort.Bitvec 4))
               (Expr.bv_const (Bitvec.of_int ~width:4 0))
          :: p.Property.assumptions);
    }
  in
  List.map
    (fun (j : Engine.job) ->
      if j.Engine.id = 0 then
        { j with Engine.property = lazy (clash (Lazy.force j.Engine.property)) }
      else j)
    jobs

let engine_tests =
  [
    t "engine -j1 and -j4 agree verdict-for-verdict, in order" (fun () ->
        let d = design "AXI Slave" in
        let r1, s1 = Engine.run ~jobs:1 (jobs_of d) in
        let r4, s4 = Engine.run ~jobs:4 (jobs_of d) in
        Alcotest.(check bool)
          "same verdict sequence" true
          (summary_verdicts r1 = summary_verdicts r4);
        Alcotest.(check int) "all proved (seq)" s1.Engine.n_jobs s1.Engine.n_proved;
        Alcotest.(check int) "all proved (par)" s4.Engine.n_jobs s4.Engine.n_proved;
        Alcotest.(check int) "no errors" 0 s4.Engine.n_errors);
    t "warm cache run hits every obligation with zero SAT attempts"
      (fun () ->
        let d = design "AXI Slave" in
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let cold_r, cold = Engine.run ~jobs:2 ~cache (jobs_of d) in
        Alcotest.(check int) "cold run misses" cold.Engine.n_jobs
          cold.Engine.cache_misses;
        let warm_r, warm = Engine.run ~jobs:2 ~cache (jobs_of d) in
        Alcotest.(check int) "warm run all hits" warm.Engine.n_jobs
          warm.Engine.cache_hits;
        Alcotest.(check int) "zero fresh SAT attempts" 0
          warm.Engine.fresh_sat_attempts;
        Alcotest.(check bool)
          "verdicts unchanged" true
          (summary_verdicts cold_r = summary_verdicts warm_r);
        ignore (Proof_cache.clear cache));
    t "a resident run answers repeated obligations from the memo"
      (fun () ->
        let d = design "AXI Slave" in
        let resident = Engine.resident () in
        let all_memo results =
          List.for_all (fun r -> r.Engine.backend = "memo") results
        in
        let cold_r, _ = Engine.run ~resident (jobs_of d) in
        Alcotest.(check bool) "cold run solves" false (all_memo cold_r);
        Alcotest.(check int) "one session per port"
          (List.length d.Design.module_ila.Module_ila.ports)
          (Engine.resident_groups resident);
        let warm_r, warm = Engine.run ~resident (jobs_of d) in
        Alcotest.(check bool) "warm run all memo" true (all_memo warm_r);
        Alcotest.(check int) "zero fresh SAT attempts" 0
          warm.Engine.fresh_sat_attempts;
        Alcotest.(check int) "memo rows are not cache hits" 0
          warm.Engine.cache_hits;
        Alcotest.(check bool)
          "verdicts unchanged" true
          (summary_verdicts cold_r = summary_verdicts warm_r);
        (* with a cache, memo rows are neither hits nor misses *)
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        let cached_r, cached = Engine.run ~cache ~resident (jobs_of d) in
        Alcotest.(check bool) "memo before the cache" true (all_memo cached_r);
        Alcotest.(check int) "no cache misses" 0 cached.Engine.cache_misses;
        Alcotest.(check int) "no cache hits" 0 cached.Engine.cache_hits;
        ignore (Proof_cache.clear cache);
        (* a port on its own is the same group, whatever its job ids *)
        let last = List.hd (List.rev d.Design.module_ila.Module_ila.ports) in
        let port_r, _ =
          Engine.run ~resident
            (Engine.jobs_of ~only_ports:[ last.Ila.name ] ~name:d.Design.name
               d.Design.module_ila d.Design.rtl
               ~refmap_for:(d.Design.refmap_for d.Design.rtl) ())
        in
        Alcotest.(check bool) "one port alone: all memo" true
          (port_r <> [] && all_memo port_r);
        Alcotest.(check int) "no session built for it"
          (List.length d.Design.module_ila.Module_ila.ports)
          (Engine.resident_groups resident));
    t "a deadline drops the resident group and memoizes nothing" (fun () ->
        let d = design "Decoder" in
        let resident = Engine.resident () in
        let _, expired = Engine.run ~resident ~timeout_s:1e-9 (jobs_of d) in
        Alcotest.(check int) "every verdict unknown" expired.Engine.n_jobs
          expired.Engine.n_unknown;
        Alcotest.(check int) "no group kept" 0
          (Engine.resident_groups resident);
        let plain_r, plain = Engine.run ~resident (jobs_of d) in
        Alcotest.(check int) "the next run proves everything"
          plain.Engine.n_jobs plain.Engine.n_proved;
        Alcotest.(check bool) "nothing came from the memo" true
          (List.for_all (fun r -> r.Engine.backend <> "memo") plain_r));
    t "decided groups keep only their memo keys" (fun () ->
        (* what the daemon holds after warming every quick design and
           the paper's three bug variants: every group decided, the
           sessions (solvers, frames, properties) gone *)
        let variants =
          List.map (fun d -> (d, None)) Catalog.quick
          @ List.map
              (fun (name, label) ->
                (Option.get (Catalog.find name), Some label))
              [
                ("AXI Slave", "rd_burst");
                ("L2 Cache", "msg_flag");
                ("Store Buffer (16 entries)", "full_flag");
              ]
        in
        let resident = Engine.resident () in
        let sweep () =
          List.concat_map
            (fun ((d : Design.t), bug) ->
              let name, rtl = Result.get_ok (Design.variant d bug) in
              fst
                (Engine.run ~resident ~memory_abstraction:true
                   (Engine.jobs_of ~name d.Design.module_ila rtl
                      ~refmap_for:(d.Design.refmap_for rtl) ())))
            variants
        in
        let cold = sweep () in
        Alcotest.(check bool) "some rows failed" true
          (List.exists
             (fun r ->
               match r.Engine.verdict with
               | Checker.Failed _ -> true
               | _ -> false)
             cold);
        Alcotest.(check int) "every group decided"
          (Engine.resident_groups resident)
          (Engine.resident_decided resident);
        let bytes =
          Obj.reachable_words (Obj.repr resident) * (Sys.word_size / 8)
        in
        Alcotest.(check bool)
          (Printf.sprintf "resident state %d B under 1 MB" bytes)
          true (bytes < 1 lsl 20);
        let warm = sweep () in
        Alcotest.(check bool) "second run all memo" true
          (List.for_all (fun r -> r.Engine.backend = "memo") warm);
        Alcotest.(check bool) "identical verdicts" true
          (List.map (fun r -> (r.Engine.r_design, r.Engine.verdict)) cold
          = List.map (fun r -> (r.Engine.r_design, r.Engine.verdict)) warm));
    t "a group with an unknown stays live and solves again" (fun () ->
        let d = design "AXI Slave" in
        let resident = Engine.resident () in
        let budget =
          {
            Checker.conflicts = Some 1;
            wall_s = None;
            deadline_s = None;
            escalations = 0;
          }
        in
        let unknowns results =
          List.filter_map
            (fun r ->
              match r.Engine.verdict with
              | Checker.Unknown _ -> Some (r.Engine.r_port, r.Engine.r_instr)
              | _ -> None)
            results
        in
        let first, _ = Engine.run ~resident ~budget (jobs_of d) in
        Alcotest.(check bool) "the budget leaves unknowns" true
          (unknowns first <> []);
        Alcotest.(check bool) "not every group decided" true
          (Engine.resident_decided resident < Engine.resident_groups resident);
        let groups = Engine.resident_groups resident in
        let second, _ = Engine.run ~resident ~budget (jobs_of d) in
        Alcotest.(check int) "no group rebuilt or dropped" groups
          (Engine.resident_groups resident);
        Alcotest.(check bool) "the unknowns are solved again" true
          (List.for_all
             (fun r ->
               (not (List.mem (r.Engine.r_port, r.Engine.r_instr)
                       (unknowns first)))
               || r.Engine.backend <> "memo")
             second);
        let plain, summary = Engine.run ~resident (jobs_of d) in
        Alcotest.(check int) "without the budget everything proves"
          summary.Engine.n_jobs summary.Engine.n_proved;
        Alcotest.(check bool) "some rows solved, not memo" true
          (List.exists (fun r -> r.Engine.backend <> "memo") plain);
        Alcotest.(check int) "now every group is decided"
          (Engine.resident_groups resident)
          (Engine.resident_decided resident));
    t "a group with an encoding error is never decided" (fun () ->
        let resident = Engine.resident () in
        List.iter
          (fun run ->
            let results, s =
              Engine.run ~resident (clash_first (jobs_of (design "Decoder")))
            in
            let what = Printf.sprintf "run %d" run in
            Alcotest.(check string) (what ^ ": error rung") "error"
              (List.hd results).Engine.backend;
            Alcotest.(check int) (what ^ ": the others proved")
              (s.Engine.n_jobs - 1) s.Engine.n_proved;
            Alcotest.(check int) (what ^ ": no group decided") 0
              (Engine.resident_decided resident))
          [ 1; 2; 3 ]);
    t "a resident run refuses forked workers" (fun () ->
        let resident = Engine.resident () in
        match Engine.run ~jobs:2 ~resident (jobs_of (design "Decoder")) with
        | _ -> Alcotest.fail "~resident with ~jobs:2 ran"
        | exception Invalid_argument _ -> ());
    t "a fresh run refuses a proof cache" (fun () ->
        let cache = Proof_cache.open_ ~dir:(fresh_dir ()) () in
        match
          Engine.run ~incremental:false ~cache (jobs_of (design "Decoder"))
        with
        | _ -> Alcotest.fail "~incremental:false with ~cache ran"
        | exception Invalid_argument _ ->
          Alcotest.(check int) "nothing stored" 0
            (Proof_cache.stats cache).Proof_cache.entries);
    t "a fresh run refuses resident state" (fun () ->
        let resident = Engine.resident () in
        match
          Engine.run ~incremental:false ~resident (jobs_of (design "Decoder"))
        with
        | _ -> Alcotest.fail "~incremental:false with ~resident ran"
        | exception Invalid_argument _ ->
          Alcotest.(check int) "no group kept" 0
            (Engine.resident_groups resident));
    t "degradation counts only ladder rungs below incremental" (fun () ->
        (* regression: the summary used to count every "sat>" backend,
           including the CEGAR concrete fallback *)
        List.iter
          (fun (rung, degraded) ->
            Alcotest.(check bool) rung degraded (Verify.is_degraded_rung rung))
          [
            ("incremental", false);
            ("incremental+abstract", false);
            ("incremental+cegar2", false);
            ("abstract>concrete", false);
            ("abstract", false);
            ("abstract+cegar1", false);
            ("sat", false);
            ("cache", false);
            ("error", false);
            ("poisoned", false);
            ("fresh", true);
            ("fresh+abstract", true);
            ("degraded", true);
            ("degraded+abstract", true);
          ];
        (* the fresh path's concrete rung is "sat", never the ladder's
           "fresh" demotion *)
        let d = design "Decoder" in
        let port = List.hd d.Design.module_ila.Module_ila.ports in
        let _, _, rung =
          Verify.check_property ~memory_abstraction:false
            (Propgen.generate_for ~ila:port ~rtl:d.Design.rtl
               ~refmap:(d.Design.refmap_for d.Design.rtl port.Ila.name)
               (List.hd (Ila.leaf_instructions port)))
        in
        Alcotest.(check string) "check_property's concrete rung" "sat" rung;
        Alcotest.(check bool)
          "check_property's concrete rung is not degraded" false
          (Verify.is_degraded_rung rung);
        Alcotest.(check bool)
          "the concrete fallback is never stored" false
          (Verify.is_cacheable_rung "abstract>concrete");
        Alcotest.(check bool)
          "a shared-frame rung is stored" true
          (Verify.is_cacheable_rung "incremental+cegar1");
        let results, s =
          Engine.run ~jobs:1 ~memory_abstraction:true
            (jobs_of (design "Store Buffer"))
        in
        Alcotest.(check int) "all proved" s.Engine.n_jobs s.Engine.n_proved;
        Alcotest.(check int) "nothing degraded" 0 s.Engine.n_degraded;
        List.iter
          (fun (r : Engine.result) ->
            Alcotest.(check bool)
              ("abstract rung: " ^ r.Engine.backend)
              true
              (r.Engine.backend = "abstract>concrete"
              || String.starts_with ~prefix:"incremental+" r.Engine.backend))
          results);
    t "fresh abstract mode decides on the abstract and cegar rungs"
      (fun () ->
        (* Every Store Buffer job decides at generation 0 (rung
           "abstract"), so one extra job needs a refinement. *)
        let d = design "Store Buffer" in
        let refines = refining_property d in
        let jobs =
          jobs_of d
          @ [
              {
                Engine.id = List.length (jobs_of d);
                design = d.Design.name;
                port = "refines";
                instr = "refines";
                property = Lazy.from_val refines;
              };
            ]
        in
        let results, _ =
          Engine.run ~jobs:1 ~incremental:false ~memory_abstraction:true jobs
        in
        Alcotest.(check (list string))
          "rungs" [ "abstract"; "abstract+cegar1" ]
          (List.sort_uniq compare
             (List.map (fun (r : Engine.result) -> r.Engine.backend) results));
        Alcotest.(check bool)
          "all proved" true
          (List.for_all
             (fun (r : Engine.result) -> r.Engine.verdict = Checker.Proved)
             results));
    t "a property that fails to encode is an error, not a degradation"
      (fun () ->
        (* regression: the shared-frame driver used to send an encoding
           failure down the ladder, re-encoding it on two fresh solvers
           and reporting it as degraded; fresh mode under the
           abstraction used to report it as a decision (rung
           "abstract", no error).  The contract is the same in both
           modes and both encodings. *)
        List.iter
          (fun (name, memory_abstraction, incremental) ->
            let what =
              Printf.sprintf "%s, %s" name
                (if incremental then "incremental" else "fresh")
            in
            let results, s =
              Engine.run ~jobs:1 ~incremental ~memory_abstraction
                (clash_first (jobs_of (design name)))
            in
            Alcotest.(check int) (what ^ ": one error") 1 s.Engine.n_errors;
            Alcotest.(check int)
              (what ^ ": nothing degraded")
              0 s.Engine.n_degraded;
            Alcotest.(check int)
              (what ^ ": the others proved")
              (s.Engine.n_jobs - 1) s.Engine.n_proved;
            let r = List.hd results in
            Alcotest.(check string) (what ^ ": error rung") "error"
              r.Engine.backend;
            Alcotest.(check bool)
              (what ^ ": the encoding error is reported")
              true
              (match r.Engine.verdict with
              | Checker.Unknown m -> String.starts_with ~prefix:"exception: " m
              | _ -> false))
          [
            ("Decoder", false, true);
            ("Decoder", false, false);
            ("Store Buffer", true, true);
            ("Store Buffer", true, false);
          ]);
    t "-j1 and -j2 reports agree on the paper's bugs, stop on and off"
      (fun () ->
        let shape (r : Verify.report) =
          ( List.map
              (fun (p : Verify.port_report) ->
                ( p.Verify.port_name,
                  List.map
                    (fun (ir : Verify.instr_result) ->
                      (ir.Verify.port, ir.Verify.instr, ir.Verify.verdict))
                    p.Verify.instr_results ))
              r.Verify.ports,
            Option.map
              (fun (ir : Verify.instr_result) ->
                (ir.Verify.port, ir.Verify.instr, ir.Verify.verdict))
              r.Verify.first_failure )
        in
        List.iter
          (fun (name, label) ->
            let d = design name in
            let bug =
              List.find (fun b -> b.Design.bug_label = label) d.Design.bugs
            in
            List.iter
              (fun stop ->
                let report jobs =
                  fst
                    (Engine.verify ~stop_at_first_failure:stop ~jobs
                       ~memory_abstraction:true ~name d.Design.module_ila
                       bug.Design.buggy_rtl
                       ~refmap_for:(d.Design.refmap_for bug.Design.buggy_rtl))
                in
                let r1 = report 1 and r2 = report 2 in
                let what = Printf.sprintf "%s [%s], stop %b" name label stop in
                Alcotest.(check bool)
                  (what ^ ": a failure is found") true
                  (r1.Verify.first_failure <> None);
                Alcotest.(check bool)
                  (what ^ ": same ports, rows, verdicts and first failure")
                  true
                  (shape r1 = shape r2))
              [ true; false ])
          [
            ("AXI Slave", "rd_burst");
            ("L2 Cache", "msg_flag");
            ("Store Buffer", "full_flag");
          ]);
    t "with stop on, -j1 solves no job after the first failure" (fun () ->
        (* AXI Slave [rd_burst] fails at READ's third instruction (job
           2): the rest of READ is prepared but not solved, and the
           WRITE group is neither prepared nor solved — its refinement
           map is never asked for *)
        let d = design "AXI Slave" in
        let bug = List.hd d.Design.bugs in
        let rtl = bug.Design.buggy_rtl in
        let asked = ref [] in
        let buggy_verify () =
          Engine.verify ~jobs:1 ~name:d.Design.name d.Design.module_ila rtl
            ~refmap_for:(fun port ->
              asked := port :: !asked;
              d.Design.refmap_for rtl port)
        in
        let report, _ = buggy_verify () in
        let ports_asked = List.sort_uniq compare !asked in
        (* the same run, traced in a child process so this process's
           counters stay untouched: which jobs reached the solver *)
        let trace = Filename.temp_file "ilv-test-stop" ".jsonl" in
        (match Unix.fork () with
        | 0 ->
          Ilv_obs.Obs.configure ~trace_out:trace ();
          ignore (buggy_verify ());
          Ilv_obs.Obs.shutdown ();
          Unix._exit 0
        | pid -> ignore (Unix.waitpid [] pid));
        let ic = open_in_bin trace in
        let body = really_input_string ic (in_channel_length ic) in
        close_in ic;
        Sys.remove trace;
        let field k l = Ilv_obs.Json.member k l in
        let solved =
          match Ilv_obs.Json.parse_lines body with
          | Error msg -> Alcotest.fail msg
          | Ok lines ->
            List.filter_map
              (fun l ->
                if
                  Option.bind (field "ev" l) Ilv_obs.Json.to_string
                  = Some "span_begin"
                  && Option.bind (field "name" l) Ilv_obs.Json.to_string
                     = Some "engine.job"
                then Option.bind (field "job_id" l) Ilv_obs.Json.to_int
                else None)
              lines
        in
        let rows =
          List.map
            (fun (p : Verify.port_report) ->
              ( p.Verify.port_name,
                List.map
                  (fun (ir : Verify.instr_result) ->
                    match ir.Verify.verdict with
                    | Checker.Proved -> "proved"
                    | Checker.Failed _ -> "failed"
                    | Checker.Unknown _ -> "unknown")
                  p.Verify.instr_results ))
            report.Verify.ports
        in
        Alcotest.(check (list (pair string (list string))))
          "rows end at the failure; WRITE is listed with no rows"
          [ ("READ", [ "proved"; "proved"; "failed" ]); ("WRITE", []) ]
          rows;
        Alcotest.(check (list int)) "only jobs up to the failure solved"
          [ 0; 1; 2 ] solved;
        Alcotest.(check (list string)) "only READ's refinement map asked"
          [ "READ" ] ports_asked);
    t "a port's time covers its instructions' times" (fun () ->
        List.iter
          (fun (name, jobs, incremental) ->
            let d = design name in
            let report, _ =
              Engine.verify ~jobs ~incremental ~memory_abstraction:true
                ~name d.Design.module_ila d.Design.rtl
                ~refmap_for:(d.Design.refmap_for d.Design.rtl)
            in
            let ports_total =
              List.fold_left
                (fun acc (p : Verify.port_report) ->
                  let rows =
                    List.fold_left
                      (fun acc (ir : Verify.instr_result) ->
                        acc +. ir.Verify.time_s)
                      0.0 p.Verify.instr_results
                  in
                  (* an incremental group also spends its preparation
                     (property generation, frame setup) outside the rows *)
                  Alcotest.(check bool)
                    (Printf.sprintf "%s -j%d: port %s %.6fs %s rows %.6fs" name
                       jobs p.Verify.port_name p.Verify.port_time_s
                       (if incremental then ">" else ">=")
                       rows)
                    true
                    (p.Verify.instr_results <> []
                    &&
                    if incremental then p.Verify.port_time_s > rows
                    else p.Verify.port_time_s >= rows);
                  acc +. p.Verify.port_time_s)
                0.0 report.Verify.ports
            in
            if jobs = 1 then
              Alcotest.(check bool)
                (Printf.sprintf "%s: total %.4fs >= ports %.4fs" name
                   report.Verify.total_time_s ports_total)
                true
                (report.Verify.total_time_s >= ports_total))
          [
            ("AXI Slave", 1, true);
            ("AXI Slave", 2, true);
            ("AXI Slave", 1, false);
            ("Store Buffer", 1, true);
          ]);
    t "incremental abstract mode decides on the specialized re-encode"
      (fun () ->
        (* The refining property behind a decode-like literal, on a
           shared frame: the spurious abstract model grows the window,
           the CEGAR driver re-encodes the live frame, which specializes
           the literal away, and decides there.  The entry it stores
           keeps the generation-0 key. *)
        let open Ilv_expr in
        let d = design "Store Buffer" in
        let go = Build.bool_var "rtl.go@0" in
        let p =
          let p = refining_property d in
          {
            p with
            Property.assumptions = go :: p.Property.assumptions;
            obligations =
              List.map
                (fun (ob : Property.obligation) ->
                  {
                    ob with
                    Property.goal = Build.( ==>: ) go ob.Property.goal;
                  })
                p.Property.obligations;
          }
        in
        let job =
          {
            Engine.id = 0;
            design = d.Design.name;
            port = "refines";
            instr = "refines";
            property = Lazy.from_val p;
          }
        in
        let dir = fresh_dir () in
        let cache = Proof_cache.open_ ~dir () in
        let rung_of (results, _) =
          match results with
          | [ (r : Engine.result) ] ->
            Alcotest.(check bool)
              "proved" true
              (r.Engine.verdict = Checker.Proved);
            r.Engine.backend
          | _ -> Alcotest.fail "one result expected"
        in
        let run () =
          Engine.run ~jobs:1 ~cache ~memory_abstraction:true [ job ]
        in
        Alcotest.(check string)
          "cold rung" "incremental+cegar1" (rung_of (run ()));
        (* a warm run keys a new generation-0 frame *)
        Alcotest.(check string) "warm rung" "cache" (rung_of (run ()));
        ignore (Proof_cache.clear cache);
        (try Unix.rmdir dir with Unix.Unix_error _ -> ());
        (* the same decision through the driver, to look at the frames *)
        let pr =
          Verify.prepare_properties ~memory_abstraction:true ~label:"refines"
            [ ("refines", Ok p) ]
        in
        let _, _, rung = Verify.check_port_instr pr "refines" in
        Alcotest.(check string) "driver rung" "incremental+cegar1" rung;
        Alcotest.(check bool)
          "the live frame was replaced" true
          (Verify.prepared_shared pr != Verify.key_frame pr);
        let ab = Option.get (Verify.prepared_abstraction pr) in
        Alcotest.(check int) "one refinement" 1 (Mem_abstract.generation ab);
        let refined = (Mem_abstract.abstract_properties ab).(0) in
        let specialized = Property.specialize refined in
        let mentions_go (ob : Property.obligation) =
          List.mem_assoc "rtl.go@0" (Expr.vars ob.Property.goal)
        in
        Alcotest.(check bool)
          "the re-encode folds the literal" true
          (specialized != refined
          && not (List.exists mentions_go specialized.Property.obligations)));
  ]

(* ------------------------------------------------------------------ *)
(* Incremental mode                                                    *)
(* ------------------------------------------------------------------ *)

let count_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i acc =
    if i + nn > nh then acc
    else if String.sub hay i nn = needle then go (i + nn) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let incremental_tests =
  [
    t "fresh and incremental modes agree verdict-for-verdict" (fun () ->
        let d = design "AXI Slave" in
        let ri, si = Engine.run ~jobs:1 (jobs_of d) in
        let rf, sf = Engine.run ~jobs:1 ~incremental:false (jobs_of d) in
        Alcotest.(check bool)
          "same verdicts, same order" true
          (summary_verdicts ri = summary_verdicts rf);
        Alcotest.(check int) "all proved (incr)" si.Engine.n_jobs
          si.Engine.n_proved;
        Alcotest.(check int) "all proved (fresh)" sf.Engine.n_jobs
          sf.Engine.n_proved);
    t "persistent workers: a 2-worker sweep forks at most 2 processes"
      (fun () ->
        (* The whole point of per-design shared solving is that workers
           persist: one fork per worker, jobs streamed against the
           shared context — not one fork per job.  Count the pool's
           spawn events through the trace sink. *)
        let d1 = design "AXI Slave" and d2 = design "Mem. Interface" in
        let sweep =
          jobs_of d1 @ jobs_of d2
          |> List.mapi (fun i (j : Engine.job) -> { j with Engine.id = i })
        in
        let trace =
          Filename.concat
            (Filename.get_temp_dir_name ())
            (Printf.sprintf "ilv-test-spawns-%d.jsonl" (Unix.getpid ()))
        in
        (try Sys.remove trace with Sys_error _ -> ());
        Ilv_obs.Obs.configure ~trace_out:trace ();
        let _, s = Engine.run ~jobs:2 sweep in
        Ilv_obs.Obs.shutdown ();
        let ic = open_in trace in
        let n = in_channel_length ic in
        let body = really_input_string ic n in
        close_in ic;
        (try Sys.remove trace with Sys_error _ -> ());
        let spawns = count_substring body "\"name\":\"pool.spawn\"" in
        Alcotest.(check int) "all proved" s.Engine.n_jobs s.Engine.n_proved;
        Alcotest.(check bool)
          "enough jobs for the bound to bite" true
          (s.Engine.n_jobs > 2);
        Alcotest.(check bool)
          (Printf.sprintf "%d spawns for %d jobs" spawns s.Engine.n_jobs)
          true
          (spawns >= 1 && spawns <= 2));
  ]

let suite =
  [
    ("engine.cache-key", key_tests @ canonical_tests);
    ("engine.proof-cache", cache_tests);
    ("engine.pool", pool_tests);
    ("engine.run", engine_tests);
    ("engine.incremental", incremental_tests);
  ]
