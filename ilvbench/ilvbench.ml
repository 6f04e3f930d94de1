(* ilvbench: the repository's benchmark.

     ilvbench --workload W --seed N --seconds S --trace 0|1 [--out FILE]
     ilvbench --compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]
     ilvbench --smoke [--benchmark BENCHMARK.json]
     ilvbench --digest --seed N

   A run sets the workload up in several fresh processes (set-up time is
   measured from spawn to ready), measures in the last one, and prints
   every metric with its unit, then one JSON line with the verdict
   checks and the metrics.  Timings are host time of this verifier; the
   paper's JasperGold times on other hardware are not comparable, so
   correctness is judged by verdicts, not by an accuracy figure. *)

module Json = Ilv_obs.Json
module W = Workloads

let now = Unix.gettimeofday

(* Set-up samples per untraced run; their median is setup_s. *)
let setups = 3

(* Where runs keep their proof caches, sockets and traces, relative to
   the working directory and removed afterwards. *)
let runs_dir = "_ilvbench"

let end_to_end =
  [
    ("setup_s", "s");
    ("op_p50_ms", "ms");
    ("ops_per_s", "1/s");
    ("rss_peak_mb", "MB");
  ]

(* Layer self time as a share of operation time (times the processes
   working on it): the span keys recorded by Layers and Mirror. *)
let layer_keys =
  [
    "propgen.busy"; "mem_abstract.busy"; "verify.prepare"; "bitblast.busy";
    "checker.busy"; "sat.busy"; "proof_cache.key"; "proof_cache.lookup";
    "proof_cache.store"; "replay.busy"; "protocol.encode"; "protocol.decode";
    "daemon.wait";
  ]

(* Program counts that repeat exactly for the same work.  Per operation,
   the traced pipeline (Mirror) must record the same values as the
   untraced one (Engine.run, Design.verify_buggy). *)
let exact_counts =
  [
    "sat.solves"; "sat.conflicts"; "sat.propagations"; "checker.obligations";
    "bitblast.cnf_clauses"; "proof_cache.lookups"; "proof_cache.stores";
  ]

(* Counts per operation: from bench spans, the program's trace, and the
   daemon's stats. *)
let per_op_counts =
  [
    "propgen.calls"; "mem_abstract.groups"; "mem_abstract.refinements";
    "mem_abstract.concrete_fallbacks"; "bitblast.cnf_vars";
    "bitblast.cnf_clauses"; "bitblast.simplify_removed"; "sat.solves";
    "sat.conflicts"; "sat.propagations"; "sat.decisions";
    "checker.obligations"; "checker.degraded"; "proof_cache.lookups";
    "proof_cache.stores"; "pool.dispatches"; "pool.spawns";
    "replay.confirmed"; "daemon.solves";
  ]

let per_layer =
  List.map (fun k -> (k ^ "_pct", "%")) layer_keys
  @ [
      ("pool.idle_pct", "%");
      ("trace.unattributed_pct", "%");
      ("trace.overhead_pct", "%");
    ]
  @ List.map (fun k -> (k, "count/op")) per_op_counts
  @ [
      ("proof_cache.hit_pct", "%");
      ("proof_cache.bytes_written", "B/op");
      ("daemon.dedup_pct", "%");
      ("gc.minor_mwords", "Mw/op");
      ("gc.major_collections", "count/op");
    ]

(* ---- small helpers ---- *)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error _ -> ()

let read_file path = In_channel.with_open_bin path In_channel.input_all

let num f = Json.Float f
let get_float k j = Option.bind (Json.member k j) Json.to_float
let get_int k j = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int)

(* Json.encode keeps nine significant digits; timestamps and measured
   values keep all of theirs. *)
let rec encode = function
  | Json.Float f -> Stats.to_json_number f
  | Json.List l -> "[" ^ String.concat ", " (List.map encode l) ^ "]"
  | Json.Obj kvs ->
    "{"
    ^ String.concat ", "
        (List.map (fun (k, v) -> Json.encode (Json.String k) ^ ": " ^ encode v) kvs)
    ^ "}"
  | other -> Json.encode other

(* ---- the measuring child ---- *)

let ms xs = List.map (fun s -> 1000.0 *. s) xs

let end_to_end_metrics (s : W.session) (ph : W.phase) =
  let rss = W.vm_hwm_mb s.W.rss_pid in
  [
    ("op_p50_ms", Stats.median (ms ph.W.lats));
    ("ops_per_s", float_of_int (List.length ph.W.lats) /. ph.W.busy_s);
    ("rss_peak_mb", rss);
  ]

let per_layer_metrics ~(base : W.phase) ~(ph : W.phase) ~gc0 ~gc1 =
  let acc = !Layers.current in
  let find tbl k = Option.value ~default:0.0 (Hashtbl.find_opt tbl k) in
  let n = float_of_int (List.length ph.W.lats) in
  let pct x = 100.0 *. x /. ph.W.slot_s in
  let busy = List.fold_left (fun s k -> s +. find acc.Layers.self k) 0.0 layer_keys in
  let pool_idle =
    if acc.Layers.groups_s > 0.0 then pct (ph.W.slot_s -. acc.Layers.groups_s) else 0.0
  in
  let ratio a b = if b > 0.0 then 100.0 *. a /. b else 0.0 in
  let count = find acc.Layers.counts in
  List.map (fun k -> (k ^ "_pct", pct (find acc.Layers.self k))) layer_keys
  @ [
      ("pool.idle_pct", pool_idle);
      ("trace.unattributed_pct", 100.0 -. pct busy -. pool_idle);
      ( "trace.overhead_pct",
        100.0 *. ((Stats.median ph.W.lats /. Stats.median base.W.lats) -. 1.0) );
    ]
  @ List.map (fun k -> (k, count k /. n)) per_op_counts
  @ [
      ("proof_cache.hit_pct", ratio (count "proof_cache.hits") (count "proof_cache.lookups"));
      ("proof_cache.bytes_written", count "proof_cache.bytes_written" /. n);
      ("daemon.dedup_pct", ratio (count "daemon.dedup_hits") (count "daemon.jobs"));
      ("gc.minor_mwords", (gc1.Gc.minor_words -. gc0.Gc.minor_words) /. 1e6 /. n);
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) /. n );
    ]

(* The traced pipeline must do the untraced one's work: equal exact
   counts per operation, compared as cross products of whole numbers. *)
let check_same_work ~(untraced : Layers.acc) ~(base : W.phase) ~(ph : W.phase) =
  let count (acc : Layers.acc) k = Option.value ~default:0.0 (Hashtbl.find_opt acc.Layers.counts k) in
  let n0 = float_of_int (List.length base.W.lats) and n = float_of_int (List.length ph.W.lats) in
  List.iter
    (fun k ->
      let a = count untraced k and b = count !Layers.current k in
      W.record
        (W.check
           (Printf.sprintf "%s: %.0f over %.0f traced operations, %.0f over %.0f untraced" k b n
              a n0)
           (b *. n0 = a *. n)))
    exact_counts

(* Latency per operation kind (daemon request, bug), for the text
   report. *)
let kind_breakdown (ph : W.phase) =
  let kinds = List.sort_uniq compare (List.map fst ph.W.kinds) in
  if List.length kinds < 2 then []
  else
    List.map
      (fun kind ->
        let lats = ms (List.filter_map (fun (k, l) -> if k = kind then Some l else None) ph.W.kinds) in
        Json.List
          [
            Json.String kind;
            num (Stats.median lats);
            num (Stats.percentile lats 0.99);
            Json.Int (List.length lats);
          ])
      kinds

let measure (s : W.session) ~rundir ~seconds ~trace ~min_ops =
  let finished = ref false in
  let finish ~measured =
    if not !finished then begin
      finished := true;
      s.W.finish ~measured
    end
  in
  Fun.protect
    ~finally:(fun () -> finish ~measured:false)
    (fun () ->
      let t0 = now () in
      let ph, metrics =
        if not trace then begin
          let ph = s.W.measure ~traced:false ~until:(t0 +. seconds) ~min_ops in
          let metrics = end_to_end_metrics s ph in
          finish ~measured:true;
          (ph, metrics)
        end
        else begin
          (* The first third untraced, with the program's sink on: the
             baseline of the tracing overhead, the exact counts the
             traced pipeline must repeat, and end-to-end metrics. *)
          let base_sink = Filename.concat rundir "untraced.jsonl" in
          Layers.open_sink base_sink;
          let base = s.W.measure ~traced:false ~until:(t0 +. (seconds /. 3.0)) ~min_ops in
          let untraced = Layers.create () in
          Layers.drain base_sink untraced;
          let base_metrics = end_to_end_metrics s base in
          let sink = Filename.concat rundir "trace.jsonl" in
          Layers.open_sink sink;
          Layers.current := Layers.create ();
          Layers.tracing := true;
          let gc0 = Gc.quick_stat () in
          let ph =
            Fun.protect
              ~finally:(fun () -> Layers.tracing := false)
              (fun () -> s.W.measure ~traced:true ~until:(t0 +. seconds) ~min_ops)
          in
          let gc1 = Gc.quick_stat () in
          Layers.drain sink !Layers.current;
          finish ~measured:true;
          check_same_work ~untraced ~base ~ph;
          (ph, base_metrics @ per_layer_metrics ~base ~ph ~gc0 ~gc1)
        end
      in
      let q1, q2, q3 = Stats.quartiles (ms ph.W.lats) in
      (* the highest percentile with ten samples beyond it *)
      let tail =
        let a = Stats.sorted (ms ph.W.lats) in
        let n = Array.length a in
        if n <= 10 then []
        else
          [
            ( "tail_ms",
              Json.List
                [ num (100.0 *. float_of_int (n - 10) /. float_of_int n); num a.(n - 11) ] );
          ]
      in
      tail
      @ [
        ("ops", Json.Int (List.length ph.W.lats));
        ("raw_p50_ms", num (Stats.median (ms ph.W.raw_lats)));
        ("reference_ms", num (Stats.median (ms ph.W.refs)));
        ("lat_ms_quartiles", Json.List [ num q1; num q2; num q3 ]);
        ("kinds", Json.List (kind_breakdown ph));
        ("metrics", Json.Obj (List.map (fun (k, v) -> (k, num v)) metrics));
      ])

(* One process of a run: set the workload up, report when it was ready,
   and, in the last process, measure.  Prints one JSON line. *)
let child ~role ~workload ~seed ~seconds ~trace ~min_ops =
  let rundir = Filename.concat runs_dir (string_of_int (Unix.getpid ())) in
  mkdir_p rundir;
  let fields =
    try
      let make = List.assoc workload W.all in
      (* set-up is timed in pieces, like the operations; the process
         start before it is scaled by the caller *)
      let started_at = now () in
      ignore (Speed.time_reference ());
      let m = Speed.meter () in
      let start_reference = m.Speed.before in
      let s = make ~seed ~rundir ~setup:{ W.piece = (fun f -> Speed.piece m ~op:0 "setup" f) } in
      Speed.close m;
      let ready =
        [
          ("started_at", num started_at);
          ("start_reference_s", num start_reference);
          ("setup_scaled_s", num m.Speed.busy_s);
        ]
      in
      if role = "setup" then begin
        s.W.finish ~measured:false;
        ready
      end
      else ready @ measure s ~rundir ~seconds ~trace ~min_ops
    with e ->
      W.record (W.check ("run raised " ^ Printexc.to_string e) false);
      []
  in
  rm_rf rundir;
  print_endline
    (encode
       (Json.Obj
          (fields
          @ [ ("attempted", Json.Int !W.attempted); ("failed", Json.Int !W.failed) ])));
  exit 0

(* ---- a run: set-up processes, then the measuring one ---- *)

type outcome = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * string * float) list;  (** name, unit, value *)
  untraced_metrics : (string * string * float) list;
      (** a traced run: the end-to-end metrics of its untraced third *)
  report : string;  (** the text table *)
}

(* runs this executable with [args]: exit status and standard output *)
let run_self args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let out = In_channel.input_all ic in
  (Unix.close_process_in ic, out)

(* a child's result: the JSON object on its last output line *)
let spawn args =
  let status, out = run_self args in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None (String.split_on_char '\n' out)
  in
  match (status, Option.map Json.parse last) with
  | Unix.WEXITED 0, Some (Ok j) -> Some j
  | _ -> None

let run_workload ~workload ~seed ~seconds ~trace ~min_ops ~setups =
  mkdir_p runs_dir;
  let args role =
    [
      "--child"; role; "--workload"; workload; "--seed"; string_of_int seed;
      "--seconds"; Stats.to_json_number seconds; "--trace"; (if trace then "1" else "0");
      "--min-ops"; string_of_int min_ops;
    ]
  in
  ignore (Speed.time_reference ());
  (* set-up time: the child's start, scaled by the reference timed just
     before the spawn and the child's first one, plus the child's scaled
     set-up *)
  let runs =
    List.init setups (fun i ->
        let role = if i = setups - 1 then "measure" else "setup" in
        let before = Speed.time_reference () in
        let spawned = now () in
        let j = spawn (args role) in
        let sample =
          match j with
          | Some j -> (
            match
              ( get_float "started_at" j,
                get_float "start_reference_s" j,
                get_float "setup_scaled_s" j )
            with
            | Some started, Some after, Some setup ->
              Some
                (((started -. spawned) *. Speed.reference_s /. ((before +. after) /. 2.0))
                +. setup)
            | _ -> None)
          | None -> None
        in
        (sample, j))
  in
  (try Unix.rmdir runs_dir with Unix.Unix_error _ -> ());
  let children = List.filter_map snd runs in
  let setup_samples = List.filter_map fst runs in
  let attempted = List.fold_left (fun n j -> n + get_int "attempted" j) 0 children in
  let failed = List.fold_left (fun n j -> n + get_int "failed" j) 0 children in
  let measured = match List.rev runs with (_, Some j) :: _ -> j | _ -> Json.Obj [] in
  let value name =
    if name = "setup_s" then Some (Stats.median setup_samples)
    else Option.bind (Json.member "metrics" measured) (get_float name)
  in
  let present specs =
    List.filter_map (fun (name, unit) -> Option.map (fun v -> (name, unit, v)) (value name)) specs
  in
  let metrics = present (if trace then per_layer else end_to_end) in
  let untraced_metrics = if trace then present end_to_end else [] in
  let expected = if trace then per_layer @ end_to_end else end_to_end in
  let complete =
    List.length children = setups
    && List.length (metrics @ untraced_metrics) = List.length expected
    && List.for_all (fun (_, _, v) -> Float.is_finite v) (metrics @ untraced_metrics)
  in
  (* the text report *)
  let out = Buffer.create 4096 in
  Printf.bprintf out "ilvbench %s: seed %d, %s s measured, trace %s, %d ops, %d checks, %d failed\n"
    workload seed (Stats.to_json_number seconds) (if trace then "on" else "off")
    (get_int "ops" measured) attempted failed;
  Printf.bprintf out
    "  times at reference speed (reference %.0f ms; measured median %.3f ms); wall-clock op p50 %.4f ms\n"
    (1000.0 *. Speed.reference_s)
    (Option.value ~default:nan (get_float "reference_ms" measured))
    (Option.value ~default:nan (get_float "raw_p50_ms" measured));
  let quartiles =
    match Json.member "lat_ms_quartiles" measured with
    | Some (Json.List [ a; _; c ]) -> (Json.to_float a, Json.to_float c)
    | _ -> (None, None)
  in
  let show = function Some v -> Printf.sprintf "%.4f" v | None -> "-" in
  Printf.bprintf out "  %-30s %-9s %14s %12s %12s %6s\n" "metric" "unit" "value" "q1" "q3" "n";
  List.iter
    (fun (name, unit, v) ->
      let (q1, q3), n =
        if name = "setup_s" then
          let a, _, c = Stats.quartiles setup_samples in
          ((Some a, Some c), List.length setup_samples)
        else if name = "op_p50_ms" then (quartiles, get_int "ops" measured)
        else ((None, None), if trace then get_int "ops" measured else 1)
      in
      Printf.bprintf out "  %-30s %-9s %14.4f %12s %12s %6d\n" name unit v (show q1) (show q3) n)
    metrics;
  (match Json.member "tail_ms" measured with
  | Some (Json.List [ p; v ]) ->
    Printf.bprintf out "  tail: p%.2f %.4f ms (10 of %d operations above it)\n"
      (Option.value ~default:nan (Json.to_float p))
      (Option.value ~default:nan (Json.to_float v))
      (get_int "ops" measured)
  | _ -> Printf.bprintf out "  tail: fewer than 11 operations\n");
  (match Json.member "kinds" measured with
  | Some (Json.List (_ :: _ as kinds)) ->
    Printf.bprintf out "  latency by kind (ms):\n";
    List.iter
      (function
        | Json.List [ Json.String k; p50; p99; Json.Int n ] ->
          Printf.bprintf out "    %-10s p50 %9.3f   p99 %9.3f   n %d\n" k
            (Option.value ~default:nan (Json.to_float p50))
            (Option.value ~default:nan (Json.to_float p99))
            n
        | _ -> ())
      kinds
  | _ -> ());
  {
    correct = complete && failed = 0;
    attempted = max 1 attempted;
    failed;
    metrics;
    untraced_metrics;
    report = Buffer.contents out;
  }

let result_json o =
  encode
    (Json.Obj
       [
         ("correct", Json.Bool o.correct);
         ("attempted", Json.Int o.attempted);
         ("failed", Json.Int o.failed);
         ( "metrics",
           Json.Obj
             (List.map
                (fun (name, unit, v) ->
                  (name, Json.Obj [ ("value", num v); ("unit", Json.String unit) ]))
                o.metrics) );
       ])

(* ---- BENCHMARK.json ---- *)

type spec = { s_name : string; s_unit : string; s_better : string; s_bound : float }

let load_benchmark path =
  match Json.parse (read_file path) with
  | Error msg -> failwith (path ^ ": " ^ msg)
  | Ok j ->
    let section k =
      match Json.member k j with
      | Some (Json.List l) ->
        List.map
          (fun m ->
            let s f = Option.value ~default:"" (Option.bind (Json.member f m) Json.to_string) in
            {
              s_name = s "name";
              s_unit = s "unit";
              s_better = s "better";
              s_bound = Option.value ~default:0.0 (get_float "bound" m);
            })
          l
      | _ -> []
    in
    let workloads =
      List.map (fun w -> w.s_name) (section "workloads")
    in
    (section "end_to_end", section "per_layer", workloads)

(* ---- --compare ---- *)

(* Both files hold result lines written by --out.  Per workload and
   end-to-end metric: each side's median and quartiles, then a verdict.
   A spread of A wider than the bound is unresolved, unless every run of
   B beats every run of A; B worse than A by more than the bound is a
   regression; B winning nine tenths of the run pairs by more than A's
   own spread is an improvement. *)
let compare_files ~benchmark a b =
  let e2e, _, workloads = load_benchmark benchmark in
  let load path =
    List.filter_map
      (fun line ->
        match Json.parse line with
        | Ok j when get_int "trace" j = 0 && Json.member "metrics" j <> None -> Some j
        | _ -> None)
      (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' (read_file path)))
  in
  let ra = load a and rb = load b in
  let values runs workload name =
    List.filter_map
      (fun j ->
        if Option.bind (Json.member "workload" j) Json.to_string = Some workload then
          Option.bind
            (Option.bind (Json.member "metrics" j) (Json.member name))
            (get_float "value")
        else None)
      runs
  in
  let regressions = ref 0 in
  Printf.printf "%-13s %-14s %12s %12s %12s | %12s %12s %12s  %s\n" "workload" "metric"
    "A q1" "A median" "A q3" "B q1" "B median" "B q3" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun spec ->
          let va = values ra w spec.s_name and vb = values rb w spec.s_name in
          if List.length va < 3 || List.length vb < 3 then
            Printf.printf "%-13s %-14s needs >= 3 runs on each side (have %d and %d)\n" w
              spec.s_name (List.length va) (List.length vb)
          else begin
            (* the exclusive-method middle quartile is the median *)
            let a1, am, a3 = Stats.quartiles va and b1, bm, b3 = Stats.quartiles vb in
            let better x y = if spec.s_better = "higher" then x > y else x < y in
            let worse_by = (if spec.s_better = "higher" then am -. bm else bm -. am) /. am in
            let spread = (a3 -. a1) /. am in
            let all_better = List.for_all (fun y -> List.for_all (fun x -> better y x) va) vb in
            let rec zip xs ys =
              match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
            in
            let pairs = zip va vb in
            let wins = List.length (List.filter (fun (x, y) -> better y x) pairs) in
            let verdict =
              if spread > spec.s_bound then if all_better then "improved" else "unresolved"
              else if worse_by > spec.s_bound then "regressed"
              else if
                10 * wins >= 9 * List.length pairs
                && better bm am
                && Float.abs (bm -. am) > a3 -. a1
              then "improved"
              else "within-bound"
            in
            if verdict = "regressed" then incr regressions;
            Printf.printf "%-13s %-14s %12.4f %12.4f %12.4f | %12.4f %12.4f %12.4f  %s (bound %g%%, A spread %.1f%%)\n"
              w spec.s_name a1 am a3 b1 bm b3 verdict (100.0 *. spec.s_bound) (100.0 *. spread)
          end)
        e2e)
    workloads;
  if !regressions > 0 then exit 1

(* ---- --smoke ---- *)

(* One short traced run of every workload: its untraced first part
   gives the end-to-end metrics and the traced rest the per-layer ones,
   so one set-up serves both.  Every metric BENCHMARK.json names must
   come out with its unit, every check must pass (the traced pipeline's
   exact counts included), and two invocations must generate the same
   seed-1 inputs.  Gates no timing. *)
let smoke ~benchmark =
  let e2e, layers, workloads = load_benchmark benchmark in
  let failures = ref 0 in
  let expect what ok =
    if not ok then begin
      incr failures;
      Printf.printf "smoke: FAILED %s\n%!" what
    end
  in
  (* per phase: one sweep, two rounds of hunts, one block of requests *)
  let min_ops = function
    | "bug_hunt" -> 6
    | "daemon_mixed" -> 100
    | _ -> 1
  in
  List.iter
    (fun w ->
      let o =
        run_workload ~workload:w ~seed:1 ~seconds:0.0 ~trace:true ~min_ops:(min_ops w) ~setups:1
      in
      if o.correct then Printf.printf "smoke: %s: %d checks passed\n%!" w o.attempted
      else print_string o.report;
      expect (w ^ ": correctness checks") o.correct;
      List.iter
        (fun spec ->
          expect
            (Printf.sprintf "%s: metric %s [%s] printed" w spec.s_name spec.s_unit)
            (List.exists
               (fun (n, u, _) -> n = spec.s_name && u = spec.s_unit)
               (o.metrics @ o.untraced_metrics)))
        (e2e @ layers))
    workloads;
  let digest () = String.trim (snd (run_self [ "--digest"; "--seed"; "1" ])) in
  let d1 = digest () and d2 = digest () in
  Printf.printf "seed-1 input digest: %s / %s\n" d1 d2;
  expect "seed-1 input digest repeats" (d1 = d2 && String.length d1 = 32);
  if !failures > 0 then exit 1 else print_endline "smoke: ok"

(* ---- command line ---- *)

let usage () =
  prerr_endline
    "usage: ilvbench --workload {sweep_cold|sweep_warm|bug_hunt|daemon_mixed} --seed N \
     --seconds S --trace {0|1} [--out FILE]\n\
    \       ilvbench --compare A.jsonl B.jsonl [--benchmark BENCHMARK.json]\n\
    \       ilvbench --smoke [--benchmark BENCHMARK.json]\n\
    \       ilvbench --digest --seed N";
  exit 2

let () =
  let opts = Hashtbl.create 8 in
  let rec parse = function
    | [] -> ()
    | ("--smoke" | "--digest") as flag :: rest ->
      Hashtbl.replace opts flag "";
      parse rest
    | "--compare" :: a :: b :: rest ->
      Hashtbl.replace opts "--compare" a;
      Hashtbl.replace opts "--compare-b" b;
      parse rest
    | key :: v :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
      Hashtbl.replace opts key v;
      parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let opt k = Hashtbl.find_opt opts k in
  let int_opt k d =
    match opt k with
    | None -> d
    | Some v -> ( match int_of_string_opt v with Some n -> n | None -> usage ())
  in
  let benchmark = Option.value (opt "--benchmark") ~default:"BENCHMARK.json" in
  let seed = int_opt "--seed" 1 in
  if Hashtbl.mem opts "--digest" then print_endline (W.digest ~seed)
  else if Hashtbl.mem opts "--smoke" then smoke ~benchmark
  else
    match (opt "--compare", opt "--compare-b") with
    | Some a, Some b -> compare_files ~benchmark a b
    | _ -> (
      let workload = match opt "--workload" with Some w when List.mem_assoc w W.all -> w | _ -> usage () in
      let seconds =
        match Option.bind (opt "--seconds") float_of_string_opt with
        | Some s when s >= 0.0 -> s
        | _ -> usage ()
      in
      let trace = match opt "--trace" with Some "1" -> true | Some "0" | None -> false | _ -> usage () in
      let min_ops = int_opt "--min-ops" 1 in
      match opt "--child" with
      | Some role -> child ~role ~workload ~seed ~seconds ~trace ~min_ops
      | None ->
        let o =
          run_workload ~workload ~seed ~seconds ~trace ~min_ops
            ~setups:(if trace then 1 else setups)
        in
        print_string o.report;
        let line = result_json o in
        (match opt "--out" with
        | Some path ->
          Out_channel.with_open_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
            (fun oc ->
              Printf.fprintf oc "{\"workload\": %S, \"seed\": %d, \"trace\": %d, %s\n" workload
                seed (if trace then 1 else 0)
                (String.sub line 1 (String.length line - 1)))
        | None -> ());
        print_endline line;
        if not o.correct then exit 1)
