(* Per-layer accounting for the traced run.

   Bench-side spans wrap calls into each layer's public functions.  A
   layer's self time is its span's duration minus the spans nested in
   it; spans live in memory only.  The solver's time, the lazy encoding's
   time and the counters the program already emits come from its
   observability sink (Ilv_obs.Obs), which every forked worker inherits
   and which is read back once the traced phase is over. *)

module Json = Ilv_obs.Json

type acc = {
  self : (string, float) Hashtbl.t;  (** layer -> self seconds *)
  counts : (string, float) Hashtbl.t;  (** metric -> count *)
  mutable groups_s : float;  (** wall time of the collected groups *)
}

type snapshot = {
  s_self : (string * float) list;
  s_counts : (string * float) list;
  s_groups_s : float;
}

let create () =
  { self = Hashtbl.create 16; counts = Hashtbl.create 32; groups_s = 0.0 }

let tracing = ref false
let current = ref (create ())

(* child-span time of each open span, innermost first *)
let stack : float ref list ref = ref []

let bump tbl key v =
  Hashtbl.replace tbl key (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl key))

let add_self layer s = if !tracing then bump !current.self layer s
let count metric n = if !tracing then bump !current.counts metric (float_of_int n)

let span layer f =
  if not !tracing then f ()
  else begin
    let children = ref 0.0 in
    let outer = !stack in
    stack := children :: outer;
    let t0 = Unix.gettimeofday () in
    let close () =
      let d = Unix.gettimeofday () -. t0 in
      stack := outer;
      bump !current.self layer (d -. !children);
      match outer with parent :: _ -> parent := !parent +. d | [] -> ()
    in
    Fun.protect ~finally:close f
  end

let snapshot acc =
  let pairs tbl = Hashtbl.fold (fun k v l -> (k, v) :: l) tbl [] in
  { s_self = pairs acc.self; s_counts = pairs acc.counts; s_groups_s = acc.groups_s }

(* Runs one obligation group with a fresh accumulator and returns what
   it recorded as plain data, so a pool worker can ship it back with its
   result; [absorb] adds it to the caller's accumulator. *)
let collect f =
  if not !tracing then (f (), snapshot (create ()))
  else begin
    let saved = !current and saved_stack = !stack in
    let acc = create () in
    current := acc;
    stack := [];
    let t0 = Unix.gettimeofday () in
    let r =
      Fun.protect
        ~finally:(fun () ->
          acc.groups_s <- Unix.gettimeofday () -. t0;
          current := saved;
          stack := saved_stack)
        f
    in
    (r, snapshot acc)
  end

let absorb s =
  if !tracing then begin
    List.iter (fun (k, v) -> bump !current.self k v) s.s_self;
    List.iter (fun (k, v) -> bump !current.counts k v) s.s_counts;
    !current.groups_s <- !current.groups_s +. s.s_groups_s
  end

(* ---- the program's trace sink ---- *)

let open_sink path = Ilv_obs.Obs.configure ~trace_out:path ()

let int_field k j = Option.value ~default:0 (Option.bind (Json.member k j) Json.to_int)
let float_field k j = Option.value ~default:0.0 (Option.bind (Json.member k j) Json.to_float)

(* One trace line: the solver's time and work, the lazy encoding's time,
   the frozen frame's size, and the cache, pool and refinement events,
   as layer counts. *)
let fold_line acc j =
  let str k = Option.bind (Json.member k j) Json.to_string in
  let c metric n = bump acc.counts metric (float_of_int n) in
  match (str "ev", str "name") with
  | Some "event", Some "sat.solve" ->
    bump acc.self "sat.busy" (float_field "dur_s" j);
    c "sat.solves" 1;
    c "sat.conflicts" (int_field "conflicts" j);
    c "sat.propagations" (int_field "propagations" j);
    c "sat.decisions" (int_field "decisions" j)
  | Some "span_end", Some "checker.encode_shared" ->
    bump acc.self "bitblast.encode" (float_field "dur_s" j)
  | Some "span_end", Some "checker.prepare_shared" ->
    c "bitblast.cnf_vars" (int_field "cnf_vars" j);
    c "bitblast.cnf_clauses" (int_field "cnf_clauses" j);
    c "bitblast.simplify_removed" (int_field "simplify_removed" j)
  | Some "span_end", Some "checker.obligation" -> c "checker.obligations" 1
  | Some "event", Some "checker.degrade" -> c "checker.degraded" 1
  | Some "event", Some "cache.hit" ->
    c "proof_cache.lookups" 1;
    c "proof_cache.hits" 1
  | Some "event", Some "cache.miss" -> c "proof_cache.lookups" 1
  | Some "event", Some "cache.store" -> c "proof_cache.stores" 1
  | Some "event", Some "pool.dispatch" -> c "pool.dispatches" 1
  | Some "event", Some ("pool.spawn" | "pool.respawn") -> c "pool.spawns" 1
  | Some "counter", Some "cegar.refine" -> c "mem_abstract.refinements" (int_field "add" j)
  | _ -> ()

(* Closes the sink and folds it into [acc].  Solver time and the lazy
   encoding's time move from the checker's self time to the solver's
   and the bit-blaster's: every solve and every lazy encoding runs inside
   a bench "checker.busy" span. *)
let drain path acc =
  Ilv_obs.Obs.shutdown ();
  let self k = Option.value ~default:0.0 (Hashtbl.find_opt acc.self k) in
  let sat0 = self "sat.busy" in
  In_channel.with_open_bin path (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> ()
        | Some line ->
          (match Json.parse line with Ok j -> fold_line acc j | Error _ -> ());
          go ()
      in
      go ());
  let encode = self "bitblast.encode" in
  Hashtbl.remove acc.self "bitblast.encode";
  bump acc.self "bitblast.busy" encode;
  bump acc.self "checker.busy" (sat0 -. self "sat.busy" -. encode)
