type row = {
  design : string;
  port : string;
  instr : string;
  backend : string;
  verdict : string;
  n : int;
  time_s : float;
}

type frame = {
  frame_design : string;
  n_properties : int;
  frame_vars : int;
  frame_clauses : int;
  problem_clauses : int;
  activation_clauses : int;
  simplify_removed : int;
  preparations : int;  (** how many workers built this frame *)
  prepare_s : float;
  simplify_s : float;
}

type disposition = {
  disp_job : int;
  crashes : string list;  (** how each worker running the job died *)
  retries : int;
  backoff_s : float;  (** total cool-down the job spent delayed *)
  poisoned : bool;
}

type t = {
  lines : int;
  rows : row list;
  backends : (string * (int * float)) list;
  frames : frame list;
  dispositions : disposition list;
  counters : (string * int) list;
  run_wall_s : float option;
  span_total_s : float;
  spans : (string * (int * float * float)) list;
}

let str ?(default = "?") key json =
  Option.value ~default (Option.bind (Json.member key json) Json.to_string)

let fl key json = Option.bind (Json.member key json) Json.to_float
let int_of key json = Option.bind (Json.member key json) Json.to_int

(* per span name: count, summed duration, and self time (each span's
   duration less its direct child spans', joined on (pid, parent)) *)
let span_self lines =
  let ends =
    List.filter_map
      (fun line ->
        match (str "ev" line, int_of "pid" line, int_of "span" line) with
        | "span_end", Some pid, Some span ->
          Some
            ( str "name" line,
              pid,
              span,
              int_of "parent" line,
              Option.value ~default:0.0 (fl "dur_s" line) )
        | _ -> None)
      lines
  in
  let sum tbl k x =
    Hashtbl.replace tbl k (x +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))
  in
  let children = Hashtbl.create 64 in
  List.iter
    (fun (_, pid, _, parent, dur) ->
      Option.iter (fun p -> sum children (pid, p) dur) parent)
    ends;
  let by_name = Hashtbl.create 16 in
  List.iter
    (fun (name, pid, span, _, dur) ->
      let self =
        dur -. Option.value ~default:0.0 (Hashtbl.find_opt children (pid, span))
      in
      let n, total, self_s =
        Option.value ~default:(0, 0.0, 0.0) (Hashtbl.find_opt by_name name)
      in
      Hashtbl.replace by_name name (n + 1, total +. dur, self_s +. self))
    ends;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_name []
  |> List.sort (fun (a, (_, _, x)) (b, (_, _, y)) ->
         match compare y x with 0 -> compare a b | c -> c)

let job_span = "engine.job"
let frame_span = "checker.prepare_shared"

let of_trace lines =
  let rows : (string * string * string * string * string, int * float)
      Hashtbl.t =
    Hashtbl.create 64
  in
  (* identity fields (design, port, instr) travel on the span_begin
     line; the outcome (backend, verdict, dur_s) on the span_end.  Join
     them on (pid, span id) — begins always precede their end in the
     file for any one process. *)
  let begins : (int * int, Json.t) Hashtbl.t = Hashtbl.create 64 in
  let span_key line =
    match (int_of "pid" line, int_of "span" line) with
    | Some pid, Some span -> Some (pid, span)
    | _ -> None
  in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 32 in
  let frames : (string, frame) Hashtbl.t = Hashtbl.create 8 in
  let disps : (int, disposition) Hashtbl.t = Hashtbl.create 8 in
  let disp_of job =
    match Hashtbl.find_opt disps job with
    | Some d -> d
    | None ->
      {
        disp_job = job;
        crashes = [];
        retries = 0;
        backoff_s = 0.0;
        poisoned = false;
      }
  in
  let run_wall = ref None in
  List.iter
    (fun line ->
      let ev = str "ev" line and name = str "name" line in
      match ev with
      | "span_begin" when name = job_span || name = frame_span -> (
        match span_key line with
        | Some k -> Hashtbl.replace begins k line
        | None -> ())
      | "span_end" when name = frame_span ->
        (* shared-frame sizes: one record per design label; several
           workers may each build the frame, counted in [preparations] *)
        let opened =
          Option.bind (span_key line) (Hashtbl.find_opt begins)
        in
        let ifield key =
          match int_of key line with
          | Some n -> n
          | None ->
            Option.value ~default:0 (Option.bind opened (int_of key))
        in
        let design =
          match opened with Some b -> str ~default:"?" "design" b | None -> "?"
        in
        let ffield key = Option.value ~default:0.0 (fl key line) in
        let prev = Hashtbl.find_opt frames design in
        Hashtbl.replace frames design
          {
            frame_design = design;
            n_properties = ifield "n_properties";
            frame_vars = ifield "cnf_vars";
            frame_clauses = ifield "cnf_clauses";
            problem_clauses = ifield "n_problem_clauses";
            activation_clauses = ifield "n_activation_clauses";
            simplify_removed = ifield "simplify_removed";
            preparations =
              1 + (match prev with Some f -> f.preparations | None -> 0);
            prepare_s =
              ffield "dur_s"
              +. (match prev with Some f -> f.prepare_s | None -> 0.0);
            simplify_s =
              ffield "simplify_s"
              +. (match prev with Some f -> f.simplify_s | None -> 0.0);
          }
      | "span_end" when name = job_span ->
        let opened =
          Option.bind (span_key line) (Hashtbl.find_opt begins)
        in
        let field key =
          match Option.bind (Json.member key line) Json.to_string with
          | Some s -> s
          | None -> (
            match opened with Some b -> str key b | None -> "?")
        in
        let key =
          ( field "design",
            field "port",
            field "instr",
            field "backend",
            field "verdict" )
        in
        let dur = Option.value ~default:0.0 (fl "dur_s" line) in
        let n, time =
          try Hashtbl.find rows key with Not_found -> (0, 0.0)
        in
        Hashtbl.replace rows key (n + 1, time +. dur)
      | "span_end" when name = "engine.run" ->
        (* the last run span wins; traces usually hold one *)
        run_wall := fl "dur_s" line
      | "event" when name = "pool.crash" -> (
        (* idle-worker deaths carry no job and join no disposition *)
        match int_of "job" line with
        | None -> ()
        | Some job ->
          let d = disp_of job in
          Hashtbl.replace disps job
            { d with crashes = d.crashes @ [ str ~default:"?" "how" line ] })
      | "event" when name = "pool.retry" -> (
        match int_of "job" line with
        | None -> ()
        | Some job ->
          let d = disp_of job in
          Hashtbl.replace disps job
            {
              d with
              retries = d.retries + 1;
              backoff_s =
                d.backoff_s +. Option.value ~default:0.0 (fl "backoff_s" line);
            })
      | "event" when name = "pool.poisoned" -> (
        match int_of "job" line with
        | None -> ()
        | Some job ->
          let d = disp_of job in
          Hashtbl.replace disps job { d with poisoned = true })
      | "counter" ->
        let add =
          Option.value ~default:0 (Option.bind (Json.member "add" line) Json.to_int)
        in
        let total = (try Hashtbl.find counters name with Not_found -> 0) + add in
        Hashtbl.replace counters name total
      | _ -> ())
    lines;
  let rows =
    Hashtbl.fold
      (fun (design, port, instr, backend, verdict) (n, time_s) acc ->
        { design; port; instr; backend; verdict; n; time_s } :: acc)
      rows []
    |> List.sort (fun a b ->
           match compare b.time_s a.time_s with
           | 0 -> compare (a.design, a.port, a.instr) (b.design, b.port, b.instr)
           | c -> c)
  in
  let backends : (string, int * float) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let n, time =
        try Hashtbl.find backends r.backend with Not_found -> (0, 0.0)
      in
      Hashtbl.replace backends r.backend (n + r.n, time +. r.time_s))
    rows;
  {
    lines = List.length lines;
    rows;
    backends =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) backends []);
    frames =
      List.sort
        (fun a b -> compare a.frame_design b.frame_design)
        (Hashtbl.fold (fun _ f acc -> f :: acc) frames []);
    dispositions =
      List.sort
        (fun a b -> compare a.disp_job b.disp_job)
        (Hashtbl.fold (fun _ d acc -> d :: acc) disps []);
    counters =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counters []);
    run_wall_s = !run_wall;
    span_total_s = List.fold_left (fun acc r -> acc +. r.time_s) 0.0 rows;
    spans = span_self lines;
  }

let of_file path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error msg -> Error msg
  | raw -> Result.map of_trace (Json.parse_lines raw)

let pp fmt p =
  let open Format in
  fprintf fmt "@[<v>trace: %d lines, %d instruction rows" p.lines
    (List.length p.rows);
  (match p.run_wall_s with
  | Some w ->
    fprintf fmt ", engine wall %.3fs (instruction spans cover %.3fs)" w
      p.span_total_s
  | None -> fprintf fmt ", instruction spans total %.3fs" p.span_total_s);
  fprintf fmt "@,@,%-22s %-12s %-26s %-8s %-8s %4s %10s %6s" "design" "port"
    "instruction" "backend" "verdict" "n" "time_s" "%";
  let total = Float.max 1e-12 p.span_total_s in
  List.iter
    (fun r ->
      fprintf fmt "@,%-22s %-12s %-26s %-8s %-8s %4d %10.4f %6.1f" r.design
        r.port r.instr r.backend r.verdict r.n r.time_s
        (100.0 *. r.time_s /. total))
    p.rows;
  (match p.backends with
  | [] -> ()
  | backends ->
    fprintf fmt "@,@,per backend:";
    List.iter
      (fun (backend, (n, time_s)) ->
        fprintf fmt "@,  %-10s %4d jobs %10.4fs" backend n time_s)
      backends);
  (match p.frames with
  | [] -> ()
  | frames ->
    fprintf fmt "@,@,shared frames (incremental mode):";
    fprintf fmt "@,  %-28s %5s %8s %8s %8s %8s %8s %5s %9s %9s" "design"
      "props" "vars" "clauses" "problem" "activ" "removed" "preps" "prep_s"
      "simp_s";
    List.iter
      (fun f ->
        fprintf fmt "@,  %-28s %5d %8d %8d %8d %8d %8d %5d %9.4f %9.4f"
          f.frame_design f.n_properties f.frame_vars f.frame_clauses
          f.problem_clauses f.activation_clauses f.simplify_removed
          f.preparations f.prepare_s f.simplify_s)
      frames);
  (match p.dispositions with
  | [] -> ()
  | disps ->
    fprintf fmt "@,@,supervised jobs (pool retries and quarantines):";
    List.iter
      (fun d ->
        fprintf fmt "@,  job %-5d %-10s %d retries, %.3fs backoff — %s"
          d.disp_job
          (if d.poisoned then "POISONED" else "recovered")
          d.retries d.backoff_s
          (String.concat "; " d.crashes))
      disps);
  (match p.spans with
  | [] -> ()
  | spans ->
    fprintf fmt "@,@,spans (self = duration less nested spans):";
    fprintf fmt "@,  %-32s %8s %10s %10s" "span" "n" "total_s" "self_s";
    List.iter
      (fun (name, (n, total_s, self_s)) ->
        fprintf fmt "@,  %-32s %8d %10.4f %10.4f" name n total_s self_s)
      spans);
  (match p.counters with
  | [] -> ()
  | counters ->
    fprintf fmt "@,@,counters (all processes):";
    List.iter
      (fun (name, n) -> fprintf fmt "@,  %-32s %12d" name n)
      counters);
  fprintf fmt "@]"
