type value = S of string | I of int | F of float | B of bool
type field = string * value

(* ---- monotonic clock ---- *)

let last_now = ref 0.0

let now_s () =
  let t = Unix.gettimeofday () in
  if t > !last_now then last_now := t;
  !last_now

let allocated_words () =
  let minor, promoted, major = Gc.counters () in
  int_of_float (minor +. major -. promoted)

(* ---- global state ---- *)

type sink = { oc : out_channel; t0 : float }

let sink : sink option ref = ref None
let metrics_on = ref false
let counter_tbl : (string, int) Hashtbl.t = Hashtbl.create 32
let next_span = ref 0
let span_stack : int list ref = ref []

(* open span id -> (name, start time, parent) *)
let open_spans : (int, string * float * int option) Hashtbl.t =
  Hashtbl.create 16

let enabled () = !sink <> None || !metrics_on

(* ---- JSON emission ---- *)

let add_json_string b s =
  Buffer.add_char b '"';
  String.iter
    (fun ch ->
      match ch with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | '\r' -> Buffer.add_string b "\\r"
      | c when Char.code c < 32 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"'

let add_float b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.1f" f)
  else if Float.is_finite f then Buffer.add_string b (Printf.sprintf "%.9g" f)
  else Buffer.add_string b "null"

let add_value b = function
  | S s -> add_json_string b s
  | I i -> Buffer.add_string b (string_of_int i)
  | F f -> add_float b f
  | B true -> Buffer.add_string b "true"
  | B false -> Buffer.add_string b "false"

let add_field b (k, v) =
  Buffer.add_char b ',';
  add_json_string b k;
  Buffer.add_char b ':';
  add_value b v

(* One line per emission, built fully then written and flushed as a
   single chunk: forked workers appending to the same file do not
   interleave mid-line. *)
let emit_line ~ev ~name ?span ?parent ?dur_s fields =
  match !sink with
  | None -> ()
  | Some { oc; t0 } -> (
    let b = Buffer.create 192 in
    Buffer.add_string b "{\"ts\":";
    add_float b (now_s () -. t0);
    Buffer.add_string b ",\"pid\":";
    Buffer.add_string b (string_of_int (Unix.getpid ()));
    Buffer.add_string b ",\"ev\":";
    add_json_string b ev;
    Buffer.add_string b ",\"name\":";
    add_json_string b name;
    (match span with
    | Some id -> add_field b ("span", I id)
    | None -> ());
    (match parent with
    | Some id -> add_field b ("parent", I id)
    | None -> ());
    (match dur_s with
    | Some d -> add_field b ("dur_s", F d)
    | None -> ());
    List.iter (add_field b) fields;
    Buffer.add_string b "}\n";
    try
      output_string oc (Buffer.contents b);
      flush oc
    with _ -> ())

(* ---- lifecycle ---- *)

let at_exit_registered = ref false

let shutdown () =
  (match !sink with
  | Some { oc; _ } -> (
    try close_out oc with _ -> ())
  | None -> ());
  sink := None;
  if !metrics_on then begin
    metrics_on := false;
    if Hashtbl.length counter_tbl > 0 then
      Format.eprintf "%a@?"
        (fun fmt () ->
          Format.fprintf fmt "obs counters:@.";
          List.iter
            (fun (name, n) -> Format.fprintf fmt "  %-32s %12d@." name n)
            (List.sort compare
               (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counter_tbl [])))
        ()
  end;
  span_stack := [];
  Hashtbl.reset open_spans

let configure ?trace_out ?(metrics = false) () =
  (match !sink with
  | Some { oc; _ } -> ( try close_out oc with _ -> ())
  | None -> ());
  sink :=
    Option.map
      (fun path ->
        let oc =
          open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path
        in
        { oc; t0 = now_s () })
      trace_out;
  metrics_on := metrics;
  (* a new counter session: totals count from zero again *)
  Hashtbl.reset counter_tbl;
  if (enabled ()) && not !at_exit_registered then begin
    at_exit_registered := true;
    at_exit shutdown
  end

(* ---- counters ---- *)

let count name n =
  if enabled () && n > 0 then begin
    let total = (try Hashtbl.find counter_tbl name with Not_found -> 0) + n in
    Hashtbl.replace counter_tbl name total;
    if !sink <> None then
      emit_line ~ev:"counter" ~name [ ("add", I n); ("total", I total) ]
  end

let counters () =
  List.sort compare
    (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counter_tbl [])

let pp_metrics fmt () =
  Format.fprintf fmt "@[<v>obs counters:";
  List.iter
    (fun (name, n) -> Format.fprintf fmt "@,  %-32s %12d" name n)
    (counters ());
  Format.fprintf fmt "@]"

(* ---- events and spans ---- *)

let current_parent () =
  match !span_stack with [] -> None | id :: _ -> Some id

let event name fields =
  if !sink <> None then
    emit_line ~ev:"event" ~name ?span:(current_parent ()) fields

let span_begin name fields =
  let id = !next_span in
  incr next_span;
  let parent = current_parent () in
  Hashtbl.replace open_spans id (name, now_s (), parent);
  span_stack := id :: !span_stack;
  emit_line ~ev:"span_begin" ~name ~span:id ?parent fields;
  id

let span_end ?(fields = []) id =
  match Hashtbl.find_opt open_spans id with
  | None -> ()
  | Some (name, t0, parent) ->
    Hashtbl.remove open_spans id;
    (* tolerate out-of-order closes: drop [id] wherever it sits *)
    span_stack := List.filter (fun x -> x <> id) !span_stack;
    emit_line ~ev:"span_end" ~name ~span:id ?parent
      ~dur_s:(now_s () -. t0) fields

let with_span name fields f =
  if not (enabled ()) then f ()
  else begin
    let id = span_begin name fields in
    match f () with
    | x ->
      span_end id;
      x
    | exception e ->
      span_end ~fields:[ ("raised", S (Printexc.to_string e)) ] id;
      raise e
  end
