type problem = { n_vars : int; clauses : int list list }

let of_bitblast ctx =
  let n_vars, clauses = Sat.lists_of_flat (Bitblast.cnf ctx) in
  { n_vars; clauses }

let to_string p =
  let buf = Buffer.create (64 * List.length p.clauses) in
  Buffer.add_string buf
    (Printf.sprintf "p cnf %d %d\n" p.n_vars (List.length p.clauses));
  List.iter
    (fun clause ->
      List.iter (fun l -> Buffer.add_string buf (string_of_int l ^ " ")) clause;
      Buffer.add_string buf "0\n")
    p.clauses;
  Buffer.contents buf

let of_string text =
  let fail msg = invalid_arg ("Dimacs.of_string: " ^ msg) in
  let lines = String.split_on_char '\n' text in
  let n_vars = ref 0 in
  let clauses = ref [] in
  let current = ref [] in
  let header_seen = ref false in
  let handle_token tok =
    match int_of_string_opt tok with
    | None -> fail ("bad literal " ^ tok)
    | Some 0 ->
      clauses := List.rev !current :: !clauses;
      current := []
    | Some l ->
      if abs l > !n_vars then fail "literal out of range";
      current := l :: !current
  in
  List.iter
    (fun line ->
      let line = String.trim line in
      if line = "" || line.[0] = 'c' || line.[0] = '%' then ()
      else if line.[0] = 'p' then begin
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "p"; "cnf"; v; _c ] -> (
          header_seen := true;
          match int_of_string_opt v with
          | Some v when v >= 0 -> n_vars := v
          | Some _ | None -> fail "bad header")
        | _ -> fail "bad header"
      end
      else begin
        if not !header_seen then fail "clause before header";
        String.split_on_char ' ' line
        |> List.filter (( <> ) "")
        |> List.iter handle_token
      end)
    lines;
  if !current <> [] then fail "unterminated clause";
  { n_vars = !n_vars; clauses = List.rev !clauses }

let solve p =
  let s = Sat.create () in
  for _ = 1 to p.n_vars do
    ignore (Sat.new_var s)
  done;
  List.iter (Sat.add_clause s) p.clauses;
  Sat.solve s
