(* The frame-only CNF store.  Literals are external (±var) throughout.

   Clauses live in one append-only stream of cells, kept in fixed-size
   chunks: cell [i] is [chunks.(i lsr chunk_bits).(i land chunk_mask)],
   so the stream grows by one chunk at a time and never copies what it
   holds.  A clause is the index of its header cell, [len lsl 2] with
   the activation and deleted bits, followed by its [len] literals in
   increasing order.  Strengthening shortens a clause in place; the
   first cell it gives up holds [-gap], so a walk of the stream steps
   over the cells that follow. *)

type flat = { n_vars : int; offsets : int array; lits : int array }

let chunk_bits = 10
let chunk_mask = (1 lsl chunk_bits) - 1
let activation_bit = 1
let deleted_bit = 2

type t = {
  mutable n_vars : int;
  mutable values : Bytes.t;
      (* per literal slot ([slot]): '\000' unassigned, '\001' true,
         '\002' false *)
  mutable chunks : int array array;
  mutable top : int; (* cells in use *)
  mutable facts : int array; (* level-0 facts, in assignment order *)
  mutable n_facts : int;
  mutable unsat : bool;
  mutable n_clauses : int; (* live stored clauses *)
  mutable n_activation : int; (* activation clauses among them *)
  mutable n_lits : int; (* literals of the live stored clauses *)
  mutable intake : int array; (* scratch for [add_clause] *)
  mutable sorted : int array option;
      (* the live clauses in normal order, kept from the last sort until
         a clause is added or strengthened *)
}

let create () =
  {
    n_vars = 0;
    values = Bytes.make 16 '\000';
    chunks = [||];
    top = 0;
    facts = Array.make 8 0;
    n_facts = 0;
    unsat = false;
    n_clauses = 0;
    n_activation = 0;
    n_lits = 0;
    intake = Array.make 8 0;
    sorted = None;
  }

let num_vars t = t.n_vars
let num_clauses t = t.n_clauses
let num_activation_clauses t = t.n_activation

let new_var t =
  let v = t.n_vars + 1 in
  t.n_vars <- v;
  let len = Bytes.length t.values in
  if (2 * v) + 2 > len then begin
    let b = Bytes.make (2 * len) '\000' in
    Bytes.blit t.values 0 b 0 len;
    t.values <- b
  end;
  v

(* --- literals --- *)

let slot l = if l > 0 then 2 * l else 1 - (2 * l)
let value t l = Char.code (Bytes.get t.values (slot l))

let assign t l =
  Bytes.set t.values (slot l) '\001';
  Bytes.set t.values (slot (-l)) '\002';
  if t.n_facts = Array.length t.facts then begin
    let a = Array.make (2 * t.n_facts) 0 in
    Array.blit t.facts 0 a 0 t.n_facts;
    t.facts <- a
  end;
  t.facts.(t.n_facts) <- l;
  t.n_facts <- t.n_facts + 1

(* --- the clause stream --- *)

let get t i = t.chunks.(i lsr chunk_bits).(i land chunk_mask)
let set t i x = t.chunks.(i lsr chunk_bits).(i land chunk_mask) <- x

let push t x =
  let c = t.top lsr chunk_bits in
  if t.top land chunk_mask = 0 then begin
    if c = Array.length t.chunks then begin
      let d = Array.make (max 8 (2 * c)) [||] in
      Array.blit t.chunks 0 d 0 c;
      t.chunks <- d
    end;
    t.chunks.(c) <- Array.make (chunk_mask + 1) 0
  end;
  set t t.top x;
  t.top <- t.top + 1

let length t r = get t r lsr 2
let live t r = get t r land deleted_bit = 0

let delete t r =
  let h = get t r in
  set t r (h lor deleted_bit);
  t.n_clauses <- t.n_clauses - 1;
  if h land activation_bit <> 0 then t.n_activation <- t.n_activation - 1;
  t.n_lits <- t.n_lits - (h lsr 2)

(* [f r] on every live clause, oldest first.  [f] may delete or shorten
   [r]: the walk has read its extent already. *)
let iter_live t f =
  let i = ref 0 in
  while !i < t.top do
    let h = get t !i in
    if h < 0 then i := !i - h
    else begin
      let r = !i in
      i := r + 1 + (h lsr 2);
      if h land deleted_bit = 0 then f r
    end
  done

(* --- intake --- *)

(* Inserts [l] into the first [n] literals of [t.intake], kept sorted
   and distinct; the new count. *)
let insert t n l =
  if n = Array.length t.intake then begin
    let a = Array.make (2 * n) 0 in
    Array.blit t.intake 0 a 0 n;
    t.intake <- a
  end;
  let buf = t.intake in
  let j = ref (n - 1) in
  while !j >= 0 && buf.(!j) > l do
    decr j
  done;
  if !j >= 0 && buf.(!j) = l then n
  else begin
    Array.blit buf (!j + 1) buf (!j + 2) (n - !j - 1);
    buf.(!j + 1) <- l;
    n + 1
  end

let rec intake_sorted t n = function
  | [] -> n
  | l :: rest ->
    if l = 0 || abs l > t.n_vars then
      invalid_arg (Printf.sprintf "Sat: unknown literal %d" l);
    intake_sorted t (insert t n l) rest

(* Appends the first [m] literals of [t.intake] as a clause. *)
let append ~activation t m =
  push t ((m lsl 2) lor if activation then activation_bit else 0);
  for k = 0 to m - 1 do
    push t t.intake.(k)
  done;
  t.n_clauses <- t.n_clauses + 1;
  if activation then t.n_activation <- t.n_activation + 1;
  t.n_lits <- t.n_lits + m;
  t.sorted <- None

(* Whether the [n] sorted literals of [buf] hold a literal and its
   negation.  Negatives precede positives, so walking the negatives
   backwards and the positives forwards meets both in increasing
   variable order. *)
let tautology buf n =
  let p = ref 0 in
  while !p < n && buf.(!p) < 0 do
    incr p
  done;
  let i = ref (!p - 1) and j = ref !p and found = ref false in
  while (not !found) && !i >= 0 && !j < n do
    let a = -buf.(!i) and b = buf.(!j) in
    if a = b then found := true else if a < b then decr i else incr j
  done;
  !found

let add_clause ~activation t lits =
  if not t.unsat then begin
    let n = intake_sorted t 0 lits in
    let buf = t.intake in
    let dropped = ref (tautology buf n) and m = ref 0 in
    for k = 0 to n - 1 do
      match value t buf.(k) with
      | 1 -> dropped := true
      | 2 -> ()
      | _ ->
        buf.(!m) <- buf.(k);
        incr m
    done;
    if not !dropped then
      match !m with
      | 0 -> t.unsat <- true
      | 1 -> assign t buf.(0)
      | m -> append ~activation t m
  end

(* --- level-0 simplification --- *)

(* Deletes the clauses a fact satisfies and strips false literals in
   place, repeated while a pass finds new facts. *)
let strengthen t =
  let again = ref true in
  while !again && not t.unsat do
    let facts = t.n_facts in
    iter_live t (fun r ->
        if not t.unsat then begin
          let h = get t r in
          let len = h lsr 2 in
          let satisfied = ref false and n_false = ref 0 in
          for k = r + 1 to r + len do
            match value t (get t k) with
            | 1 -> satisfied := true
            | 2 -> incr n_false
            | _ -> ()
          done;
          if !satisfied then delete t r
          else if !n_false > 0 then begin
            let m = ref 0 in
            for k = r + 1 to r + len do
              let l = get t k in
              if value t l <> 2 then begin
                set t (r + 1 + !m) l;
                incr m
              end
            done;
            match !m with
            | 0 ->
              delete t r;
              t.unsat <- true
            | 1 ->
              delete t r;
              assign t (get t (r + 1))
            | m ->
              set t r ((m lsl 2) lor (h land activation_bit));
              set t (r + 1 + m) (m - len);
              t.n_lits <- t.n_lits - (len - m);
              t.sorted <- None
          end
        end);
    again := t.n_facts > facts
  done

let rec bit_length n = if n = 0 then 0 else 1 + bit_length (n lsr 1)

(* The live clauses in normal order: a stable LSD counting sort, one
   pass per literal position, last position first, where the digit of
   a clause too short for the position is 0 and the literal [l] is
   [l - lo + 1].  Digits span the observed literal range when its
   counts fit in the clauses' size, and are bytes otherwise.  A pass
   that puts every clause in one bucket is skipped.  Equal clauses end
   up adjacent, oldest first. *)
let sort_live t =
  let n = t.n_clauses in
  let src = Array.make n 0 in
  let q = ref 0 and lo = ref max_int and hi = ref min_int and width = ref 0 in
  iter_live t (fun r ->
      let len = length t r in
      src.(!q) <- r;
      incr q;
      if len > 0 then begin
        lo := min !lo (get t (r + 1));
        hi := max !hi (get t (r + len))
      end;
      width := max !width len);
  if n < 2 || !width = 0 then src
  else begin
    let lo = !lo in
    let bits = bit_length (!hi - lo + 1) in
    let digit_bits = if 1 lsl bits <= max 256 t.n_lits then bits else 8 in
    let passes = (bits + digit_bits - 1) / digit_bits in
    let mask = (1 lsl digit_bits) - 1 in
    let count = Array.make (mask + 2) 0 in
    let digit r k shift =
      if k < length t r then ((get t (r + 1 + k) - lo + 1) lsr shift) land mask
      else 0
    in
    let src = ref src and dst = ref (Array.make n 0) in
    for k = !width - 1 downto 0 do
      for p = 0 to passes - 1 do
        let shift = p * digit_bits and s = !src in
        Array.fill count 0 (mask + 2) 0;
        for q = 0 to n - 1 do
          let d = digit s.(q) k shift in
          count.(d + 1) <- count.(d + 1) + 1
        done;
        if count.(digit s.(0) k shift + 1) < n then begin
          for d = 1 to mask + 1 do
            count.(d) <- count.(d) + count.(d - 1)
          done;
          let d' = !dst in
          for q = 0 to n - 1 do
            let r = s.(q) in
            let d = digit r k shift in
            d'.(count.(d)) <- r;
            count.(d) <- count.(d) + 1
          done;
          src := d';
          dst := s
        end
      done
    done;
    !src
  end

let equal t a b =
  let len = length t a in
  len = length t b
  &&
  let rec go k = k > len || (get t (a + k) = get t (b + k) && go (k + 1)) in
  go 1

(* is clause [a] a subset of clause [b]? (both sorted) *)
let subset t a b =
  let ea = a + length t a and eb = b + length t b in
  let rec go i j =
    if i > ea then true
    else if eb - j < ea - i then false
    else
      let x = get t i and y = get t j in
      if x = y then go (i + 1) (j + 1)
      else if x > y then go i (j + 1)
      else false
  in
  go (a + 1) (b + 1)

(* Duplicate elimination and subsumption: of clauses with equal literal
   sets the newest stays, and every clause with a strict subset of at
   most 8 literals among the others goes.  Duplicates are adjacent in
   normal order; subsets are found through the occurrence list of the
   subsumer's rarest literal, one array indexed by literal slot: slot
   [x] occurs in [occ.(start.(x)) .. occ.(start.(x + 1) - 1)]. *)
let dedup_and_subsume t =
  let order = sort_live t in
  for q = 0 to Array.length order - 2 do
    if equal t order.(q) order.(q + 1) then delete t order.(q)
  done;
  let slots = (2 * t.n_vars) + 2 in
  let start = Array.make (slots + 1) 0 in
  let each_lit f =
    Array.iter
      (fun r ->
        if live t r then
          for k = r + 1 to r + length t r do
            f r (slot (get t k))
          done)
      order
  in
  each_lit (fun _ x -> start.(x) <- start.(x) + 1);
  for x = 1 to slots do
    start.(x) <- start.(x) + start.(x - 1)
  done;
  let occ = Array.make start.(slots) 0 in
  each_lit (fun r x ->
      start.(x) <- start.(x) - 1;
      occ.(start.(x)) <- r);
  let size x = start.(x + 1) - start.(x) in
  Array.iter
    (fun i ->
      let len = length t i in
      if live t i && len <= 8 then begin
        let rarest = ref (slot (get t (i + 1))) in
        for k = i + 2 to i + len do
          let x = slot (get t k) in
          if size x < size !rarest then rarest := x
        done;
        for o = start.(!rarest) to start.(!rarest + 1) - 1 do
          let j = occ.(o) in
          if j <> i && live t j && length t j > len && subset t i j then
            delete t j
        done
      end)
    order;
  t.sorted <- Some order

let simplify t =
  let before = t.n_clauses in
  if not t.unsat then begin
    strengthen t;
    if not t.unsat then dedup_and_subsume t
  end;
  max 0 (before - t.n_clauses)

(* --- export --- *)

(* Facts are unit clauses: a fact sorts before the first clause whose
   first literal is not below it. *)
let export_flat t =
  let order =
    match t.sorted with
    | Some o -> o
    | None ->
      let o = sort_live t in
      t.sorted <- Some o;
      o
  in
  let facts = Array.sub t.facts 0 t.n_facts in
  Array.sort Int.compare facts;
  let n = Bool.to_int t.unsat + t.n_facts + t.n_clauses in
  let offsets = Array.make (n + 1) 0 in
  let lits = Array.make (t.n_facts + t.n_lits) 0 in
  let m = ref 0 and top = ref 0 and f = ref 0 in
  let close () =
    incr m;
    offsets.(!m) <- !top
  in
  let facts_upto bound =
    while !f < t.n_facts && facts.(!f) <= bound do
      lits.(!top) <- facts.(!f);
      incr top;
      incr f;
      close ()
    done
  in
  if t.unsat then close ();
  Array.iter
    (fun r ->
      if live t r then begin
        if length t r > 0 then facts_upto (get t (r + 1));
        for k = r + 1 to r + length t r do
          lits.(!top) <- get t k;
          incr top
        done;
        close ()
      end)
    order;
  facts_upto max_int;
  { n_vars = t.n_vars; offsets; lits }

(* compares [lits.(a) .. lits.(ea - 1)] with [lits.(b) .. lits.(eb - 1)]
   as lists *)
let rec compare_lits lits a ea b eb =
  if a = ea then if b = eb then 0 else -1
  else if b = eb then 1
  else
    let c = Int.compare lits.(a) lits.(b) in
    if c <> 0 then c else compare_lits lits (a + 1) ea (b + 1) eb

let rec increasing lits k stop =
  k >= stop || (lits.(k - 1) < lits.(k) && increasing lits (k + 1) stop)

let is_normal { offsets; lits; _ } =
  let n = Array.length offsets - 1 in
  let rec from i =
    i = n
    || increasing lits (offsets.(i) + 1) offsets.(i + 1)
       && (i = 0
          || compare_lits lits offsets.(i - 1) offsets.(i) offsets.(i)
               offsets.(i + 1)
             <= 0)
       && from (i + 1)
  in
  from 0

(* A store holding the clauses of [cnf], oldest first, without
   simplification: a clause's repeated literals are merged, level-0
   values are not read or kept. *)
let load (cnf : flat) =
  let t = create () in
  t.n_vars <- cnf.n_vars;
  for i = 0 to Array.length cnf.offsets - 2 do
    let m = ref 0 in
    for k = cnf.offsets.(i) to cnf.offsets.(i + 1) - 1 do
      m := insert t !m cnf.lits.(k)
    done;
    append ~activation:false t !m
  done;
  t

let normalize cnf = if is_normal cnf then cnf else export_flat (load cnf)
