(* CDCL solver.  Internal literal encoding: lit = 2*var for the positive
   literal, 2*var+1 for the negative one ("negated if odd"), so arrays
   can be indexed by literal directly.  External literals are ±var.

   Clauses live in one growable [int array], the arena (MiniSat's region
   layout, Eén & Sörensson 2003).  A clause is the offset of its header
   cell:

     arena.(c)             size lsl 3, lor the learnt / activation /
                           deleted bits
     arena.(c + 1)         index of the clause's activity in [acts]
     arena.(c + 2 ..)      the [size] literals; the first two are
                           watched

   Offset 0 is a deleted empty clause, [no_clause]: it stands for "no
   reason".  A deleted clause stays in the arena as garbage until
   [compact] copies the live ones into a fresh arena. *)

let learnt_bit = 1
let activation_bit = 2 (* activation-literal guard, not problem structure *)
let deleted_bit = 4
let size_shift = 3
let no_clause = 0

(* A growable int vector, [size] entries live.  Watch vectors hold
   interleaved (clause, blocker) pairs, two cells per watcher. *)
type vec = { mutable data : int array; mutable size : int }

type t = {
  mutable n_vars : int;
  mutable arena : int array;
  mutable arena_size : int; (* cells in use *)
  mutable wasted : int; (* cells of deleted clauses *)
  mutable acts : float array; (* clause activities *)
  mutable n_acts : int;
  clauses : vec;
      (* problem clauses, oldest first; a deleted one stays until the
         next full simplification pass or compaction *)
  learnts : vec; (* learnt clauses, likewise *)
  mutable watches : vec array; (* indexed by internal literal *)
  mutable dirty : bool array;
      (* per literal: its watch vector may hold deleted clauses *)
  dirty_lits : vec; (* the literals marked in [dirty] *)
  mutable occ : vec array;
      (* per variable: a selector's occurrence vector (the clauses that
         mention it), [no_occ] for every other variable *)
  mutable simplified : int;
      (* length of the level-0 trail prefix already seen by [simplify] *)
  mutable values : int array; (* per literal: 0 undef / 1 true / 2 false *)
  mutable level : int array;
  mutable reason : int array;
      (* per var, read only while it is assigned (backtracking leaves
         it stale): the implying clause, [no_clause] for decisions and
         units *)
  mutable activity : float array;
  mutable phase : bool array; (* saved polarity *)
  mutable heap : int array; (* binary max-heap of vars *)
  mutable heap_pos : int array; (* var -> index in heap, -1 if absent *)
  mutable heap_size : int;
  mutable trail : int array; (* internal literals in assignment order *)
  mutable trail_size : int;
  mutable trail_lim : int array; (* start of each decision level *)
  mutable trail_lim_size : int;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  mutable unsat : bool; (* top-level conflict detected *)
  mutable solved : result option;
  mutable seen : bool array; (* scratch for analyze *)
  mutable intake : int array; (* scratch for add_clause and simplify *)
  (* statistics *)
  mutable n_clauses : int;
  mutable n_activation : int; (* activation clauses among n_clauses *)
  mutable n_learnts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable conflicts : int;
  mutable restarts : int;
  mutable reductions : int; (* reduce_db calls *)
  mutable learnt_literals : int;
}

and result = Sat | Unsat

let var_decay = 1.0 /. 0.95
let cla_decay = 1.0 /. 0.999

(* compact once deleted clauses fill this share of the arena *)
let garbage_fraction = 0.2

let new_vec () = { data = [||]; size = 0 }

(* fills the slots of literals whose variable is not allocated yet, and
   the occurrence slots of variables that are not selectors; never
   written *)
let no_watches = new_vec ()
let no_occ = new_vec ()

let create () =
  let arena = Array.make 64 0 in
  arena.(0) <- deleted_bit;
  {
    n_vars = 0;
    arena;
    arena_size = 2;
    wasted = 0;
    acts = Array.make 16 0.0;
    n_acts = 1;
    clauses = new_vec ();
    learnts = new_vec ();
    watches = Array.make 18 no_watches;
    dirty = Array.make 18 false;
    dirty_lits = new_vec ();
    occ = Array.make 8 no_occ;
    simplified = 0;
    values = Array.make 18 0;
    level = Array.make 8 0;
    reason = Array.make 8 no_clause;
    activity = Array.make 8 0.0;
    phase = Array.make 8 false;
    heap = Array.make 8 0;
    heap_pos = Array.make 8 (-1);
    heap_size = 0;
    trail = Array.make 8 0;
    trail_size = 0;
    trail_lim = Array.make 8 0;
    trail_lim_size = 0;
    qhead = 0;
    var_inc = 1.0;
    cla_inc = 1.0;
    unsat = false;
    solved = None;
    seen = Array.make 8 false;
    intake = Array.make 8 0;
    n_clauses = 0;
    n_activation = 0;
    n_learnts = 0;
    decisions = 0;
    propagations = 0;
    conflicts = 0;
    restarts = 0;
    reductions = 0;
    learnt_literals = 0;
  }

(* literal helpers *)
let pos v = 2 * v
let neg_of l = l lxor 1
let var_of l = l / 2
let is_neg l = l land 1 = 1

let internal_of_ext s l =
  let v = abs l in
  if v = 0 || v > s.n_vars then
    invalid_arg (Printf.sprintf "Sat: unknown literal %d" l);
  if l > 0 then pos v else pos v + 1

let grow_array a n default =
  let len = Array.length a in
  if n <= len then a
  else begin
    let a' = Array.make (max n (2 * len)) default in
    Array.blit a 0 a' 0 len;
    a'
  end

let push v x =
  if v.size = Array.length v.data then
    v.data <- grow_array v.data (max 8 (v.size + 1)) 0;
  v.data.(v.size) <- x;
  v.size <- v.size + 1

(* keeps, in order, the entries of [v] that satisfy [keep] *)
let filter_vec keep v =
  let d = v.data in
  let j = ref 0 in
  for i = 0 to v.size - 1 do
    if keep d.(i) then begin
      d.(!j) <- d.(i);
      incr j
    end
  done;
  v.size <- !j

(* Grows every per-variable array to at least [n] slots and every
   per-literal one to at least [2n + 2].  [new_var] calls it only when
   [level] is full: per-literal arrays start at [2 * 8 + 2] and grow
   with the per-variable ones, so one check covers them all. *)
let grow_vars s n =
  let lits = (2 * n) + 2 in
  s.values <- grow_array s.values lits 0;
  s.level <- grow_array s.level n 0;
  s.reason <- grow_array s.reason n no_clause;
  s.activity <- grow_array s.activity n 0.0;
  s.phase <- grow_array s.phase n false;
  s.heap <- grow_array s.heap n 0;
  s.heap_pos <- grow_array s.heap_pos n (-1);
  s.trail <- grow_array s.trail n 0;
  s.trail_lim <- grow_array s.trail_lim n 0;
  s.seen <- grow_array s.seen n false;
  s.occ <- grow_array s.occ n no_occ;
  s.dirty <- grow_array s.dirty lits false;
  s.watches <- grow_array s.watches lits no_watches

let new_var s =
  let v = s.n_vars + 1 in
  s.n_vars <- v;
  let n = v + 1 in
  if n > Array.length s.level then
    grow_vars s (max n (2 * Array.length s.level));
  (* each literal's own vector is made here, with its variable, so
     growing the array stays a pointer copy *)
  s.watches.(pos v) <- new_vec ();
  s.watches.(pos v + 1) <- new_vec ();
  (* insert into the order heap *)
  s.heap.(s.heap_size) <- v;
  s.heap_pos.(v) <- s.heap_size;
  s.heap_size <- s.heap_size + 1;
  (* sift up not needed: activity 0 *)
  v

let new_selector s =
  let v = new_var s in
  s.occ.(v) <- new_vec ();
  v

let num_vars s = s.n_vars
let num_clauses s = s.n_clauses
let num_activation_clauses s = s.n_activation
let num_problem_clauses s = s.n_clauses - s.n_activation

(* value of an internal literal: 0 undef / 1 true / 2 false *)
let lit_value s l = s.values.(l)

(* --- clause arena --- *)

let clause_size s c = s.arena.(c) lsr size_shift
let is_deleted s c = s.arena.(c) land deleted_bit <> 0

(* Appends a clause of the first [n] literals of [lits]. *)
let alloc s flags lits n activity =
  let c = s.arena_size in
  let top = c + 2 + n in
  s.arena <- grow_array s.arena top 0;
  s.acts <- grow_array s.acts (s.n_acts + 1) 0.0;
  let a = s.arena in
  a.(c) <- (n lsl size_shift) lor flags;
  a.(c + 1) <- s.n_acts;
  s.acts.(s.n_acts) <- activity;
  s.n_acts <- s.n_acts + 1;
  Array.blit lits 0 a (c + 2) n;
  s.arena_size <- top;
  c

(* A selector's occurrence vector lists every clause that mentions it:
   guard clauses at intake, learnt clauses and strengthened copies. *)
let note_selectors s c =
  let a = s.arena in
  for k = c + 2 to c + 1 + clause_size s c do
    let o = s.occ.(var_of a.(k)) in
    if o != no_occ then push o c
  done

(* marks [l]'s watch vector for the next [clean_watches] *)
let smudge s l =
  if not s.dirty.(l) then begin
    s.dirty.(l) <- true;
    push s.dirty_lits l
  end

(* A deleted clause is watched by the negations of its first two
   literals; their vectors are smudged so the next cleanup drops it. *)
let delete s c =
  let a = s.arena in
  let h = a.(c) in
  a.(c) <- h lor deleted_bit;
  s.wasted <- s.wasted + 2 + (h lsr size_shift);
  if h land learnt_bit <> 0 then s.n_learnts <- s.n_learnts - 1
  else begin
    s.n_clauses <- s.n_clauses - 1;
    if h land activation_bit <> 0 then s.n_activation <- s.n_activation - 1
  end;
  smudge s (neg_of a.(c + 2));
  smudge s (neg_of a.(c + 3))

(* shrinks a watch vector left under a quarter full *)
let trim w =
  if 4 * w.size < Array.length w.data then w.data <- Array.sub w.data 0 w.size

(* Drops deleted clauses from the smudged watch vectors: [propagate]
   drops only those it reads, so without this a deleted clause watched
   by literals that never become true stays there for good. *)
let clean_watches s =
  for k = 0 to s.dirty_lits.size - 1 do
    let l = s.dirty_lits.data.(k) in
    s.dirty.(l) <- false;
    let w = s.watches.(l) and a = s.arena in
    let d = w.data in
    let j = ref 0 and i = ref 0 in
    while !i < w.size do
      let c = d.(!i) in
      if a.(c) land deleted_bit = 0 then begin
        d.(!j) <- c;
        d.(!j + 1) <- d.(!i + 1);
        j := !j + 2
      end;
      i := !i + 2
    done;
    w.size <- !j;
    trim w
  done;
  s.dirty_lits.size <- 0

(* Copies the live clauses into a fresh arena, problem clauses then
   learnt clauses, each in vector order, and relocates every reference:
   the two vectors, the watchers, the reasons of assigned variables and
   the occurrence vectors.  A moved clause's old header cell holds
   [lnot] of its new offset (negative), so a reference maps to its new
   offset, or to [no_clause] when the clause was deleted.  Watchers keep
   their order, so the search is unaffected. *)
let compact s =
  if Ilv_obs.Obs.enabled () then Ilv_obs.Obs.count "sat.compactions" 1;
  let old = s.arena and old_acts = s.acts in
  let arena = Array.make (s.arena_size - s.wasted) 0 in
  let acts = Array.make (1 + s.n_clauses + s.n_learnts) 0.0 in
  arena.(0) <- deleted_bit;
  let top = ref 2 and n_acts = ref 1 in
  let move v =
    let d = v.data in
    let j = ref 0 in
    for i = 0 to v.size - 1 do
      let c = d.(i) in
      let h = old.(c) in
      if h >= 0 && h land deleted_bit = 0 then begin
        let size = h lsr size_shift and c' = !top in
        arena.(c') <- h;
        arena.(c' + 1) <- !n_acts;
        acts.(!n_acts) <- old_acts.(old.(c + 1));
        Array.blit old (c + 2) arena (c' + 2) size;
        old.(c) <- lnot c';
        top := c' + 2 + size;
        incr n_acts;
        d.(!j) <- c';
        incr j
      end
    done;
    v.size <- !j
  in
  move s.clauses;
  move s.learnts;
  let reloc c =
    let h = old.(c) in
    if h < 0 then lnot h else no_clause
  in
  for l = 2 to (2 * s.n_vars) + 1 do
    let w = s.watches.(l) in
    let d = w.data in
    let j = ref 0 and i = ref 0 in
    while !i < w.size do
      let c = reloc d.(!i) in
      if c <> no_clause then begin
        d.(!j) <- c;
        d.(!j + 1) <- d.(!i + 1);
        j := !j + 2
      end;
      i := !i + 2
    done;
    w.size <- !j;
    trim w;
    s.dirty.(l) <- false
  done;
  s.dirty_lits.size <- 0;
  for i = 0 to s.trail_size - 1 do
    let v = var_of s.trail.(i) in
    s.reason.(v) <- reloc s.reason.(v)
  done;
  for v = 1 to s.n_vars do
    let o = s.occ.(v) in
    if o != no_occ then begin
      for k = 0 to o.size - 1 do
        o.data.(k) <- reloc o.data.(k)
      done;
      filter_vec (fun c -> c <> no_clause) o
    end
  done;
  s.arena <- arena;
  s.arena_size <- !top;
  s.wasted <- 0;
  s.acts <- acts;
  s.n_acts <- !n_acts

let collect_garbage s =
  if float_of_int s.wasted > garbage_fraction *. float_of_int s.arena_size
  then compact s
  else clean_watches s

(* --- order heap (max-heap on activity) ---

   Sifting moves a hole instead of swapping: the moving variable is
   written once, where it stops.  The comparisons are the strict [>] of
   a swap-based heap (in [sift_down], the right child wins only when
   strictly more active than the left), so ties break the same way and
   the decision order is that of a swap-based heap. *)

let sift_up s i =
  let heap = s.heap and pos = s.heap_pos and act = s.activity in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i in
  while !i > 0 && a > act.(heap.((!i - 1) / 2)) do
    let p = (!i - 1) / 2 in
    let u = heap.(p) in
    heap.(!i) <- u;
    pos.(u) <- !i;
    i := p
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let sift_down s i =
  let heap = s.heap and pos = s.heap_pos and act = s.activity in
  let size = s.heap_size in
  let v = heap.(i) in
  let a = act.(v) in
  let i = ref i and continue = ref true in
  while !continue do
    let l = (2 * !i) + 1 in
    if l >= size then continue := false
    else begin
      let r = l + 1 in
      let c =
        if r < size && act.(heap.(r)) > act.(heap.(l)) then r else l
      in
      let u = heap.(c) in
      if act.(u) > a then begin
        heap.(!i) <- u;
        pos.(u) <- !i;
        i := c
      end
      else continue := false
    end
  done;
  heap.(!i) <- v;
  pos.(v) <- !i

let heap_insert s v =
  if s.heap_pos.(v) = -1 then begin
    s.heap.(s.heap_size) <- v;
    s.heap_pos.(v) <- s.heap_size;
    s.heap_size <- s.heap_size + 1;
    sift_up s (s.heap_size - 1)
  end

let heap_pop s =
  let v = s.heap.(0) in
  s.heap_size <- s.heap_size - 1;
  s.heap_pos.(v) <- -1;
  if s.heap_size > 0 then begin
    s.heap.(0) <- s.heap.(s.heap_size);
    sift_down s 0
  end;
  v

(* --- activities --- *)

let rescale_var_activity s =
  for v = 1 to s.n_vars do
    s.activity.(v) <- s.activity.(v) *. 1e-100
  done;
  s.var_inc <- s.var_inc *. 1e-100

let bump_var s v =
  s.activity.(v) <- s.activity.(v) +. s.var_inc;
  if s.activity.(v) > 1e100 then rescale_var_activity s;
  if s.heap_pos.(v) >= 0 then sift_up s s.heap_pos.(v)

let decay_var_activity s = s.var_inc <- s.var_inc *. var_decay

(* Between incremental queries: raise the increment so the next query's
   conflict bumps dwarf activity accumulated by earlier (retired)
   queries.  Stale order survives only as a tie-break, which is the
   fresh-solver behaviour heterogeneous sibling queries want, while a
   hot frame variable re-earns its rank in a few conflicts.  The
   rescale guard keeps repeated aging from overflowing. *)
let age_activity s =
  s.var_inc <- s.var_inc *. 1e20;
  if s.var_inc > 1e100 then rescale_var_activity s

(* Problem clauses are bumped too (they take part in conflicts), and a
   bump past the bound rescales the learnt clauses' activities. *)
let bump_clause s c =
  let acts = s.acts and a = s.arena in
  let k = a.(c + 1) in
  acts.(k) <- acts.(k) +. s.cla_inc;
  if acts.(k) > 1e20 then begin
    let v = s.learnts in
    for i = 0 to v.size - 1 do
      let k = a.(v.data.(i) + 1) in
      acts.(k) <- acts.(k) *. 1e-20
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let decay_clause_activity s = s.cla_inc <- s.cla_inc *. cla_decay

(* --- assignment --- *)

let decision_level s = s.trail_lim_size

let enqueue s l reason =
  let v = var_of l in
  s.values.(l) <- 1;
  s.values.(neg_of l) <- 2;
  s.level.(v) <- decision_level s;
  s.reason.(v) <- reason;
  s.phase.(v) <- not (is_neg l);
  s.trail.(s.trail_size) <- l;
  s.trail_size <- s.trail_size + 1

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = s.trail_lim.(lvl) in
    for i = s.trail_size - 1 downto bound do
      let l = s.trail.(i) in
      s.values.(l) <- 0;
      s.values.(neg_of l) <- 0;
      heap_insert s (var_of l)
    done;
    s.trail_size <- bound;
    s.qhead <- bound;
    s.trail_lim_size <- lvl
  end

(* --- propagation --- *)

exception Conflict of int

let watch s l c blocker =
  let w = s.watches.(l) in
  (* sizes and capacities are even: a watcher fills two cells *)
  if w.size = Array.length w.data then
    w.data <- grow_array w.data (max 8 (w.size + 2)) 0;
  w.data.(w.size) <- c;
  w.data.(w.size + 1) <- blocker;
  w.size <- w.size + 2

(* Each watched literal's watcher starts with the other one as blocker. *)
let attach s c =
  let a = s.arena in
  let l0 = a.(c + 2) and l1 = a.(c + 3) in
  watch s (neg_of l0) c l1;
  watch s (neg_of l1) c l0

(* Propagate all enqueued facts; raises [Conflict] on a falsified
   clause.  A clause is in the watch vector of [l] when the
   *falsification* of one of its watched literals should trigger a
   visit, i.e. clause c is watched by the negations of its first two
   literals.  The vector of the literal being propagated is compacted
   in place: a watcher moved to a new literal, or of a deleted clause,
   leaves it.  A watcher whose blocker is true is kept without reading
   the clause. *)
let propagate s =
  let values = s.values and a = s.arena in
  while s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = neg_of p in
    let ws = s.watches.(p) in
    let d = ws.data and n = ws.size in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = d.(!i) and blocker = d.(!i + 1) in
      i := !i + 2;
      if values.(blocker) = 1 then begin
        d.(!j) <- c;
        d.(!j + 1) <- blocker;
        j := !j + 2
      end
      else begin
        let h = a.(c) in
        if h land deleted_bit = 0 then begin
          (* make sure the false literal (neg p) is at position 1 *)
          let l0 = c + 2 in
          if a.(l0) = false_lit then begin
            a.(l0) <- a.(l0 + 1);
            a.(l0 + 1) <- false_lit
          end;
          let first = a.(l0) in
          if first <> blocker && values.(first) = 1 then begin
            (* satisfied by the other watch: keep it as the blocker *)
            d.(!j) <- c;
            d.(!j + 1) <- first;
            j := !j + 2
          end
          else begin
            (* the first literal from position 2 on that is not false *)
            let stop = l0 + (h lsr size_shift) in
            let k = ref (l0 + 2) in
            while !k < stop && values.(a.(!k)) = 2 do
              incr k
            done;
            if !k < stop then begin
              let l = a.(!k) in
              a.(l0 + 1) <- l;
              a.(!k) <- false_lit;
              watch s (neg_of l) c first
            end
            else begin
              (* unit or conflicting *)
              d.(!j) <- c;
              d.(!j + 1) <- first;
              j := !j + 2;
              if values.(first) = 2 then begin
                (* conflict: keep the unvisited watchers before raising *)
                let rest = n - !i in
                Array.blit d !i d !j rest;
                ws.size <- !j + rest;
                s.qhead <- s.trail_size;
                raise (Conflict c)
              end
              else enqueue s first c
            end
          end
        end
      end
    done;
    ws.size <- !j
  done

(* --- clause addition (level 0 only) --- *)

(* Inserts the literals into [s.intake] after its first [n] (sorted)
   ones, keeping them sorted and dropping duplicates; the new count. *)
let rec intake_sorted s n = function
  | [] -> n
  | x :: rest ->
    let l = internal_of_ext s x in
    if n = Array.length s.intake then s.intake <- grow_array s.intake (n + 1) 0;
    let buf = s.intake in
    let j = ref (n - 1) in
    while !j >= 0 && buf.(!j) > l do
      decr j
    done;
    if !j >= 0 && buf.(!j) = l then intake_sorted s n rest
    else begin
      Array.blit buf (!j + 1) buf (!j + 2) (n - !j - 1);
      buf.(!j + 1) <- l;
      intake_sorted s (n + 1) rest
    end

(* The literals are insertion-sorted into the [intake] scratch array,
   dropping duplicates, so a stored clause lists its literals in
   increasing internal order.  A literal and its negation are then
   adjacent, which makes the tautology test one comparison per
   literal; one pass also drops literals false at level 0 and spots a
   true one (the clause is satisfied). *)
let add_clause ?(activation = false) s ext_lits =
  (* incremental use: drop any previous search state and model *)
  cancel_until s 0;
  s.solved <- None;
  if not s.unsat then begin
    let n = intake_sorted s 0 ext_lits in
    let buf = s.intake in
    let dropped = ref false and live = ref 0 in
    for k = 0 to n - 1 do
      let l = buf.(k) in
      if k > 0 && buf.(k - 1) = neg_of l then dropped := true;
      match lit_value s l with
      | 1 -> dropped := true
      | 2 -> ()
      | _ ->
        (* [live <= k], and slots below [k] are not read again *)
        buf.(!live) <- l;
        incr live
    done;
    if not !dropped then
      match !live with
      | 0 -> s.unsat <- true
      | 1 -> begin
        enqueue s buf.(0) no_clause;
        try propagate s with Conflict _ -> s.unsat <- true
      end
      | live ->
        let c =
          alloc s (if activation then activation_bit else 0) buf live 0.0
        in
        push s.clauses c;
        s.n_clauses <- s.n_clauses + 1;
        if activation then s.n_activation <- s.n_activation + 1;
        attach s c;
        note_selectors s c
  end

(* --- level-0 simplification --- *)

(* Duplicate elimination and backward subsumption over the live problem
   clauses.  The rule: of clauses with equal literal sets the newest
   stays, and every clause with a strict subset of at most 8 literals
   among the others goes.  That set does not depend on the order
   clauses are visited in: a clause removed as a superset only has
   supersets that its own (shorter, surviving) subsumer also removes.

   Everything is flat arrays, so the pass allocates a handful of
   blocks however many clauses there are: clause [i]'s sorted literals
   are [lits.(off.(i)) .. lits.(off.(i + 1) - 1)] (clauses numbered
   newest first); duplicates are found by open addressing on a
   multiplicative hash; occurrence lists are one array indexed like
   [lits] (CSR); and a 63-bit signature (one bit per literal modulo 63)
   rules most candidate pairs out before the subset test reads them. *)
let dedup_and_subsume s =
  let v = s.clauses and a = s.arena in
  let n = ref 0 in
  for k = 0 to v.size - 1 do
    if not (is_deleted s v.data.(k)) then incr n
  done;
  let n = !n in
  let cls = Array.make n no_clause in
  let off = Array.make (n + 1) 0 in
  let i = ref 0 in
  for k = v.size - 1 downto 0 do
    let c = v.data.(k) in
    if not (is_deleted s c) then begin
      cls.(!i) <- c;
      off.(!i + 1) <- off.(!i) + clause_size s c;
      incr i
    end
  done;
  let lits = Array.make off.(n) 0 in
  for i = 0 to n - 1 do
    (* insertion sort while copying: clauses are short *)
    let lo = off.(i) and c = cls.(i) in
    for k = 0 to clause_size s c - 1 do
      let x = a.(c + 2 + k) in
      let j = ref (lo + k - 1) in
      while !j >= lo && lits.(!j) > x do
        lits.(!j + 1) <- lits.(!j);
        decr j
      done;
      lits.(!j + 1) <- x
    done
  done;
  let len i = off.(i + 1) - off.(i) in
  let equal i j =
    len i = len j
    &&
    let d = off.(j) - off.(i) in
    let rec go k = k = off.(i + 1) || (lits.(k) = lits.(k + d) && go (k + 1)) in
    go off.(i)
  in
  (* is clause [i] a subset of clause [j]? (both sorted) *)
  let subset i j =
    let ei = off.(i + 1) and ej = off.(j + 1) in
    let rec go a b =
      if a = ei then true
      else if ej - b < ei - a then false
      else if lits.(a) = lits.(b) then go (a + 1) (b + 1)
      else if lits.(a) > lits.(b) then go a (b + 1)
      else false
    in
    go off.(i) off.(j)
  in
  (* duplicates: the first clause of each literal set claims its slot *)
  let bits =
    let rec log2 b = if 1 lsl b >= 2 * n then b else log2 (b + 1) in
    log2 4
  in
  let table = Array.make (1 lsl bits) (-1) in
  for i = 0 to n - 1 do
    let h = ref (len i) in
    for k = off.(i) to off.(i + 1) - 1 do
      h := (!h lxor lits.(k)) * 0x9E3779B97F4A7C1
    done;
    let rec probe slot =
      let j = table.(slot) in
      if j < 0 then table.(slot) <- i
      else if equal i j then delete s cls.(i)
      else probe ((slot + 1) land ((1 lsl bits) - 1))
    in
    probe (!h lsr (63 - bits))
  done;
  (* occurrences of the survivors: literal [l] occurs in clauses
     [occ.(start.(l)) .. occ.(start.(l + 1) - 1)] *)
  let n_lits = (2 * s.n_vars) + 2 in
  let start = Array.make (n_lits + 1) 0 in
  for i = 0 to n - 1 do
    if not (is_deleted s cls.(i)) then
      for k = off.(i) to off.(i + 1) - 1 do
        start.(lits.(k) + 1) <- start.(lits.(k) + 1) + 1
      done
  done;
  for l = 1 to n_lits do
    start.(l) <- start.(l) + start.(l - 1)
  done;
  let occ = Array.make start.(n_lits) 0 in
  let fill = Array.sub start 0 n_lits in
  for i = 0 to n - 1 do
    if not (is_deleted s cls.(i)) then
      for k = off.(i) to off.(i + 1) - 1 do
        occ.(fill.(lits.(k))) <- i;
        fill.(lits.(k)) <- fill.(lits.(k)) + 1
      done
  done;
  let sigs =
    Array.init n (fun i ->
        let sg = ref 0 in
        for k = off.(i) to off.(i + 1) - 1 do
          sg := !sg lor (1 lsl (lits.(k) mod 63))
        done;
        !sg)
  in
  for i = 0 to n - 1 do
    if (not (is_deleted s cls.(i))) && len i <= 8 then begin
      let size l = start.(l + 1) - start.(l) in
      let rarest = ref lits.(off.(i)) in
      for k = off.(i) + 1 to off.(i + 1) - 1 do
        if size lits.(k) < size !rarest then rarest := lits.(k)
      done;
      for o = start.(!rarest) to start.(!rarest + 1) - 1 do
        let j = occ.(o) in
        if
          j <> i
          && (not (is_deleted s cls.(j)))
          && len j > len i
          && sigs.(i) land lnot sigs.(j) = 0
          && subset i j
        then delete s cls.(j)
      done
    end
  done

(* The full linear pass: removal of satisfied clauses and stripping of
   false literals, repeated until strengthening stops producing new
   level-0 units.  Each vector is walked newest first.  A strengthened
   clause is a new clause, attached afresh (so the watch invariant
   holds), that takes the old one's place in its vector and its
   activity. *)
let strengthen_all s =
  let changed = ref true in
  while !changed do
    changed := false;
    let strengthen v =
      for i = v.size - 1 downto 0 do
        let c = v.data.(i) in
        if not (s.unsat || is_deleted s c) then begin
          let a = s.arena in
          let n = clause_size s c in
          let satisfied = ref false and n_false = ref 0 in
          for k = c + 2 to c + 1 + n do
            match lit_value s a.(k) with
            | 1 -> satisfied := true
            | 2 -> incr n_false
            | _ -> ()
          done;
          if !satisfied then delete s c
          else if !n_false > 0 then begin
            delete s c;
            changed := true;
            s.intake <- grow_array s.intake n 0;
            let live = s.intake and m = ref 0 in
            for k = c + 2 to c + 1 + n do
              if lit_value s a.(k) <> 2 then begin
                live.(!m) <- a.(k);
                incr m
              end
            done;
            match !m with
            | 0 -> s.unsat <- true
            | 1 ->
              enqueue s live.(0) no_clause;
              (try propagate s with Conflict _ -> s.unsat <- true)
            | m ->
              let h = a.(c) in
              let c' =
                alloc s
                  (h land (learnt_bit lor activation_bit))
                  live m
                  s.acts.(a.(c + 1))
              in
              if h land learnt_bit <> 0 then s.n_learnts <- s.n_learnts + 1
              else begin
                s.n_clauses <- s.n_clauses + 1;
                if h land activation_bit <> 0 then
                  s.n_activation <- s.n_activation + 1
              end;
              attach s c';
              note_selectors s c';
              v.data.(i) <- c'
          end
        end
      done
    in
    strengthen s.clauses;
    strengthen s.learnts
  done

(* The retire pass.  Every live clause is free of level-0 literals once
   a simplification has run: intake and learning drop them, and each
   pass deletes or strengthens the clauses holding the units it sees.
   So when every level-0 unit since the last pass is a selector, the
   only clauses to touch are in those selectors' occurrence vectors.
   Each one that a unit satisfies is deleted; one that would need
   strengthening (it holds a selector's false literal and no true one)
   makes the pass give up.  Returns whether it finished; when it did
   not, the clauses it deleted were satisfied, so the full pass still
   reaches the state it would have reached alone. *)
let retire_units s =
  let bound = s.trail_size in
  let ok = ref true in
  for i = s.simplified to bound - 1 do
    if s.occ.(var_of s.trail.(i)) == no_occ then ok := false
  done;
  let i = ref s.simplified in
  while !ok && !i < bound do
    let o = s.occ.(var_of s.trail.(!i)) in
    let k = ref 0 in
    while !ok && !k < o.size do
      let c = o.data.(!k) in
      if not (is_deleted s c) then begin
        let a = s.arena in
        let satisfied = ref false in
        for q = c + 2 to c + 1 + clause_size s c do
          if lit_value s a.(q) = 1 then satisfied := true
        done;
        if !satisfied then delete s c else ok := false
      end;
      incr k
    done;
    incr i
  done;
  !ok

(* SatELite-lite: runs only at decision level 0.  Unit propagation to
   fixpoint, then either the retire pass ([~subsume:false] with only
   selector units since the last call) or the full linear pass, then
   (with [subsume]) duplicate elimination and backward subsumption over
   the problem clauses ([dedup_and_subsume]).  Deleting a clause that
   is the reason of a level-0 assignment is safe: conflict analysis
   never dereferences level-0 reasons, and level 0 is never
   backtracked; the new units' reasons are cleared anyway, so
   [reduce_db] treats the clauses alike whichever pass deleted them.
   A unit's occurrence vector is released once seen: no clause can
   mention its variable again. *)
let simplify ?(subsume = true) s =
  cancel_until s 0;
  s.solved <- None;
  let before = s.n_clauses + s.n_learnts in
  if not s.unsat then begin
    (try propagate s with Conflict _ -> s.unsat <- true);
    if (not s.unsat) && (subsume || not (retire_units s)) then begin
      if (not subsume) && Ilv_obs.Obs.enabled () then
        Ilv_obs.Obs.count "sat.retire_fallbacks" 1;
      strengthen_all s;
      if subsume && not s.unsat then dedup_and_subsume s;
      let live c = not (is_deleted s c) in
      filter_vec live s.clauses;
      filter_vec live s.learnts
    end;
    for i = s.simplified to s.trail_size - 1 do
      let v = var_of s.trail.(i) in
      s.reason.(v) <- no_clause;
      let o = s.occ.(v) in
      if o != no_occ then begin
        o.data <- [||];
        o.size <- 0
      end
    done;
    s.simplified <- s.trail_size
  end;
  collect_garbage s;
  max 0 (before - (s.n_clauses + s.n_learnts))

(* --- conflict analysis (first UIP) --- *)

let analyze s confl =
  let learnt = ref [] in
  let seen = s.seen in
  let counter = ref 0 in
  let p = ref (-1) in
  let first = ref true in
  let bt_level = ref 0 in
  let c = ref confl in
  let index = ref (s.trail_size - 1) in
  let continue = ref true in
  while !continue do
    bump_clause s !c;
    let a = s.arena in
    (* skip the first literal on subsequent rounds: it is the literal
       we just resolved on (the reason clause's propagated literal) *)
    let start = if !first then 0 else 1 in
    first := false;
    for i = !c + 2 + start to !c + 1 + clause_size s !c do
      let q = a.(i) in
      let v = var_of q in
      if (not seen.(v)) && s.level.(v) > 0 then begin
        seen.(v) <- true;
        bump_var s v;
        if s.level.(v) >= decision_level s then incr counter
        else begin
          learnt := q :: !learnt;
          if s.level.(v) > !bt_level then bt_level := s.level.(v)
        end
      end
    done;
    (* find the next literal on the trail that is marked *)
    let rec next_marked i =
      if seen.(var_of s.trail.(i)) then i else next_marked (i - 1)
    in
    index := next_marked !index;
    let q = s.trail.(!index) in
    let v = var_of q in
    seen.(v) <- false;
    decr counter;
    index := !index - 1;
    if !counter = 0 then begin
      p := q;
      continue := false
    end
    else begin
      let r = s.reason.(v) in
      (* decision variables end the loop via counter *)
      assert (r <> no_clause);
      (* orient so that the first literal is q, skipped in the next
         round *)
      let l0 = r + 2 in
      if a.(l0) <> q then begin
        let j = ref l0 in
        for i = l0 to l0 + clause_size s r - 1 do
          if a.(i) = q then j := i
        done;
        a.(!j) <- a.(l0);
        a.(l0) <- q
      end;
      c := r
    end
  done;
  let learnt_lits = neg_of !p :: !learnt in
  List.iter (fun l -> seen.(var_of l) <- false) !learnt;
  (Array.of_list learnt_lits, !bt_level)

let record_learnt s lits =
  s.learnt_literals <- s.learnt_literals + Array.length lits;
  if Array.length lits = 1 then enqueue s lits.(0) no_clause
  else begin
    (* watch the asserting literal and one literal from the backtrack
       level (position of max level among lits.(1..)) *)
    let maxi = ref 1 in
    for i = 2 to Array.length lits - 1 do
      if s.level.(var_of lits.(i)) > s.level.(var_of lits.(!maxi)) then
        maxi := i
    done;
    let tmp = lits.(1) in
    lits.(1) <- lits.(!maxi);
    lits.(!maxi) <- tmp;
    let c = alloc s learnt_bit lits (Array.length lits) 0.0 in
    push s.learnts c;
    s.n_learnts <- s.n_learnts + 1;
    bump_clause s c;
    attach s c;
    note_selectors s c;
    enqueue s lits.(0) c
  end

(* --- learnt clause DB reduction --- *)

let locked s c =
  (* a clause that is the reason of a current assignment must stay *)
  let l = s.arena.(c + 2) in
  lit_value s l = 1 && s.reason.(var_of l) = c

(* Deletes half of the learnt clauses, least active first, sparing
   reasons and binary clauses.  [Array.sort] is not stable, so ties
   fall as the input order makes them: the learnts go in newest
   first. *)
let reduce_db s =
  let v = s.learnts in
  filter_vec (fun c -> not (is_deleted s c)) v;
  let n = v.size in
  let arr = Array.init n (fun i -> v.data.(n - 1 - i)) in
  let acts = s.acts and a = s.arena in
  Array.sort
    (fun x y -> Float.compare acts.(a.(x + 1)) acts.(a.(y + 1)))
    arr;
  let kill = ref (n / 2) in
  Array.iteri
    (fun i c ->
      if i < n / 2 && !kill > 0 && (not (locked s c)) && clause_size s c > 2
      then begin
        delete s c;
        decr kill
      end)
    arr;
  filter_vec (fun c -> not (is_deleted s c)) v;
  s.n_learnts <- v.size;
  s.reductions <- s.reductions + 1;
  collect_garbage s

(* --- search --- *)

(* Luby restart sequence 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 ...; [x] is the
   0-based index (classic MiniSat formulation). *)
let luby x =
  let rec grow size seq = if size < x + 1 then grow ((2 * size) + 1) (seq + 1) else (size, seq) in
  let rec locate size seq x =
    if size - 1 = x then seq
    else begin
      let size = (size - 1) / 2 in
      locate size (seq - 1) (x mod size)
    end
  in
  let size, seq = grow 1 0 in
  1 lsl locate size seq x

let pick_branch_var s =
  let rec go () =
    if s.heap_size = 0 then 0
    else begin
      let v = heap_pop s in
      if s.values.(pos v) = 0 then v else go ()
    end
  in
  go ()

(* --- resource limits --- *)

type limit = {
  max_conflicts : int option;
  max_wall_s : float option;
  deadline_s : float option;
}

let no_limit = { max_conflicts = None; max_wall_s = None; deadline_s = None }

let limit ?conflicts ?wall_s ?deadline_s () =
  { max_conflicts = conflicts; max_wall_s = wall_s; deadline_s }

(* The absolute group deadline's reason, timestamped so a sweep log
   shows when the query was cut off, not just that it was.  "deadline:"
   is the structured sentinel {!Ilv_core.Checker.is_deadline_reason}
   keys on — free-form budget prose (including anything containing
   "timeout:") must never alias it. *)
let deadline_sentinel = "deadline:"

let deadline_reason d =
  Printf.sprintf "%s group deadline %.3f exceeded at %.3f (epoch s)"
    deadline_sentinel d (Unix.gettimeofday ())

let scale_limit factor l =
  {
    max_conflicts = Option.map (fun n -> n * factor) l.max_conflicts;
    max_wall_s = Option.map (fun w -> w *. float_of_int factor) l.max_wall_s;
    (* an absolute deadline never scales: escalation retries may grow
       their per-call budgets, but the group's wall clock is fixed *)
    deadline_s = l.deadline_s;
  }

type outcome = Result of result | Unknown of string

(* Incremental solving: re-solvable after further add_clause calls.
   Assumptions are installed as the first decision levels (the MiniSat
   scheme): whenever the decision level is below the number of
   assumptions, the next assumption literal is decided (or a fresh
   level is opened if it already holds); an assumption found false
   makes the instance unsat *under the assumptions*.

   Limits are per-call and soft: they are checked between propagation
   rounds, so the solver may overshoot by one BCP pass. *)
let solve_bounded ?(assumptions = []) ?(limit = no_limit) s =
  cancel_until s 0;
  s.solved <- None;
  let assumption_lits =
    Array.of_list (List.map (internal_of_ext s) assumptions)
  in
  let conflicts0 = s.conflicts and propagations0 = s.propagations in
  let decisions0 = s.decisions and restarts0 = s.restarts in
  let reductions0 = s.reductions in
  let t_start = Unix.gettimeofday () in
  let deadline =
    Option.map (fun w -> Unix.gettimeofday () +. w) limit.max_wall_s
  in
  let exhausted () =
    match limit.max_conflicts with
    | Some b when s.conflicts - conflicts0 >= b ->
      Some (Printf.sprintf "conflict budget exhausted (%d)" b)
    | _ -> (
      match deadline with
      | Some d when Unix.gettimeofday () > d ->
        Some
          (Printf.sprintf "deadline exceeded (%.3fs)"
             (Option.get limit.max_wall_s))
      | _ -> (
        match limit.deadline_s with
        | Some d when Unix.gettimeofday () > d -> Some (deadline_reason d)
        | _ -> None))
  in
  let result =
    if s.unsat then Result Unsat
    else begin
      try
        propagate s;
        let restart_count = ref 0 in
        let answer = ref None in
        let new_level () =
          (* assumptions that already hold open placeholder levels, so
             there can be more levels than variables *)
          s.trail_lim <- grow_array s.trail_lim (s.trail_lim_size + 1) 0;
          s.trail_lim.(s.trail_lim_size) <- s.trail_size;
          s.trail_lim_size <- s.trail_lim_size + 1
        in
        while !answer = None do
          let conflict_budget = 64 * luby !restart_count in
          incr restart_count;
          let conflicts_here = ref 0 in
          (try
             while !answer = None && !conflicts_here < conflict_budget do
               (match exhausted () with
               | Some reason -> answer := Some (Unknown reason)
               | None -> ());
               if !answer <> None then ()
               else
               match
                 (try
                    propagate s;
                    None
                  with Conflict c -> Some c)
               with
               | Some confl ->
                 s.conflicts <- s.conflicts + 1;
                 incr conflicts_here;
                 if decision_level s = 0 then begin
                   (* conflict below every decision: unconditionally
                      unsatisfiable.  Latch it — the propagation queue
                      is already past the falsified clause, so without
                      the flag a later solve on this solver would never
                      revisit it and could answer a bogus [Sat]. *)
                   s.unsat <- true;
                   answer := Some (Result Unsat)
                 end
                 else if decision_level s <= Array.length assumption_lits
                 then
                   (* the conflict depends only on assumptions *)
                   answer := Some (Result Unsat)
                 else begin
                   let learnt, bt = analyze s confl in
                   (* backjumps may undo assumption levels; the decision
                      loop re-establishes them *)
                   cancel_until s bt;
                   record_learnt s learnt;
                   decay_var_activity s;
                   decay_clause_activity s;
                   if s.n_learnts > 4000 + (2 * s.n_clauses) then
                     reduce_db s
                 end
               | None ->
                 if decision_level s < Array.length assumption_lits then begin
                   let l = assumption_lits.(decision_level s) in
                   match lit_value s l with
                   | 1 -> new_level () (* already holds: placeholder level *)
                   | 2 -> answer := Some (Result Unsat)
                   | _ ->
                     new_level ();
                     enqueue s l no_clause
                 end
                 else begin
                   let v = pick_branch_var s in
                   if v = 0 then answer := Some (Result Sat)
                   else begin
                     s.decisions <- s.decisions + 1;
                     new_level ();
                     let l = if s.phase.(v) then pos v else pos v + 1 in
                     enqueue s l no_clause
                   end
                 end
             done
           with Conflict _ -> assert false);
          if !answer = None then begin
            (* restart, keeping the assumption prefix *)
            s.restarts <- s.restarts + 1;
            cancel_until s (min (decision_level s) (Array.length assumption_lits))
          end
        done;
        (match !answer with Some r -> r | None -> assert false)
      with Conflict _ ->
        (* escapes only from level-0 propagation (initial, or a learnt
           unit's fallout): latch like the in-loop level-0 case *)
        if decision_level s = 0 then s.unsat <- true;
        Result Unsat
    end
  in
  (match result with
  | Result r -> s.solved <- Some r
  | Unknown _ ->
    (* give up cleanly: no model, and the next solve starts fresh *)
    cancel_until s 0;
    s.solved <- None);
  if Ilv_obs.Obs.enabled () then begin
    let open Ilv_obs.Obs in
    let decisions = s.decisions - decisions0
    and conflicts = s.conflicts - conflicts0
    and propagations = s.propagations - propagations0
    and restarts = s.restarts - restarts0
    and reductions = s.reductions - reductions0 in
    event "sat.solve"
      [
        ( "outcome",
          S
            (match result with
            | Result Sat -> "sat"
            | Result Unsat -> "unsat"
            | Unknown reason -> "unknown: " ^ reason) );
        ("decisions", I decisions);
        ("conflicts", I conflicts);
        ("propagations", I propagations);
        ("restarts", I restarts);
        ("learnts", I s.n_learnts);
        ("reductions", I reductions);
        ("n_vars", I s.n_vars);
        ("n_clauses", I s.n_clauses);
        ("n_problem_clauses", I (s.n_clauses - s.n_activation));
        ("n_activation_clauses", I s.n_activation);
        ("limited", B (limit != no_limit));
        ("dur_s", F (Unix.gettimeofday () -. t_start));
      ];
    count "sat.solves" 1;
    count "sat.decisions" decisions;
    count "sat.conflicts" conflicts;
    count "sat.propagations" propagations;
    count "sat.restarts" restarts;
    count "sat.reductions" reductions
  end;
  result

let solve ?assumptions s =
  match solve_bounded ?assumptions ~limit:no_limit s with
  | Result r -> r
  | Unknown _ -> assert false (* impossible without a limit *)

let value s v =
  match s.solved with
  | Some Sat ->
    if v < 1 || v > s.n_vars then invalid_arg "Sat.value: unknown variable";
    s.values.(pos v) = 1
  | Some Unsat | None -> invalid_arg "Sat.value: no model available"

let export s =
  let ext l = (if is_neg l then -1 else 1) * var_of l in
  let level0_bound =
    if s.trail_lim_size > 0 then s.trail_lim.(0) else s.trail_size
  in
  let units = List.init level0_bound (fun i -> [ ext s.trail.(i) ]) in
  let clauses = ref [] in
  for i = s.clauses.size - 1 downto 0 do
    let c = s.clauses.data.(i) in
    if not (is_deleted s c) then
      clauses :=
        List.init (clause_size s c) (fun k -> ext s.arena.(c + 2 + k))
        :: !clauses
  done;
  let clauses = !clauses in
  (* a top-level conflict discovered during clause addition has no
     stored witness clause: export it as the empty clause *)
  let contradiction = if s.unsat then [ [] ] else [] in
  (s.n_vars, contradiction @ units @ clauses)

type stats = {
  decisions : int;
  propagations : int;
  conflicts : int;
  restarts : int;
  learnt_literals : int;
}

let stats (s : t) =
  {
    decisions = s.decisions;
    propagations = s.propagations;
    conflicts = s.conflicts;
    restarts = s.restarts;
    learnt_literals = s.learnt_literals;
  }
