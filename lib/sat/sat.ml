(* CDCL solver.  Internal literal encoding: lit = 2*var for the positive
   literal, 2*var+1 for the negative one ("negated if odd"), so arrays
   can be indexed by literal directly.  External literals are ±var. *)

type clause = {
  lits : int array; (* internal encoding; lits.(0), lits.(1) are watched *)
  learnt : bool;
  activation : bool; (* activation-literal guard, not problem structure *)
  mutable activity : float;
  mutable deleted : bool;
}

(* The watchers of one literal (MiniSat 2.2 layout): parallel vectors of
   clauses and blocker literals, [size] entries live.  A blocker is some
   other literal of its clause; while it is true the clause is satisfied
   and [propagate] skips it without reading the clause. *)
type watches = {
  mutable wclauses : clause array;
  mutable blockers : int array;
  mutable size : int;
}

type t = {
  mutable n_vars : int;
  mutable clauses : clause list; (* problem clauses *)
  mutable learnts : clause list;
  mutable watches : watches array; (* indexed by internal literal *)
  mutable values : int array; (* per literal: 0 undef / 1 true / 2 false *)
  mutable level : int array;
  mutable reason : clause array;
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
  mutable intake : int array; (* scratch for add_clause *)
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

(* fills watch-vector slots past [size], so they keep no clause alive,
   and stands for "no reason" in [reason] *)
let no_clause =
  {
    lits = [||];
    learnt = false;
    activation = false;
    activity = 0.0;
    deleted = true;
  }

let new_watches () = { wclauses = [||]; blockers = [||]; size = 0 }

(* fills the slots of literals whose variable is not allocated yet *)
let no_watches = new_watches ()

let create () =
  {
    n_vars = 0;
    clauses = [];
    learnts = [];
    watches = Array.make 16 no_watches;
    values = Array.make 16 0;
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

let new_var s =
  let v = s.n_vars + 1 in
  s.n_vars <- v;
  let n = v + 1 in
  s.values <- grow_array s.values ((2 * n) + 2) 0;
  s.level <- grow_array s.level n 0;
  s.reason <- grow_array s.reason n no_clause;
  s.activity <- grow_array s.activity n 0.0;
  s.phase <- grow_array s.phase n false;
  s.heap <- grow_array s.heap n 0;
  s.heap_pos <- grow_array s.heap_pos n (-1);
  s.trail <- grow_array s.trail n 0;
  s.trail_lim <- grow_array s.trail_lim n 0;
  s.seen <- grow_array s.seen n false;
  (* each literal's own vector is made here, with its variable, so
     growing the array stays a pointer copy *)
  s.watches <- grow_array s.watches ((2 * n) + 2) no_watches;
  s.watches.(pos v) <- new_watches ();
  s.watches.(pos v + 1) <- new_watches ();
  (* insert into the order heap *)
  s.heap.(s.heap_size) <- v;
  s.heap_pos.(v) <- s.heap_size;
  s.heap_size <- s.heap_size + 1;
  (* sift up not needed: activity 0 *)
  v

let num_vars s = s.n_vars
let num_clauses s = s.n_clauses
let num_activation_clauses s = s.n_activation
let num_problem_clauses s = s.n_clauses - s.n_activation

(* value of an internal literal: 0 undef / 1 true / 2 false *)
let lit_value s l = s.values.(l)

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

let bump_clause s (c : clause) =
  c.activity <- c.activity +. s.cla_inc;
  if c.activity > 1e20 then begin
    List.iter (fun (c : clause) -> c.activity <- c.activity *. 1e-20) s.learnts;
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

exception Conflict of clause

let watch s l c blocker =
  let w = s.watches.(l) in
  if w.size = Array.length w.wclauses then begin
    let cap = max 4 (2 * w.size) in
    let cs = Array.make cap no_clause and bs = Array.make cap 0 in
    Array.blit w.wclauses 0 cs 0 w.size;
    Array.blit w.blockers 0 bs 0 w.size;
    w.wclauses <- cs;
    w.blockers <- bs
  end;
  w.wclauses.(w.size) <- c;
  w.blockers.(w.size) <- blocker;
  w.size <- w.size + 1

(* Each watched literal's watcher starts with the other one as blocker. *)
let attach s c =
  watch s (neg_of c.lits.(0)) c c.lits.(1);
  watch s (neg_of c.lits.(1)) c c.lits.(0)

(* Drops deleted clauses from every watch vector: [propagate] drops only
   those it reads, so without this a deleted clause watched by literals
   that never become true stays reachable for good.  Clears the slots
   past each vector's end, and shrinks a vector left under a quarter
   full. *)
let purge_watches s =
  for l = 2 to (2 * s.n_vars) + 1 do
    let w = s.watches.(l) in
    let cs = w.wclauses and bs = w.blockers in
    let j = ref 0 in
    for i = 0 to w.size - 1 do
      if not cs.(i).deleted then begin
        cs.(!j) <- cs.(i);
        bs.(!j) <- bs.(i);
        incr j
      end
    done;
    w.size <- !j;
    if 4 * !j < Array.length cs then begin
      w.wclauses <- Array.sub cs 0 !j;
      w.blockers <- Array.sub bs 0 !j
    end
    else Array.fill cs !j (Array.length cs - !j) no_clause
  done

(* index of the first literal of [lits] from [i] on that is not false,
   or -1 *)
let rec find_watch s lits i =
  if i >= Array.length lits then -1
  else if lit_value s lits.(i) <> 2 then i
  else find_watch s lits (i + 1)

(* Propagate all enqueued facts; raises [Conflict] on a falsified
   clause.  A clause is in the watch vector of [l] when the
   *falsification* of one of its watched literals should trigger a
   visit, i.e. clause c is watched by neg c.lits.(0) and neg c.lits.(1).
   The vector of the literal being propagated is compacted in place: a
   watcher moved to a new literal, or of a deleted clause, leaves it.
   A kept clause is stored back only once an earlier watcher has left
   ([!j < !i - 1]): storing a pointer into the array costs a write
   barrier. *)
let propagate s =
  while s.qhead < s.trail_size do
    let p = s.trail.(s.qhead) in
    s.qhead <- s.qhead + 1;
    s.propagations <- s.propagations + 1;
    let false_lit = neg_of p in
    let ws = s.watches.(p) in
    let cs = ws.wclauses and bs = ws.blockers and n = ws.size in
    let i = ref 0 and j = ref 0 in
    while !i < n do
      let c = cs.(!i) and blocker = bs.(!i) in
      incr i;
      if lit_value s blocker = 1 then begin
        if !j < !i - 1 then begin
          cs.(!j) <- c;
          bs.(!j) <- blocker
        end;
        incr j
      end
      else if not c.deleted then begin
        (* make sure the false literal (neg p) is at position 1 *)
        let lits = c.lits in
        if lits.(0) = false_lit then begin
          lits.(0) <- lits.(1);
          lits.(1) <- false_lit
        end;
        let first = lits.(0) in
        if first <> blocker && lit_value s first = 1 then begin
          (* satisfied by the other watch: keep it as the blocker *)
          if !j < !i - 1 then cs.(!j) <- c;
          bs.(!j) <- first;
          incr j
        end
        else begin
          let k = find_watch s lits 2 in
          if k >= 0 then begin
            lits.(1) <- lits.(k);
            lits.(k) <- false_lit;
            watch s (neg_of lits.(1)) c first
          end
          else begin
            (* unit or conflicting *)
            if !j < !i - 1 then cs.(!j) <- c;
            bs.(!j) <- first;
            incr j;
            if lit_value s first = 2 then begin
              (* conflict: keep the unvisited watchers before raising *)
              let rest = n - !i in
              if !j < !i then begin
                Array.blit cs !i cs !j rest;
                Array.blit bs !i bs !j rest
              end;
              ws.size <- !j + rest;
              s.qhead <- s.trail_size;
              raise (Conflict c)
            end
            else enqueue s first c
          end
        end
      end
    done;
    ws.size <- !j
  done

(* --- clause addition (level 0 only) --- *)

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
    let n = ref 0 in
    List.iter
      (fun x ->
        let l = internal_of_ext s x in
        if !n = Array.length s.intake then
          s.intake <- grow_array s.intake (!n + 1) 0;
        let buf = s.intake in
        let j = ref (!n - 1) in
        while !j >= 0 && buf.(!j) > l do
          decr j
        done;
        if !j < 0 || buf.(!j) <> l then begin
          Array.blit buf (!j + 1) buf (!j + 2) (!n - !j - 1);
          buf.(!j + 1) <- l;
          incr n
        end)
      ext_lits;
    let buf = s.intake in
    let dropped = ref false and live = ref 0 in
    for k = 0 to !n - 1 do
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
          {
            lits = Array.sub buf 0 live;
            learnt = false;
            activation;
            activity = 0.0;
            deleted = false;
          }
        in
        s.clauses <- c :: s.clauses;
        s.n_clauses <- s.n_clauses + 1;
        if activation then s.n_activation <- s.n_activation + 1;
        attach s c
  end

(* --- level-0 simplification --- *)

(* Duplicate elimination and backward subsumption over the live problem
   clauses.  The rule: of clauses with equal literal sets the first in
   [s.clauses] order stays, and every clause with a strict subset of at
   most 8 literals among the others goes.  That set does not depend on
   the order clauses are visited in: a clause removed as a superset
   only has supersets that its own (shorter, surviving) subsumer also
   removes.

   Everything is flat arrays, so the pass allocates a handful of
   blocks however many clauses there are: clause [i]'s sorted literals
   are [lits.(off.(i)) .. lits.(off.(i + 1) - 1)]; duplicates are found
   by open addressing on a multiplicative hash; occurrence lists are
   one array indexed like [lits] (CSR); and a 63-bit signature (one bit
   per literal modulo 63) rules most candidate pairs out before the
   subset test reads them. *)
let dedup_and_subsume s delete =
  let n =
    List.fold_left (fun n c -> if c.deleted then n else n + 1) 0 s.clauses
  in
  let cls = Array.make n no_clause in
  let off = Array.make (n + 1) 0 in
  let i = ref 0 in
  List.iter
    (fun c ->
      if not c.deleted then begin
        cls.(!i) <- c;
        off.(!i + 1) <- off.(!i) + Array.length c.lits;
        incr i
      end)
    s.clauses;
  let lits = Array.make off.(n) 0 in
  for i = 0 to n - 1 do
    (* insertion sort while copying: clauses are short *)
    let lo = off.(i) in
    Array.iteri
      (fun k x ->
        let j = ref (lo + k - 1) in
        while !j >= lo && lits.(!j) > x do
          lits.(!j + 1) <- lits.(!j);
          decr j
        done;
        lits.(!j + 1) <- x)
      cls.(i).lits
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
      else if equal i j then delete cls.(i)
      else probe ((slot + 1) land ((1 lsl bits) - 1))
    in
    probe (!h lsr (63 - bits))
  done;
  (* occurrences of the survivors: literal [l] occurs in clauses
     [occ.(start.(l)) .. occ.(start.(l + 1) - 1)] *)
  let n_lits = (2 * s.n_vars) + 2 in
  let start = Array.make (n_lits + 1) 0 in
  for i = 0 to n - 1 do
    if not cls.(i).deleted then
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
    if not cls.(i).deleted then
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
    if (not cls.(i).deleted) && len i <= 8 then begin
      let size l = start.(l + 1) - start.(l) in
      let rarest = ref lits.(off.(i)) in
      for k = off.(i) + 1 to off.(i + 1) - 1 do
        if size lits.(k) < size !rarest then rarest := lits.(k)
      done;
      for o = start.(!rarest) to start.(!rarest + 1) - 1 do
        let j = occ.(o) in
        if
          j <> i
          && (not cls.(j).deleted)
          && len j > len i
          && sigs.(i) land lnot sigs.(j) = 0
          && subset i j
        then delete cls.(j)
      done
    end
  done

(* SatELite-lite: runs only at decision level 0.  Unit propagation to
   fixpoint, removal of satisfied clauses, stripping of false literals
   (rebuilding the clause so the watch invariant holds), then duplicate
   elimination and backward subsumption over the problem clauses
   ([dedup_and_subsume]).  Deleting a clause that is the reason of a
   level-0 assignment is safe: conflict analysis never dereferences
   level-0 reasons, and level 0 is never backtracked; reasons are
   cleared anyway for hygiene.  [~subsume:false] skips the
   dedup/subsumption stage and keeps only the linear propagation
   passes — cheap enough to run between incremental queries, where its
   job is shedding clauses satisfied by retire units rather than deep
   preprocessing. *)
let simplify ?(subsume = true) s =
  cancel_until s 0;
  s.solved <- None;
  let before = s.n_clauses + s.n_learnts in
  let delete c =
    c.deleted <- true;
    if c.learnt then s.n_learnts <- s.n_learnts - 1
    else begin
      s.n_clauses <- s.n_clauses - 1;
      if c.activation then s.n_activation <- s.n_activation - 1
    end
  in
  let count_in c =
    if c.learnt then s.n_learnts <- s.n_learnts + 1
    else begin
      s.n_clauses <- s.n_clauses + 1;
      if c.activation then s.n_activation <- s.n_activation + 1
    end
  in
  if not s.unsat then begin
    (try propagate s with Conflict _ -> s.unsat <- true);
    (* satisfied-clause removal + false-literal stripping, repeated
       until strengthening stops producing new level-0 units *)
    let changed = ref (not s.unsat) in
    while !changed do
      changed := false;
      let strengthen kept c =
        if s.unsat || c.deleted then kept
        else begin
          let lits = c.lits in
          let n = Array.length lits in
          let satisfied = ref false and n_false = ref 0 in
          for i = 0 to n - 1 do
            match lit_value s lits.(i) with
            | 1 -> satisfied := true
            | 2 -> incr n_false
            | _ -> ()
          done;
          if !satisfied then begin
            delete c;
            kept
          end
          else if !n_false = 0 then c :: kept
          else begin
            delete c;
            changed := true;
            let live = Array.make (n - !n_false) 0 in
            let k = ref 0 in
            Array.iter
              (fun l ->
                if lit_value s l <> 2 then begin
                  live.(!k) <- l;
                  incr k
                end)
              lits;
            match live with
            | [||] ->
              s.unsat <- true;
              kept
            | [| l |] ->
              enqueue s l no_clause;
              (try propagate s with Conflict _ -> s.unsat <- true);
              kept
            | _ ->
              let c' = { c with lits = live; deleted = false } in
              count_in c';
              attach s c';
              c' :: kept
          end
        end
      in
      s.clauses <- List.rev (List.fold_left strengthen [] s.clauses);
      s.learnts <- List.rev (List.fold_left strengthen [] s.learnts)
    done;
    (* level-0 reasons are never inspected again; drop the pointers so
       deleted clauses can be collected *)
    let level0_bound =
      if s.trail_lim_size > 0 then s.trail_lim.(0) else s.trail_size
    in
    for i = 0 to level0_bound - 1 do
      s.reason.(var_of s.trail.(i)) <- no_clause
    done;
    if subsume && not s.unsat then dedup_and_subsume s delete
  end;
  purge_watches s;
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
    let lits = !c.lits in
    (* skip lits.(0) on subsequent rounds: it is the literal we just
       resolved on (the reason clause's propagated literal) *)
    let start = if !first then 0 else 1 in
    first := false;
    for i = start to Array.length lits - 1 do
      let q = lits.(i) in
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
      assert (r != no_clause);
      (* orient so that lits.(0) is q, skipped in the next round *)
      if r.lits.(0) <> q then begin
        let j = ref 0 in
        Array.iteri (fun i l -> if l = q then j := i) r.lits;
        r.lits.(!j) <- r.lits.(0);
        r.lits.(0) <- q
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
    let c =
      { lits; learnt = true; activation = false; activity = 0.0; deleted = false }
    in
    s.learnts <- c :: s.learnts;
    s.n_learnts <- s.n_learnts + 1;
    bump_clause s c;
    attach s c;
    enqueue s lits.(0) c
  end

(* --- learnt clause DB reduction --- *)

let locked s c =
  (* a clause that is the reason of a current assignment must stay *)
  lit_value s c.lits.(0) = 1 && s.reason.(var_of c.lits.(0)) == c

let reduce_db s =
  let arr = Array.of_list s.learnts in
  Array.sort (fun (a : clause) (b : clause) -> compare a.activity b.activity) arr;
  let n = Array.length arr in
  let kill = ref (n / 2) in
  Array.iteri
    (fun i c ->
      if i < n / 2 && !kill > 0 && (not (locked s c)) && Array.length c.lits > 2
      then begin
        c.deleted <- true;
        decr kill
      end)
    arr;
  s.learnts <- List.filter (fun c -> not c.deleted) s.learnts;
  s.n_learnts <- List.length s.learnts;
  s.reductions <- s.reductions + 1;
  purge_watches s

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
  max_propagations : int option;
  max_wall_s : float option;
  deadline_s : float option;
}

let no_limit =
  {
    max_conflicts = None;
    max_propagations = None;
    max_wall_s = None;
    deadline_s = None;
  }

let limit ?conflicts ?propagations ?wall_s ?deadline_s () =
  {
    max_conflicts = conflicts;
    max_propagations = propagations;
    max_wall_s = wall_s;
    deadline_s;
  }

let scale_limit factor l =
  let scale = Option.map (fun n -> n * factor) in
  {
    max_conflicts = scale l.max_conflicts;
    max_propagations = scale l.max_propagations;
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
      match limit.max_propagations with
      | Some b when s.propagations - propagations0 >= b ->
        Some (Printf.sprintf "propagation budget exhausted (%d)" b)
      | _ -> (
        match deadline with
        | Some d when Unix.gettimeofday () > d ->
          Some
            (Printf.sprintf "deadline exceeded (%.3fs)"
               (Option.get limit.max_wall_s))
        | _ -> (
          (* the absolute group deadline, timestamped so a sweep log
             shows when the query was cut off, not just that it was.
             "deadline:" is the structured sentinel
             {!Ilv_core.Checker.is_deadline_reason} keys on — free-form
             budget prose (including anything containing "timeout:")
             must never alias it *)
          match limit.deadline_s with
          | Some d when Unix.gettimeofday () > d ->
            Some
              (Printf.sprintf
                 "deadline: group deadline %.3f exceeded at %.3f (epoch s)" d
                 (Unix.gettimeofday ()))
          | _ -> None)))
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
  let clauses =
    List.rev_map
      (fun c -> Array.to_list (Array.map ext c.lits))
      (List.filter (fun c -> not c.deleted) s.clauses)
  in
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
