(* Host-speed calibration.

   On a shared host the speed of this process drifts by tens of percent
   over tens of seconds, while the ratio between two CPU- and
   memory-bound computations run side by side on the same thread stays
   within a few percent.  So timings are taken in windows of about a
   quarter second, each bracketed by a fixed reference computation
   (bench code that calls nothing of the verifier), and every time in a
   window is scaled by [reference_s] / (mean of the two bracketing
   reference times).  Reported times are what the operation takes when
   the reference takes [reference_s]; the raw wall-clock figures are
   printed beside them.

   The reference allocates nothing on the OCaml heap: its arrays are
   made once, when the bench starts.  So it never starts a minor
   collection or a major slice, and its time does not depend on the
   heap or the collector debt the verifier leaves behind.  An allocating
   reference would pay off that debt, slow down exactly when a change
   makes the verifier allocate more, and hide part of that change. *)

let now = Unix.gettimeofday
let reference_s = 0.020
let window_s = 0.25

let n_keys = 67_000
let slots = 131_072
let table = Array.make slots 0
let values = Array.make slots 0
let keys = Array.make n_keys 0

let slot k = (k * 0x9E3779B1) land (slots - 1)

(* linear probing: the slot holding [k], or the empty one it would take *)
let rec find k h =
  if table.(h) = -1 || table.(h) = k then h else find k ((h + 1) land (slots - 1))

(* in place, without allocating (Array.sort allocates an exception per
   sift) *)
let rec quicksort a lo hi =
  if lo < hi then begin
    let p = a.((lo + hi) / 2) in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while a.(!i) < p do incr i done;
      while a.(!j) > p do decr j done;
      if !i <= !j then begin
        let t = a.(!i) in
        a.(!i) <- a.(!j);
        a.(!j) <- t;
        incr i;
        decr j
      end
    done;
    quicksort a lo !j;
    quicksort a !i hi
  end

(* Hash-table inserts, a sort and lookups over 2.6 MB of arrays: about
   20 ms on an idle 2.1 GHz Xeon core. *)
let reference () =
  Array.fill table 0 slots (-1);
  let st = ref 42 in
  for i = 0 to n_keys - 1 do
    st := ((!st * 1103515245) + 12345) land 0x3FFFFFFF;
    let k = !st mod 1_000_000 in
    let h = find k (slot k) in
    table.(h) <- k;
    values.(h) <- i;
    keys.(i) <- k lxor i
  done;
  quicksort keys 0 (n_keys - 1);
  let acc = ref 0 in
  for i = 0 to n_keys - 1 do
    let k = keys.(i) in
    let h = find k (slot k) in
    acc := !acc + if table.(h) = k then values.(h) else 1
  done;
  !acc

let time_reference () =
  let t0 = now () in
  ignore (Sys.opaque_identity (reference ()));
  now () -. t0

(* An operation is timed in pieces (a sweep: one piece per design), and
   a window closes only between pieces, so a long operation spans
   several windows. *)
type meter = {
  mutable before : float;  (** reference time opening the open window *)
  mutable start : float;
  mutable pending : (int * float) list;  (** operation, raw piece time *)
  kinds : (int, string) Hashtbl.t;
  scaled : (int, float) Hashtbl.t;
  raw : (int, float) Hashtbl.t;
  mutable busy_s : float;  (** scaled time of the closed windows *)
  mutable refs : float list;
}

let meter () =
  let before = time_reference () in
  {
    before;
    start = now ();
    pending = [];
    kinds = Hashtbl.create 1024;
    scaled = Hashtbl.create 1024;
    raw = Hashtbl.create 1024;
    busy_s = 0.0;
    refs = [ before ];
  }

let bump tbl k v = Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* Call between pieces. *)
let close m =
  if m.pending <> [] then begin
    let wall = now () -. m.start in
    let after = time_reference () in
    let f = reference_s /. ((m.before +. after) /. 2.0) in
    List.iter
      (fun (op, dt) ->
        bump m.scaled op (dt *. f);
        bump m.raw op dt)
      m.pending;
    m.busy_s <- m.busy_s +. (wall *. f);
    m.pending <- [];
    m.before <- after;
    m.refs <- after :: m.refs
  end;
  m.start <- now ()

(* Times [f] as a piece of operation [op], closes the window when it is
   due, and returns [f]'s result with its wall-clock seconds. *)
let piece m ~op kind f =
  let t0 = now () in
  let r = f () in
  let dt = now () -. t0 in
  Hashtbl.replace m.kinds op kind;
  m.pending <- (op, dt) :: m.pending;
  if now () -. m.start >= window_s then close m;
  (r, dt)

(* (kind, scaled seconds) and raw seconds per operation *)
let results m =
  close m;
  let ops = Hashtbl.fold (fun op kind acc -> (op, kind) :: acc) m.kinds [] in
  ( List.map (fun (op, kind) -> (kind, Hashtbl.find m.scaled op)) ops,
    List.map (fun (op, _) -> Hashtbl.find m.raw op) ops )
