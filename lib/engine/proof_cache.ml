open Ilv_core

(* /5: keys (and the version) grew an encoding-mode tag ("abstract"
   for the memory-abstraction rewrite, untagged for concrete), so a
   verdict established through the CEGAR window encoding can never
   alias a concrete entry even if their clause sets coincide.  /4: the
   entry file format grew a per-entry checksum (file format /2), so a
   torn or bit-rotted entry is detected on read instead of trusted.
   /3 keys were mode-tagged ("I;" for shared-frame incremental queries;
   the per-property "F;" scheme is gone, and its entries are
   unreachable).  Version bumps make older entries stale
   rather than silently unreachable. *)
let version = "ilaverif-engine/5"

(* File format /3: an entry holds its frame's digest, and the frame
   lives once in a blob.  Keys did not change, so neither did
   [version]: a /2 file under a live key is stale, and the next store
   overwrites it. *)
let magic = "ilaverif-proof-cache/3\n"

(* older file formats: well-formed entries in them are an expected
   leftover of an upgrade, not damage *)
let old_magics =
  [
    ( "ilaverif-proof-cache/1\n",
      "pre-checksum file format (ilaverif-proof-cache/1)" );
    ( "ilaverif-proof-cache/2\n",
      "CNF-carrying file format (ilaverif-proof-cache/2)" );
  ]

(* [spares]: names of the files in [<dir>/spare/] that this process
   may overwrite (see [clear]); forked workers get a copy, so a name
   may already be taken by another process. *)
type t = { cache_dir : string; mutable spares : string list }

let default_dir () =
  match Sys.getenv_opt "ILAVERIF_CACHE_DIR" with
  | Some d when d <> "" -> d
  | _ -> (
    match Sys.getenv_opt "XDG_CACHE_HOME" with
    | Some d when d <> "" -> Filename.concat d "ilaverif"
    | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some d when d <> "" ->
        Filename.concat (Filename.concat d ".cache") "ilaverif"
      | _ -> "_ilaverif_cache"))

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755
    with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Entries are sharded into 256 subdirectories by the first two hex
   characters of the key ([<dir>/ab/<key>.proof]).  Sharding keeps any
   single directory small, and — more importantly — gives each shard
   its own advisory lock file, so concurrent writers only contend when
   they race keys in the same 1/256th of the key space instead of
   serializing the whole cache behind one global lock. *)
let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')

let shard_of key =
  if String.length key >= 2 && is_hex key.[0] && is_hex key.[1] then
    String.sub key 0 2
  else "xx" (* defensive: keys are hex digests, but never crash on one
               that is not *)

let is_shard_name f =
  f = "xx" || (String.length f = 2 && is_hex f.[0] && is_hex f.[1])

let shard_dirs cache_dir =
  match Sys.readdir cache_dir with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f ->
           is_shard_name f
           && try Sys.is_directory (Filename.concat cache_dir f)
              with Sys_error _ -> false)
    |> List.sort compare
    |> List.map (Filename.concat cache_dir)

(* Startup recovery, part 1: a [.tmp-<pid>-<key>] file whose writer is
   no longer alive is a torn write from a crashed process — it never
   made it through the rename, so it holds no information worth
   keeping.  Live writers' temp files are left strictly alone. *)
let sweep_dead_tmp_in dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f ->
        if String.length f > 5 && String.sub f 0 5 = ".tmp-" then begin
          let rest = String.sub f 5 (String.length f - 5) in
          let pid =
            match String.index_opt rest '-' with
            | Some i -> int_of_string_opt (String.sub rest 0 i)
            | None -> None
          in
          let writer_dead =
            match pid with
            | None -> true (* malformed name: nobody owns it *)
            | Some p -> (
              match Unix.kill p 0 with
              | () -> false
              | exception Unix.Unix_error (Unix.ESRCH, _, _) -> true
              | exception Unix.Unix_error _ -> false)
          in
          if writer_dead then
            try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()
        end)
      files

let frames_dir_of cache_dir = Filename.concat cache_dir "frames"

let sweep_dead_tmp cache_dir =
  sweep_dead_tmp_in cache_dir;
  sweep_dead_tmp_in (frames_dir_of cache_dir);
  List.iter sweep_dead_tmp_in (shard_dirs cache_dir)

let spare_dir_of cache_dir = Filename.concat cache_dir "spare"

let open_ ?dir () =
  let cache_dir = match dir with Some d -> d | None -> default_dir () in
  mkdir_p cache_dir;
  sweep_dead_tmp cache_dir;
  let spares =
    try Array.to_list (Sys.readdir (spare_dir_of cache_dir))
    with Sys_error _ -> []
  in
  { cache_dir; spares }

let dir t = t.cache_dir
let spare_dir t = spare_dir_of t.cache_dir
let quarantine_dir t = Filename.concat t.cache_dir "quarantine"
let frames_dir t = frames_dir_of t.cache_dir

(* Quarantine, never delete: a corrupt entry is evidence (of a torn
   write, disk fault, or injected chaos) that an operator may want to
   inspect; moving it out of the key space is enough to stop it biasing
   lookups.  A rename within the same directory tree stays atomic. *)
let quarantine t path =
  mkdir_p (quarantine_dir t);
  let dest = Filename.concat (quarantine_dir t) (Filename.basename path) in
  match Sys.rename path dest with
  | () ->
    if Ilv_obs.Obs.enabled () then begin
      Ilv_obs.Obs.count "cache.quarantined" 1;
      Ilv_obs.Obs.event "cache.quarantine"
        [ ("file", Ilv_obs.Obs.S (Filename.basename path)) ]
    end;
    true
  | exception Sys_error _ -> false

let quarantined_count t =
  match Sys.readdir (quarantine_dir t) with
  | exception Sys_error _ -> 0
  | files -> Array.length files

(* Concurrent writers to the same shard serialize on that shard's
   advisory lock file.  Acquisition is *bounded*: [F_TLOCK] with a few
   jittered retries, never [F_LOCK] — an unbounded blocking lock lets a
   stalled or crashed-while-locked writer (or a lock file on a broken
   network filesystem) wedge every later store, turning an accelerator
   into a liveness hazard.  On sustained contention the writer proceeds
   WITHOUT the lock: the write stays atomic either way (temp file +
   rename), the lock only closes the benign window where two writers
   race the same key with different temp files and one rename wins. *)
let lock_attempts = 5

(* Pure, like [Pool.backoff_delay]: capped exponential base with
   deterministic jitter derived from [(key, attempt)], so the retry
   schedule is reproducible and two writers racing the same shard are
   still unlikely to retry in lock-step. *)
let lock_retry_delay ~key ~attempt =
  let base = Float.min (0.001 *. (2.0 ** float_of_int (attempt - 1))) 0.016 in
  let d = Digest.string (Printf.sprintf "cache-lock:%s:%d" key attempt) in
  let jitter = float_of_int (Char.code d.[0]) /. 255.0 *. 0.5 in
  base *. (1.0 +. jitter)

let with_lock t ~key f =
  let shard = Filename.concat t.cache_dir (shard_of key) in
  mkdir_p shard;
  let lock_path = Filename.concat shard ".lock" in
  match Unix.openfile lock_path [ Unix.O_RDWR; Unix.O_CREAT ] 0o644 with
  | exception Unix.Unix_error _ -> f ()
  | fd ->
    let rec acquire attempt =
      match Unix.lockf fd Unix.F_TLOCK 0 with
      | () -> true
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EACCES), _, _) ->
        if attempt >= lock_attempts then false
        else begin
          Unix.sleepf (lock_retry_delay ~key ~attempt);
          acquire (attempt + 1)
        end
      | exception Unix.Unix_error _ ->
        (* no lockf support here: fall through lock-free *)
        false
    in
    let locked = acquire 1 in
    if (not locked) && Ilv_obs.Obs.enabled () then begin
      Ilv_obs.Obs.count "cache.lock_contended" 1;
      Ilv_obs.Obs.event "cache.lock_contended"
        [ ("key", Ilv_obs.Obs.S key) ]
    end;
    Fun.protect
      ~finally:(fun () ->
        (try if locked then Unix.lockf fd Unix.F_ULOCK 0
         with Unix.Unix_error _ -> ());
        try Unix.close fd with Unix.Unix_error _ -> ())
      f

(* ---- frames ----

   A frame is a canonical CNF: literals sorted and deduplicated within
   each clause, clauses sorted.  Its serialization is what
   [frame_digest] hashes and what a frame blob holds, so both are
   computed at most once per frame, and its clauses are parsed back
   from the text only when an entry is re-solved. *)

type frame = { f_text : string Lazy.t; f_digest : string Lazy.t }

(* The canonical form of a flat CNF, written into a copy: clause [i]'s
   literals sorted and deduplicated in [c_lits.(c_offs.(i)) ..
   c_offs.(i + 1) - 1], and [c_order] the clauses in sorted order.  The
   order is [List.compare Int.compare] on the literal lists (a clause
   that is a prefix of another sorts first), reached by a stable LSD
   counting sort: one pass per literal position, last position first,
   where the digit of a clause too short for the position is 0 and the
   literal [l] is [l - lo + 1].  The count array is sized by the
   observed literal range [lo .. hi] when that is within the input's
   size, and digits are bytes otherwise, so a sparse range costs passes,
   not memory.  A pass that puts every clause in one bucket is
   skipped. *)
type canon = { c_lits : int array; c_offs : int array; c_order : int array }

let rec bit_length n = if n = 0 then 0 else 1 + bit_length (n lsr 1)

let canonicalize { Ilv_sat.Sat.offsets; lits; _ } =
  let n = Array.length offsets - 1 in
  let out = Array.make (Array.length lits) 0 in
  let offs = Array.make (n + 1) 0 in
  let lo = ref max_int and hi = ref min_int and width = ref 0 in
  for i = 0 to n - 1 do
    let start = offs.(i) in
    let m = ref 0 in
    for k = offsets.(i) to offsets.(i + 1) - 1 do
      (* insertion into the sorted distinct literals so far *)
      let x = lits.(k) in
      let j = ref (start + !m - 1) in
      while !j >= start && out.(!j) > x do
        decr j
      done;
      if !j < start || out.(!j) <> x then begin
        Array.blit out (!j + 1) out (!j + 2) (start + !m - !j - 1);
        out.(!j + 1) <- x;
        incr m
      end
    done;
    offs.(i + 1) <- start + !m;
    if !m > 0 then begin
      lo := min !lo out.(start);
      hi := max !hi out.(start + !m - 1);
      width := max !width !m
    end
  done;
  let order = Array.init n Fun.id in
  let order =
    if n < 2 || !width = 0 then order
    else begin
      let bits = bit_length (!hi - !lo + 1) in
      let digit_bits =
        if 1 lsl bits <= max 256 offs.(n) then bits else 8
      in
      let passes = (bits + digit_bits - 1) / digit_bits in
      let mask = (1 lsl digit_bits) - 1 in
      let count = Array.make ((1 lsl digit_bits) + 1) 0 in
      let digits = Array.make n 0 in
      let src = ref order and dst = ref (Array.make n 0) in
      for k = !width - 1 downto 0 do
        for p = 0 to passes - 1 do
          let shift = p * digit_bits in
          Array.fill count 0 (Array.length count) 0;
          for i = 0 to n - 1 do
            let o = offs.(i) + k in
            let d =
              if o < offs.(i + 1) then
                ((out.(o) - !lo + 1) lsr shift) land mask
              else 0
            in
            digits.(i) <- d;
            count.(d + 1) <- count.(d + 1) + 1
          done;
          if count.(digits.(0) + 1) < n then begin
            for d = 1 to mask + 1 do
              count.(d) <- count.(d) + count.(d - 1)
            done;
            let s = !src and t = !dst in
            for q = 0 to n - 1 do
              let i = s.(q) in
              let d = digits.(i) in
              t.(count.(d)) <- i;
              count.(d) <- count.(d) + 1
            done;
            src := t;
            dst := s
          end
        done
      done;
      !src
    end
  in
  { c_lits = out; c_offs = offs; c_order = order }

(* Text is written digit by digit into bytes sized exactly beforehand,
   with no intermediate strings. *)
let rec digits n =
  if n < 10 then 1
  else if n < 100 then 2
  else if n < 1000 then 3
  else 3 + digits (n / 1000)
let int_width n = if n < 0 then 1 + digits (-n) else digits n

(* writes [n] at [pos]; returns the position after it *)
let put_int b pos n =
  let w = int_width n in
  let rec go p m =
    Bytes.set b p (Char.chr (48 + (m mod 10)));
    if m >= 10 then go (p - 1) (m / 10)
  in
  go (pos + w - 1) (abs n);
  if n < 0 then Bytes.set b pos '-';
  pos + w

(* [prefix], then ";lit,lit,...," per clause in canonical order: the
   text of a frame ("v<n_vars>" prefix) and of a key's selector lists *)
let canonical_text ~prefix { c_lits; c_offs; c_order } =
  let plen = String.length prefix in
  let len = ref (plen + Array.length c_order) in
  for k = 0 to c_offs.(Array.length c_order) - 1 do
    len := !len + int_width c_lits.(k) + 1
  done;
  let b = Bytes.create !len in
  Bytes.blit_string prefix 0 b 0 plen;
  let pos = ref plen in
  Array.iter
    (fun i ->
      Bytes.set b !pos ';';
      incr pos;
      for k = c_offs.(i) to c_offs.(i + 1) - 1 do
        pos := put_int b !pos c_lits.(k);
        Bytes.set b !pos ',';
        incr pos
      done)
    c_order;
  Bytes.unsafe_to_string b

let canonical_frame (cnf : Ilv_sat.Sat.flat) =
  let span =
    if Ilv_obs.Obs.enabled () then
      Some (Ilv_obs.Obs.span_begin "proof_cache.canonical" [])
    else None
  in
  let text =
    canonical_text
      ~prefix:("v" ^ string_of_int cnf.Ilv_sat.Sat.n_vars)
      (canonicalize cnf)
  in
  (match span with
  | None -> ()
  | Some id ->
    Ilv_obs.Obs.span_end
      ~fields:
        [
          ( "clauses",
            Ilv_obs.Obs.I (Array.length cnf.Ilv_sat.Sat.offsets - 1) );
          ("bytes", Ilv_obs.Obs.I (String.length text));
        ]
      id);
  {
    f_text = Lazy.from_val text;
    f_digest = lazy (Digest.to_hex (Digest.string text));
  }

let canonical_cnf cnf = canonical_frame (Ilv_sat.Sat.flat_of_lists cnf)

let digest fr = Lazy.force fr.f_digest

exception Bad_frame

(* The inverse of a frame's text: "v<n_vars>" then ";lit,lit,..." per
   clause. *)
let parse_frame s =
  let len = String.length s in
  let read_int i =
    let neg = i < len && s.[i] = '-' in
    let start = if neg then i + 1 else i in
    let rec digits j n =
      if j < len && s.[j] >= '0' && s.[j] <= '9' then
        digits (j + 1) ((n * 10) + Char.code s.[j] - 48)
      else (n, j)
    in
    let n, j = digits start 0 in
    if j = start then raise Bad_frame;
    ((if neg then -n else n), j)
  in
  if len = 0 || s.[0] <> 'v' then raise Bad_frame;
  let n_vars, i = read_int 1 in
  let rec lits i acc =
    if i = len || s.[i] = ';' then (List.rev acc, i)
    else
      let lit, j = read_int i in
      if j >= len || s.[j] <> ',' then raise Bad_frame;
      lits (j + 1) (lit :: acc)
  in
  let rec clauses i acc =
    if i = len then List.rev acc
    else if s.[i] <> ';' then raise Bad_frame
    else
      let clause, j = lits (i + 1) [] in
      clauses j (clause :: acc)
  in
  (n_vars, clauses i [])

type entry = {
  key : string;
  engine_version : string;
  design : string;
  instr : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  cnf : frame;
  hyps : int list list;
  created_s : float;
}

(* ---- keys ---- *)

(* The optional [mode] tag segregates encodings of the same obligation:
   a verdict reached through the memory-abstraction rewrite is stored
   under a different key than the concrete bit-blast, even though both
   are sound for the same property. *)
let mode_tag = function None -> "" | Some m -> "M" ^ m ^ ";"

(* Shared-frame (incremental) keys: the frame — one CNF for all of a
   design's obligations — is digested once per design, and each
   property's key combines that digest with its canonical activation
   selectors.  Selector lists get the same treatment as clauses
   ([canonicalize]), so an obligation set that merely arrives
   reordered (or with a duplicated selector) hashes to the same key
   instead of missing the cache. *)
let frame_digest cnf = digest (canonical_cnf cnf)

let key_of_shared ?mode ~frame ~selectors () =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          [
            "I;";
            mode_tag mode;
            frame;
            canonical_text ~prefix:"#S"
              (canonicalize (Ilv_sat.Sat.flat_of_lists (0, selectors)));
          ]))

(* ---- files ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* Moves a spare file to [tmp]; false when none is left.  A name that
   another process took first fails to rename and is skipped. *)
let rec take_spare t tmp =
  match t.spares with
  | [] -> false
  | name :: rest -> (
    t.spares <- rest;
    match Sys.rename (Filename.concat (spare_dir t) name) tmp with
    | () -> true
    | exception Sys_error _ -> take_spare t tmp)

(* Written through a temp file in the target's directory and renamed
   over it, so a reader sees the old file or the whole new one.  The
   temp file is a spare when there is one, overwritten and cut to
   length, so no inode is created. *)
let write_atomic t ~tmp path content =
  try
    let reused = take_spare t tmp in
    let oc =
      if reused then open_out_gen [ Open_wronly; Open_binary ] 0o644 tmp
      else open_out_bin tmp
    in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc content;
        if reused then begin
          flush oc;
          Unix.ftruncate (Unix.descr_of_out_channel oc) (String.length content)
        end);
    Sys.rename tmp path
  with e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let tmp_name dir name =
  Filename.concat dir (Printf.sprintf ".tmp-%d-%s" (Unix.getpid ()) name)

(* ---- frame blobs ----

   [<dir>/frames/<digest>.cnf] holds a frame's text, so a blob verifies
   itself: its MD5 must equal its name.  Every entry of a frame refers
   to the one blob by digest.  Racing writers write identical bytes, so
   a blob needs no lock: it is written only when absent, through a temp
   file and a rename. *)

let blob_suffix = ".cnf"
let blob_path t d = Filename.concat (frames_dir t) (d ^ blob_suffix)

let stored_frame t d =
  let text =
    lazy
      (let s = read_file (blob_path t d) in
       if Digest.to_hex (Digest.string s) <> d then raise Bad_frame;
       s)
  in
  { f_digest = Lazy.from_val d; f_text = text }

let frame_cnf fr = parse_frame (Lazy.force fr.f_text)

let store_frame t fr =
  let d = digest fr in
  let path = blob_path t d in
  if not (Sys.file_exists path) then begin
    let text = Lazy.force fr.f_text in
    mkdir_p (frames_dir t);
    write_atomic t ~tmp:(tmp_name (frames_dir t) d) path text;
    if Ilv_obs.Obs.enabled () then begin
      let open Ilv_obs.Obs in
      count "cache.frame_stores" 1;
      event "cache.frame_store"
        [ ("frame", S d); ("bytes", I (String.length text)) ]
    end
  end

(* The digests of the blobs on disk, sorted. *)
let blob_digests t =
  match Sys.readdir (frames_dir t) with
  | exception Sys_error _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f blob_suffix)
    |> List.sort compare
    |> List.map (fun f -> Filename.chop_suffix f blob_suffix)

type blob_state = Sound | Damaged | Absent | Unreadable

let blob_state t d =
  match Lazy.force (stored_frame t d).f_text with
  | _ -> Sound
  | exception Bad_frame -> Damaged
  | exception (Sys_error _ | End_of_file) ->
    if Sys.file_exists (blob_path t d) then Unreadable else Absent

(* One maintenance pass's view of the blobs: each is read at most once.
   [on_damaged] runs on a damaged blob when it is first seen; when it
   returns true (the blob was quarantined) the blob counts as absent
   from then on. *)
let blob_checker t ~on_damaged =
  let seen = Hashtbl.create 16 in
  fun d ->
    match Hashtbl.find_opt seen d with
    | Some st -> st
    | None ->
      let st =
        match blob_state t d with
        | Damaged when on_damaged (blob_path t d) -> Absent
        | st -> st
      in
      Hashtbl.add seen d st;
      st

(* ---- entry files ---- *)

let entry_suffix = ".proof"

let file_of t key =
  Filename.concat
    (Filename.concat t.cache_dir (shard_of key))
    (key ^ entry_suffix)

(* What an entry file holds: the entry with its frame replaced by the
   frame's digest. *)
type record = {
  r_key : string;
  r_engine_version : string;
  r_design : string;
  r_instr : string;
  r_verdict : Checker.verdict;
  r_stats : Checker.stats;
  r_frame : string;
  r_hyps : int list list;
  r_created_s : float;
}

(* A non-entry splits three ways: [Stale] is a well-formed entry written
   by a foreign engine version or an older file format (expected after
   an upgrade, harmless), [Corrupt] is damage — truncation, garbage, a
   digest filed under the wrong name, an [Unknown] verdict that should
   never have been stored, or (in a maintenance pass) a frame blob that
   is missing or damaged — and [Unreadable] is a read that failed for
   reasons of its own ([EMFILE], a file removed by a concurrent
   [clear]).  All are misses on lookup; only [Corrupt] is quarantined,
   and [stats] and [validate] report [Stale] and [Corrupt] separately. *)
type loaded = Entry of entry | Stale of string | Corrupt | Unreadable

(* Entry file layout (format /3):
     magic ^ md5hex(payload) ^ "\n" ^ payload
   where payload is the marshalled [record].  The checksum is verified
   on every read, so truncation and bit-rot — not just unparseable
   bytes — are caught before [Marshal] ever sees the payload. *)
let checksum_hex_len = 32

let load_entry t path key =
  match read_file path with
  | exception (Sys_error _ | End_of_file) -> Unreadable
  | raw -> (
    let mlen = String.length magic in
    let older (prefix, _) = String.starts_with ~prefix raw in
    match List.find_opt older old_magics with
    | Some (_, why) -> Stale why
    | None ->
      if
        String.length raw <= mlen + checksum_hex_len + 1
        || not (String.starts_with ~prefix:magic raw)
      then Corrupt
      else begin
        let sum = String.sub raw mlen checksum_hex_len in
        let body_ofs = mlen + checksum_hex_len + 1 in
        let payload =
          String.sub raw body_ofs (String.length raw - body_ofs)
        in
        if
          raw.[mlen + checksum_hex_len] <> '\n'
          || Digest.to_hex (Digest.string payload) <> sum
        then Corrupt
        else begin
          match (Marshal.from_string payload 0 : record) with
          | exception _ -> Corrupt
          | r ->
            if r.r_engine_version <> version then Stale r.r_engine_version
            else if key <> "" && r.r_key <> key then Corrupt
            else (
              match r.r_verdict with
              | Checker.Proved | Checker.Failed _ ->
                Entry
                  {
                    key = r.r_key;
                    engine_version = r.r_engine_version;
                    design = r.r_design;
                    instr = r.r_instr;
                    verdict = r.r_verdict;
                    stats = r.r_stats;
                    cnf = stored_frame t r.r_frame;
                    hyps = r.r_hyps;
                    created_s = r.r_created_s;
                  }
              | Checker.Unknown _ -> Corrupt)
        end
      end)

let lookup t key =
  let path = file_of t key in
  let found =
    if not (Sys.file_exists path) then None
    else
      match load_entry t path key with
      | Entry e -> Some e
      | Stale _ | Unreadable -> None
      | Corrupt ->
        (* quarantine on first contact: the miss re-solves and re-stores
           the entry, and the damaged file keeps no seat in the key
           space *)
        ignore (quarantine t path);
        None
  in
  if Ilv_obs.Obs.enabled () then begin
    let open Ilv_obs.Obs in
    match found with
    | Some e ->
      count "cache.hits" 1;
      event "cache.hit"
        [ ("key", S key); ("design", S e.design); ("instr", S e.instr) ]
    | None ->
      count "cache.misses" 1;
      event "cache.miss" [ ("key", S key) ]
  end;
  found

let store t entry =
  match entry.verdict with
  | Checker.Unknown _ -> ()
  | Checker.Proved | Checker.Failed _ -> (
    if Ilv_obs.Obs.enabled () then begin
      let open Ilv_obs.Obs in
      count "cache.stores" 1;
      event "cache.store"
        [
          ("key", S entry.key);
          ("design", S entry.design);
          ("instr", S entry.instr);
        ]
    end;
    try
      (* the blob first: an entry on disk always has its frame *)
      store_frame t entry.cnf;
      let payload =
        Marshal.to_string
          {
            r_key = entry.key;
            r_engine_version = entry.engine_version;
            r_design = entry.design;
            r_instr = entry.instr;
            r_verdict = entry.verdict;
            r_stats = entry.stats;
            r_frame = digest entry.cnf;
            r_hyps = entry.hyps;
            r_created_s = entry.created_s;
          }
          []
      in
      let content =
        magic ^ Digest.to_hex (Digest.string payload) ^ "\n" ^ payload
      in
      (* with_lock creates the shard directory; temp and final name
         share it, keeping the rename atomic *)
      let shard = Filename.concat t.cache_dir (shard_of entry.key) in
      with_lock t ~key:entry.key (fun () ->
          write_atomic t ~tmp:(tmp_name shard entry.key) (file_of t entry.key)
            content)
    with _ -> ())

(* ---- maintenance ---- *)

let entry_files_in dir =
  match Sys.readdir dir with
  | exception _ -> []
  | files ->
    Array.to_list files
    |> List.filter (fun f -> Filename.check_suffix f entry_suffix)
    |> List.sort compare
    |> List.map (Filename.concat dir)

(* Shard directories first (the write path), then flat files under the
   root, which no lookup reads but stats, clear and validate still see;
   the quarantine and frames directories are not shards and are never
   walked. *)
let entry_files t =
  List.concat_map entry_files_in (shard_dirs t.cache_dir)
  @ entry_files_in t.cache_dir

let blob_files t = List.map (blob_path t) (blob_digests t)

(* An entry as a maintenance pass sees it: usable only while its blob
   is sound (or could not be read, which is no evidence of damage). *)
let classify t blob path =
  match load_entry t path "" with
  | Entry e as l -> (
    match blob (digest e.cnf) with
    | Sound | Unreadable -> l
    | Damaged | Absent -> Corrupt)
  | l -> l

type cache_stats = {
  entries : int;
  frames : int;
  bytes : int;
  proved : int;
  failed : int;
  stale : int;
  corrupt : int;
  quarantined : int;
}

let file_size path =
  try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

let stats t =
  let blob = blob_checker t ~on_damaged:(fun _ -> false) in
  let acc =
    List.fold_left
      (fun acc d ->
        let bytes = acc.bytes + file_size (blob_path t d) in
        match blob d with
        | Damaged -> { acc with bytes; corrupt = acc.corrupt + 1 }
        | _ -> { acc with bytes; frames = acc.frames + 1 })
      {
        entries = 0;
        frames = 0;
        bytes = 0;
        proved = 0;
        failed = 0;
        stale = 0;
        corrupt = 0;
        quarantined = quarantined_count t;
      }
      (blob_digests t)
  in
  List.fold_left
    (fun acc path ->
      let bytes = acc.bytes + file_size path in
      match classify t blob path with
      | Unreadable -> { acc with bytes }
      | Corrupt -> { acc with bytes; corrupt = acc.corrupt + 1 }
      | Stale _ -> { acc with bytes; stale = acc.stale + 1 }
      | Entry e ->
        {
          acc with
          bytes;
          entries = acc.entries + 1;
          proved =
            (acc.proved
            + match e.verdict with Checker.Proved -> 1 | _ -> 0);
          failed =
            (acc.failed
            + match e.verdict with Checker.Failed _ -> 1 | _ -> 0);
        })
    acc (entry_files t)

(* Startup recovery, part 2: sweep every blob and entry file and
   quarantine the damaged ones — a blob whose MD5 is not its name, and
   an entry that is unreadable or whose blob is gone.  Returns how many
   files were quarantined.  [open_] keeps its O(directory) cost by not
   calling this — a corrupt entry is also quarantined lazily the first
   time a lookup touches it; this full sweep is for the CLI and the
   chaos harness, which must assert that nothing corrupt remains in the
   key space. *)
let recover t =
  let n = ref 0 in
  let quarantine_counted path =
    let moved = quarantine t path in
    if moved then incr n;
    moved
  in
  let blob = blob_checker t ~on_damaged:quarantine_counted in
  List.iter (fun d -> ignore (blob d)) (blob_digests t);
  List.iter
    (fun path ->
      match classify t blob path with
      | Corrupt -> ignore (quarantine_counted path)
      | Entry _ | Stale _ | Unreadable -> ())
    (entry_files t);
  !n

(* [clear] moves up to [max_spares] of the files it takes out of the
   key space to [<dir>/spare/], bytes and all, and [store] overwrites
   them with its next files, as a database recycles its log segments: a
   clear-and-refill cycle then creates and deletes no inode.  Creating
   a file is the costly part of a store on some file systems: on an
   ext4 mounted without a journal (2-vCPU Xeon VM), 0.08-0.6 ms of
   kernel time per create, growing with recent churn, against 7 us
   per rename. *)
let max_spares = 4096

let clear t =
  let spare = spare_dir t in
  let made = lazy (try mkdir_p spare with Unix.Unix_error _ | Sys_error _ -> ()) in
  let n_spares = ref (List.length t.spares) in
  let recycle path =
    let name = Filename.basename path in
    let kept =
      !n_spares < max_spares
      && (Lazy.force made;
          try Sys.rename path (Filename.concat spare name); true
          with Sys_error _ -> false)
    in
    if kept then begin
      t.spares <- name :: t.spares;
      incr n_spares;
      true
    end
    else try Sys.remove path; true with Sys_error _ -> false
  in
  let removed =
    List.fold_left
      (fun n path -> if recycle path then n + 1 else n)
      0 (entry_files t)
  in
  let frames = frames_dir t in
  (match Sys.readdir frames with
  | exception Sys_error _ -> ()
  | files ->
    Array.iter
      (fun f -> ignore (recycle (Filename.concat frames f)))
      files);
  (try Unix.rmdir frames with Unix.Unix_error _ -> ());
  removed

type validation = {
  checked : int;
  agreed : int;
  mismatched : string list;
  stale_entries : string list;
  corrupt_entries : string list;
}

(* Re-solve one stored entry from its frame with a fresh solver: Proved
   iff every obligation's query is UNSAT. *)
let resolve_entry (e : entry) =
  let n_vars, clauses = frame_cnf e.cnf in
  let s = Ilv_sat.Sat.create () in
  for _ = 1 to n_vars do
    ignore (Ilv_sat.Sat.new_var s)
  done;
  List.iter (Ilv_sat.Sat.add_clause s) clauses;
  let all_unsat =
    List.for_all
      (fun assumptions ->
        match Ilv_sat.Sat.solve ~assumptions s with
        | Ilv_sat.Sat.Unsat -> true
        | Ilv_sat.Sat.Sat -> false)
      e.hyps
  in
  match e.verdict with
  | Checker.Proved -> all_unsat
  | Checker.Failed _ -> not all_unsat
  | Checker.Unknown _ -> false

(* Sample evenly across the whole (sorted) entry listing instead of
   taking the lexicographically-first [sample]: a rotted entry whose
   digest happens to sort late must still have a chance of being
   re-solved.  The stride always includes the first and last file. *)
let stride_sample sample files =
  let files = Array.of_list files in
  let len = Array.length files in
  if sample >= len then Array.to_list files
  else if sample <= 1 then (if len = 0 then [] else [ files.(0) ])
  else
    List.sort_uniq compare
      (List.init sample (fun i -> i * (len - 1) / (sample - 1)))
    |> List.map (fun i -> files.(i))

let validate ?(sample = 5) ?(full = false) t =
  let blob = blob_checker t ~on_damaged:(quarantine t) in
  let files =
    let all = entry_files t in
    if full then begin
      List.iter (fun d -> ignore (blob d)) (blob_digests t);
      all
    end
    else stride_sample sample all
  in
  List.fold_left
    (fun acc path ->
      match classify t blob path with
      | Unreadable -> acc
      | Corrupt ->
        (* out of the key space, kept as evidence — validation reports,
           it never errors mid-sweep *)
        ignore (quarantine t path);
        {
          acc with
          corrupt_entries = Filename.basename path :: acc.corrupt_entries;
        }
      | Stale _ ->
        {
          acc with
          stale_entries = Filename.basename path :: acc.stale_entries;
        }
      | Entry e ->
        let ok = try resolve_entry e with _ -> false in
        if not ok then
          (* a rotted entry that still parses is the worst kind: its
             verdict is a lie.  Quarantine it like any other damage. *)
          ignore (quarantine t path);
        {
          acc with
          checked = acc.checked + 1;
          agreed = (acc.agreed + if ok then 1 else 0);
          mismatched = (if ok then acc.mismatched else e.key :: acc.mismatched);
        })
    {
      checked = 0;
      agreed = 0;
      mismatched = [];
      stale_entries = [];
      corrupt_entries = [];
    }
    files

let pp_stats fmt s =
  Format.fprintf fmt
    "%d entries (%d proved, %d failed), %d frames, %d stale (other engine \
     version or file format), %d corrupt, %d quarantined, %.1f KiB"
    s.entries s.proved s.failed s.frames s.stale s.corrupt s.quarantined
    (float_of_int s.bytes /. 1024.0)
