(** The persistent proof cache: a content-addressed on-disk store of
    discharged refinement obligations.

    {2 Cache key}

    An entry is keyed by a stable structural hash of the {e
    bit-blasted} obligation: the digest of its group's frozen shared
    frame ({!Ilv_core.Checker.shared_cnf} — every property's
    assumptions plus the Tseitin encoding of every obligation's guard
    and negated goal, behind activation literals) together with the
    property's per-obligation selector literals ({!key_of_shared}).
    There is one key namespace: fresh-mode runs are not cached.  Clause
    literals are sorted within each clause and clauses sorted
    lexicographically before hashing ({!canonical_frame}), so the key
    is insensitive to clause emission order; CNF variable numbering is
    preserved by construction (bit-blasting allocates variables in deterministic
    structural order), so re-preparing the same group — in the same
    run or a later one — reproduces the key bit-for-bit.  Anything
    that changes the proof problem (RTL edit, refinement-map edit,
    simplifier change, encoding change) changes the CNF and therefore
    the key: stale entries are unreachable rather than wrong.

    {2 What is stored}

    Only definitive verdicts ([Proved] / [Failed]) are cached —
    [Unknown] depends on the resource budget of the particular run and
    is never stored.  Each entry also records the solver statistics of
    the original run, the engine version (a version bump invalidates
    the whole cache), the per-obligation selector literals, and the
    digest of its canonical frame CNF.  The frame itself is stored once,
    as a {e frame blob} shared by every entry of that frame; entry and
    blob together are what lets {!validate} re-solve entries from the
    store alone.

    {2 Layout and crash safety}

    Entries are sharded into 256 subdirectories by the first two hex
    characters of the key ([<dir>/ab/<key>.proof]).  Files left
    directly under [<dir>] by an older layout are never looked up, but
    {!stats}, {!clear} and {!validate} still see them.
    A frame blob lives at [<dir>/frames/<digest>.cnf] and holds the
    canonical serialization {!frame_digest} hashes, so it verifies
    itself: its MD5 is its name.  It is written once, before the first
    entry that refers to it, and only when absent.  {!lookup} reads the
    entry file alone and never a blob.
    Writes are atomic (temp file + rename within the shard); the temp
    file is one of {!clear}'s spares when there is one.
    Concurrent writers serialize on a {e per-shard} advisory lock —
    acquired with a {e bounded} [F_TLOCK]-and-retry loop, never an
    unbounded blocking [F_LOCK]: on sustained contention the writer
    proceeds lock-free (the rename is atomic regardless) rather than
    wedging behind a stalled lock holder.  Every entry carries a
    checksum of its payload that is verified on read — truncation and
    bit-rot are detected before [Marshal] ever parses a byte.  Damaged
    entries and blobs are
    {e quarantined} into [<dir>/quarantine/], never deleted: an entry
    lazily on the first lookup that touches it, entries and blobs
    eagerly by {!recover} and {!validate}, which also quarantine an
    entry whose blob is missing or damaged.  {!open_} additionally sweeps temp files left by
    crashed writers (the owning pid is dead).  All of it is
    best-effort: the cache is an accelerator, and no I/O failure in
    this module is allowed to become a sweep failure. *)

type t

val version : string
(** Stored in every entry; entries written by a different engine
    version are treated as misses. *)

val default_dir : unit -> string
(** [$ILAVERIF_CACHE_DIR], else [$XDG_CACHE_HOME/ilaverif], else
    [$HOME/.cache/ilaverif], else [_ilaverif_cache] in the working
    directory. *)

val open_ : ?dir:string -> unit -> t
(** Opens (creating directories as needed) the store at [dir]
    (default {!default_dir}), removes torn temp files whose writer
    process is no longer alive, and lists the spare files {!clear}
    left for reuse. *)

val dir : t -> string

val quarantine_dir : t -> string
(** [<dir>/quarantine] — where damaged entry and blob files are moved. *)

val quarantined_count : t -> int
(** How many files sit in the quarantine directory. *)

val recover : t -> int
(** Scans every frame blob and entry file and quarantines the damaged
    ones (a blob whose MD5 is not its name; an entry with bad magic,
    checksum mismatch, unparseable payload, wrong key, stored
    [Unknown], or a missing or damaged blob); returns how many files
    were quarantined.  Well-formed entries of other engine versions or
    file formats are left in place (stale, not damaged), and a file
    that merely fails to read is left alone.  This is the eager
    complement of the lazy quarantine-on-lookup path. *)

type frame
(** A canonical frame CNF ({!canonical_frame}) as its serialization,
    with its digest computed at most once.  The frame of an entry
    returned by {!lookup} holds only the digest; its text is read from
    the frame blob when {!validate} first needs it, and its clauses are
    parsed from the text only there. *)

val canonical_frame : Ilv_sat.Sat.flat -> frame
(** Sorted-clause form: literals sorted and deduplicated within each
    clause, clauses sorted lexicographically (a clause that is a prefix
    of another first) — as hashed and as stored in blobs.  Works on
    arrays: a copy of the literal arena sorted per clause, then a
    stable counting sort of the clauses, one pass per literal position,
    and the text written from the arena.  Emits a
    ["proof_cache.canonical"] span ([clauses], [bytes] of text). *)

val canonical_cnf : int * int list list -> frame
(** {!canonical_frame} of the CNF given as lists. *)

val digest : frame -> string
(** The frame's digest, equal to {!frame_digest} of its CNF: the name
    of its blob. *)

type entry = {
  key : string;
  engine_version : string;
  design : string;
  instr : string;
  verdict : Ilv_core.Checker.verdict;
  stats : Ilv_core.Checker.stats;
  cnf : frame;  (** canonicalized problem CNF, stored as a blob *)
  hyps : int list list;  (** per-obligation selector literals *)
  created_s : float;  (** [Unix.gettimeofday] at store time *)
}

val frame_digest : int * int list list -> string
(** Digest of a canonicalized shared-frame CNF
    ({!Ilv_core.Checker.shared_cnf}).  Computed once per design and
    reused for every property's {!key_of_shared}.  Must be taken from
    the {e frozen} snapshot: the live solver appends learnt clauses and
    retire units to its own CNF. *)

val key_of_shared :
  ?mode:string -> frame:string -> selectors:int list list -> unit -> string
(** Key of one property's obligations inside a shared frame:
    [frame] is the {!frame_digest} of the design's shared CNF and
    [selectors] the property's activation-selector lists
    ({!Ilv_core.Checker.shared_frame_selectors}).  Selector lists are
    canonicalized like clauses — literals deduplicated and sorted
    within each list, lists sorted overall — so neither obligation
    order nor a repeated selector perturbs the key.  [mode] tags the
    encoding that produced the frame (the engine passes ["abstract"]
    under the memory abstraction); keys with different tags never
    alias. *)

val lookup : t -> string -> entry option
(** [None] on a genuine miss {e and} on any unreadable entry — a
    truncated, corrupted or version-mismatched file is a miss, never an
    error.  An entry whose checksum fails is quarantined on the spot
    (the subsequent miss re-solves and re-stores it); a read that fails
    for another reason ([EMFILE], a concurrent {!clear}) is a plain
    miss.  Only the entry file is read. *)

val store : t -> entry -> unit
(** Writes the entry's frame blob when it is absent, then the entry:
    atomic (write-then-rename within the key's shard, serialized by the
    shard's advisory lock when it can be acquired within the bounded
    retry schedule), with a payload checksum in the file.  Entries with
    an [Unknown] verdict are silently dropped; an entry whose blob
    cannot be written is not written either.  I/O failures are
    swallowed: the cache is an accelerator, never a correctness
    dependency.  Contended stores that fall back to lock-free writes
    bump the ["cache.lock_contended"] observability counter. *)

val shard_of : string -> string
(** The two-hex-character shard a key files under. *)

val entry_files : t -> string list
(** The paths of every entry file on disk that stats, clear and
    validate see: the shards' in order, then flat files under the root. *)

val blob_files : t -> string list
(** The paths of every frame blob on disk, sorted by digest. *)

val lock_retry_delay : key:string -> attempt:int -> float
(** The sleep before lock-acquisition retry [attempt] (1-based), in
    seconds: capped exponential backoff with deterministic jitter
    derived from [(key, attempt)].  Pure — exposed so tests can pin the
    schedule's bounds, like {!Pool.backoff_delay}. *)

type cache_stats = {
  entries : int;
  frames : int;  (** sound frame blobs *)
  bytes : int;  (** entry files and frame blobs *)
  proved : int;
  failed : int;
  stale : int;
      (** well-formed entries written by a different engine version (or
          an older file format) — unusable but expected after an
          upgrade, not damage *)
  corrupt : int;
      (** damaged files found on disk: entries that do not parse or
          whose blob is missing or damaged, and blobs whose MD5 is not
          their name *)
  quarantined : int;  (** files already moved to [quarantine/] *)
}

val stats : t -> cache_stats

val clear : t -> int
(** Takes every entry file and every frame blob out of the store and
    removes the [frames/] directory; returns how many entries were
    removed.  Up to 4096 of the files, bytes and all, are moved to
    [<dir>/spare/] instead of deleted, and later stores overwrite them
    in place of creating files, so a clear-and-refill cycle creates no
    inode.  No lookup, {!stats} or {!validate} reads [spare/]. *)

type validation = {
  checked : int;
  agreed : int;
  mismatched : string list;  (** keys whose re-solved verdict differs *)
  stale_entries : string list;
      (** entry files from another engine version or file format *)
  corrupt_entries : string list;
      (** unreadable entry files, and entries whose blob is missing or
          damaged *)
}

val validate : ?sample:int -> ?full:bool -> t -> validation
(** Re-solves stored entries from their frame blob with a fresh
    SAT solver and compares the verdict shape (every obligation UNSAT ⇔
    [Proved]) against the stored one — the guard against rotted entries
    that still parse.  By default up to [sample] (default 5) entries
    are checked, striding evenly across the sorted entry listing (first
    and last file always included) so no region of the key space is
    systematically unchecked; [full:true] checks {e every} entry,
    closing the stride's blind spot, and first checks every blob.
    Damage is handled, not just reported: corrupt files, damaged blobs
    and mismatched entries are quarantined into [quarantine/]. *)

val pp_stats : Format.formatter -> cache_stats -> unit
