(** Reproduction of the paper's Table I: per-design statistics and
    verification measurements. *)

type row = {
  name : string;
  rtl_loc : int;  (** pseudo-LoC of the RTL IR *)
  rtl_bits : int;  (** "# of RTL State Bits" *)
  ports : string;  (** "3/2" form when integration reduced the count *)
  insts : int;  (** "# of insts. (all ports)" *)
  ila_loc : int;
  ila_bits : int;  (** "# of Arch. State Bits" *)
  refmap_loc : int;  (** "Ref-map Size (LoC)" *)
  time_bug_s : float option;  (** "Time (bug)": buggy-variant run *)
  time_s : float;  (** golden verification time *)
  alloc_mb : float;
      (** memory proxy: bytes allocated during verification (see
          EXPERIMENTS.md for how this relates to the paper's resident
          memory column) *)
  proved : bool;
}

val measure :
  ?verify:(Design.t -> Design.bug option -> Ilv_core.Verify.report) ->
  Design.t ->
  row
(** Runs the first buggy variant (if any) and the golden verification,
    both through [verify] ([None] for the golden RTL; default
    {!Design.verify} and {!Design.verify_buggy}) — the hook through
    which [ilaverif table] applies its options to both columns.  The
    verdict column is identical for any conforming override; only
    times differ. *)

val paper : (string * int * int * string * int * int * int * int * float option * float * float) list
(** The paper's Table I, for side-by-side comparison: (name, RTL LoC,
    RTL bits, ports, insts, ILA LoC, ILA bits, refmap LoC, time-to-bug,
    time, memory MB). *)

val print_rows : Format.formatter -> row list -> unit
val print_paper : Format.formatter -> unit
