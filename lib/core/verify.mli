(** Verification of one obligation group (Fig. 4 of the paper).

    For each independent port of a module-ILA: generate the complete
    property set from the refinement map and check every (sub-)
    instruction against one prepared session.  The sweep over a
    module's ports — job enumeration, scheduling, early stop and the
    {!report} — is {!Ilv_engine.Engine.verify}. *)

type instr_result = {
  instr : string;
  port : string;
  verdict : Checker.verdict;
  stats : Checker.stats;
  time_s : float;
      (** wall clock of this instruction's check, captured as a single
          [Unix.gettimeofday] delta — the number reports and engine job
          records display *)
}

type port_report = {
  port_name : string;
  instr_results : instr_result list;
  port_time_s : float;
      (** wall clock of the port's obligation group, preparation
          (property generation, frame setup) included, measured in the
          process that ran it — at least the sum of its rows' times *)
}

type report = {
  design : string;
  ports : port_report list;
  total_time_s : float;  (** wall clock of the whole run *)
  first_failure : instr_result option;
}

val proved : report -> bool
(** True only when every instruction is [Proved] — an [Unknown]
    verdict (budget exhausted, or an exception while checking) makes
    the report not-proved. *)

val unknowns : report -> instr_result list
(** The instructions whose verdict is {!Checker.Unknown}, across all
    ports — the candidates for a bounded-simulation fallback. *)

(** {1 Prepare once, check many}

    One obligation group — a port's instructions — shares a single
    incremental solver context; building it (property generation +
    shared-frame preparation, {!Checker.prepare_shared}) is the
    expensive step, and checking one instruction against it is cheap
    and repeatable.  This session is the only shared-frame driver: the
    engine's groups ({!Ilv_engine.Engine}), including the ones the
    daemon keeps resident, decide through {!check_port_instr}.  It and
    the fresh path ({!check_property}) run one CEGAR loop, with one
    ceiling ({!Mem_abstract.max_rounds}), one concrete fallback, one
    set of rung names and one error contract. *)

type prepared_port
(** A group's complete property set, generated and bound to one shared
    incremental solver context.  Encoding inside the context is lazy
    per property, so preparing is cheap until instructions are actually
    checked; results are memoized by the context, so re-checking an
    instruction returns the first verdict without re-solving. *)

val prepare_port :
  ?memory_abstraction:bool ->
  name:string ->
  port:Ila.t ->
  rtl:Ilv_rtl.Rtl.t ->
  refmap:Refmap.t ->
  unit ->
  prepared_port
(** Generates every leaf instruction's property and prepares the shared
    context (labelled [name/port] in observability output).  A property
    whose generation raises poisons only its own instruction — checking
    it yields [Unknown "exception: ..."], the others are unaffected.

    With [memory_abstraction:true] (default false) and at least one
    memory-sorted state variable in the generated properties, the
    shared context encodes the {!Mem_abstract} rewrite of the group
    instead of the concrete properties; SAT models are replayed
    concretely and refine the window ({!check_port_instr} drives the
    CEGAR loop).  Memory-free groups are unaffected. *)

val prepare_properties :
  ?memory_abstraction:bool ->
  label:string ->
  (string * (Property.t, string) result) list ->
  prepared_port
(** The same session built from already-generated properties: one
    [(name, generated property or its generation error)] entry per
    obligation, names distinct, the frame holding the [Ok] properties
    in list order.  No frame is frozen ({!Checker.shared_freeze}) when
    it is built: the first cache key or stored CNF freezes it, so a
    caller that never keys the cache pays no extra encoding pass. *)

val prepared_instrs : prepared_port -> string list
(** Entry names — leaf instruction names in declaration (= report)
    order for {!prepare_port}. *)

val prepared_shared : prepared_port -> Checker.shared
(** The live shared context: the frame the last decision was made on.
    Under the memory abstraction it is {e replaced} after a CEGAR
    refinement. *)

val key_frame : prepared_port -> Checker.shared
(** The generation-0 shared context, pinned at preparation: cache keys
    come from its frozen snapshot, so they are the same however (or
    whether) CEGAR refinement re-encoded the live frame. *)

val prepared_abstraction : prepared_port -> Mem_abstract.t option
(** The memory-abstraction state, when the session was prepared with
    [memory_abstraction:true] and the group mentions a memory. *)

val prepared_slot : prepared_port -> string -> (int, string) result
(** The property index of an entry in the shared contexts' numbering,
    or the error that made it uncheckable ([Error "instruction not
    prepared"] for a name the session does not have). *)

val check_port_instr :
  ?budget:Checker.budget ->
  prepared_port ->
  string ->
  Checker.verdict * Checker.stats * string
(** Decides one entry in the prepared context through the degradation
    ladder ({!Checker.check_shared_degrading}); the string names the
    rung that produced the verdict.  The error contract, shared with
    {!check_property}: an entry whose property raises while it is
    encoded or checked, or an unknown name, is
    [Unknown "exception: ..."] with rung ["error"] — never an escaping
    exception, and the ladder's lower rungs are not tried.

    When the session was prepared with the memory abstraction, this
    also drives the CEGAR loop: a spurious abstract counterexample
    refines the window, rebuilds the shared frame and retries; if
    refinement stalls or exceeds {!Mem_abstract.max_rounds} the
    entry's {e concrete} property is decided with a fresh solver.
    Verdicts are always concrete-valid: [Failed] traces come from
    concrete replay, [Proved] from the sound UNSAT direction of the
    abstraction.

    The rung vocabulary: the ladder rung (["incremental"], ["fresh"] or
    ["degraded"]), suffixed ["+abstract"] (decided on the first
    abstract frame) or ["+cegarN"] (after [N] refinements) when the
    abstraction is active; ["abstract>concrete"] for the concrete
    fallback; ["error"]. *)

val check_property :
  ?budget:Checker.budget ->
  memory_abstraction:bool ->
  Property.t ->
  Checker.verdict * Checker.stats * string
(** The fresh-path counterpart of {!check_port_instr}: decides one
    property on its own solver ({!Checker.check}), with no cache.  With
    [memory_abstraction] and a wide memory in the property it solves
    the {!Mem_abstract} rewrite, replays SAT answers, refines and
    re-encodes until a definite answer (at most
    {!Mem_abstract.max_rounds} rounds), falling back to the concrete
    encoding when refinement stalls — the same CEGAR loop as
    {!check_port_instr}.  The rung is ["sat"] (no abstraction — not the
    ladder's ["fresh"] demotion), ["abstract"], ["abstract+cegarN"] or
    ["abstract>concrete"].  A property that raises while it is encoded
    or checked is [Unknown "exception: ..."] with rung ["error"], under
    either encoding. *)

val is_cacheable_rung : string -> bool
(** False for the CEGAR concrete fallback ["abstract>concrete"]: its
    verdict comes from no shared frame, so there is no frame CNF for
    {!Ilv_engine.Proof_cache.validate} to re-solve, and it is not
    stored. *)

val is_degraded_rung : string -> bool
(** True when the rung's ladder part is below the incremental rung
    (["fresh"] or ["degraded"], with or without a CEGAR suffix).  The
    CEGAR concrete fallback ["abstract>concrete"] is a refinement
    outcome, not a degradation. *)

type task = { task_port : Ila.t; task_instr : Ila.instruction }
(** One refinement obligation, as data: a leaf (sub-)instruction of one
    port.  The paper's flow discharges these independently, which is
    what lets {!Ilv_engine} schedule them on parallel workers. *)

val selected_ports : ?only_ports:string list -> Module_ila.t -> Ila.t list
(** The module's ports named in [only_ports] (default: all), in
    declaration order. *)

val enumerate : ?only_ports:string list -> Module_ila.t -> task list
(** Every leaf (sub-)instruction of every (selected) port, in the
    deterministic report order: ports in declaration order,
    instructions in declaration order within each port. *)

val pp_report : Format.formatter -> report -> unit
