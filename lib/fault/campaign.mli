(** Fault-injection campaigns: run the verifier over every mutant of a
    design and measure how many faults the generated property suite
    detects.

    Each mutant (from {!Mutate}) is verified with a resource
    {!Ilv_core.Checker.budget}; the outcome is classified as

    - {e killed} — some property failed (the usual case; the
      counterexample is double-checked with {!Ilv_core.Replay} when the
      trace applies), or bounded random co-simulation found a concrete
      divergence.  The simulation hunt runs both when the budget ran
      out and when every property proved — transition-shaped
      properties cannot see reset-state faults, but from-reset
      co-simulation can.  It applies only to designs whose
      instructions all retire in one cycle ({!Ilv_designs.Cosim}); on
      others it is skipped and gives no evidence either way;
    - {e survived} — every property proved and co-simulation found
      nothing: the fault is invisible to the whole dynamic+symbolic
      stack (either an equivalent mutant or a genuine coverage gap);
    - {e inconclusive} — budget exhausted and the simulation fallback
      found no divergence either.

    The mutation score is [killed / (killed + survived)]; inconclusive
    mutants are excluded from the denominator.  Campaigns are
    deterministic in [seed] up to wall-clock-budget effects. *)

open Ilv_designs

type kill_method =
  | By_property of { instr : string; port : string }
  | By_simulation of { sim_seed : int; cycle : int; state : string }

type classification =
  | Killed of kill_method
  | Survived
  | Inconclusive of string  (** why the verdict stayed unknown *)

type mutant_report = {
  mutation : Mutate.mutation;
  classification : classification;
  time_s : float;
  replay_confirmed : bool option;
      (** for property kills: [Some true] when {!Ilv_core.Replay}
          reproduced the counterexample in the simulator, [None] when
          replay was inapplicable *)
}

type t = {
  design : string;
  seed : int;
  n_sites : int;  (** size of the full mutant enumeration *)
  n_mutants : int;  (** mutants actually checked (after sampling) *)
  killed : int;
  survived : int;
  inconclusive : int;
  killed_by_simulation : int;
      (** of [killed], how many needed the co-simulation fallback *)
  sim_inapplicable : string option;
      (** why the co-simulation fallback did not run on this design
          ({!Ilv_designs.Cosim.inapplicable}): an instruction that does
          not retire in one cycle *)
  score : float;
  total_time_s : float;
  mutants : mutant_report list;
}

val default_budget : Ilv_core.Checker.budget
(** 50k conflicts / 10s wall per obligation, two 4x escalations. *)

val run :
  ?seed:int ->
  ?max_mutants:int ->
  ?budget:Ilv_core.Checker.budget ->
  ?timeout_s:float ->
  ?fallback_sim:bool ->
  ?jobs:int ->
  Design.t ->
  t
(** Runs a campaign: sample up to [max_mutants] (default 100) mutants
    with [seed] (default 1), verify each under [budget], and classify.
    Sites are enumerated once ({!Mutate.sites}), {!Mutate.pick} draws
    the sample from them, and only the sampled mutants' RTL is built
    ({!Mutate.build}).
    [fallback_sim] (default true) enables the bounded co-simulation
    hunt (3 seeded runs of 300 cycles, on one co-simulation compiled per
    mutant) for mutants the bounded checker could not decide — and for
    mutants every property proved, where it is the only check that can
    catch reset faults.  On a design where co-simulation is
    inapplicable, the hunt is skipped ([sim_inapplicable] says why):
    such mutants stay survived or inconclusive.
    [timeout_s] puts a wall-clock deadline on each mutant's per-port
    verification ({!Ilv_engine.Engine.verify}'s [timeout_s]); obligations
    past it classify as inconclusive (or fall to the simulation hunt)
    instead of hanging the campaign.
    [jobs] (default 1) classifies mutants on that many parallel worker
    processes ({!Ilv_engine.Pool}); classifications and their order are
    identical for any worker count, and a crashed worker degrades to a
    single inconclusive mutant ([Poisoned] jobs likewise). *)

val kill_times : t -> float list
(** Per-mutant wall-clock of every killed mutant, campaign order. *)

val pp : Format.formatter -> t -> unit
(** Full per-mutant listing plus the summary line. *)

val pp_table_header : Format.formatter -> unit -> unit
val pp_table_row : Format.formatter -> t -> unit

val to_json : t -> string
(** One JSON object (no trailing newline); used by the bench harness
    and [ilaverif mutate --json]. *)
