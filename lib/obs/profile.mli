(** Aggregation of a JSONL trace into the per-instruction /
    per-backend effort table behind [ilaverif profile].

    Works on the span and counter lines {!Obs} emits: every
    ["engine.job"] span becomes one observation of
    (design, port, instruction, backend, verdict, duration), summed
    into rows; ["counter"] lines are summed per name across all
    processes; an ["engine.run"] span, when present, supplies the
    sweep's wall clock so the report can show how much of it the
    instruction spans account for.  ["checker.prepare_shared"] spans
    (incremental mode, emitted when the proof cache freezes a frame)
    are folded into one {!frame} record per design,
    showing the shared frame's size — variables, problem vs activation
    clauses, clauses removed by CNF simplification — and how many
    workers built it.  Pool supervision events (["pool.crash"],
    ["pool.retry"], ["pool.poisoned"]) are joined per job index into
    {!disposition} records, so a sweep that lost workers shows exactly
    which jobs were retried or quarantined, why, and at what backoff
    cost.  Every span is also summed per name into {!t.spans}, with
    its self time, so a trace shows which stage a run spent its time
    in (a mutation campaign's [campaign.enumerate], [campaign.cosim]
    and the verification below [campaign.mutant], say). *)

type row = {
  design : string;
  port : string;
  instr : string;
  backend : string;
  verdict : string;
  n : int;  (** observations folded into this row *)
  time_s : float;
}

type frame = {
  frame_design : string;
  n_properties : int;
  frame_vars : int;
  frame_clauses : int;
  problem_clauses : int;  (** clauses encoding the design frame *)
  activation_clauses : int;  (** clauses guarding obligation cones *)
  simplify_removed : int;  (** removed by the CNF-level pass *)
  preparations : int;  (** how many workers built this frame *)
  prepare_s : float;  (** total preparation time across workers *)
  simplify_s : float;
      (** the part of [prepare_s] spent in CNF simplification *)
}

type disposition = {
  disp_job : int;  (** pool job index *)
  crashes : string list;
      (** how each worker running the job died, oldest first *)
  retries : int;  (** supervised retries granted *)
  backoff_s : float;  (** total cool-down spent delayed *)
  poisoned : bool;  (** quarantined after killing two workers *)
}

type t = {
  lines : int;  (** trace lines consumed *)
  rows : row list;  (** sorted by descending time *)
  backends : (string * (int * float)) list;  (** per-backend jobs/time *)
  frames : frame list;  (** per-design shared-frame sizes, sorted by name *)
  dispositions : disposition list;
      (** jobs the pool supervisor touched, sorted by job index *)
  counters : (string * int) list;  (** summed across processes *)
  run_wall_s : float option;  (** ["engine.run"] span duration, if any *)
  span_total_s : float;  (** summed row time *)
  spans : (string * (int * float * float)) list;
      (** per span name: count, summed duration and self time (each
          span's duration less its directly nested spans', same
          process), sorted by descending self time *)
}

val of_trace : Json.t list -> t

val of_file : string -> (t, string) result
(** Reads and parses the JSONL file; [Error] carries a message naming
    the offending line on malformed input. *)

val pp : Format.formatter -> t -> unit
