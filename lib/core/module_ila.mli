(** A module-ILA: the composition of independent port-ILAs.

    After integrating any ports that share state (see {!Compose}), the
    remaining ports are pairwise independent — no shared states, no
    shared inputs — and the module-ILA is simply their union.  Each port
    is then verified separately against the RTL, instruction by
    instruction. *)

type t = private { name : string; ports : Ila.t list }

exception Not_independent of string
(** Raised when two ports both *update* the same state — such ports
    must be integrated first ({!Compose.integrate}) — or declare a
    shared state/input with incompatible sorts.  Read-only sharing
    (one port updates, others observe) is allowed: reads cannot
    conflict. *)

val make : name:string -> Ila.t list -> t
(** @raise Not_independent if ports conflict.
    @raise Invalid_argument on an empty port list. *)

val find_port : t -> string -> Ila.t option
val n_ports : t -> int

val total_instructions : t -> int
(** Leaf (sub-)instruction count over all ports (the paper's "# of
    insts. (all ports)"). *)

val pp_sketch : Format.formatter -> t -> unit
