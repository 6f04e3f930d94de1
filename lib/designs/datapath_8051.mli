(** Case study: the 8051 datapath (Sec. V-B3 of the paper; multiple
    command interfaces without shared state).

    Two independent ports:

    - ALU-port: 16 instructions (ADD, ADDC, SUB, SUBB, INC, DEC, MUL,
      DIV, ANL, ORL, XRL, CLR, CPL, RL, RR, SWAP) selected by
      [alu_op_in] when [alu_en] is raised, updating the accumulator, the
      B register and the carry flag;
    - data-port: 4 instructions accessing the internal RAM and the
      special function registers (RAM_WR/RAM_RD/SFR_WR/SFR_RD).

    The internal RAM size is a parameter: the paper verifies the full
    256-byte RAM in 176 s and, after abstracting it to 16 bytes
    (standard small-memory modeling), in 9.5 s.  [design] uses the full
    RAM; [design_abstract] the 16-byte abstraction — the benchmark
    harness reproduces the ablation with both. *)

val make_design : ram_addr_width:int -> Design.t
val design : Design.t  (** 256-byte internal RAM *)

val design_abstract : Design.t  (** 16-byte abstracted RAM *)
