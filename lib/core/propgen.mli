(** Automatic generation of the complete property set for one port.

    Given a port-ILA, the RTL design and a refinement map, produces one
    refinement property per leaf (sub-)instruction — the complete set
    of functional correctness properties in the sense of the paper: the
    ILA specifies every command, and every command's effect on every
    mapped architectural state is checked. *)

val ila_var : string -> string
(** Namespaced base-variable name for an ILA state or input. *)

val generate : ila:Ila.t -> rtl:Ilv_rtl.Rtl.t -> refmap:Refmap.t -> Property.t list
(** One property per leaf instruction, in declaration order.
    @raise Refmap.Invalid_refmap if an instruction lacks a map entry
    (cannot happen for maps built by {!Refmap.make}). *)

val generator :
  ila:Ila.t -> rtl:Ilv_rtl.Rtl.t -> refmap:Refmap.t -> Ila.instruction -> Property.t
(** [generator ~ila ~rtl ~refmap] generates the properties of a port's
    instructions, one call each, sharing one unrolling of [rtl] (with
    its substitution memos) and the parts of the map that do not depend
    on the instruction.  A call gives the same property as
    {!generate_for} — its expressions physically equal — and fails as
    that would, whatever was generated before.
    @raise Refmap.Invalid_refmap if the instruction lacks a map entry. *)

val generate_for :
  ila:Ila.t -> rtl:Ilv_rtl.Rtl.t -> refmap:Refmap.t -> Ila.instruction -> Property.t
(** The property of a single leaf instruction. *)
