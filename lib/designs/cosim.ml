open Ilv_expr
open Ilv_rtl
open Ilv_core

type outcome =
  | Agree of { cycles : int; steps : int }
  | Diverged of { cycle : int; port : string; state : string; detail : string }
  | Inapplicable of string

exception Stop of outcome

let random_value rng sort =
  match sort with
  | Sort.Bool -> Value.of_bool (Random.State.bool rng)
  | Sort.Bitvec w ->
    Value.of_bv (Bitvec.of_bits (List.init w (fun _ -> Random.State.bool rng)))
  | Sort.Mem { addr_width; data_width } ->
    Value.mem_const ~addr_width ~default:(Bitvec.zero data_width)

let owned_states (ila : Ila.t) =
  List.concat_map
    (fun (i : Ila.instruction) -> List.map fst i.Ila.updates)
    (Ila.leaf_instructions ila)
  |> List.sort_uniq String.compare

(* Lockstep needs every instruction to retire in exactly one cycle. *)
let multi_cycle (port : Ila.t) (refmap : Refmap.t) =
  List.find_map
    (fun (m : Refmap.instr_map) ->
      match m.Refmap.finish with
      | Refmap.After_cycles 1 -> None
      | Refmap.After_cycles n ->
        Some
          (Printf.sprintf "%s.%s retires after %d cycles, not 1" port.Ila.name
             m.Refmap.instr n)
      | Refmap.Within { bound; _ } ->
        Some
          (Printf.sprintf "%s.%s retires within %d cycles, not after 1"
             port.Ila.name m.Refmap.instr bound))
    refmap.Refmap.instruction_maps

let refmaps (d : Design.t) rtl =
  List.map
    (fun (port : Ila.t) -> (port, d.Design.refmap_for rtl port.Ila.name))
    d.Design.module_ila.Module_ila.ports

let first_multi_cycle maps =
  List.find_map (fun (port, refmap) -> multi_cycle port refmap) maps

let inapplicable d rtl = first_multi_cycle (refmaps d rtl)

(* One port-ILA, compiled.  Its states live in the frame's [states]
   slots; [mapped] pairs each state-map entry with the slot where
   [state_map] leaves its RTL value. *)
type port = {
  port_name : string;
  states : int array;  (** in [Ila.states] order *)
  mapped : (string * int * int * bool) array;
      (** state, its slot, its mapped RTL value's slot, owned *)
  state_map : Eval.program;  (** over registers *)
  command : Eval.program;  (** the interface map, over RTL inputs *)
  decode : Eval.program;
  decodes : (string * int) array;  (** leaf instruction, decode slot *)
  nexts : (Eval.program * int array) array;
      (** per leaf: every state's next value, in [Ila.states] order *)
}

type compiled = {
  layout : Eval.layout;
  inputs : (Sort.t * int) array;  (** RTL inputs, declaration order *)
  registers : int array;
  inits : Value.t array;
  rtl_step : Eval.program;  (** wires and register nexts *)
  rtl_nexts : int array;
  ports : port list;
}

type t = Compiled of compiled | Not_applicable of string

let slot_table layout names =
  let tbl = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace tbl n (Eval.slot layout)) names;
  tbl

let lookup tables name =
  match List.find_map (fun tbl -> Hashtbl.find_opt tbl name) tables with
  | Some s -> s
  | None -> raise (Eval.Unbound_variable name)

let compile_ready rtl maps =
  let layout = Eval.layout () in
  let reg_slots =
    slot_table layout (List.map (fun r -> r.Rtl.reg_name) rtl.Rtl.registers)
  in
  let input_slots = slot_table layout (List.map fst rtl.Rtl.inputs) in
  let rtl_step, rtl_nexts =
    Eval.compile layout
      ~var:(lookup [ input_slots; reg_slots ])
      ~defs:(Rtl.wire_expr rtl)
      (List.map (fun r -> r.Rtl.next) rtl.Rtl.registers)
  in
  let compile_port ((ila : Ila.t), (refmap : Refmap.t)) =
    let state_slots =
      slot_table layout (List.map (fun s -> s.Ila.state_name) ila.Ila.states)
    in
    let command, command_slots =
      Eval.compile layout ~var:(lookup [ input_slots ])
        (List.map snd refmap.Refmap.interface_map)
    in
    let ila_inputs = Hashtbl.create 8 in
    List.iter2
      (fun (w, _) s -> Hashtbl.replace ila_inputs w s)
      refmap.Refmap.interface_map command_slots;
    let var = lookup [ ila_inputs; state_slots ] in
    let leaves = Ila.leaf_instructions ila in
    let decode, decode_slots =
      Eval.compile layout ~var (List.map (fun i -> i.Ila.decode) leaves)
    in
    (* the state map reads registers only, as at a clock edge *)
    let state_map, mapped_slots =
      Eval.compile layout ~var:(lookup [ reg_slots ])
        (List.map snd refmap.Refmap.state_map)
    in
    let owned = owned_states ila in
    let mapped =
      List.map2
        (fun (s, _) m -> (s, Hashtbl.find state_slots s, m, List.mem s owned))
        refmap.Refmap.state_map mapped_slots
    in
    {
      port_name = ila.Ila.name;
      states =
        Array.of_list
          (List.map (fun s -> Hashtbl.find state_slots s.Ila.state_name)
             ila.Ila.states);
      mapped = Array.of_list mapped;
      state_map;
      command;
      decode;
      decodes =
        Array.of_list
          (List.map2 (fun i s -> (i.Ila.instr_name, s)) leaves decode_slots);
      nexts =
        Array.of_list
          (List.map
             (fun i ->
               let p, outs =
                 Eval.compile layout ~var
                   (List.map snd (Ila.next_state_fn ila i))
               in
               (p, Array.of_list outs))
             leaves);
    }
  in
  let ports = List.map compile_port maps in
  {
    layout;
    inputs =
      Array.of_list
        (List.map (fun (n, sort) -> (sort, Hashtbl.find input_slots n))
           rtl.Rtl.inputs);
    registers =
      Array.of_list
        (List.map (fun r -> Hashtbl.find reg_slots r.Rtl.reg_name)
           rtl.Rtl.registers);
    inits = Array.of_list (List.map Rtl.init_value rtl.Rtl.registers);
    rtl_step;
    rtl_nexts = Array.of_list rtl_nexts;
    ports;
  }

let compile d rtl =
  let maps = refmaps d rtl in
  match first_multi_cycle maps with
  | Some reason -> Not_applicable reason
  | None -> Compiled (compile_ready rtl maps)

(* Simultaneous update: read every new value before writing any, since a
   result slot may be another destination's own slot. *)
let commit v ~into outs =
  let values = Array.map (fun s -> v.(s)) outs in
  Array.iteri (fun i x -> v.(into.(i)) <- x) values

let map_states v p = Eval.run p.state_map v
let sync v p = Array.iter (fun (_, s, m, _) -> v.(s) <- v.(m)) p.mapped

let simulate ?(cycles = 300) ~seed = function
  | Not_applicable reason -> Inapplicable reason
  | Compiled c -> (
    let rng = Random.State.make [| seed |] in
    let v = Eval.frame c.layout in
    Array.iteri (fun i s -> v.(s) <- c.inits.(i)) c.registers;
    List.iter
      (fun p ->
        map_states v p;
        sync v p)
      c.ports;
    let steps = ref 0 in
    (* present the mapped command; the one triggered leaf steps the ILA *)
    let step cycle p =
      (* refresh the states this port reads but never writes *)
      Array.iter
        (fun (_, s, m, owned) -> if not owned then v.(s) <- v.(m))
        p.mapped;
      Eval.run p.command v;
      Eval.run p.decode v;
      let hot = ref [] in
      Array.iteri
        (fun i (_, s) -> if Value.to_bool v.(s) then hot := i :: !hot)
        p.decodes;
      match !hot with
      | [] -> false
      | [ i ] ->
        let program, outs = p.nexts.(i) in
        Eval.run program v;
        commit v ~into:p.states outs;
        incr steps;
        true
      | several ->
        raise
          (Stop
             (Diverged
                {
                  cycle;
                  port = p.port_name;
                  state = "-";
                  detail =
                    "ambiguous decode: "
                    ^ String.concat ", "
                        (List.rev_map (fun i -> fst p.decodes.(i)) several);
                }))
    in
    let check cycle p =
      Array.iter
        (fun (state, s, m, owned) ->
          if owned && not (Value.equal v.(s) v.(m)) then
            raise
              (Stop
                 (Diverged
                    {
                      cycle;
                      port = p.port_name;
                      state;
                      detail =
                        Printf.sprintf "ILA %s vs RTL %s"
                          (Value.to_string v.(s))
                          (Value.to_string v.(m));
                    })))
        p.mapped
    in
    try
      for cycle = 1 to cycles do
        Array.iter
          (fun (sort, s) -> v.(s) <- random_value rng sort)
          c.inputs;
        let stepped = List.map (step cycle) c.ports in
        Eval.run c.rtl_step v;
        commit v ~into:c.registers c.rtl_nexts;
        (* the mapped values also serve the next cycle's refresh: the
           registers do not change in between *)
        List.iter2
          (fun p did_step ->
            map_states v p;
            if did_step then check cycle p else sync v p)
          c.ports stepped
      done;
      Agree { cycles; steps = !steps }
    with Stop outcome -> outcome)
