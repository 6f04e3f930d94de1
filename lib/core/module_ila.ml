open Ilv_expr

type t = { name : string; ports : Ila.t list }

exception Not_independent of string

(* Ports are independent when no architectural state is *updated* by
   more than one port.  Read-only sharing is fine (e.g. a load port
   observing the buffer another port maintains): reads cannot conflict,
   so no integration is needed — but shared declarations must agree. *)
let make ~name ports =
  if ports = [] then invalid_arg "Module_ila.make: no ports";
  let writers = Hashtbl.create 64 in
  let declared : (string, string * Sort.t) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (port : Ila.t) ->
      List.iter
        (fun (s : Ila.state) ->
          let n = s.Ila.state_name in
          match Hashtbl.find_opt declared n with
          | Some (other, sort) ->
            if not (Sort.equal sort s.Ila.sort) then
              raise
                (Not_independent
                   (Printf.sprintf
                      "state %s is declared with different sorts by ports %s \
                       and %s"
                      n other port.Ila.name))
          | None -> Hashtbl.add declared n (port.Ila.name, s.Ila.sort))
        port.Ila.states;
      List.iter
        (fun (i : Ila.instruction) ->
          List.iter
            (fun (target, _) ->
              match Hashtbl.find_opt writers target with
              | Some other when other <> port.Ila.name ->
                raise
                  (Not_independent
                     (Printf.sprintf
                        "state %s is updated by ports %s and %s; integrate \
                         them first"
                        target other port.Ila.name))
              | Some _ -> ()
              | None -> Hashtbl.add writers target port.Ila.name)
            i.Ila.updates)
        port.Ila.instructions;
      List.iter
        (fun (n, sort) ->
          match Hashtbl.find_opt declared ("input:" ^ n) with
          | Some (other, sort') ->
            if not (Sort.equal sort sort') then
              raise
                (Not_independent
                   (Printf.sprintf
                      "input %s is declared with different sorts by ports %s \
                       and %s"
                      n other port.Ila.name))
          | None -> Hashtbl.add declared ("input:" ^ n) (port.Ila.name, sort))
        port.Ila.inputs)
    ports;
  { name; ports }

let find_port m name = List.find_opt (fun (p : Ila.t) -> p.Ila.name = name) m.ports
let n_ports m = List.length m.ports

let total_instructions m =
  List.fold_left
    (fun acc p -> acc + List.length (Ila.leaf_instructions p))
    0 m.ports

let pp_sketch fmt m =
  Format.fprintf fmt "@[<v>module-ILA %s: [%s]@,@," m.name
    (String.concat ", " (List.map (fun (p : Ila.t) -> p.Ila.name) m.ports));
  List.iter (fun p -> Format.fprintf fmt "%a@," Ila.pp_sketch p) m.ports;
  Format.fprintf fmt "@]"
