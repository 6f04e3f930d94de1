open Ilv_expr

(* Lowering of word-level expressions to CNF.  The word-level circuits
   live in {!Circuits}; this module supplies the literal-level algebra:
   Tseitin encoding with a gate cache, so shared subcircuits translate
   to shared literals.  Literals use the external solver convention
   (non-zero ints, negation by sign). *)

type gate = G_and of int * int | G_xor of int * int | G_ite of int * int * int

type ctx = {
  solver : Sat.t;
  lit_true : int;
  gates : (gate, int) Hashtbl.t;
}

(* The boolean algebra of solver literals. *)
module Lit_algebra = struct
  type man = ctx
  type b = int

  let tt ctx = ctx.lit_true
  let ff ctx = -ctx.lit_true
  let neg _ l = -l

  let fresh ctx = Sat.new_var ctx.solver
  let clause ctx lits = Sat.add_clause ctx.solver lits

  let mk_and ctx a b =
    if a = ff ctx || b = ff ctx then ff ctx
    else if a = ctx.lit_true then b
    else if b = ctx.lit_true then a
    else if a = b then a
    else if a = -b then ff ctx
    else begin
      let key = G_and (min a b, max a b) in
      match Hashtbl.find_opt ctx.gates key with
      | Some g -> g
      | None ->
        let g = fresh ctx in
        clause ctx [ -g; a ];
        clause ctx [ -g; b ];
        clause ctx [ g; -a; -b ];
        Hashtbl.add ctx.gates key g;
        g
    end

  let mk_or ctx a b = -mk_and ctx (-a) (-b)

  let mk_xor ctx a b =
    if a = ctx.lit_true then -b
    else if a = ff ctx then b
    else if b = ctx.lit_true then -a
    else if b = ff ctx then a
    else if a = b then ff ctx
    else if a = -b then ctx.lit_true
    else begin
      (* canonicalize: xor(-a, b) = -xor(a, b) *)
      let sign = a < 0 <> (b < 0) in
      let x = abs a and y = abs b in
      let key = G_xor (min x y, max x y) in
      let g =
        match Hashtbl.find_opt ctx.gates key with
        | Some g -> g
        | None ->
          let g = fresh ctx in
          clause ctx [ -g; x; y ];
          clause ctx [ -g; -x; -y ];
          clause ctx [ g; -x; y ];
          clause ctx [ g; x; -y ];
          Hashtbl.add ctx.gates key g;
          g
      in
      if sign then -g else g
    end

  let mk_iff ctx a b = -mk_xor ctx a b

  let mk_ite ctx c t e =
    if c = ctx.lit_true then t
    else if c = ff ctx then e
    else if t = e then t
    else if t = -e then mk_iff ctx t c
    else if t = ctx.lit_true then mk_or ctx c e
    else if t = ff ctx then mk_and ctx (-c) e
    else if e = ctx.lit_true then mk_or ctx (-c) t
    else if e = ff ctx then mk_and ctx c t
    else begin
      let key = G_ite (c, t, e) in
      match Hashtbl.find_opt ctx.gates key with
      | Some g -> g
      | None ->
        let g = fresh ctx in
        clause ctx [ -g; -c; t ];
        clause ctx [ -g; c; e ];
        clause ctx [ g; -c; -t ];
        clause ctx [ g; c; -e ];
        (* redundant but propagation-friendly *)
        clause ctx [ -g; t; e ];
        clause ctx [ g; -t; -e ];
        Hashtbl.add ctx.gates key g;
        g
    end
end

module C = Circuits.Make (Lit_algebra)

type t = {
  ctx : ctx;
  compiler : C.compiler;
  vars : (string, Sort.t * C.bits) Hashtbl.t;
}

(* Bit-blasting a memory allocates [2^addr_width * data_width] solver
   variables, so the concrete path keeps the historical cap that
   [Sort.mem] used to impose globally.  Wider memories are only usable
   through the memory abstraction (Ilv_core.Mem_abstract), which
   rewrites them away before they reach this module. *)
let max_concrete_addr_width = Circuits.max_concrete_addr_width

let on_solver solver =
  let t_var = Sat.new_var solver in
  Sat.add_clause solver [ t_var ];
  let ctx = { solver; lit_true = t_var; gates = Hashtbl.create 4096 } in
  let vars = Hashtbl.create 64 in
  let fresh_bits sort =
    match sort with
    | Sort.Bool -> C.B_bool (Sat.new_var solver)
    | Sort.Bitvec w -> C.B_vec (Array.init w (fun _ -> Sat.new_var solver))
    | Sort.Mem { addr_width; data_width } ->
      if addr_width > max_concrete_addr_width then
        invalid_arg
          (Printf.sprintf
             "Bitblast: addr_width %d exceeds concrete limit %d; use the \
              memory abstraction (--memory-abstraction on) for wide memories"
             addr_width max_concrete_addr_width);
      C.B_mem
        {
          C.addr_width;
          words =
            Array.init (1 lsl addr_width) (fun _ ->
                Array.init data_width (fun _ -> Sat.new_var solver));
        }
  in
  let fresh_var name sort =
    match Hashtbl.find_opt vars name with
    | Some (s, bits) ->
      if not (Sort.equal s sort) then
        invalid_arg
          (Format.asprintf "Bitblast: variable %s used at sorts %a and %a"
             name Sort.pp s Sort.pp sort)
      else bits
    | None ->
      let bits = fresh_bits sort in
      Hashtbl.add vars name (sort, bits);
      bits
  in
  { ctx; compiler = C.compiler ctx ~fresh_var; vars }

let create () = on_solver (Sat.create ())

let frame () = on_solver (Sat.frame ())

let lit_of t e =
  if not (Sort.is_bool (Expr.sort e)) then
    raise (Expr.Sort_error "Bitblast.lit_of: not a boolean");
  C.bool_bit t.compiler e

let assert_bool t e = Sat.add_clause t.ctx.solver [ lit_of t e ]
let assert_not t e = Sat.add_clause t.ctx.solver [ -lit_of t e ]

(* --- activation literals (assumption-based incremental checking) --- *)

let fresh_selector t = Sat.new_selector t.ctx.solver

let guard_bool t ~act e =
  Sat.add_clause ~activation:true t.ctx.solver [ -act; lit_of t e ]

let guard_not t ~act e =
  Sat.add_clause ~activation:true t.ctx.solver [ -act; -lit_of t e ]

let retire t act = Sat.add_clause ~activation:true t.ctx.solver [ -act ]

type answer =
  | Unsat
  | Sat of (string -> Sort.t -> Value.t)
  | Unknown of string

let decode_bits t name sort =
  let lit_val l =
    if l > 0 then Sat.value t.ctx.solver l else not (Sat.value t.ctx.solver (-l))
  in
  match Hashtbl.find_opt t.vars name with
  | None -> Value.default_of_sort sort
  | Some (s, bits) ->
    if not (Sort.equal s sort) then Value.default_of_sort sort
    else begin
      match bits with
      | C.B_bool l -> Value.of_bool (lit_val l)
      | C.B_vec v ->
        Value.of_bv (Bitvec.of_bits (Array.to_list (Array.map lit_val v)))
      | C.B_mem { C.addr_width; words } ->
        let data_width = Array.length words.(0) in
        let value =
          Array.fold_left
            (fun (i, m) word ->
              let bv = Bitvec.of_bits (Array.to_list (Array.map lit_val word)) in
              (i + 1, Value.mem_write m (Bitvec.of_int ~width:addr_width i) bv))
            ( 0,
              Value.to_mem
                (Value.mem_const ~addr_width ~default:(Bitvec.zero data_width))
            )
            words
        in
        Value.V_mem (snd value)
    end

let check ?limit t =
  match Sat.solve_bounded ?limit t.ctx.solver with
  | Sat.Result Sat.Unsat -> Unsat
  | Sat.Result Sat.Sat -> Sat (fun name sort -> decode_bits t name sort)
  | Sat.Unknown reason -> Unknown reason

let check_assuming ?limit t ~assumptions =
  match Sat.solve_bounded ~assumptions ?limit t.ctx.solver with
  | Sat.Result Sat.Unsat -> Unsat
  | Sat.Result Sat.Sat -> Sat (fun name sort -> decode_bits t name sort)
  | Sat.Unknown reason -> Unknown reason

let age_activity t = Sat.age_activity t.ctx.solver
let simplify t = Sat.simplify t.ctx.solver
let cnf t = Sat.export_flat t.ctx.solver
let cnf_size t = (Sat.num_vars t.ctx.solver, Sat.num_clauses t.ctx.solver)

let cnf_split t =
  ( Sat.num_problem_clauses t.ctx.solver,
    Sat.num_activation_clauses t.ctx.solver )

let solver_stats t = Sat.stats t.ctx.solver
