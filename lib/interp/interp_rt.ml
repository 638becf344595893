(* Shared runtime core of the interpreter.

   The reference tree-walker (Walker) executes against one mutable
   [state]: one memory, one counter set, one PRNG, one output buffer, and
   the profiling tables.  Every observable accumulator and its update
   helpers live here, so a loop snapshot, a region footprint or an alias
   cell is maintained by exactly one piece of code.  The VM's planned
   nests (Fastloop), which the walker runs through [run_nest], are the one
   exception: they batch a nest's inner-level loop statistics and mark
   footprints through their own code, into the accumulators obtained here
   ([loop_acc_of], [get_footprint]), and the differential tests hold them
   to the walker's results. *)

open Ast

exception Runtime_error of Loc.t * string

exception Step_limit_exceeded

type region = Rfunc of string | Rstmt of int

type config = {
  seed : int;
  overrides : (string * Value.t) list;
  profile_loops : bool;
  regions : region list;
  trace_aliases : bool;
  max_steps : int;
  entry : string;
}

let default_config =
  {
    seed = 42;
    overrides = [];
    profile_loops = false;
    regions = [];
    trace_aliases = false;
    max_steps = 400_000_000;
    entry = "main";
  }

type loop_stats = {
  ls_entries : int;
  ls_iterations : int;
  ls_work : float;
  ls_counters : Counters.t;
}

type array_traffic = {
  at_name : string;
  at_elem_bytes : int;
  at_read_elems : int;
  at_written_elems : int;
}

type region_stats = {
  rs_invocations : int;
  rs_counters : Counters.t;
  rs_traffic : array_traffic list;
  rs_bytes_in : int;
  rs_bytes_out : int;
}

type result = {
  ret : Value.t option;
  output : string list;
  counters : Counters.t;
  loop_stats : (int * loop_stats) list;
  region_stats : (region * region_stats) list;
  aliased_funcs : (string * bool) list;
  memory : Memory.t;
}

(* ---- mutable profiling state ---- *)

type loop_acc = {
  mutable la_entries : int;
  mutable la_iterations : int;
  mutable la_counters : Counters.t;
}

(* footprint bitsets of one array within one active region frame *)
type footprint = { fp_written : Bytes.t; fp_read_first : Bytes.t }

type region_frame = {
  rf_region : region;
  rf_snapshot : Counters.t;
  rf_footprints : (int, footprint) Hashtbl.t;
  rf_alloc_watermark : int;
      (* arrays allocated after the region began are region-local scratch
         (tiles, privatised buffers): they are not transferred data, so the
         frame keeps no footprint for them *)
}

type region_acc = {
  mutable ra_invocations : int;
  mutable ra_counters : Counters.t;
  (* per array base: read-before-write / written element totals over invocations *)
  ra_traffic : (int, int ref * int ref) Hashtbl.t;
}

type flow = Fnormal | Fbreak | Fcontinue | Freturn of Value.t option

(* the walker's scope chain, innermost scope first and the globals last *)
type env = (string, Value.t ref) Hashtbl.t list

let rec lookup (env : env) name =
  match env with
  | [] -> None
  | scope :: rest ->
    (match Hashtbl.find_opt scope name with Some r -> Some r | None -> lookup rest name)

type state = {
  program : program;
  cfg : config;
  mem : Memory.t;
  counters : Counters.t;
  prng : Util.Prng.t;
  output : Buffer.t;
  globals : (string, Value.t ref) Hashtbl.t;
  loop_table : (int, loop_acc) Hashtbl.t;
  region_table : (region, region_acc) Hashtbl.t;
  mutable active_regions : region_frame list;
  alias_table : (string, bool ref) Hashtbl.t;
  func_table : (string, func) Hashtbl.t;
  mutable steps_left : int;
  mutable run_nest : int -> env -> Value.t ref -> loop_acc -> bool;
      (* offered every [For] once its index cell holds the lo bound
         (statement id, the scope around the loop, index cell, loop
         accumulator): true when it ran the whole loop.  The VM installs
         its planned nests here. *)
}

let make_state (cfg : config) program =
  {
    program;
    cfg;
    mem = Memory.create ();
    counters = Counters.create ();
    prng = Util.Prng.create cfg.seed;
    output = Buffer.create 256;
    globals = Hashtbl.create 16;
    loop_table = Hashtbl.create 16;
    region_table = Hashtbl.create 4;
    active_regions = [];
    alias_table = Hashtbl.create 4;
    func_table = Hashtbl.create 16;
    steps_left = cfg.max_steps;
    run_nest = (fun _ _ _ _ -> false);
  }

let runtime_error loc fmt = Printf.ksprintf (fun msg -> raise (Runtime_error (loc, msg))) fmt

(* ---- counting helpers ---- *)

let[@inline] count st i k =
  let c = st.counters in
  c.(i) <- c.(i) + k

let tick_step st =
  st.steps_left <- st.steps_left - 1;
  if st.steps_left <= 0 then raise Step_limit_exceeded;
  count st Counters.steps 1

let count_branch st = count st Counters.branches 1

(* A flop class's single- and double-precision slots, bound once from
   the one rule ([Counters.flop]): calling it per counted flop cost the
   walker 5-9 % of its statements/s (bench --quick interp, 2-vCPU host). *)
type flop_slots = { f_sp : int; f_dp : int }

let flop_slots cls =
  { f_sp = Counters.flop ~single:true cls; f_dp = Counters.flop ~single:false cls }

let fl_add = flop_slots Counters.Add
let fl_mul = flop_slots Counters.Mul
let fl_div = flop_slots Counters.Div
let fl_special = flop_slots Counters.Special

let count_flop st prec s = count st (match prec with Value.Sp -> s.f_sp | Value.Dp -> s.f_dp) 1

let count_int_op st = count st Counters.int_ops 1

(* footprint marking on the active region frames; a base is scratch for a
   frame that began before it was allocated ([is_scratch]), and such a
   frame neither marks nor counts it *)

let is_scratch frame base = base >= frame.rf_alloc_watermark

let get_footprint st frame base =
  match Hashtbl.find_opt frame.rf_footprints base with
  | Some fp -> fp
  | None ->
    let len = Memory.length st.mem base in
    let fp = { fp_written = Bytes.make len '\000'; fp_read_first = Bytes.make len '\000' } in
    Hashtbl.replace frame.rf_footprints base fp;
    fp

let mark_read st base idx =
  List.iter
    (fun frame ->
      if not (is_scratch frame base) then begin
        let fp = get_footprint st frame base in
        if Bytes.get fp.fp_written idx = '\000' then Bytes.set fp.fp_read_first idx '\001'
      end)
    st.active_regions

let mark_write st base idx =
  List.iter
    (fun frame ->
      if not (is_scratch frame base) then
        Bytes.set (get_footprint st frame base).fp_written idx '\001')
    st.active_regions

let count_load st base idx =
  count st Counters.loads 1;
  count st Counters.bytes_loaded (Memory.elem_bytes st.mem base);
  if st.active_regions <> [] then mark_read st base idx

let count_store st base idx =
  count st Counters.stores 1;
  count st Counters.bytes_stored (Memory.elem_bytes st.mem base);
  if st.active_regions <> [] then mark_write st base idx

(* ---- region frames ---- *)

let region_acc st region =
  match Hashtbl.find_opt st.region_table region with
  | Some acc -> acc
  | None ->
    let acc =
      { ra_invocations = 0; ra_counters = Counters.create (); ra_traffic = Hashtbl.create 8 }
    in
    Hashtbl.replace st.region_table region acc;
    acc

let push_region st region =
  let frame =
    {
      rf_region = region;
      rf_snapshot = Counters.copy st.counters;
      rf_footprints = Hashtbl.create 8;
      rf_alloc_watermark = Memory.array_count st.mem;
    }
  in
  st.active_regions <- frame :: st.active_regions

let popcount bytes =
  let n = ref 0 in
  Bytes.iter (fun c -> if c <> '\000' then incr n) bytes;
  !n

let pop_region st =
  match st.active_regions with
  | [] -> invalid_arg "Machine.pop_region: no active region"
  | frame :: rest ->
    st.active_regions <- rest;
    let acc = region_acc st frame.rf_region in
    acc.ra_invocations <- acc.ra_invocations + 1;
    Counters.add_into acc.ra_counters (Counters.diff st.counters frame.rf_snapshot);
    Hashtbl.iter
      (fun base fp ->
        let rd, wr =
          match Hashtbl.find_opt acc.ra_traffic base with
          | Some pair -> pair
          | None ->
            let pair = (ref 0, ref 0) in
            Hashtbl.replace acc.ra_traffic base pair;
            pair
        in
        rd := !rd + popcount fp.fp_read_first;
        wr := !wr + popcount fp.fp_written)
      frame.rf_footprints

(* ---- loop accumulators ---- *)

let loop_acc_of st sid =
  match Hashtbl.find_opt st.loop_table sid with
  | Some a -> a
  | None ->
    let a = { la_entries = 0; la_iterations = 0; la_counters = Counters.create () } in
    Hashtbl.replace st.loop_table sid a;
    a

let dummy_loop_acc () =
  { la_entries = 0; la_iterations = 0; la_counters = Counters.create () }

(* ---- alias tracing (per user-function call) ---- *)

let alias_cell st fname =
  match Hashtbl.find_opt st.alias_table fname with
  | Some c -> c
  | None ->
    let c = ref false in
    Hashtbl.replace st.alias_table fname c;
    c

(* record one traced call: do two pointer arguments share a base? *)
let note_alias_bases st fname (bases : int list) =
  let sorted = List.sort compare bases in
  let rec has_dup = function
    | a :: (b :: _ as rest) -> a = b || has_dup rest
    | [ _ ] | [] -> false
  in
  let cell = alias_cell st fname in
  if has_dup sorted then cell := true

(* ---- intrinsics ---- *)

let eval_intrinsic st loc name (args : Value.t list) : Value.t =
  match Intrinsic.find name with
  | None -> runtime_error loc "unknown intrinsic %s" name
  | Some i ->
    let prec = if i.single then Value.Sp else Value.Dp in
    (match i.cls with
     | Intrinsic.Special -> count_flop st prec fl_special
     | Intrinsic.Cheap -> count_flop st prec fl_add
     | Intrinsic.Int_op -> count_int_op st
     | Intrinsic.Uncounted -> ());
    let ret_float x = Value.Vfloat (prec, if i.single then Intrinsic.demote x else x) in
    let print s =
      Buffer.add_string st.output s;
      Buffer.add_char st.output '\n';
      Value.Vint 0
    in
    (match i.op, args with
     | Intrinsic.F1 f, [ a ] -> ret_float (Intrinsic.eval1 f (Value.to_float a))
     | Intrinsic.F2 f, [ a; b ] ->
       ret_float (Intrinsic.eval2 f (Value.to_float a) (Value.to_float b))
     | Intrinsic.Abs, [ a ] -> Value.Vint (Int.abs (Value.to_int a))
     | Intrinsic.Imin, [ a; b ] -> Value.Vint (Int.min (Value.to_int a) (Value.to_int b))
     | Intrinsic.Imax, [ a; b ] -> Value.Vint (Int.max (Value.to_int a) (Value.to_int b))
     | Intrinsic.Rand01, _ -> Value.Vfloat (Value.Dp, Util.Prng.uniform st.prng)
     | Intrinsic.Print_int, [ a ] -> print (string_of_int (Value.to_int a))
     | Intrinsic.Print_float, [ a ] -> print (Printf.sprintf "%.17g" (Value.to_float a))
     | _ -> runtime_error loc "%s: arity" name)

(* ---- dynamic binary operations ---- *)

let float_op_prec (a : Value.t) (b : Value.t) : Value.prec option =
  match a, b with
  | Value.Vfloat (Value.Dp, _), (Value.Vfloat _ | Value.Vint _ | Value.Vbool _)
  | (Value.Vint _ | Value.Vbool _ | Value.Vfloat _), Value.Vfloat (Value.Dp, _) ->
    Some Value.Dp
  | Value.Vfloat (Value.Sp, _), (Value.Vfloat (Value.Sp, _) | Value.Vint _ | Value.Vbool _)
  | (Value.Vint _ | Value.Vbool _), Value.Vfloat (Value.Sp, _) ->
    Some Value.Sp
  | _, _ -> None

let eval_binop st loc op va vb : Value.t =
  let arith slots int_case float_case =
    match float_op_prec va vb with
    | Some p ->
      count_flop st p slots;
      let r = float_case (Value.to_float va) (Value.to_float vb) in
      Value.Vfloat (p, (if p = Value.Sp then Intrinsic.demote r else r))
    | None ->
      count_int_op st;
      Value.Vint (int_case (Value.to_int va) (Value.to_int vb))
  in
  let compare_vals cmp_i cmp_f =
    count_int_op st;
    match float_op_prec va vb with
    | Some _ -> Value.Vbool (cmp_f (Value.to_float va) (Value.to_float vb))
    | None -> Value.Vbool (cmp_i (Value.to_int va) (Value.to_int vb))
  in
  match op with
  | Add -> arith fl_add ( + ) ( +. )
  | Sub -> arith fl_add ( - ) ( -. )
  | Mul -> arith fl_mul ( * ) ( *. )
  | Div ->
    (match float_op_prec va vb with
     | Some _ -> arith fl_div (fun _ _ -> 0) ( /. )
     | None ->
       let d = Value.to_int vb in
       if d = 0 then runtime_error loc "integer division by zero";
       count_int_op st;
       Value.Vint (Value.to_int va / d))
  | Mod ->
    let d = Value.to_int vb in
    if d = 0 then runtime_error loc "modulo by zero";
    count_int_op st;
    Value.Vint (Value.to_int va mod d)
  | Lt -> compare_vals ( < ) ( < )
  | Le -> compare_vals ( <= ) ( <= )
  | Gt -> compare_vals ( > ) ( > )
  | Ge -> compare_vals ( >= ) ( >= )
  | Eq -> compare_vals ( = ) ( = )
  | Ne -> compare_vals ( <> ) ( <> )
  | And | Or -> runtime_error loc "internal: logical op in eval_binop"

let binop_of_assign = function
  | AddEq -> Add
  | SubEq -> Sub
  | MulEq -> Mul
  | DivEq -> Div
  | Set -> invalid_arg "binop_of_assign: Set"

(* Keep the representation kind of the assigned slot. *)
let cast_like (old : Value.t) (v : Value.t) : Value.t =
  match old with
  | Value.Vint _ -> Value.Vint (Value.to_int v)
  | Value.Vbool _ -> Value.Vbool (Value.truth v)
  | Value.Vfloat (Value.Sp, _) -> Value.Vfloat (Value.Sp, Intrinsic.demote (Value.to_float v))
  | Value.Vfloat (Value.Dp, _) -> Value.Vfloat (Value.Dp, Value.to_float v)
  | Value.Vptr _ -> v

let decl_scalar_ty (d : decl) : ty =
  match d.darray with Some _ -> Tptr d.dty | None -> d.dty

(* ---- result assembly ----

   The walker and the planned nests fill the same tables in the same
   first-touch order, so folding them here yields identical association
   lists whichever ran a loop. *)

let assemble_result st ret : result =
  let loop_stats =
    Hashtbl.fold
      (fun sid (a : loop_acc) acc ->
        ( sid,
          {
            ls_entries = a.la_entries;
            ls_iterations = a.la_iterations;
            ls_work = Counters.work a.la_counters;
            ls_counters = a.la_counters;
          } )
        :: acc)
      st.loop_table []
  in
  let region_stats =
    Hashtbl.fold
      (fun region (a : region_acc) acc ->
        let traffic =
          Hashtbl.fold
            (fun base (rd, wr) acc ->
              {
                at_name = Memory.name st.mem base;
                at_elem_bytes = Memory.elem_bytes st.mem base;
                at_read_elems = !rd;
                at_written_elems = !wr;
              }
              :: acc)
            a.ra_traffic []
        in
        let bytes_in =
          List.fold_left (fun n t -> n + (t.at_read_elems * t.at_elem_bytes)) 0 traffic
        in
        let bytes_out =
          List.fold_left (fun n t -> n + (t.at_written_elems * t.at_elem_bytes)) 0 traffic
        in
        ( region,
          {
            rs_invocations = a.ra_invocations;
            rs_counters = a.ra_counters;
            rs_traffic = traffic;
            rs_bytes_in = bytes_in;
            rs_bytes_out = bytes_out;
          } )
        :: acc)
      st.region_table []
  in
  let aliased =
    Hashtbl.fold (fun name cell acc -> (name, !cell) :: acc) st.alias_table []
  in
  {
    ret;
    output =
      (match Buffer.contents st.output with
       | "" -> []
       | text -> String.split_on_char '\n' (String.trim text));
    counters = st.counters;
    loop_stats;
    region_stats;
    aliased_funcs = aliased;
    memory = st.mem;
  }
