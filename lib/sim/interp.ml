open Support
open Minim3
open Ir

(* The observable types live in {!Precompile} (the default engine); this
   module re-exports them so consumers keep saying [Interp.site] etc.,
   and keeps the original tree-walking interpreter as [run_reference] —
   the differential baseline the compiled engine is pinned against. *)

type site_kind = Precompile.site_kind =
  | Sexplicit of Apath.t * int
  | Sdope of Apath.t
  | Snumber
  | Sdispatch

type site = Precompile.site = {
  site_id : int;
  site_proc : Ident.t;
  site_block : int;
  site_index : int;
  site_kind : site_kind;
}

type load_event = Precompile.load_event = {
  le_site : site;
  le_addr : int;
  le_value : Value.t;
  le_activation : int;
  le_heap : bool;
}

(* One concrete data access with its access path, as the soundness
   auditor consumes them: every explicit-path read (heap, global and
   stack alike — [on_load] only reports heap reads) and every store. *)
type access = Precompile.access = {
  ac_store : bool;
  ac_path : Apath.t;  (* the prefix actually read, or the stored path *)
  ac_addr : int;
  ac_activation : int;
  ac_heap : bool;
}

type counters = Precompile.counters = {
  mutable instrs : int;
  mutable heap_loads : int;
  mutable other_loads : int;
  mutable stores : int;
  mutable calls : int;
  mutable allocations : int;
}

type outcome = Precompile.outcome = {
  output : string;
  counters : counters;
  cycles : int;
  soft_faults : int;
  cache_hits : int;
  cache_misses : int;
  halted : bool;
}

exception Halt_program = Precompile.Halt_program
exception Out_of_fuel = Precompile.Out_of_fuel

type state = {
  program : Cfg.program;
  layout : Layout.t;
  mutable static_mem : Value.t array;
  mutable static_len : int;  (* used slots: globals, then the stack *)
  heap : Value.t Vec.t;
  cache : Cache.t;
  counters : counters;
  mutable cycles : int;
  out_buf : Buffer.t;
  mutable soft_faults : int;
  mutable fuel : int;
  on_load : (load_event -> unit) option;
  on_access : (access -> unit) option;
  global_addrs : (int, int) Hashtbl.t;  (* global v_id -> static address *)
  resident : (int, Reg.var list) Hashtbl.t;  (* proc ident id -> resident vars *)
  sites : (int * int * int * int, site) Hashtbl.t;
  mutable next_site : int;
  mutable next_activation : int;
  null_zones : (int, int) Hashtbl.t;  (* tid -> address of its null zone *)
}

type frame = {
  f_proc : Cfg.proc;
  regs : (int, Value.t) Hashtbl.t;
  addrs : (int, int) Hashtbl.t;  (* resident var v_id -> static address *)
  activation : int;
}

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)
(* ------------------------------------------------------------------ *)

(* Heap addresses live at [i - heap_base] for heap slot [i], so they are
   negative yet ordinary pointer arithmetic (adding field offsets) still
   moves forward through a block. *)
let heap_base = 1 lsl 40

let heap_index addr = addr + heap_base
let is_heap addr = addr < 0

let byte_addr addr =
  if is_heap addr then (1 lsl 34) + (heap_index addr * 8) else addr * 8

let grow_static st want =
  if want > Array.length st.static_mem then begin
    let bigger = Array.make (max (2 * Array.length st.static_mem) want) Value.Vnil in
    Array.blit st.static_mem 0 bigger 0 st.static_len;
    st.static_mem <- bigger
  end

let raw_read st addr =
  if is_heap addr then begin
    let i = heap_index addr in
    if i < Vec.length st.heap then Vec.get st.heap i else Value.Vnil
  end
  else if addr < st.static_len then st.static_mem.(addr)
  else Value.Vnil

let raw_write st addr v =
  if is_heap addr then begin
    let i = heap_index addr in
    if i < Vec.length st.heap then Vec.set st.heap i v
  end
  else if addr < st.static_len then st.static_mem.(addr) <- v

let soft_fault st = st.soft_faults <- st.soft_faults + 1

let charge_load st hit =
  st.cycles <- st.cycles + (if hit then Cost.load_hit else Cost.load_miss)

let charge_store st hit =
  st.cycles <- st.cycles + (if hit then Cost.store_hit else Cost.store_miss)

let get_site st frame ~block ~index ~ordinal kind =
  let key = (Ident.id frame.f_proc.Cfg.pr_name, block, index, ordinal) in
  match Hashtbl.find_opt st.sites key with
  | Some s -> s
  | None ->
    let s =
      { site_id = st.next_site; site_proc = frame.f_proc.Cfg.pr_name;
        site_block = block; site_index = index; site_kind = kind }
    in
    st.next_site <- st.next_site + 1;
    Hashtbl.add st.sites key s;
    s

(* One data read, with counting, cache, cost, and (for heap reads) limit
   tracing. [where] lazily describes the static site. *)
let mem_read st frame ~where addr =
  let v = raw_read st addr in
  let heap = is_heap addr in
  if heap then st.counters.heap_loads <- st.counters.heap_loads + 1
  else st.counters.other_loads <- st.counters.other_loads + 1;
  charge_load st (Cache.access st.cache (byte_addr addr));
  (* Force the lazy site descriptor at most once, even when both hooks
     are installed (the audit+limit configuration). *)
  let want_load = heap && Option.is_some st.on_load in
  let want_access = Option.is_some st.on_access in
  if want_load || want_access then begin
    let block, index, ordinal, kind = where () in
    (match st.on_load with
    | Some f when heap ->
      let site = get_site st frame ~block ~index ~ordinal kind in
      f { le_site = site; le_addr = addr; le_value = v;
          le_activation = frame.activation; le_heap = heap }
    | _ -> ());
    match st.on_access with
    | Some f -> (
      match kind with
      | Sexplicit (ap, k) ->
        let path = Apath.truncate ap k in
        f { ac_store = false; ac_path = path; ac_addr = addr;
            ac_activation = frame.activation; ac_heap = heap }
      | _ -> ())
    | None -> ()
  end;
  v

let mem_write st addr v =
  st.counters.stores <- st.counters.stores + 1;
  charge_store st (Cache.access st.cache (byte_addr addr));
  raw_write st addr v

(* ------------------------------------------------------------------ *)
(* Static allocation and initialization                                *)
(* ------------------------------------------------------------------ *)

let rec init_slots st write_at base ty =
  match Types.desc st.program.Cfg.tenv ty with
  | Types.Drecord fields ->
    let off = ref 0 in
    Array.iter
      (fun f ->
        init_slots st write_at (base + !off) f.Types.fld_ty;
        off := !off + Layout.size st.layout f.Types.fld_ty)
      fields;
    ()
  | Types.Darray (Some n, elem) ->
    let esz = Layout.size st.layout elem in
    for i = 0 to n - 1 do
      init_slots st write_at (base + (i * esz)) elem
    done
  | _ -> write_at base (Value.default st.program.Cfg.tenv ty)

let alloc_static st size =
  grow_static st (st.static_len + size);
  let base = st.static_len in
  st.static_len <- st.static_len + size;
  (* Fresh stack slots must not leak values from dead frames. *)
  Array.fill st.static_mem base size Value.Vnil;
  base

let is_aggregate st ty =
  match Types.desc st.program.Cfg.tenv ty with
  | Types.Darray _ | Types.Drecord _ -> true
  | _ -> false

(* Variables that need a memory slot: aggregates, and scalars whose bare
   address is taken by an Iaddr. Computed once per procedure. *)
let resident_vars st proc =
  let key = Ident.id proc.Cfg.pr_name in
  match Hashtbl.find_opt st.resident key with
  | Some vs -> vs
  | None ->
    let acc = ref [] in
    let note v =
      if not (List.exists (Reg.var_equal v) !acc) then acc := v :: !acc
    in
    (* Aggregate *storage* lives in locals and by-value parameters; address
       temporaries and by-reference formals merely point at storage owned
       elsewhere, whatever their static type. *)
    let owns_storage (v : Reg.var) =
      match v.Reg.v_kind with
      | Reg.Vlocal | Reg.Vtemp | Reg.Vparam Ast.By_value -> true
      | Reg.Vglobal | Reg.Vparam Ast.By_ref | Reg.Vaddr -> false
    in
    Cfg.iter_instrs proc (fun _ i ->
        (match i with
        | Instr.Iaddr (_, ap) when not (Apath.is_memory_ref ap) ->
          if (Apath.base ap).Reg.v_kind <> Reg.Vglobal then note (Apath.base ap)
        | _ -> ());
        List.iter
          (fun v -> if owns_storage v && is_aggregate st v.Reg.v_ty then note v)
          (Instr.vars_used i @ Option.to_list (Instr.defined_var i)));
    List.iter
      (fun v -> if owns_storage v && is_aggregate st v.Reg.v_ty then note v)
      (proc.Cfg.pr_params @ proc.Cfg.pr_locals);
    Hashtbl.replace st.resident key !acc;
    !acc

(* ------------------------------------------------------------------ *)
(* Variables and atoms                                                 *)
(* ------------------------------------------------------------------ *)

let var_addr st frame (v : Reg.var) =
  match v.Reg.v_kind with
  | Reg.Vglobal -> Hashtbl.find_opt st.global_addrs v.Reg.v_id
  | _ -> Hashtbl.find_opt frame.addrs v.Reg.v_id

let read_var st frame (v : Reg.var) =
  match var_addr st frame v with
  | Some a ->
    if is_aggregate st v.Reg.v_ty then Value.Vaddr a
    else
      mem_read st frame a ~where:(fun () -> (0, 0, 0, Sexplicit (Apath.of_var v, 0)))
  | None -> (
    match Hashtbl.find_opt frame.regs v.Reg.v_id with
    | Some value -> value
    | None -> Value.default st.program.Cfg.tenv v.Reg.v_ty)

let write_var st frame (v : Reg.var) value =
  match var_addr st frame v with
  | Some a ->
    if is_aggregate st v.Reg.v_ty then soft_fault st
    else begin
      mem_write st a value;
      match st.on_access with
      | Some f ->
        f { ac_store = true; ac_path = Apath.of_var v; ac_addr = a;
            ac_activation = frame.activation; ac_heap = is_heap a }
      | None -> ()
    end
  | None -> Hashtbl.replace frame.regs v.Reg.v_id value

let atom_value st frame = function
  | Reg.Avar v -> read_var st frame v
  | Reg.Aint n -> Value.Vint n
  | Reg.Abool b -> Value.Vbool b
  | Reg.Achar c -> Value.Vchar c
  | Reg.Anil -> Value.Vnil

let heap_alloc st size =
  let base = Vec.length st.heap in
  for _ = 1 to size do
    ignore (Vec.push st.heap Value.Vnil)
  done;
  base - heap_base

let init_heap_block st addr ty =
  init_slots st
    (fun a v -> raw_write st a v)
    addr ty

(* The null zone of a type: a heap block standing in for "the object behind
   NIL". Dereferencing NIL is a (counted) soft fault that resolves to real,
   persistent memory, so every store-load equality the optimizer relies on
   holds even on faulting paths. Object zones carry their type tag like any
   allocation. *)
let null_zone st ty =
  match Hashtbl.find_opt st.null_zones ty with
  | Some addr -> addr
  | None ->
    let tenv = st.program.Cfg.tenv in
    let size =
      match Types.desc tenv ty with
      | Types.Dobject _ -> Layout.alloc_size st.layout ty ~length:None
      | Types.Darray (None, _) -> Layout.open_array_dope + 1
      | _ -> ( try Layout.size st.layout ty with Diag.Compile_error _ -> 1)
    in
    let addr = heap_alloc st (max 1 size) in
    (match Types.desc tenv ty with
    | Types.Dobject _ ->
      raw_write st addr (Value.Vint ty);
      let off = ref Layout.object_header in
      List.iter
        (fun f ->
          init_slots st (fun x v -> raw_write st x v) (addr + !off) f.Types.fld_ty;
          off := !off + Layout.size st.layout f.Types.fld_ty)
        (Types.object_fields tenv ty)
    | Types.Darray (None, _) -> raw_write st addr (Value.Vint 0)
    | Types.Darray (Some _, _) | Types.Drecord _ ->
      init_slots st (fun x v -> raw_write st x v) addr ty
    | _ -> raw_write st addr (Value.default tenv ty));
    Hashtbl.replace st.null_zones ty addr;
    addr

(* ------------------------------------------------------------------ *)
(* Access-path resolution                                              *)
(* ------------------------------------------------------------------ *)

(* Resolve a path to the address of the location it denotes, performing and
   counting the intermediate pointer reads. [block]/[index] identify the
   instruction for the limit tracer; the read consuming selector [k]
   observes the value of the length-k prefix. Returns [None] on a soft
   fault (NIL dereference). *)
let resolve st frame ~block ~index (ap : Apath.t) : int option =
  let tenv = st.program.Cfg.tenv in
  let explicit k () = (block, index, 2 * k, Sexplicit (ap, k)) in
  let dope k () = (block, index, (2 * k) + 1, Sdope ap) in
  let base = Apath.base ap in
  let init : [ `Val of Value.t | `Addr of int ] =
    match var_addr st frame base with
    | Some a ->
      if is_aggregate st base.Reg.v_ty then `Addr a
      else
        (* scalar resident/global: its slot holds the pointer/value *)
        `Addr a
    | None -> `Val (read_var st frame base)
  in
  (* When the state is the address of a scalar location, consuming the next
     selector first reads the scalar (the value of the current prefix). *)
  let force k state =
    match state with
    | `Val v -> Some v
    | `Addr a -> Some (mem_read st frame ~where:(explicit k) a)
  in
  let rec go k state cur_ty sels =
    match sels with
    | [] -> (
      match state with
      | `Addr a -> Some a
      | `Val _ ->
        (* A bare register has no address; lowering guarantees this cannot
           be reached for memory instructions. *)
        soft_fault st;
        None)
    | sel :: rest -> (
      let continue_with next_state =
        go (k + 1) next_state (Apath.selector_result sel) rest
      in
      match sel with
      | Apath.Sderef target -> (
        match force k state with
        | Some (Value.Vaddr p) -> continue_with (`Addr p)
        | Some Value.Vnil ->
          (* NIL dereference: a soft fault that resolves to the referent
             type's null zone, so the access still hits real memory. *)
          soft_fault st;
          continue_with (`Addr (null_zone st target))
        | Some _ ->
          soft_fault st;
          None
        | None -> None)
      | Apath.Sfield (f, _) -> (
        match Types.desc tenv cur_ty with
        | Types.Dobject _ -> (
          match force k state with
          | Some (Value.Vaddr p) ->
            continue_with (`Addr (p + Layout.field_offset st.layout cur_ty f))
          | Some Value.Vnil ->
            soft_fault st;
            continue_with
              (`Addr (null_zone st cur_ty + Layout.field_offset st.layout cur_ty f))
          | Some _ ->
            soft_fault st;
            None
          | None -> None)
        | Types.Drecord _ -> (
          match state with
          | `Addr a ->
            continue_with (`Addr (a + Layout.field_offset st.layout cur_ty f))
          | `Val _ ->
            soft_fault st;
            None)
        | _ ->
          soft_fault st;
          None)
      | Apath.Sindex (idx, elem_ty) -> (
        let i =
          match atom_value st frame idx with
          | Value.Vint i -> i
          | _ ->
            soft_fault st;
            0
        in
        let esz = Layout.size st.layout elem_ty in
        match (Types.desc tenv cur_ty, state) with
        | Types.Darray (Some n, _), `Addr a ->
          let i =
            if i < 0 || i >= n then begin
              soft_fault st;
              0
            end
            else i
          in
          continue_with (`Addr (a + (i * esz)))
        | Types.Darray (None, _), `Addr a -> (
          (* Open array: the dope (element count) is read on every
             subscript — the Encapsulation source of Figure 10. *)
          match mem_read st frame ~where:(dope k) a with
          | Value.Vint n ->
            let i =
              if i < 0 || i >= n then begin
                soft_fault st;
                0
              end
              else i
            in
            continue_with (`Addr (a + Layout.open_array_dope + (i * esz)))
          | _ ->
            soft_fault st;
            None)
        | _ ->
          soft_fault st;
          None))
  in
  go 0 init base.Reg.v_ty (Apath.sels ap)

(* ------------------------------------------------------------------ *)
(* Instructions                                                        *)
(* ------------------------------------------------------------------ *)

let truthy = function Value.Vbool b -> b | _ -> false

let eval_binop st op a b =
  let int f =
    match (a, b) with
    | Value.Vint x, Value.Vint y -> Value.Vint (f x y)
    | _ ->
      soft_fault st;
      Value.Vint 0
  in
  let cmp f =
    let ord =
      match (a, b) with
      | Value.Vint x, Value.Vint y -> Some (compare x y)
      | Value.Vchar x, Value.Vchar y -> Some (compare x y)
      | _ -> None
    in
    match ord with
    | Some c -> Value.Vbool (f c)
    | None ->
      soft_fault st;
      Value.Vbool false
  in
  match op with
  | Ast.Add -> int ( + )
  | Ast.Sub -> int ( - )
  | Ast.Mul -> int ( * )
  | Ast.Div -> int (fun x y -> if y = 0 then 0 else x / y)
  | Ast.Mod -> int (fun x y -> if y = 0 then 0 else x mod y)
  | Ast.Lt -> cmp (fun c -> c < 0)
  | Ast.Le -> cmp (fun c -> c <= 0)
  | Ast.Gt -> cmp (fun c -> c > 0)
  | Ast.Ge -> cmp (fun c -> c >= 0)
  | Ast.Eq -> Value.Vbool (Value.equal a b)
  | Ast.Ne -> Value.Vbool (not (Value.equal a b))
  | Ast.And -> (
    match (a, b) with
    | Value.Vbool x, Value.Vbool y -> Value.Vbool (x && y)
    | _ ->
      soft_fault st;
      Value.Vbool false)
  | Ast.Or -> (
    match (a, b) with
    | Value.Vbool x, Value.Vbool y -> Value.Vbool (x || y)
    | _ ->
      soft_fault st;
      Value.Vbool false)

let eval_unop st op a =
  match (op, a) with
  | Ast.Neg, Value.Vint x -> Value.Vint (-x)
  | Ast.Not, Value.Vbool b -> Value.Vbool (not b)
  | _ ->
    soft_fault st;
    Value.Vint 0

let rec exec_proc st (proc : Cfg.proc) (args : Value.t list) : Value.t option =
  st.counters.calls <- st.counters.calls + 1;
  let frame =
    { f_proc = proc; regs = Hashtbl.create 16; addrs = Hashtbl.create 4;
      activation = st.next_activation }
  in
  st.next_activation <- st.next_activation + 1;
  let sp = st.static_len in
  (* Bind parameters into registers first. *)
  (try
     List.iter2
       (fun (formal : Reg.var) v -> Hashtbl.replace frame.regs formal.Reg.v_id v)
       proc.Cfg.pr_params args
   with Invalid_argument _ -> soft_fault st);
  (* Memory-resident variables get stack slots; resident parameters copy
     their incoming value into their slot. *)
  List.iter
    (fun (v : Reg.var) ->
      let size =
        if is_aggregate st v.Reg.v_ty then Layout.size st.layout v.Reg.v_ty else 1
      in
      let a = alloc_static st size in
      if is_aggregate st v.Reg.v_ty then
        init_slots st (fun x value -> raw_write st x value) a v.Reg.v_ty
      else begin
        let incoming =
          match Hashtbl.find_opt frame.regs v.Reg.v_id with
          | Some value -> value
          | None -> Value.default st.program.Cfg.tenv v.Reg.v_ty
        in
        raw_write st a incoming
      end;
      Hashtbl.replace frame.addrs v.Reg.v_id a)
    (resident_vars st proc);
  let result = exec_block st frame proc.Cfg.pr_entry in
  st.static_len <- sp;
  result

and exec_block st frame bid : Value.t option =
  let block = Cfg.block frame.f_proc bid in
  List.iteri (fun index i -> exec_instr st frame ~block:bid ~index i) block.Cfg.b_instrs;
  st.counters.instrs <- st.counters.instrs + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel;
  match block.Cfg.b_term with
  | Instr.Tjump l ->
    st.cycles <- st.cycles + Cost.jump;
    exec_block st frame l
  | Instr.Tbranch (a, t, f) ->
    st.cycles <- st.cycles + Cost.branch;
    if truthy (atom_value st frame a) then exec_block st frame t
    else exec_block st frame f
  | Instr.Treturn a ->
    st.cycles <- st.cycles + Cost.ret;
    Option.map (atom_value st frame) a

and exec_instr st frame ~block ~index instr =
  st.counters.instrs <- st.counters.instrs + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel;
  match instr with
  | Instr.Iassign (v, Instr.Ratom a) ->
    st.cycles <- st.cycles + Cost.move;
    write_var st frame v (atom_value st frame a)
  | Instr.Iassign (v, Instr.Rbinop (op, a, b)) ->
    st.cycles <- st.cycles + Cost.alu;
    write_var st frame v
      (eval_binop st op (atom_value st frame a) (atom_value st frame b))
  | Instr.Iassign (v, Instr.Runop (op, a)) ->
    st.cycles <- st.cycles + Cost.alu;
    write_var st frame v (eval_unop st op (atom_value st frame a))
  | Instr.Iload (v, ap) -> (
    match resolve st frame ~block ~index ap with
    | Some addr ->
      let value =
        mem_read st frame addr ~where:(fun () ->
            (block, index, 2 * Apath.length ap, Sexplicit (ap, Apath.length ap)))
      in
      write_var st frame v value
    | None -> write_var st frame v (Value.default st.program.Cfg.tenv v.Reg.v_ty))
  | Instr.Istore (ap, a) -> (
    let value = atom_value st frame a in
    match resolve st frame ~block ~index ap with
    | Some addr ->
      mem_write st addr value;
      (match st.on_access with
      | Some f ->
        f { ac_store = true; ac_path = ap; ac_addr = addr;
            ac_activation = frame.activation; ac_heap = is_heap addr }
      | None -> ())
    | None -> ())
  | Instr.Iaddr (v, ap) -> (
    st.cycles <- st.cycles + Cost.addr;
    match resolve st frame ~block ~index ap with
    | Some addr -> write_var st frame v (Value.Vaddr addr)
    | None -> write_var st frame v Value.Vnil)
  | Instr.Inew (v, ty, len) -> (
    st.counters.allocations <- st.counters.allocations + 1;
    let len_val =
      Option.map
        (fun a ->
          match atom_value st frame a with
          | Value.Vint n when n >= 0 -> n
          | _ ->
            soft_fault st;
            0)
        len
    in
    match Layout.alloc_size st.layout ty ~length:len_val with
    | exception Diag.Compile_error _ ->
      soft_fault st;
      write_var st frame v Value.Vnil
    | size ->
      st.cycles <- st.cycles + Cost.alloc_base + (Cost.alloc_per_slot * size);
      let addr = heap_alloc st size in
      let tenv = st.program.Cfg.tenv in
      (match Types.desc tenv ty with
      | Types.Dobject _ ->
        (* Header slot: the type tag used for dynamic dispatch. *)
        raw_write st addr (Value.Vint ty);
        let off = ref Layout.object_header in
        List.iter
          (fun f ->
            init_slots st (fun x value -> raw_write st x value) (addr + !off)
              f.Types.fld_ty;
            off := !off + Layout.size st.layout f.Types.fld_ty)
          (Types.object_fields tenv ty)
      | Types.Dref { target; _ } -> (
        match Types.desc tenv target with
        | Types.Darray (None, elem) ->
          let n = Option.value len_val ~default:0 in
          raw_write st addr (Value.Vint n);
          let esz = Layout.size st.layout elem in
          for i = 0 to n - 1 do
            init_slots st
              (fun x value -> raw_write st x value)
              (addr + Layout.open_array_dope + (i * esz))
              elem
          done
        | _ -> init_heap_block st addr target)
      | _ -> soft_fault st);
      write_var st frame v (Value.Vaddr addr))
  | Instr.Icall (dst, target, args) -> (
    let arg_values = List.map (atom_value st frame) args in
    st.cycles <- st.cycles + Cost.call + (Cost.arg * List.length args);
    let callee =
      match target with
      | Instr.Cdirect p -> Cfg.find_proc_opt st.program p
      | Instr.Cvirtual (m, static_ty) -> (
        st.cycles <- st.cycles + Cost.dispatch;
        match arg_values with
        | Value.Vaddr obj :: _ -> (
          (* Read the object header (type tag) to dispatch. *)
          match
            mem_read st frame obj ~where:(fun () -> (block, index, 0, Sdispatch))
          with
          | Value.Vint tag -> (
            match Types.method_impl st.program.Cfg.tenv tag m with
            | Some impl -> Cfg.find_proc_opt st.program impl
            | None -> None)
          | _ -> None)
        | Value.Vnil :: _ -> (
          (* NIL receiver: a soft fault dispatched through the static type,
             which is what a devirtualized call site does — keeping method
             resolution behaviour-preserving on faulting paths. *)
          soft_fault st;
          match Types.method_impl st.program.Cfg.tenv static_ty m with
          | Some impl -> Cfg.find_proc_opt st.program impl
          | None -> None)
        | _ -> None)
    in
    match callee with
    | Some proc -> (
      let result = exec_proc st proc arg_values in
      match dst with
      | Some v ->
        write_var st frame v
          (Option.value result
             ~default:(Value.default st.program.Cfg.tenv v.Reg.v_ty))
      | None -> ())
    | None -> (
      soft_fault st;
      match dst with
      | Some v ->
        write_var st frame v (Value.default st.program.Cfg.tenv v.Reg.v_ty)
      | None -> ()))
  | Instr.Ibuiltin (dst, b, args) -> exec_builtin st frame ~block ~index dst b args

and exec_builtin st frame ~block ~index dst b args =
  let tenv = st.program.Cfg.tenv in
  let values = List.map (atom_value st frame) args in
  let result =
    match (b, values) with
    | Tast.Bprint_int, [ Value.Vint n ] ->
      st.cycles <- st.cycles + Cost.builtin_io;
      Buffer.add_string st.out_buf (string_of_int n);
      None
    | Tast.Bprint_char, [ Value.Vchar c ] ->
      st.cycles <- st.cycles + Cost.builtin_io;
      Buffer.add_char st.out_buf c;
      None
    | Tast.Bprint_bool, [ Value.Vbool v ] ->
      st.cycles <- st.cycles + Cost.builtin_io;
      Buffer.add_string st.out_buf (if v then "TRUE" else "FALSE");
      None
    | Tast.Bprint_text s, [] ->
      st.cycles <- st.cycles + Cost.builtin_io;
      Buffer.add_string st.out_buf s;
      None
    | Tast.Bprint_ln, [] ->
      st.cycles <- st.cycles + Cost.builtin_io;
      Buffer.add_char st.out_buf '\n';
      None
    | Tast.Bord, [ Value.Vchar c ] ->
      st.cycles <- st.cycles + Cost.builtin_pure;
      Some (Value.Vint (Char.code c))
    | Tast.Bchr, [ Value.Vint n ] ->
      st.cycles <- st.cycles + Cost.builtin_pure;
      Some (Value.Vchar (Char.chr (((n mod 256) + 256) mod 256)))
    | Tast.Babs, [ Value.Vint n ] ->
      st.cycles <- st.cycles + Cost.builtin_pure;
      Some (Value.Vint (abs n))
    | Tast.Bmin, [ Value.Vint a; Value.Vint b' ] ->
      st.cycles <- st.cycles + Cost.builtin_pure;
      Some (Value.Vint (min a b'))
    | Tast.Bmax, [ Value.Vint a; Value.Vint b' ] ->
      st.cycles <- st.cycles + Cost.builtin_pure;
      Some (Value.Vint (max a b'))
    | Tast.Bnumber, [ Value.Vaddr a ] -> (
      st.cycles <- st.cycles + Cost.builtin_pure;
      (* The argument is the address of an array; its static type tells us
         whether a dope read is needed. *)
      let arr_ty =
        match args with
        | [ Reg.Avar v ] -> Some v.Reg.v_ty
        | _ -> None
      in
      match Option.map (Types.desc tenv) arr_ty with
      | Some (Types.Darray (Some n, _)) -> Some (Value.Vint n)
      | Some (Types.Darray (None, _)) -> (
        match
          mem_read st frame a ~where:(fun () -> (block, index, 0, Snumber))
        with
        | Value.Vint n -> Some (Value.Vint n)
        | _ ->
          soft_fault st;
          Some (Value.Vint 0))
      | _ ->
        soft_fault st;
        Some (Value.Vint 0))
    | Tast.Bhalt, [] -> raise Halt_program
    | _ ->
      soft_fault st;
      None
  in
  match (dst, result) with
  | Some v, Some value -> write_var st frame v value
  | Some v, None -> write_var st frame v (Value.default tenv v.Reg.v_ty)
  | None, _ -> ()

(* ------------------------------------------------------------------ *)
(* Program entry                                                       *)
(* ------------------------------------------------------------------ *)

let run_reference ?(fuel = 50_000_000) ?on_load ?on_access
    (program : Cfg.program) : outcome =
  (* This engine boxes every heap cell, so a large run's heap is several
     times the compiled engine's. Start it on a collected heap: the major
     collector paces itself by allocation, so garbage an earlier large run
     left behind can otherwise still be unreclaimed while this heap grows,
     and the process's peak memory is the sum of both. This is the
     semantic baseline, not a production path (tests, benchmark set-up and
     bench-smoke's engine-agreement check call it). *)
  Gc.full_major ();
  let st =
    { program; layout = Layout.create program.Cfg.tenv;
      static_mem = Array.make 4096 Value.Vnil; static_len = 0;
      heap = Vec.create (); cache = Cache.create ();
      counters =
        { instrs = 0; heap_loads = 0; other_loads = 0; stores = 0; calls = 0;
          allocations = 0 };
      cycles = 0; out_buf = Buffer.create 4096; soft_faults = 0; fuel;
      on_load; on_access;
      global_addrs = Hashtbl.create 32; resident = Hashtbl.create 32;
      sites = Hashtbl.create 256; next_site = 0; next_activation = 0;
      null_zones = Hashtbl.create 16 }
  in
  (* Allocate globals. *)
  List.iter
    (fun (g : Reg.var) ->
      let size =
        if is_aggregate st g.Reg.v_ty then Layout.size st.layout g.Reg.v_ty else 1
      in
      let a = alloc_static st size in
      if is_aggregate st g.Reg.v_ty then
        init_slots st (fun x v -> raw_write st x v) a g.Reg.v_ty
      else raw_write st a (Value.default program.Cfg.tenv g.Reg.v_ty);
      Hashtbl.replace st.global_addrs g.Reg.v_id a)
    program.Cfg.prog_globals;
  let halted =
    match Cfg.find_proc_opt program program.Cfg.prog_main with
    | None -> true
    | Some main -> (
      match exec_proc st main [] with
      | _ -> false
      | exception Halt_program -> true
      | exception Out_of_fuel -> true)
  in
  (* Callers run a program here and then, compiled, on {!run} (the
     benchmark's set-up, the differential suite): size that run's heap
     now, so its doubling series of copies does not pile up on this
     run's garbage before the collector has reclaimed it. *)
  Precompile.note_heap_len program (Vec.length st.heap);
  { output = Buffer.contents st.out_buf;
    counters = st.counters;
    cycles = st.cycles;
    soft_faults = st.soft_faults;
    cache_hits = Cache.hits st.cache;
    cache_misses = Cache.misses st.cache;
    halted }

(* The default engine is the pre-compiled one; [run_reference] above is
   the semantic baseline it is differentially tested against. *)
let run = Precompile.run
