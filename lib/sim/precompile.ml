(* The pre-compiled simulator fast path.

   The tree-walking interpreter ({!Interp.run_reference}) re-derives per
   executed instruction what is in fact static: which variables live in
   registers versus memory, every layout offset along an access path, the
   callee of a direct call, and the identity of each load site. This
   module runs that derivation once per procedure and executes the result:

   - every block's instruction list becomes an array of pre-resolved
     instructions with layout offsets, stack-slot offsets, aggregate
     initializer images, direct-call targets and Bnumber dope decisions
     baked in;
   - in a traced run every static load site gets its own memo cell
     ([csite]) built at compile time, so tracing ([on_load]/[on_access])
     touches no hash table; an untraced run's sites share one cell and
     never construct a site descriptor at all.

   The compile itself allocates little beyond the code it builds (see
   "Compilation" below), and a run borrows its cell arrays, cache and
   variable tables from its domain ("Program entry").

   The runtime representation allocates nothing per executed instruction.
   A value is a cell: an unboxed [int] payload plus a one-byte tag
   ([t_int], [t_bool], [t_char], [t_nil], [t_addr]). Registers, static
   memory (globals and stack frames) and the heap are each a pair of
   parallel arrays, an [int array] of payloads and a [Bytes.t] of tags.
   The payload is the whole 63-bit OCaml [int], so arithmetic wraps
   exactly as the reference's [Value.Vint] arithmetic does. Booleans are
   0/1 and NIL is 0, so two cells are [Value.equal] iff their tags and
   payloads are equal. Every read returns its payload and leaves the tag
   in [st.tag]; a [Value.t] is built only for an [on_load] event.

   Registers live on one register stack: a frame is the window
   [fp, top), a call evaluates its arguments straight into the callee's
   window at [top], and a RETURN leaves its result in [ret_v]/[ret_t].
   Path walks return the address they resolve, or [nowhere] on a fault.

   Observable behaviour is bit-identical to the reference interpreter:
   identical printed output, counters, cycle/cache accounting, soft-fault
   counts, and site identities (ids are still assigned lazily, in order of
   first dynamic occurrence). The differential suite (test_sim_equiv.ml)
   pins the two engines against each other. *)

open Support
open Minim3
open Ir

(* ------------------------------------------------------------------ *)
(* Observable types (shared with — and re-exported by — Interp)        *)
(* ------------------------------------------------------------------ *)

type site_kind =
  | Sexplicit of Apath.t * int
  | Sdope of Apath.t
  | Snumber
  | Sdispatch

type site = {
  site_id : int;
  site_proc : Ident.t;
  site_block : int;
  site_index : int;
  site_kind : site_kind;
}

type load_event = {
  le_site : site;
  le_addr : int;
  le_value : Value.t;
  le_activation : int;
  le_heap : bool;
}

type access = {
  ac_store : bool;
  ac_path : Apath.t;
  ac_addr : int;
  ac_activation : int;
  ac_heap : bool;
}

type counters = {
  mutable instrs : int;
  mutable heap_loads : int;
  mutable other_loads : int;
  mutable stores : int;
  mutable calls : int;
  mutable allocations : int;
}

type outcome = {
  output : string;
  counters : counters;
  cycles : int;
  soft_faults : int;
  cache_hits : int;
  cache_misses : int;
  halted : bool;
}

exception Halt_program
exception Out_of_fuel

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

let t_int = 0
let t_bool = 1
let t_char = 2
let t_nil = 3
let t_addr = 4

(* The tag [ret_t] holds after a RETURN without a value; never stored in
   a register or memory cell. *)
let t_none = 5

let get_tag b i = Char.code (Bytes.unsafe_get b i)
let set_tag b i t = Bytes.unsafe_set b i (Char.unsafe_chr t)

(* The tag of [Value.default]; every default payload is 0. *)
let default_tag tenv ty =
  match Types.desc tenv ty with
  | Types.Dint -> t_int
  | Types.Dbool -> t_bool
  | Types.Dchar -> t_char
  | _ -> t_nil

let to_value v t : Value.t =
  if t = t_int then Value.Vint v
  else if t = t_bool then Value.Vbool (v <> 0)
  else if t = t_char then Value.Vchar (Char.chr v)
  else if t = t_nil then Value.Vnil
  else Value.Vaddr v

(* A block of cells: an aggregate's default-initialized contents, or a
   whole stack frame's. *)
type image = { im_v : int array; im_t : Bytes.t }

let image size = { im_v = Array.make size 0; im_t = Bytes.make size (Char.chr t_nil) }

(* ------------------------------------------------------------------ *)
(* Compiled representation                                             *)
(* ------------------------------------------------------------------ *)

(* One static site, with its descriptor fields precomputed and a memo
   cell for the lazily assigned {!site}. The reference keys sites by a
   (proc, block, index, ordinal) tuple in a hash table; here each static
   position owns its cell, so firing a traced load is an id check plus at
   most one record allocation ever. Only a traced run builds them: every
   read of an untraced run shares one cell that no hook ever sees. *)
type csite = {
  cs_proc : Ident.t;
  cs_block : int;
  cs_index : int;
  cs_kind : site_kind;
  mutable cs_site : site option;
}

(* How a variable access compiles: a register of the current frame, a
   stack cell at an offset from the frame's stack base, or a static
   global address. An aggregate's "value" is its address. [Cdrop] is the
   destination of a call or builtin whose result is discarded. *)
type cvar =
  | Creg of int
  | Cres of { off : int; path : Apath.t }
  | Cres_agg of int
  | Cglob of { addr : int; path : Apath.t }
  | Cglob_agg of int
  | Cdrop

type catom = CAconst of int * int (* payload, tag *) | CAvar of cvar

(* A compiled access path: a base addressing mode plus one step per
   selector, with layout offsets, element sizes, fixed-array bounds and
   null-zone target types resolved at compile time. Only step 0 can see a
   register-valued base (every later state is an address). *)
type cbase = CBreg of int | CBaddr_res of int | CBaddr_glob of int

type cstep =
  | CSderef of { target : Types.tid; site : csite }
  | CSfield_obj of { off : int; owner : Types.tid; site : csite }
  | CSfield_rec of int
  | CSfield_bad
  | CSindex_fixed of { idx : catom; esz : int; bound : int }
  | CSindex_open of { idx : catom; esz : int; dope : csite }
  | CSindex_bad of catom

type cpath = { pa_base : cbase; pa_steps : cstep array }

(* NEW plans: the allocation size and initial contents are static except
   for the open-array element count. [CNbad] = Layout.alloc_size rejects
   the type (soft fault, NIL result), decidable at compile time. A run
   builds one plan per type and every NEW of it shares the plan: images
   are only ever copied from. *)
type cnew =
  | CNbad
  | CNblock of image
  | CNopen of { esz : int; elem : image }

(* Bnumber's fixed/open/fault decision depends only on the static type of
   its argument. *)
type cnumber = NBfixed of int | NBopen of csite | NBbad

(* A procedure as a call target: compiled at its first call, then reached
   by a field read. *)
type ptarget = { pt_proc : Cfg.proc; mutable pt_code : cproc option }

and ccallee =
  | CCdirect of ptarget
  | CCmissing  (* a direct call to a procedure the program lacks *)
  | CCvirtual of {
      m : Ident.t;
      site : csite;  (* the header (dispatch-table) read *)
      nil_target : ptarget option;  (* static-type dispatch for NIL *)
      impls : impl array;
          (* by dynamic type tag, memoized; one per method per run *)
    }

and impl = Unresolved | Resolved of ptarget option

(* [dtag] is the tag of the destination's default, written when a load
   faults or a call/builtin yields no result. The register-only forms
   [r := r], [r := r op r] and [r := r op const] (most of the copies and
   arithmetic the optimizer leaves) have their own instructions, which
   skip the operand and destination dispatch. *)
and cinstr =
  | CImove of cvar * catom
  | CImove_rr of int * int
  | CIbinop of cvar * Ast.binop * catom * catom
  | CIbinop_rr of { d : int; op : Ast.binop; a : int; b : int }
  | CIbinop_rc of { d : int; op : Ast.binop; a : int; c : int; ct : int }
  | CIunop of cvar * Ast.unop * catom
  | CIload of { dst : cvar; path : cpath; final : csite; dtag : int }
  | CIstore of { path : cpath; value : catom; ap : Apath.t }
  | CIaddr of cvar * cpath
  | CInew of { dst : cvar; len : catom option; plan : cnew }
  | CIcall of { dst : cvar; dtag : int; callee : ccallee; args : catom array }
  | CIbuiltin of {
      dst : cvar;
      dtag : int;
      b : Tast.builtin;
      args : catom array;
      number : cnumber;
    }

and cterm =
  | CTjump of int
  | CTbranch of catom * int * int
  | CTreturn of catom option

(* [cb_segs] are the exclusive end indices of the block's call-free
   segments: each segment ends after a call or a Halt (the only
   instructions that can run other instructions or stop the run), and the
   last one also carries the terminator. *)
and cblock = { cb_instrs : cinstr array; cb_segs : int array; cb_term : cterm }

(* The formals occupy registers [0, cp_nparams). A fresh frame's stack
   cells are [cp_frame], with each scalar resident cell [cp_sc_off.(i)]
   then loaded from register [cp_sc_reg.(i)]. *)
and cproc = {
  cp_tags : Bytes.t;  (* the default tag of every register *)
  cp_nparams : int;
  cp_frame : image;
  cp_sc_off : int array;
  cp_sc_reg : int array;
  cp_blocks : cblock array;
  cp_entry : int;
}

(* ------------------------------------------------------------------ *)
(* Runtime state                                                       *)
(* ------------------------------------------------------------------ *)

(* What a run borrows from its domain and hands back: the cell arrays,
   the cache, the output buffer, and the compile's per-variable tables.
   Those are indexed by variable id: [v_stamp.(id)] says what
   [v_atom.(id)] and [v_cell.(id)] hold.
   - [stamp] of the procedure being compiled: [v_atom] is the variable's
     compiled atom in it;
   - minus that stamp: a resident of it not used yet, at stack offset
     [v_cell];
   - the run's stamp: a global whose atom [v_atom] is built;
   - minus the run's stamp: a global at static address [v_cell], not used
     yet.
   Stamps are never reused, so nothing needs clearing between runs or
   procedures. [reg_tags] collects the default tag of each register of
   the procedure being compiled. *)
type scratch = {
  pooled : bool;  (* the domain's retained set, handed back after the run *)
  mutable busy : bool;
  mutable s_sv : int array;
  mutable s_stg : Bytes.t;
  mutable s_hv : int array;
  mutable s_htg : Bytes.t;
  mutable s_rv : int array;
  mutable s_rtg : Bytes.t;
  s_cache : Cache.t;
  s_out : Buffer.t;
  mutable v_stamp : int array;
  mutable v_atom : catom array;
  mutable v_cell : int array;
  mutable reg_tags : Bytes.t;
  mutable next_stamp : int;
  s_targets : (int, ptarget) Hashtbl.t;
  s_methods : (int, impl array) Hashtbl.t;
  s_null_zones : (int, int) Hashtbl.t;
  s_spare_v : int array Weak.t;
  s_spare_tg : Bytes.t Weak.t;
      (* the last heap past the cap, reused only while nothing else
         keeps it alive and the collector has not yet reclaimed it *)
}

type state = {
  program : Cfg.program;
  tenv : Types.env;
  layout : Layout.t;
  mutable sv : int array;  (* static memory: globals, then the stack *)
  mutable stg : Bytes.t;
  mutable static_len : int;
  mutable hv : int array;  (* the heap *)
  mutable htg : Bytes.t;
  mutable heap_len : int;
  mutable rv : int array;  (* the register stack *)
  mutable rtg : Bytes.t;
  mutable fp : int;  (* the current frame's first register *)
  mutable top : int;  (* one past its last register *)
  mutable sp : int;  (* its first stack cell *)
  mutable activation : int;
  mutable tag : int;  (* the tag of the payload a read just returned *)
  mutable ret_v : int;
  mutable ret_t : int;
  cache : Cache.t;
  mutable cycles : int;
  out_buf : Buffer.t;
  mutable soft_faults : int;
  mutable fuel : int;
  mutable instrs : int;
  mutable heap_loads : int;
  mutable other_loads : int;
  mutable stores : int;
  mutable calls : int;
  mutable allocations : int;
  on_load : (load_event -> unit) option;
  on_access : (access -> unit) option;
  traced : bool;  (* either hook is set *)
  targets : (int, ptarget) Hashtbl.t;
      (* proc ident id -> target; each run compiles the program afresh *)
  mutable next_site : int;
  mutable next_activation : int;
  null_zones : (int, int) Hashtbl.t;
  scr : scratch;
  run_stamp : int;
  no_site : csite;  (* every site of an untraced run *)
  mutable plans : cnew array;  (* NEW plans by type, [unplanned] until built *)
}

(* The [state.plans] entry of a type no NEW has planned yet. *)
let unplanned = CNblock (image 0)

(* ------------------------------------------------------------------ *)
(* Memory (identical address model to the reference)                   *)
(* ------------------------------------------------------------------ *)

let heap_base = 1 lsl 40
let heap_index addr = addr + heap_base
let is_heap addr = addr < 0

(* What a faulting path walk resolves to; no real address is this
   negative. *)
let nowhere = min_int

let byte_addr addr =
  if is_heap addr then (1 lsl 34) + (heap_index addr * 8) else addr * 8

(* Growable cell arrays: [grown v t len want] copies the first [len]
   cells into arrays of at least [want] cells. *)
let grown v t len want =
  let cap = max (2 * Array.length v) want in
  let v' = Array.make cap 0 in
  let t' = Bytes.create cap in
  Array.blit v 0 v' 0 len;
  Bytes.blit t 0 t' 0 len;
  (v', t')

let grow_static st want =
  if want > Array.length st.sv then begin
    let v, t = grown st.sv st.stg st.static_len want in
    st.sv <- v;
    st.stg <- t
  end

let reserve_heap st extra =
  let want = st.heap_len + extra in
  if want > Array.length st.hv then begin
    let v, t = grown st.hv st.htg st.heap_len want in
    st.hv <- v;
    st.htg <- t
  end

let reserve_regs st want =
  if want > Array.length st.rv then begin
    let v, t = grown st.rv st.rtg (Array.length st.rv) want in
    st.rv <- v;
    st.rtg <- t
  end

let raw_read st addr =
  if is_heap addr then begin
    let i = heap_index addr in
    if i < st.heap_len then begin
      let v = st.hv.(i) in
      st.tag <- get_tag st.htg i;
      v
    end
    else begin
      st.tag <- t_nil;
      0
    end
  end
  else if addr < st.static_len then begin
    let v = st.sv.(addr) in
    st.tag <- get_tag st.stg addr;
    v
  end
  else begin
    st.tag <- t_nil;
    0
  end

let raw_write st addr v t =
  if is_heap addr then begin
    let i = heap_index addr in
    if i < st.heap_len then begin
      st.hv.(i) <- v;
      set_tag st.htg i t
    end
  end
  else if addr < st.static_len then begin
    st.sv.(addr) <- v;
    set_tag st.stg addr t
  end

let soft_fault st = st.soft_faults <- st.soft_faults + 1

let charge_load st hit =
  st.cycles <- st.cycles + (if hit then Cost.load_hit else Cost.load_miss)

let charge_store st hit =
  st.cycles <- st.cycles + (if hit then Cost.store_hit else Cost.store_miss)

let alloc_static st size =
  grow_static st (st.static_len + size);
  let base = st.static_len in
  st.static_len <- st.static_len + size;
  Array.fill st.sv base size 0;
  Bytes.fill st.stg base size (Char.chr t_nil);
  base

let heap_alloc st size =
  reserve_heap st size;
  let base = st.heap_len in
  Array.fill st.hv base size 0;
  Bytes.fill st.htg base size (Char.chr t_nil);
  st.heap_len <- base + size;
  base - heap_base

(* Appends [n] copies of [im] to the heap: one fill for one-cell images
   (arrays of scalars), else a loop, since images are a few cells and
   blits would cost two C calls per copy. *)
let append_copies st im n =
  let size = Array.length im.im_v in
  reserve_heap st (n * size);
  let base = st.heap_len in
  let hv = st.hv and htg = st.htg in
  if size = 1 then begin
    Array.fill hv base n im.im_v.(0);
    Bytes.fill htg base n (Bytes.get im.im_t 0)
  end
  else
    for i = 0 to n - 1 do
      let at = base + (i * size) in
      for j = 0 to size - 1 do
        hv.(at + j) <- im.im_v.(j);
        set_tag htg (at + j) (get_tag im.im_t j)
      done
    done;
  st.heap_len <- base + (n * size)

let push_image st im =
  let base = st.heap_len in
  append_copies st im 1;
  base - heap_base

(* [init_slots tenv layout write_at base ty] writes the default cells of
   a [ty] value laid out from [base]: the reference's initializer. *)
let rec init_slots tenv layout write_at base ty =
  match Types.desc tenv ty with
  | Types.Drecord fields ->
    let off = ref 0 in
    Array.iter
      (fun f ->
        init_slots tenv layout write_at (base + !off) f.Types.fld_ty;
        off := !off + Layout.size layout f.Types.fld_ty)
      fields
  | Types.Darray (Some n, elem) ->
    let esz = Layout.size layout elem in
    for i = 0 to n - 1 do
      init_slots tenv layout write_at (base + (i * esz)) elem
    done
  | _ -> write_at base 0 (default_tag tenv ty)

(* An object's cells: its type tag in the header, then its fields,
   inherited first. *)
let rec init_fields tenv layout write_at base ty =
  match Types.desc tenv ty with
  | Types.Dobject info ->
    (match info.Types.obj_super with
    | Some s -> init_fields tenv layout write_at base s
    | None -> ());
    let off = ref (base + Layout.fields_start layout ty) in
    Array.iter
      (fun f ->
        init_slots tenv layout write_at !off f.Types.fld_ty;
        off := !off + Layout.size layout f.Types.fld_ty)
      info.Types.obj_fields
  | _ -> ()

let init_object tenv layout write_at base ty =
  write_at base ty t_int;
  init_fields tenv layout write_at base ty

let is_agg st ty =
  match Types.desc st.tenv ty with
  | Types.Darray _ | Types.Drecord _ -> true
  | _ -> false

(* Identical null-zone construction (and, crucially, identical heap
   allocation order) to the reference. *)
let null_zone st ty =
  match Hashtbl.find_opt st.null_zones ty with
  | Some addr -> addr
  | None ->
    let size =
      match Types.desc st.tenv ty with
      | Types.Dobject _ -> Layout.alloc_size st.layout ty ~length:None
      | Types.Darray (None, _) -> Layout.open_array_dope + 1
      | _ -> ( try Layout.size st.layout ty with Diag.Compile_error _ -> 1)
    in
    let addr = heap_alloc st (max 1 size) in
    let write = raw_write st in
    (match Types.desc st.tenv ty with
    | Types.Dobject _ -> init_object st.tenv st.layout write addr ty
    | Types.Darray (None, _) -> write addr 0 t_int
    | Types.Darray (Some _, _) | Types.Drecord _ ->
      init_slots st.tenv st.layout write addr ty
    | _ -> write addr 0 (default_tag st.tenv ty));
    Hashtbl.replace st.null_zones ty addr;
    addr

(* ------------------------------------------------------------------ *)
(* Sites and traced reads                                              *)
(* ------------------------------------------------------------------ *)

let force_site st (cs : csite) =
  match cs.cs_site with
  | Some s -> s
  | None ->
    let s =
      { site_id = st.next_site; site_proc = cs.cs_proc;
        site_block = cs.cs_block; site_index = cs.cs_index;
        site_kind = cs.cs_kind }
    in
    st.next_site <- st.next_site + 1;
    cs.cs_site <- Some s;
    s

(* The hooks of one data read at a compiled site; [st.tag] holds the tag
   of [v]. [on_access] reports the prefix an explicit site resolves. *)
let trace_read st (site : csite) addr v =
  let heap = is_heap addr in
  (match st.on_load with
  | Some f when heap ->
    f { le_site = force_site st site; le_addr = addr;
        le_value = to_value v st.tag; le_activation = st.activation;
        le_heap = heap }
  | _ -> ());
  match (st.on_access, site.cs_kind) with
  | Some f, Sexplicit (ap, k) ->
    f { ac_store = false; ac_path = Apath.truncate ap k; ac_addr = addr;
        ac_activation = st.activation; ac_heap = heap }
  | _ -> ()

(* One data read at a compiled site: counters, cache, cost, hooks. *)
let[@inline] read_at st (site : csite) addr =
  if is_heap addr then st.heap_loads <- st.heap_loads + 1
  else st.other_loads <- st.other_loads + 1;
  charge_load st (Cache.access st.cache (byte_addr addr));
  let v = raw_read st addr in
  if st.traced then trace_read st site addr v;
  v

(* A scalar resident/global variable read: never a heap address, so no
   [on_load]; [on_access] reports the bare-variable path. *)
let read_slot st (path : Apath.t) addr =
  let v = raw_read st addr in
  st.other_loads <- st.other_loads + 1;
  charge_load st (Cache.access st.cache (byte_addr addr));
  (match st.on_access with
  | Some f ->
    f { ac_store = false; ac_path = path; ac_addr = addr;
        ac_activation = st.activation; ac_heap = false }
  | None -> ());
  v

let mem_write st addr v t =
  st.stores <- st.stores + 1;
  charge_store st (Cache.access st.cache (byte_addr addr));
  raw_write st addr v t

let write_slot st (path : Apath.t) addr v t =
  mem_write st addr v t;
  match st.on_access with
  | Some f ->
    f { ac_store = true; ac_path = path; ac_addr = addr;
        ac_activation = st.activation; ac_heap = is_heap addr }
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Variables and atoms                                                 *)
(* ------------------------------------------------------------------ *)

(* Register accesses skip bounds checks: a frame's registers [fp, top)
   are always within the register stack, which [invoke] reserves before
   the frame runs. *)
let reg st slot = Array.unsafe_get st.rv (st.fp + slot)
let reg_tag st slot = get_tag st.rtg (st.fp + slot)

let set_reg st slot v t =
  let i = st.fp + slot in
  Array.unsafe_set st.rv i v;
  set_tag st.rtg i t

let[@inline] read_cvar st = function
  | Creg slot ->
    let v = reg st slot in
    st.tag <- reg_tag st slot;
    v
  | Cres { off; path } -> read_slot st path (st.sp + off)
  | Cres_agg off ->
    st.tag <- t_addr;
    st.sp + off
  | Cglob { addr; path } -> read_slot st path addr
  | Cglob_agg addr ->
    st.tag <- t_addr;
    addr
  | Cdrop ->
    st.tag <- t_nil;
    0

let[@inline] write_cvar st cv v t =
  match cv with
  | Creg slot -> set_reg st slot v t
  | Cres { off; path } -> write_slot st path (st.sp + off) v t
  | Cglob { addr; path } -> write_slot st path addr v t
  | Cres_agg _ | Cglob_agg _ -> soft_fault st
  | Cdrop -> ()

let[@inline] atom st = function
  | CAconst (v, t) ->
    st.tag <- t;
    v
  | CAvar cv -> read_cvar st cv

let index_value st a =
  let i = atom st a in
  if st.tag = t_int then i
  else begin
    soft_fault st;
    0
  end

let truthy st a =
  let v = atom st a in
  st.tag = t_bool && v <> 0

(* The ALU: [binop]/[unop] return the result payload and leave its tag in
   [st.tag]. An operand of the wrong tag is a soft fault with an INTEGER
   (arithmetic, unary) or BOOLEAN (comparison, logic) zero result. *)
let[@inline] int_result st ok v =
  st.tag <- t_int;
  if ok then v
  else begin
    soft_fault st;
    0
  end

let[@inline] bool_result st ok b =
  st.tag <- t_bool;
  if ok then Bool.to_int b
  else begin
    soft_fault st;
    0
  end

let ordered ta tb = ta = tb && (ta = t_int || ta = t_char)

let binop st op x ta y tb =
  let ints = ta = t_int && tb = t_int in
  match op with
  | Ast.Add -> int_result st ints (x + y)
  | Ast.Sub -> int_result st ints (x - y)
  | Ast.Mul -> int_result st ints (x * y)
  | Ast.Div -> int_result st ints (if y = 0 || not ints then 0 else x / y)
  | Ast.Mod -> int_result st ints (if y = 0 || not ints then 0 else x mod y)
  | Ast.Lt -> bool_result st (ordered ta tb) (x < y)
  | Ast.Le -> bool_result st (ordered ta tb) (x <= y)
  | Ast.Gt -> bool_result st (ordered ta tb) (x > y)
  | Ast.Ge -> bool_result st (ordered ta tb) (x >= y)
  | Ast.Eq -> bool_result st true (ta = tb && x = y)
  | Ast.Ne -> bool_result st true (not (ta = tb && x = y))
  | Ast.And -> bool_result st (ta = t_bool && tb = t_bool) (x land y <> 0)
  | Ast.Or -> bool_result st (ta = t_bool && tb = t_bool) (x lor y <> 0)

let unop st op x t =
  match op with
  | Ast.Neg when t = t_int -> int_result st true (-x)
  | Ast.Not when t = t_bool -> bool_result st true (x = 0)
  | Ast.Neg | Ast.Not -> int_result st false 0

(* ------------------------------------------------------------------ *)
(* Path execution                                                      *)
(* ------------------------------------------------------------------ *)

(* The address [off] cells into the block a pointer cell [p]/[t] points
   to. NIL resolves into the null zone of [zone] (a soft fault); any other
   tag is a fault with [nowhere] to go. *)
let[@inline] field_addr st p t zone off =
  if t = t_addr then p + off
  else begin
    soft_fault st;
    if t = t_nil then null_zone st zone + off else nowhere
  end

(* Walk the compiled steps from an address state. Fault ordering,
   null-zone fallbacks and index clamping replicate the reference
   [resolve] exactly. *)
let rec path_go st steps nsteps k addr =
  if k >= nsteps || addr = nowhere then addr
  else
    match steps.(k) with
    | CSderef { target; site } ->
      let p = read_at st site addr in
      path_go st steps nsteps (k + 1) (field_addr st p st.tag target 0)
    | CSfield_obj { off; owner; site } ->
      let p = read_at st site addr in
      path_go st steps nsteps (k + 1) (field_addr st p st.tag owner off)
    | CSfield_rec off -> path_go st steps nsteps (k + 1) (addr + off)
    | CSfield_bad ->
      soft_fault st;
      nowhere
    | CSindex_fixed { idx; esz; bound } ->
      let i = index_value st idx in
      let i =
        if i < 0 || i >= bound then begin
          soft_fault st;
          0
        end
        else i
      in
      path_go st steps nsteps (k + 1) (addr + (i * esz))
    | CSindex_open { idx; esz; dope } ->
      let i = index_value st idx in
      let n = read_at st dope addr in
      if st.tag = t_int then begin
        let i =
          if i < 0 || i >= n then begin
            soft_fault st;
            0
          end
          else i
        in
        path_go st steps nsteps (k + 1)
          (addr + Layout.open_array_dope + (i * esz))
      end
      else begin
        soft_fault st;
        nowhere
      end
    | CSindex_bad idx ->
      let _ = index_value st idx in
      soft_fault st;
      nowhere

(* First step over a register-valued base: deref/object-field consume the
   register value directly; everything else faults (after evaluating any
   index atom, whose side effects the reference performs first). *)
let path_start_reg st steps nsteps v t =
  match steps.(0) with
  | CSderef { target; site = _ } ->
    path_go st steps nsteps 1 (field_addr st v t target 0)
  | CSfield_obj { off; owner; site = _ } ->
    path_go st steps nsteps 1 (field_addr st v t owner off)
  | CSfield_rec _ | CSfield_bad ->
    soft_fault st;
    nowhere
  | CSindex_fixed { idx; _ } | CSindex_open { idx; _ } | CSindex_bad idx ->
    let _ = index_value st idx in
    soft_fault st;
    nowhere

let run_path st (p : cpath) =
  let steps = p.pa_steps in
  let n = Array.length steps in
  match p.pa_base with
  | CBaddr_res off -> path_go st steps n 0 (st.sp + off)
  | CBaddr_glob a -> path_go st steps n 0 a
  | CBreg slot ->
    if n = 0 then begin
      (* A bare register has no address; lowering guarantees this cannot
         be reached for memory instructions. *)
      soft_fault st;
      nowhere
    end
    else path_start_reg st steps n (reg st slot) (reg_tag st slot)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

(* Compiling a procedure allocates little beyond the code itself: the
   variable tables are the run's [scratch] arrays, register atoms and
   small constants are shared, NEW plans are built once per type, and an
   untraced run builds no site. Registers renumber a procedure's
   variables densely, in first-seen order, so a frame is a window of the
   register stack. Every table is filled in the order the code is
   compiled, so the first [Apath.of_var] of each variable comes where it
   always has. *)
type cctx = {
  cc_st : state;
  cc_proc : Cfg.proc;
  cc_stamp : int;  (* this procedure's variable-table stamp *)
  cc_seen : int;  (* the resident walk's stamp *)
  mutable cc_nregs : int;
  mutable cc_res : Reg.var list;  (* residents, last seen first *)
}

let take_stamp scr =
  let s = scr.next_stamp in
  scr.next_stamp <- s + 1;
  s

let no_atom = CAvar Cdrop

(* Grows the variable tables to cover ids below [n], keeping their
   entries. *)
let cover_vars scr n =
  if n > Array.length scr.v_stamp then begin
    let len = Array.length scr.v_stamp in
    let cap = max n (2 * len) in
    let stamp = Array.make cap 0 and atom = Array.make cap no_atom in
    let cell = Array.make cap 0 in
    Array.blit scr.v_stamp 0 stamp 0 len;
    Array.blit scr.v_atom 0 atom 0 len;
    Array.blit scr.v_cell 0 cell 0 len;
    scr.v_stamp <- stamp;
    scr.v_atom <- atom;
    scr.v_cell <- cell
  end

(* Shared atoms: registers below [shared_regs], and the constants that
   need no allocation of their own. *)
let shared_regs = 1024
let reg_atoms = Array.init shared_regs (fun s -> CAvar (Creg s))
let reg_atom s = if s < shared_regs then reg_atoms.(s) else CAvar (Creg s)
let int_atoms = Array.init 256 (fun n -> CAconst (n, t_int))
let char_atoms = Array.init 256 (fun c -> CAconst (c, t_char))
let true_atom = CAconst (1, t_bool)
let false_atom = CAconst (0, t_bool)
let nil_atom = CAconst (0, t_nil)

let new_reg cc (v : Reg.var) =
  let scr = cc.cc_st.scr in
  let s = cc.cc_nregs in
  cc.cc_nregs <- s + 1;
  if s >= Bytes.length scr.reg_tags then begin
    let tags = Bytes.create (2 * Bytes.length scr.reg_tags) in
    Bytes.blit scr.reg_tags 0 tags 0 s;
    scr.reg_tags <- tags
  end;
  set_tag scr.reg_tags s (default_tag cc.cc_st.tenv v.Reg.v_ty);
  s

(* A memory cell's atom. Interned for every memory cell, aggregate or
   not. *)
let cell_atom st (v : Reg.var) ~global addr =
  let path = Apath.of_var v in
  match (global, is_agg st v.Reg.v_ty) with
  | true, false -> CAvar (Cglob { addr; path })
  | true, true -> CAvar (Cglob_agg addr)
  | false, false -> CAvar (Cres { off = addr; path })
  | false, true -> CAvar (Cres_agg addr)

let var_atom cc (v : Reg.var) =
  let st = cc.cc_st in
  let scr = st.scr in
  let id = v.Reg.v_id in
  cover_vars scr (id + 1);
  let s = scr.v_stamp.(id) in
  if s = cc.cc_stamp || s = st.run_stamp then scr.v_atom.(id)
  else begin
    let global = s = -st.run_stamp in
    let a =
      if global || s = -cc.cc_stamp then
        cell_atom st v ~global scr.v_cell.(id)
      else reg_atom (new_reg cc v)
    in
    scr.v_stamp.(id) <- (if global then st.run_stamp else cc.cc_stamp);
    scr.v_atom.(id) <- a;
    a
  end

let cvar_of cc v =
  match var_atom cc v with CAvar cv -> cv | CAconst _ -> assert false

let catom_of cc = function
  | Reg.Avar v -> var_atom cc v
  | Reg.Aint n -> if n >= 0 && n < 256 then int_atoms.(n) else CAconst (n, t_int)
  | Reg.Abool b -> if b then true_atom else false_atom
  | Reg.Achar c -> char_atoms.(Char.code c)
  | Reg.Anil -> nil_atom

let rec fill_catoms cc a i = function
  | [] -> ()
  | x :: rest ->
    a.(i) <- catom_of cc x;
    fill_catoms cc a (i + 1) rest

(* [args] left to right into a fresh array. *)
let catoms_of cc args =
  let a = Array.make (List.length args) no_atom in
  fill_catoms cc a 0 args;
  a

let site cc ~block ~index kind =
  { cs_proc = cc.cc_proc.Cfg.pr_name; cs_block = block; cs_index = index;
    cs_kind = kind; cs_site = None }

let explicit_site cc ~block ~index ap k =
  if cc.cc_st.traced then site cc ~block ~index (Sexplicit (ap, k))
  else cc.cc_st.no_site

let dope_site cc ~block ~index ap =
  if cc.cc_st.traced then site cc ~block ~index (Sdope ap)
  else cc.cc_st.no_site

let plain_site cc ~block ~index kind =
  if cc.cc_st.traced then site cc ~block ~index kind else cc.cc_st.no_site

let compile_step cc ~block ~index ap k cur_ty = function
  | Apath.Sderef target ->
    CSderef { target; site = explicit_site cc ~block ~index ap k }
  | Apath.Sfield (f, _) -> (
    let st = cc.cc_st in
    match Types.desc st.tenv cur_ty with
    | Types.Dobject _ ->
      CSfield_obj
        { off = Layout.field_offset st.layout cur_ty f; owner = cur_ty;
          site = explicit_site cc ~block ~index ap k }
    | Types.Drecord _ -> CSfield_rec (Layout.field_offset st.layout cur_ty f)
    | _ -> CSfield_bad)
  | Apath.Sindex (idx, elem_ty) -> (
    let st = cc.cc_st in
    let cidx = catom_of cc idx in
    let esz = Layout.size st.layout elem_ty in
    match Types.desc st.tenv cur_ty with
    | Types.Darray (Some n, _) -> CSindex_fixed { idx = cidx; esz; bound = n }
    | Types.Darray (None, _) ->
      CSindex_open { idx = cidx; esz; dope = dope_site cc ~block ~index ap }
    | _ -> CSindex_bad cidx)

let compile_path cc ~block ~index (ap : Apath.t) : cpath =
  let base = Apath.base ap in
  let pa_base =
    match cvar_of cc base with
    | Cglob { addr; _ } | Cglob_agg addr -> CBaddr_glob addr
    | Cres { off; _ } | Cres_agg off -> CBaddr_res off
    | Creg s -> CBreg s
    | Cdrop -> assert false
  in
  let n = Apath.length ap in
  let steps = Array.make n CSfield_bad in
  let cur_ty = ref base.Reg.v_ty in
  for k = 0 to n - 1 do
    let sel = Apath.selector ap k in
    steps.(k) <- compile_step cc ~block ~index ap k !cur_ty sel;
    cur_ty := Apath.selector_result sel
  done;
  { pa_base; pa_steps = steps }

(* Default-initialized contents of an aggregate, relative to cell 0 —
   the compile-time image of [init_slots]. *)
let write_image im i v t =
  im.im_v.(i) <- v;
  set_tag im.im_t i t

let image_of st size ty =
  let im = image size in
  init_slots st.tenv st.layout (write_image im) 0 ty;
  im

let build_plan st ty : cnew =
  match Types.desc st.tenv ty with
  | Types.Dobject _ -> (
    match Layout.alloc_size st.layout ty ~length:None with
    | exception Diag.Compile_error _ -> CNbad
    | size ->
      let im = image size in
      init_object st.tenv st.layout (write_image im) 0 ty;
      CNblock im)
  | Types.Dref { target; _ } -> (
    match Types.desc st.tenv target with
    | Types.Darray (None, elem) -> (
      match Layout.size st.layout elem with
      | exception Diag.Compile_error _ -> CNbad
      | esz -> CNopen { esz; elem = image_of st esz elem })
    | _ -> (
      match Layout.size st.layout target with
      | exception Diag.Compile_error _ -> CNbad
      | size -> CNblock (image_of st size target)))
  | _ -> CNbad

(* The run's plan for [ty], built at its first NEW. *)
let plan_of st ty =
  if Array.length st.plans = 0 then
    st.plans <- Array.make (Types.count st.tenv) unplanned;
  if ty < 0 || ty >= Array.length st.plans then build_plan st ty
  else begin
    if st.plans.(ty) == unplanned then st.plans.(ty) <- build_plan st ty;
    st.plans.(ty)
  end

(* An open array's plan needs its length argument: without one,
   Layout.alloc_size rejects the type. *)
let compile_new st ty ~has_len : cnew =
  match plan_of st ty with CNopen _ when not has_len -> CNbad | plan -> plan

let target_of st (proc : Cfg.proc) =
  let key = Ident.id proc.Cfg.pr_name in
  match Hashtbl.find_opt st.targets key with
  | Some pt -> pt
  | None ->
    let pt = { pt_proc = proc; pt_code = None } in
    Hashtbl.replace st.targets key pt;
    pt

let find_target st name =
  Option.map (target_of st) (Cfg.find_proc_opt st.program name)

(* Resolution depends only on the receiver's tag and the method, so every
   call site of [m] shares one table. *)
let method_impls st m =
  let key = Ident.id m in
  match Hashtbl.find_opt st.scr.s_methods key with
  | Some impls -> impls
  | None ->
    let impls = Array.make (Types.count st.tenv) Unresolved in
    Hashtbl.replace st.scr.s_methods key impls;
    impls

(* Operands are compiled in the order the code always compiled them (a
   tuple or constructor evaluates its arguments right to left), so the
   variables meet the tables in the same order. *)
let dst_of cc = function
  | Some v -> cvar_of cc v
  | None -> Cdrop

let dtag_of st = function
  | Some (v : Reg.var) -> default_tag st.tenv v.Reg.v_ty
  | None -> t_nil

let compile_instr cc ~block ~index (instr : Instr.t) : cinstr =
  let st = cc.cc_st in
  match instr with
  | Instr.Iassign (v, Instr.Ratom a) -> (
    let a = catom_of cc a in
    match (cvar_of cc v, a) with
    | Creg d, CAvar (Creg s) -> CImove_rr (d, s)
    | dst, a -> CImove (dst, a))
  | Instr.Iassign (v, Instr.Rbinop (op, a, b)) -> (
    let b = catom_of cc b in
    let a = catom_of cc a in
    match (cvar_of cc v, a, b) with
    | Creg d, CAvar (Creg a), CAvar (Creg b) -> CIbinop_rr { d; op; a; b }
    | Creg d, CAvar (Creg a), CAconst (c, ct) -> CIbinop_rc { d; op; a; c; ct }
    | dst, a, b -> CIbinop (dst, op, a, b))
  | Instr.Iassign (v, Instr.Runop (op, a)) ->
    let a = catom_of cc a in
    CIunop (cvar_of cc v, op, a)
  | Instr.Iload (v, ap) ->
    let dst = cvar_of cc v in
    let final = explicit_site cc ~block ~index ap (Apath.length ap) in
    CIload
      { dst; path = compile_path cc ~block ~index ap; final;
        dtag = default_tag st.tenv v.Reg.v_ty }
  | Instr.Istore (ap, a) ->
    let value = catom_of cc a in
    CIstore { path = compile_path cc ~block ~index ap; value; ap }
  | Instr.Iaddr (v, ap) ->
    let path = compile_path cc ~block ~index ap in
    CIaddr (cvar_of cc v, path)
  | Instr.Inew (v, ty, len) ->
    let plan = compile_new st ty ~has_len:(len <> None) in
    let len = match len with Some a -> Some (catom_of cc a) | None -> None in
    CInew { dst = cvar_of cc v; len; plan }
  | Instr.Icall (dst, target, args) ->
    let callee =
      match target with
      | Instr.Cdirect p -> (
        match find_target st p with Some pt -> CCdirect pt | None -> CCmissing)
      | Instr.Cvirtual (m, static_ty) ->
        CCvirtual
          { m; site = plain_site cc ~block ~index Sdispatch;
            nil_target =
              Option.bind (Types.method_impl st.tenv static_ty m) (find_target st);
            impls = method_impls st m }
    in
    let dtag = dtag_of st dst and dst = dst_of cc dst in
    CIcall { dst; dtag; callee; args = catoms_of cc args }
  | Instr.Ibuiltin (dst, b, args) ->
    let number =
      match (b, args) with
      | Tast.Bnumber, [ Reg.Avar v ] -> (
        match Types.desc st.tenv v.Reg.v_ty with
        | Types.Darray (Some n, _) -> NBfixed n
        | Types.Darray (None, _) ->
          NBopen (plain_site cc ~block ~index Snumber)
        | _ -> NBbad)
      | _ -> NBbad
    in
    let dtag = dtag_of st dst and dst = dst_of cc dst in
    CIbuiltin { dst; dtag; b; args = catoms_of cc args; number }

(* Calls and Halt end a block's call-free segments. *)
let ends_segment = function
  | CIcall _ | CIbuiltin { b = Tast.Bhalt; _ } -> true
  | CImove _ | CImove_rr _ | CIbinop _ | CIbinop_rr _ | CIbinop_rc _
  | CIunop _ | CIload _ | CIstore _ | CIaddr _ | CInew _ | CIbuiltin _ ->
    false

let segments instrs =
  let n = Array.length instrs in
  let count = ref 1 in
  for i = 0 to n - 1 do
    if ends_segment instrs.(i) then incr count
  done;
  let segs = Array.make !count n in
  let k = ref 0 in
  for i = 0 to n - 1 do
    if ends_segment instrs.(i) then begin
      segs.(!k) <- i + 1;
      incr k
    end
  done;
  segs

let no_instr = CImove_rr (0, 0)

let rec compile_instrs cc bid instrs index = function
  | [] -> ()
  | i :: rest ->
    instrs.(index) <- compile_instr cc ~block:bid ~index i;
    compile_instrs cc bid instrs (index + 1) rest

let compile_block cc bid =
  let b = Cfg.block cc.cc_proc bid in
  let instrs = Array.make (List.length b.Cfg.b_instrs) no_instr in
  compile_instrs cc bid instrs 0 b.Cfg.b_instrs;
  let cb_term =
    match b.Cfg.b_term with
    | Instr.Tjump l -> CTjump l
    | Instr.Tbranch (a, t, f) -> CTbranch (catom_of cc a, t, f)
    | Instr.Treturn None -> CTreturn None
    | Instr.Treturn (Some a) -> CTreturn (Some (catom_of cc a))
  in
  { cb_instrs = instrs; cb_segs = segments instrs; cb_term }

(* The reference's resident-variable discovery: the variables whose
   address is taken, and the aggregates a frame owns, in first-seen order
   over the instructions (an address-taken base, then the variables read,
   then the one defined), then the formals and locals. [cc_res] ends up
   last seen first, the order that lays out the frame and so fixes stack
   addresses, cache behaviour and cycles. *)
let note cc (v : Reg.var) =
  let scr = cc.cc_st.scr in
  let id = v.Reg.v_id in
  cover_vars scr (id + 1);
  if scr.v_stamp.(id) <> cc.cc_seen then begin
    scr.v_stamp.(id) <- cc.cc_seen;
    cc.cc_res <- v :: cc.cc_res
  end

let note_owned cc (v : Reg.var) =
  match v.Reg.v_kind with
  | Reg.Vlocal | Reg.Vtemp | Reg.Vparam Ast.By_value ->
    if is_agg cc.cc_st v.Reg.v_ty then note cc v
  | Reg.Vglobal | Reg.Vparam Ast.By_ref | Reg.Vaddr -> ()

let note_atom cc = function Reg.Avar v -> note_owned cc v | _ -> ()

let rec note_atoms cc = function
  | [] -> ()
  | a :: rest ->
    note_atom cc a;
    note_atoms cc rest

let rec note_vars cc = function
  | [] -> ()
  | v :: rest ->
    note_owned cc v;
    note_vars cc rest

(* [Apath.vars_used]: the base, then each index variable. *)
let note_path cc ap =
  note_owned cc (Apath.base ap);
  for k = 0 to Apath.length ap - 1 do
    match Apath.selector ap k with
    | Apath.Sindex (Reg.Avar v, _) -> note_owned cc v
    | _ -> ()
  done

let note_instr cc (i : Instr.t) =
  (match i with
  | Instr.Iaddr (_, ap) when not (Apath.is_memory_ref ap) ->
    if (Apath.base ap).Reg.v_kind <> Reg.Vglobal then note cc (Apath.base ap)
  | _ -> ());
  match i with
  | Instr.Iassign (v, Instr.Ratom a) | Instr.Iassign (v, Instr.Runop (_, a)) ->
    note_atom cc a;
    note_owned cc v
  | Instr.Iassign (v, Instr.Rbinop (_, a, b)) ->
    note_atom cc a;
    note_atom cc b;
    note_owned cc v
  | Instr.Iload (v, ap) | Instr.Iaddr (v, ap) ->
    note_path cc ap;
    note_owned cc v
  | Instr.Istore (ap, a) ->
    note_atom cc a;
    note_path cc ap
  | Instr.Inew (v, _, len) ->
    (match len with Some a -> note_atom cc a | None -> ());
    note_owned cc v
  | Instr.Icall (dst, _, args) | Instr.Ibuiltin (dst, _, args) -> (
    note_atoms cc args;
    match dst with Some v -> note_owned cc v | None -> ())

let rec note_instrs cc = function
  | [] -> ()
  | i :: rest ->
    note_instr cc i;
    note_instrs cc rest

let compile_proc st (proc : Cfg.proc) : cproc =
  let scr = st.scr in
  let cc_seen = take_stamp scr in
  let cc =
    { cc_st = st; cc_proc = proc; cc_stamp = take_stamp scr; cc_seen;
      cc_nregs = 0; cc_res = [] }
  in
  for bid = 0 to Cfg.n_blocks proc - 1 do
    note_instrs cc (Cfg.block proc bid).Cfg.b_instrs
  done;
  note_vars cc proc.Cfg.pr_params;
  note_vars cc proc.Cfg.pr_locals;
  (* The formals take registers 0 .. n-1, where a call's arguments land. *)
  let cp_nparams = List.length proc.Cfg.pr_params in
  List.iter
    (fun (v : Reg.var) ->
      let s = new_reg cc v in
      cover_vars scr (v.Reg.v_id + 1);
      scr.v_stamp.(v.Reg.v_id) <- cc.cc_stamp;
      scr.v_atom.(v.Reg.v_id) <- reg_atom s)
    proc.Cfg.pr_params;
  (* Residents get consecutive stack cells in the reference's order; a
     scalar one is loaded from its register (its formal's, or a fresh
     one holding its default). *)
  let size (v : Reg.var) =
    if is_agg st v.Reg.v_ty then Layout.size st.layout v.Reg.v_ty else 1
  in
  let frame_size, scalars =
    List.fold_left
      (fun (off, n) (v : Reg.var) ->
        (off + size v, if is_agg st v.Reg.v_ty then n else n + 1))
      (0, 0) cc.cc_res
  in
  let cp_frame = image frame_size in
  let cp_sc_off = Array.make scalars 0 and cp_sc_reg = Array.make scalars 0 in
  ignore
    (List.fold_left
       (fun (off, k) (v : Reg.var) ->
         let id = v.Reg.v_id in
         let k =
           if is_agg st v.Reg.v_ty then begin
             init_slots st.tenv st.layout (write_image cp_frame) off v.Reg.v_ty;
             k
           end
           else begin
             cp_sc_off.(k) <- off;
             cp_sc_reg.(k) <-
               (match scr.v_atom.(id) with
               | CAvar (Creg s) when scr.v_stamp.(id) = cc.cc_stamp -> s
               | _ -> new_reg cc v);
             k + 1
           end
         in
         scr.v_stamp.(id) <- -cc.cc_stamp;
         scr.v_cell.(id) <- off;
         (off + size v, k))
       (0, 0) cc.cc_res);
  let cp_blocks = Array.init (Cfg.n_blocks proc) (compile_block cc) in
  { cp_tags = Bytes.sub scr.reg_tags 0 cc.cc_nregs; cp_nparams; cp_frame;
    cp_sc_off; cp_sc_reg; cp_blocks; cp_entry = proc.Cfg.pr_entry }

let code_of st pt =
  match pt.pt_code with
  | Some cp -> cp
  | None ->
    let cp = compile_proc st pt.pt_proc in
    pt.pt_code <- Some cp;
    cp

(* ------------------------------------------------------------------ *)
(* Execution                                                           *)
(* ------------------------------------------------------------------ *)

let tick st =
  st.instrs <- st.instrs + 1;
  st.fuel <- st.fuel - 1;
  if st.fuel <= 0 then raise Out_of_fuel

(* Evaluate [args] left to right into the cells at [top]: a callee's
   formals, or a builtin's operands. *)
let eval_args st args =
  let n = Array.length args in
  let base = st.top in
  reserve_regs st (base + n);
  for i = 0 to n - 1 do
    let v = atom st args.(i) in
    st.rv.(base + i) <- v;
    set_tag st.rtg (base + i) st.tag
  done

let arg st i = st.rv.(st.top + i)
let arg_tag st i = get_tag st.rtg (st.top + i)

(* A virtual call's target, from its receiver (argument 0). *)
let resolve st m tag =
  Option.bind (Types.method_impl st.tenv tag m) (find_target st)

let dispatch st ~m ~site ~nil_target ~impls nargs =
  st.cycles <- st.cycles + Cost.dispatch;
  if nargs = 0 then None
  else
    let t = arg_tag st 0 in
    if t = t_addr then begin
      let tag = read_at st site (arg st 0) in
      if st.tag <> t_int then None
      else if tag < 0 || tag >= Array.length impls then resolve st m tag
      else
        match impls.(tag) with
        | Resolved r -> r
        | Unresolved ->
          let r = resolve st m tag in
          impls.(tag) <- Resolved r;
          r
    end
    else if t = t_nil then begin
      soft_fault st;
      nil_target
    end
    else None

(* The final read of a load, or the destination's default if its path
   faulted. *)
let[@inline] load_into st dst addr final dtag =
  if addr = nowhere then write_cvar st dst 0 dtag
  else
    let v = read_at st final addr in
    write_cvar st dst v st.tag

let store_at st addr v t ap =
  if addr <> nowhere then begin
    mem_write st addr v t;
    match st.on_access with
    | Some f ->
      f { ac_store = true; ac_path = ap; ac_addr = addr;
          ac_activation = st.activation; ac_heap = is_heap addr }
    | None -> ()
  end

let no_callee st dst dtag =
  soft_fault st;
  write_cvar st dst 0 dtag

let print st dst dtag s =
  st.cycles <- st.cycles + Cost.builtin_io;
  Buffer.add_string st.out_buf s;
  write_cvar st dst 0 dtag

let pure st dst v t =
  st.cycles <- st.cycles + Cost.builtin_pure;
  write_cvar st dst v t

let one st n t = n = 1 && arg_tag st 0 = t
let two_ints st n = n = 2 && arg_tag st 0 = t_int && arg_tag st 1 = t_int

(* A builtin over its [n] operands at [top]; a builtin with no result
   writes the destination's default. *)
let exec_builtin st dst dtag b n number =
  match b with
  | Tast.Bprint_int when one st n t_int ->
    print st dst dtag (string_of_int (arg st 0))
  | Tast.Bprint_char when one st n t_char ->
    st.cycles <- st.cycles + Cost.builtin_io;
    Buffer.add_char st.out_buf (Char.chr (arg st 0));
    write_cvar st dst 0 dtag
  | Tast.Bprint_bool when one st n t_bool ->
    print st dst dtag (if arg st 0 <> 0 then "TRUE" else "FALSE")
  | Tast.Bprint_text s when n = 0 -> print st dst dtag s
  | Tast.Bprint_ln when n = 0 -> print st dst dtag "\n"
  | Tast.Bord when one st n t_char -> pure st dst (arg st 0) t_int
  | Tast.Bchr when one st n t_int ->
    pure st dst (((arg st 0 mod 256) + 256) mod 256) t_char
  | Tast.Babs when one st n t_int -> pure st dst (abs (arg st 0)) t_int
  | Tast.Bmin when two_ints st n -> pure st dst (min (arg st 0) (arg st 1)) t_int
  | Tast.Bmax when two_ints st n -> pure st dst (max (arg st 0) (arg st 1)) t_int
  | Tast.Bnumber when one st n t_addr -> (
    match number with
    | NBfixed k -> pure st dst k t_int
    | NBopen site ->
      let k = read_at st site (arg st 0) in
      if st.tag = t_int then pure st dst k t_int
      else begin
        soft_fault st;
        pure st dst 0 t_int
      end
    | NBbad ->
      soft_fault st;
      pure st dst 0 t_int)
  | Tast.Bhalt when n = 0 -> raise Halt_program
  | _ ->
    soft_fault st;
    write_cvar st dst 0 dtag

let charge_alloc st size =
  st.cycles <- st.cycles + Cost.alloc_base + (Cost.alloc_per_slot * size)

let rec invoke st pt nargs =
  let cp = code_of st pt in
  st.calls <- st.calls + 1;
  let fp = st.fp and top = st.top and sp = st.sp and act = st.activation in
  (* Replicates List.iter2's partial behaviour: the common prefix is bound
     before a length mismatch surfaces as one soft fault. *)
  let np = cp.cp_nparams in
  if nargs <> np then soft_fault st;
  let bound = min nargs np in
  let nregs = Bytes.length cp.cp_tags in
  reserve_regs st (top + nregs);
  let rv = st.rv and rtg = st.rtg in
  Array.fill rv (top + bound) (nregs - bound) 0;
  Bytes.blit cp.cp_tags bound rtg (top + bound) (nregs - bound);
  st.activation <- st.next_activation;
  st.next_activation <- st.next_activation + 1;
  let base = st.static_len in
  let fsize = Array.length cp.cp_frame.im_v in
  if fsize > 0 then begin
    grow_static st (base + fsize);
    st.static_len <- base + fsize;
    let sv = st.sv and stg = st.stg in
    for i = 0 to fsize - 1 do
      sv.(base + i) <- cp.cp_frame.im_v.(i);
      set_tag stg (base + i) (get_tag cp.cp_frame.im_t i)
    done;
    for i = 0 to Array.length cp.cp_sc_off - 1 do
      let a = base + cp.cp_sc_off.(i) and r = top + cp.cp_sc_reg.(i) in
      sv.(a) <- rv.(r);
      set_tag stg a (get_tag rtg r)
    done
  end;
  st.fp <- top;
  st.top <- top + nregs;
  st.sp <- base;
  exec_body st cp;
  st.static_len <- base;
  st.fp <- fp;
  st.top <- top;
  st.sp <- sp;
  st.activation <- act

(* Run a procedure body; a RETURN leaves its result in [ret_v]/[ret_t].
   Fuel and the instruction counter are charged once per call-free
   segment when the fuel covers it. When it does not, the segment falls
   back to charging before each instruction, so Out_of_fuel is raised at
   exactly the reference's point, before the call that ends the segment
   can run. *)
and exec_body st cp =
  let blocks = cp.cp_blocks in
  let bid = ref cp.cp_entry in
  let running = ref true in
  while !running do
    let b = blocks.(!bid) in
    let instrs = b.cb_instrs in
    let segs = b.cb_segs in
    let last = Array.length segs - 1 in
    let start = ref 0 in
    for s = 0 to last do
      let stop = segs.(s) in
      let charge = if s = last then stop - !start + 1 else stop - !start in
      if st.fuel > charge then begin
        st.fuel <- st.fuel - charge;
        st.instrs <- st.instrs + charge;
        for j = !start to stop - 1 do
          exec_cinstr st instrs.(j)
        done
      end
      else begin
        for j = !start to stop - 1 do
          tick st;
          exec_cinstr st instrs.(j)
        done;
        if s = last then tick st
      end;
      start := stop
    done;
    match b.cb_term with
    | CTjump l ->
      st.cycles <- st.cycles + Cost.jump;
      bid := l
    | CTbranch (a, t, f) ->
      st.cycles <- st.cycles + Cost.branch;
      bid := if truthy st a then t else f
    | CTreturn a ->
      st.cycles <- st.cycles + Cost.ret;
      running := false;
      (match a with
      | Some a ->
        let v = atom st a in
        st.ret_t <- st.tag;
        st.ret_v <- v
      | None -> st.ret_t <- t_none)
  done

and exec_cinstr st (ci : cinstr) =
  match ci with
  | CImove (dst, a) ->
    st.cycles <- st.cycles + Cost.move;
    let v = atom st a in
    write_cvar st dst v st.tag
  | CImove_rr (d, s) ->
    st.cycles <- st.cycles + Cost.move;
    set_reg st d (reg st s) (reg_tag st s)
  | CIbinop (dst, op, a, b) ->
    st.cycles <- st.cycles + Cost.alu;
    (* Operands evaluate right-to-left, matching the reference's
       application order (operand reads of memory-resident variables are
       observable in counters and cache state). *)
    let y = atom st b in
    let tb = st.tag in
    let x = atom st a in
    let v = binop st op x st.tag y tb in
    write_cvar st dst v st.tag
  | CIbinop_rr { d; op; a; b } ->
    st.cycles <- st.cycles + Cost.alu;
    let v = binop st op (reg st a) (reg_tag st a) (reg st b) (reg_tag st b) in
    set_reg st d v st.tag
  | CIbinop_rc { d; op; a; c; ct } ->
    st.cycles <- st.cycles + Cost.alu;
    let v = binop st op (reg st a) (reg_tag st a) c ct in
    set_reg st d v st.tag
  | CIunop (dst, op, a) ->
    st.cycles <- st.cycles + Cost.alu;
    let x = atom st a in
    let v = unop st op x st.tag in
    write_cvar st dst v st.tag
  | CIload { dst; path; final; dtag } ->
    load_into st dst (run_path st path) final dtag
  | CIstore { path; value; ap } ->
    let v = atom st value in
    let t = st.tag in
    store_at st (run_path st path) v t ap
  | CIaddr (dst, path) ->
    st.cycles <- st.cycles + Cost.addr;
    let addr = run_path st path in
    if addr = nowhere then write_cvar st dst 0 t_nil
    else write_cvar st dst addr t_addr
  | CInew { dst; len; plan } -> (
    st.allocations <- st.allocations + 1;
    let n =
      match len with
      | None -> 0
      | Some a ->
        let n = atom st a in
        if st.tag = t_int && n >= 0 then n
        else begin
          soft_fault st;
          0
        end
    in
    match plan with
    | CNbad ->
      soft_fault st;
      write_cvar st dst 0 t_nil
    | CNblock im ->
      charge_alloc st (Array.length im.im_v);
      write_cvar st dst (push_image st im) t_addr
    | CNopen { esz; elem } ->
      charge_alloc st (Layout.open_array_dope + (n * esz));
      let addr = heap_alloc st Layout.open_array_dope in
      raw_write st addr n t_int;
      append_copies st elem n;
      write_cvar st dst addr t_addr)
  | CIcall { dst; dtag; callee; args } -> (
    eval_args st args;
    let nargs = Array.length args in
    st.cycles <- st.cycles + Cost.call + (Cost.arg * nargs);
    match callee with
    | CCdirect pt -> call st pt nargs dst dtag
    | CCmissing -> no_callee st dst dtag
    | CCvirtual { m; site; nil_target; impls } -> (
      match dispatch st ~m ~site ~nil_target ~impls nargs with
      | Some pt -> call st pt nargs dst dtag
      | None -> no_callee st dst dtag))
  | CIbuiltin { dst; dtag; b; args; number } ->
    eval_args st args;
    exec_builtin st dst dtag b (Array.length args) number

and call st pt nargs dst dtag =
  invoke st pt nargs;
  if st.ret_t = t_none then write_cvar st dst 0 dtag
  else write_cvar st dst st.ret_v st.ret_t

(* ------------------------------------------------------------------ *)
(* Program entry                                                       *)
(* ------------------------------------------------------------------ *)

(* What a domain keeps between runs (Domain.DLS, so runs on different
   domains share nothing). Compiled code is never kept: every run
   compiles the program it is given.

   A run borrows its domain's [scratch] and hands it back, keeping each
   array that stayed within [retained_cells] (or [retained_vars], for the
   variable tables): a small run then allocates no cell array, cache or
   output buffer of its own. What grew past the cap is dropped, so a
   large run leaves nothing large behind, except in [s_spare_v] and
   [s_spare_tg], which do not keep it alive: the weak pointers refer to
   the heap's arrays themselves (past the minor heap's size limit, they
   were allocated in the major heap), so only a major cycle that finds
   them unreachable clears them. Until then, the next large run uses
   that heap instead of taking fresh pages beside it (on
   paper-suite's set-up, where m3cg's 0.55M-cell heap followed
   write_pickle's 1.45M-cell one before a major cycle had ended, that
   was 5 MB of peak memory). A run started while its domain's scratch
   is lent out (from an [on_load] or [on_access] hook) gets fresh arrays
   of its own. *)
let retained_cells = 1 lsl 16
let retained_vars = 1 lsl 16
let retained_output = 1 lsl 16
let min_heap = 256
let min_regs = 256
let min_static = 1024

let fresh_scratch ~pooled =
  { pooled; busy = false;
    s_sv = Array.make min_static 0; s_stg = Bytes.create min_static;
    s_hv = Array.make min_heap 0; s_htg = Bytes.create min_heap;
    s_rv = Array.make min_regs 0; s_rtg = Bytes.create min_regs;
    s_cache = Cache.create (); s_out = Buffer.create 4096;
    v_stamp = [||]; v_atom = [||]; v_cell = [||];
    reg_tags = Bytes.create 64; next_stamp = 1;
    s_targets = Hashtbl.create 32; s_methods = Hashtbl.create 8;
    s_null_zones = Hashtbl.create 16; s_spare_v = Weak.create 1;
    s_spare_tg = Weak.create 1 }

let scratches : scratch Domain.DLS.key =
  Domain.DLS.new_key (fun () -> fresh_scratch ~pooled:true)

let borrow () =
  let scr = Domain.DLS.get scratches in
  if scr.busy then fresh_scratch ~pooled:false
  else begin
    scr.busy <- true;
    Cache.reset scr.s_cache;
    Buffer.clear scr.s_out;
    scr
  end

let hand_back st =
  let scr = st.scr in
  if scr.pooled then begin
    let within a = Array.length a <= retained_cells in
    if within st.hv then begin
      scr.s_hv <- st.hv;
      scr.s_htg <- st.htg
    end
    else begin
      Weak.set scr.s_spare_v 0 (Some st.hv);
      Weak.set scr.s_spare_tg 0 (Some st.htg)
    end;
    if within st.sv then begin
      scr.s_sv <- st.sv;
      scr.s_stg <- st.stg
    end;
    if within st.rv then begin
      scr.s_rv <- st.rv;
      scr.s_rtg <- st.rtg
    end;
    if Array.length scr.v_stamp > retained_vars then begin
      scr.v_stamp <- [||];
      scr.v_atom <- [||];
      scr.v_cell <- [||]
    end;
    if Buffer.length scr.s_out > retained_output then Buffer.reset scr.s_out;
    Hashtbl.clear scr.s_targets;
    Hashtbl.clear scr.s_methods;
    Hashtbl.clear scr.s_null_zones;
    scr.busy <- false
  end

(* Heap capacity hints, for the heaps too large to retain: regrowing the
   simulated heap from empty costs a doubling series of multi-megabyte
   array copies (all immediately garbage), which can rival the execution
   itself on allocation-heavy programs. Pre-sizing to the previous run's
   high-water mark is observably neutral — the heap length (and so every
   simulated address) is unaffected by capacity. Hints are keyed by a
   cheap structural fingerprint of the program so a large run does not
   make every later small program prepay its footprint; a collision only
   costs (or saves) some reserve, never correctness. *)
let heap_hints : (int * int * int, int) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

let heap_hint_key (program : Cfg.program) =
  ( Ident.id program.Cfg.prog_main,
    List.length program.Cfg.prog_procs,
    List.length program.Cfg.prog_globals )

let note_heap_len program len =
  if len > retained_cells then begin
    let hints = Domain.DLS.get heap_hints in
    let key = heap_hint_key program in
    match Hashtbl.find_opt hints key with
    | Some cap when cap >= len -> ()
    | _ -> Hashtbl.replace hints key len
  end

let start scr ~fuel ~on_load ~on_access (program : Cfg.program) =
  let hv, htg =
    match Hashtbl.find_opt (Domain.DLS.get heap_hints) (heap_hint_key program) with
    | Some cap when cap > Array.length scr.s_hv -> (
      match (Weak.get scr.s_spare_v 0, Weak.get scr.s_spare_tg 0) with
      | Some v, Some t when Array.length v >= cap ->
        Weak.set scr.s_spare_v 0 None;
        Weak.set scr.s_spare_tg 0 None;
        (v, t)
      | _ -> (Array.make cap 0, Bytes.create cap))
    | _ -> (scr.s_hv, scr.s_htg)
  in
  cover_vars scr program.Cfg.next_var_id;
  { program; tenv = program.Cfg.tenv; layout = Layout.create program.Cfg.tenv;
    sv = scr.s_sv; stg = scr.s_stg; static_len = 0; hv; htg; heap_len = 0;
    rv = scr.s_rv; rtg = scr.s_rtg; fp = 0; top = 0; sp = 0; activation = 0;
    tag = t_nil; ret_v = 0; ret_t = t_none; cache = scr.s_cache; cycles = 0;
    out_buf = scr.s_out; soft_faults = 0; fuel; instrs = 0; heap_loads = 0;
    other_loads = 0; stores = 0; calls = 0; allocations = 0; on_load;
    on_access; traced = Option.is_some on_load || Option.is_some on_access;
    targets = scr.s_targets; next_site = 0; next_activation = 0;
    null_zones = scr.s_null_zones; scr; run_stamp = take_stamp scr;
    no_site =
      { cs_proc = program.Cfg.prog_main; cs_block = -1; cs_index = -1;
        cs_kind = Snumber; cs_site = None };
    plans = [||] }

let execute st =
  let program = st.program in
  let scr = st.scr in
  (* Globals are allocated before any procedure compiles, so compiled
     code sees their final static addresses. *)
  List.iter
    (fun (g : Reg.var) ->
      let agg = is_agg st g.Reg.v_ty in
      let a = alloc_static st (if agg then Layout.size st.layout g.Reg.v_ty else 1) in
      if agg then init_slots st.tenv st.layout (raw_write st) a g.Reg.v_ty
      else raw_write st a 0 (default_tag st.tenv g.Reg.v_ty);
      if g.Reg.v_kind = Reg.Vglobal then begin
        cover_vars scr (g.Reg.v_id + 1);
        scr.v_stamp.(g.Reg.v_id) <- -st.run_stamp;
        scr.v_cell.(g.Reg.v_id) <- a
      end)
    program.Cfg.prog_globals;
  let halted =
    match Cfg.find_proc_opt program program.Cfg.prog_main with
    | None -> true
    | Some main -> (
      match invoke st (target_of st main) 0 with
      | () -> false
      | exception Halt_program -> true
      | exception Out_of_fuel -> true)
  in
  note_heap_len program st.heap_len;
  { output = Buffer.contents st.out_buf;
    counters =
      { instrs = st.instrs; heap_loads = st.heap_loads;
        other_loads = st.other_loads; stores = st.stores; calls = st.calls;
        allocations = st.allocations };
    cycles = st.cycles;
    soft_faults = st.soft_faults;
    cache_hits = Cache.hits st.cache;
    cache_misses = Cache.misses st.cache;
    halted }

let run ?(fuel = 50_000_000) ?on_load ?on_access (program : Cfg.program) :
    outcome =
  let st = start (borrow ()) ~fuel ~on_load ~on_access program in
  match execute st with
  | outcome ->
    hand_back st;
    outcome
  | exception e ->
    hand_back st;
    raise e
