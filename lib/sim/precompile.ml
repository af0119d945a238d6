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
   - every static load site gets its own memo cell ([csite]) built at
     compile time, so tracing ([on_load]/[on_access]) touches no hash
     table and untraced runs never construct a site descriptor at all.

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
   most one record allocation ever. [cs_path] pre-truncates the access
   path the [on_access] hook reports (explicit sites only). *)
type csite = {
  cs_proc : Ident.t;
  cs_block : int;
  cs_index : int;
  cs_kind : site_kind;
  cs_path : Apath.t option;
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
   the type (soft fault, NIL result), decidable at compile time. *)
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
      impls : impl array;  (* by dynamic type tag, memoized *)
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
  global_addrs : int Reg.Var_tbl.t;  (* global -> static address *)
  targets : (int, ptarget) Hashtbl.t;
      (* proc ident id -> target; each run compiles the program afresh *)
  mutable next_site : int;
  mutable next_activation : int;
  null_zones : (int, int) Hashtbl.t;
}

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

(* An object's cells: its type tag in the header, then its fields. *)
let init_object tenv layout write_at base ty =
  write_at base ty t_int;
  let off = ref Layout.object_header in
  List.iter
    (fun f ->
      init_slots tenv layout write_at (base + !off) f.Types.fld_ty;
      off := !off + Layout.size layout f.Types.fld_ty)
    (Types.object_fields tenv ty)

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
   of [v]. *)
let trace_read st (site : csite) addr v =
  let heap = is_heap addr in
  (match st.on_load with
  | Some f when heap ->
    f { le_site = force_site st site; le_addr = addr;
        le_value = to_value v st.tag; le_activation = st.activation;
        le_heap = heap }
  | _ -> ());
  match (st.on_access, site.cs_path) with
  | Some f, Some path ->
    f { ac_store = false; ac_path = path; ac_addr = addr;
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

(* Registers renumber a procedure's variables densely, in first-seen
   order, so a frame is a window of the register stack. *)
type cctx = {
  cc_st : state;
  cc_proc : Cfg.proc;
  cc_slots : int Reg.Var_tbl.t;  (* variable -> register *)
  cc_vars : Reg.var Vec.t;  (* register -> variable *)
  cc_res : int Reg.Var_tbl.t;  (* resident -> stack-cell offset *)
}

let slot_of cc (v : Reg.var) =
  match Reg.Var_tbl.find_opt cc.cc_slots v with
  | Some s -> s
  | None ->
    let s = Vec.push cc.cc_vars v in
    Reg.Var_tbl.add cc.cc_slots v s;
    s

let cvar_of cc (v : Reg.var) =
  let st = cc.cc_st in
  let global = match v.Reg.v_kind with Reg.Vglobal -> true | _ -> false in
  let cells = if global then st.global_addrs else cc.cc_res in
  match Reg.Var_tbl.find_opt cells v with
  | None -> Creg (slot_of cc v)
  | Some a -> (
    (* Interned for every memory cell, aggregate or not. *)
    let path = Apath.of_var v in
    match (global, is_agg st v.Reg.v_ty) with
    | true, false -> Cglob { addr = a; path }
    | true, true -> Cglob_agg a
    | false, false -> Cres { off = a; path }
    | false, true -> Cres_agg a)

let catom_of cc = function
  | Reg.Avar v -> CAvar (cvar_of cc v)
  | Reg.Aint n -> CAconst (n, t_int)
  | Reg.Abool b -> CAconst (Bool.to_int b, t_bool)
  | Reg.Achar c -> CAconst (Char.code c, t_char)
  | Reg.Anil -> CAconst (0, t_nil)

let mk_site cc ~block ~index kind ~path =
  { cs_proc = cc.cc_proc.Cfg.pr_name; cs_block = block; cs_index = index;
    cs_kind = kind; cs_path = path; cs_site = None }

let compile_path cc ~block ~index (ap : Apath.t) : cpath =
  let st = cc.cc_st in
  let base = Apath.base ap in
  let explicit k =
    mk_site cc ~block ~index (Sexplicit (ap, k))
      ~path:(Some (Apath.truncate ap k))
  in
  let pa_base =
    match cvar_of cc base with
    | Cglob { addr; _ } | Cglob_agg addr -> CBaddr_glob addr
    | Cres { off; _ } | Cres_agg off -> CBaddr_res off
    | Creg s -> CBreg s
    | Cdrop -> assert false
  in
  let rec build k cur_ty = function
    | [] -> []
    | sel :: rest ->
      let step =
        match sel with
        | Apath.Sderef target -> CSderef { target; site = explicit k }
        | Apath.Sfield (f, _) -> (
          match Types.desc st.tenv cur_ty with
          | Types.Dobject _ ->
            CSfield_obj
              { off = Layout.field_offset st.layout cur_ty f; owner = cur_ty;
                site = explicit k }
          | Types.Drecord _ ->
            CSfield_rec (Layout.field_offset st.layout cur_ty f)
          | _ -> CSfield_bad)
        | Apath.Sindex (idx, elem_ty) -> (
          let cidx = catom_of cc idx in
          let esz = Layout.size st.layout elem_ty in
          match Types.desc st.tenv cur_ty with
          | Types.Darray (Some n, _) ->
            CSindex_fixed { idx = cidx; esz; bound = n }
          | Types.Darray (None, _) ->
            CSindex_open
              { idx = cidx; esz;
                dope = mk_site cc ~block ~index (Sdope ap) ~path:None }
          | _ -> CSindex_bad cidx)
      in
      step :: build (k + 1) (Apath.selector_result sel) rest
  in
  { pa_base; pa_steps = Array.of_list (build 0 base.Reg.v_ty (Apath.sels ap)) }

(* Default-initialized contents of an aggregate, relative to cell 0 —
   the compile-time image of [init_slots]. *)
let write_image im i v t =
  im.im_v.(i) <- v;
  set_tag im.im_t i t

let image_of st size ty =
  let im = image size in
  init_slots st.tenv st.layout (write_image im) 0 ty;
  im

let compile_new st ty ~has_len : cnew =
  let probe = if has_len then Some 0 else None in
  match Layout.alloc_size st.layout ty ~length:probe with
  | exception Diag.Compile_error _ -> CNbad
  | _ -> (
    match Types.desc st.tenv ty with
    | Types.Dobject _ ->
      let im = image (Layout.alloc_size st.layout ty ~length:None) in
      init_object st.tenv st.layout (write_image im) 0 ty;
      CNblock im
    | Types.Dref { target; _ } -> (
      match Types.desc st.tenv target with
      | Types.Darray (None, elem) ->
        let esz = Layout.size st.layout elem in
        CNopen { esz; elem = image_of st esz elem }
      | _ -> CNblock (image_of st (Layout.size st.layout target) target))
    | _ -> CNbad)

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

let compile_instr cc ~block ~index (instr : Instr.t) : cinstr =
  let st = cc.cc_st in
  let dst_of = function
    | Some v -> (cvar_of cc v, default_tag st.tenv v.Reg.v_ty)
    | None -> (Cdrop, t_nil)
  in
  let atoms args = Array.of_list (List.map (catom_of cc) args) in
  match instr with
  | Instr.Iassign (v, Instr.Ratom a) -> (
    match (cvar_of cc v, catom_of cc a) with
    | Creg d, CAvar (Creg s) -> CImove_rr (d, s)
    | dst, a -> CImove (dst, a))
  | Instr.Iassign (v, Instr.Rbinop (op, a, b)) -> (
    match (cvar_of cc v, catom_of cc a, catom_of cc b) with
    | Creg d, CAvar (Creg a), CAvar (Creg b) -> CIbinop_rr { d; op; a; b }
    | Creg d, CAvar (Creg a), CAconst (c, ct) -> CIbinop_rc { d; op; a; c; ct }
    | dst, a, b -> CIbinop (dst, op, a, b))
  | Instr.Iassign (v, Instr.Runop (op, a)) ->
    CIunop (cvar_of cc v, op, catom_of cc a)
  | Instr.Iload (v, ap) ->
    let dst = cvar_of cc v in
    let final =
      mk_site cc ~block ~index (Sexplicit (ap, Apath.length ap)) ~path:(Some ap)
    in
    CIload
      { dst; path = compile_path cc ~block ~index ap; final;
        dtag = default_tag st.tenv v.Reg.v_ty }
  | Instr.Istore (ap, a) ->
    let value = catom_of cc a in
    CIstore { path = compile_path cc ~block ~index ap; value; ap }
  | Instr.Iaddr (v, ap) -> CIaddr (cvar_of cc v, compile_path cc ~block ~index ap)
  | Instr.Inew (v, ty, len) ->
    CInew
      { dst = cvar_of cc v; len = Option.map (catom_of cc) len;
        plan = compile_new st ty ~has_len:(len <> None) }
  | Instr.Icall (dst, target, args) ->
    let callee =
      match target with
      | Instr.Cdirect p -> (
        match find_target st p with Some pt -> CCdirect pt | None -> CCmissing)
      | Instr.Cvirtual (m, static_ty) ->
        CCvirtual
          { m; site = mk_site cc ~block ~index Sdispatch ~path:None;
            nil_target =
              Option.bind (Types.method_impl st.tenv static_ty m) (find_target st);
            impls = Array.make (Types.count st.tenv) Unresolved }
    in
    let dst, dtag = dst_of dst in
    CIcall { dst; dtag; callee; args = atoms args }
  | Instr.Ibuiltin (dst, b, args) ->
    let number =
      match (b, args) with
      | Tast.Bnumber, [ Reg.Avar v ] -> (
        match Types.desc st.tenv v.Reg.v_ty with
        | Types.Darray (Some n, _) -> NBfixed n
        | Types.Darray (None, _) ->
          NBopen (mk_site cc ~block ~index Snumber ~path:None)
        | _ -> NBbad)
      | _ -> NBbad
    in
    let dst, dtag = dst_of dst in
    CIbuiltin { dst; dtag; b; args = atoms args; number }

(* Calls and Halt end a block's call-free segments. *)
let ends_segment = function
  | CIcall _ | CIbuiltin { b = Tast.Bhalt; _ } -> true
  | CImove _ | CImove_rr _ | CIbinop _ | CIbinop_rr _ | CIbinop_rc _
  | CIunop _ | CIload _ | CIstore _ | CIaddr _ | CInew _ | CIbuiltin _ ->
    false

let segments instrs =
  let n = Array.length instrs in
  let ends = ref [ n ] in
  for i = n - 1 downto 0 do
    if ends_segment instrs.(i) then ends := (i + 1) :: !ends
  done;
  Array.of_list !ends

(* The reference's resident-variable discovery, replicated verbatim: the
   result order is the frame's slot allocation order, which fixes stack
   addresses and therefore cache behaviour and cycles. *)
let resident_list st proc =
  let acc = ref [] in
  let note v =
    if not (List.exists (Reg.var_equal v) !acc) then acc := v :: !acc
  in
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
        (fun v -> if owns_storage v && is_agg st v.Reg.v_ty then note v)
        (Instr.vars_used i @ Option.to_list (Instr.defined_var i)));
  List.iter
    (fun v -> if owns_storage v && is_agg st v.Reg.v_ty then note v)
    (proc.Cfg.pr_params @ proc.Cfg.pr_locals);
  !acc

let compile_proc st (proc : Cfg.proc) : cproc =
  let cc =
    { cc_st = st; cc_proc = proc; cc_slots = Reg.Var_tbl.create 32;
      cc_vars = Vec.create (); cc_res = Reg.Var_tbl.create 8 }
  in
  (* The formals take registers 0 .. n-1, where a call's arguments land. *)
  List.iter (fun v -> ignore (slot_of cc v)) proc.Cfg.pr_params;
  let cp_nparams = List.length proc.Cfg.pr_params in
  (* Residents get consecutive stack cells in the reference's order. *)
  let residents = resident_list st proc in
  let size (v : Reg.var) =
    if is_agg st v.Reg.v_ty then Layout.size st.layout v.Reg.v_ty else 1
  in
  let frame_size =
    List.fold_left
      (fun off (v : Reg.var) ->
        Reg.Var_tbl.replace cc.cc_res v off;
        off + size v)
      0 residents
  in
  let cp_frame = image frame_size in
  let scalars = ref [] in
  List.iter
    (fun (v : Reg.var) ->
      let off = Reg.Var_tbl.find cc.cc_res v in
      if is_agg st v.Reg.v_ty then
        init_slots st.tenv st.layout (write_image cp_frame) off v.Reg.v_ty
      else scalars := (off, slot_of cc v) :: !scalars)
    residents;
  let scalars = List.rev !scalars in
  let cp_blocks =
    Array.init (Cfg.n_blocks proc) (fun bid ->
        let b = Cfg.block proc bid in
        let cb_instrs =
          Array.of_list
            (List.mapi
               (fun index i -> compile_instr cc ~block:bid ~index i)
               b.Cfg.b_instrs)
        in
        let cb_term =
          match b.Cfg.b_term with
          | Instr.Tjump l -> CTjump l
          | Instr.Tbranch (a, t, f) -> CTbranch (catom_of cc a, t, f)
          | Instr.Treturn a -> CTreturn (Option.map (catom_of cc) a)
        in
        { cb_instrs; cb_segs = segments cb_instrs; cb_term })
  in
  let nregs = Vec.length cc.cc_vars in
  let cp_tags = Bytes.create nregs in
  for i = 0 to nregs - 1 do
    set_tag cp_tags i (default_tag st.tenv (Vec.get cc.cc_vars i).Reg.v_ty)
  done;
  { cp_tags; cp_nparams; cp_frame;
    cp_sc_off = Array.of_list (List.map fst scalars);
    cp_sc_reg = Array.of_list (List.map snd scalars);
    cp_blocks; cp_entry = proc.Cfg.pr_entry }

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

(* The heap hints below are per domain ([Domain.DLS]): runs on different
   domains share no hint table. Compiled code is never shared: every run
   compiles the program it is given. *)

(* Capacity hints carried across runs: regrowing the simulated heap from
   empty costs a doubling series of multi-megabyte array copies (all
   immediately garbage), which can rival the execution itself on
   allocation-heavy programs. Pre-sizing to the previous run's
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
  let hints = Domain.DLS.get heap_hints in
  let key = heap_hint_key program in
  match Hashtbl.find_opt hints key with
  | Some cap when cap >= len -> ()
  | _ -> Hashtbl.replace hints key len

let min_heap = 256
let min_regs = 256
let min_static = 1024

let run ?(fuel = 50_000_000) ?on_load ?on_access (program : Cfg.program) :
    outcome =
  let hints = Domain.DLS.get heap_hints in
  let hint_key = heap_hint_key program in
  let heap_cap =
    match Hashtbl.find_opt hints hint_key with
    | Some cap -> max cap min_heap
    | None -> min_heap
  in
  let st =
    { program; tenv = program.Cfg.tenv; layout = Layout.create program.Cfg.tenv;
      sv = Array.make min_static 0; stg = Bytes.create min_static;
      static_len = 0;
      hv = Array.make heap_cap 0; htg = Bytes.create heap_cap; heap_len = 0;
      rv = Array.make min_regs 0; rtg = Bytes.create min_regs;
      fp = 0; top = 0; sp = 0; activation = 0; tag = t_nil; ret_v = 0;
      ret_t = t_none; cache = Cache.create (); cycles = 0;
      out_buf = Buffer.create 4096; soft_faults = 0; fuel; instrs = 0;
      heap_loads = 0; other_loads = 0; stores = 0; calls = 0;
      allocations = 0; on_load; on_access;
      traced = Option.is_some on_load || Option.is_some on_access;
      global_addrs = Reg.Var_tbl.create 32; targets = Hashtbl.create 32;
      next_site = 0;
      next_activation = 0; null_zones = Hashtbl.create 16 }
  in
  (* Globals are allocated before any procedure compiles, so compiled
     code sees their final static addresses. *)
  List.iter
    (fun (g : Reg.var) ->
      let agg = is_agg st g.Reg.v_ty in
      let a = alloc_static st (if agg then Layout.size st.layout g.Reg.v_ty else 1) in
      if agg then init_slots st.tenv st.layout (raw_write st) a g.Reg.v_ty
      else raw_write st a 0 (default_tag st.tenv g.Reg.v_ty);
      Reg.Var_tbl.replace st.global_addrs g a)
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
