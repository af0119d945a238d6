(** The pre-compiled simulator fast path.

    Compiles each procedure once per program into dense register
    numbering, stack-cell offsets, pre-resolved access paths with baked-in
    layout offsets, direct call targets and static per-site memo cells,
    then executes the compiled form without allocating per executed
    instruction: every value is an unboxed [int] payload with a one-byte
    tag, held in parallel arrays for registers (one register stack),
    static memory and the heap. Payloads are full 63-bit integers, so
    arithmetic wraps exactly as in {!Interp.run_reference}. A {!Value.t}
    is built only for an [on_load] event.

    A run allocates little beyond the compiled code itself (about 14
    minor words per compiled instruction on bench/e2e's generated-mix
    pool): the per-variable tables are arrays indexed by variable id,
    register and small-constant operands are shared, layout sizes,
    allocation sizes and NEW images are tabled once per type, a virtual
    method's dispatch table is shared by its call sites, and an untraced
    run builds no site descriptor. The cell arrays, cache, output buffer
    and variable tables are borrowed from the domain and handed back,
    each kept only while it holds at most 65,536 cells (or variables), so
    a small run allocates none of them and a large run leaves nothing
    large behind.

    Observable behaviour (printed output, all counters, cycles, cache
    hits/misses, soft faults, the point where fuel runs out, and site
    identities/ids) is bit-identical to {!Interp.run_reference}; the
    differential suite in test_sim_equiv.ml enforces this.

    {!Interp} re-exports these types and aliases {!Interp.run} to
    {!run}, so existing consumers (audit, limit study, harness) are
    unaffected. *)

open Support
open Ir

type site_kind =
  | Sexplicit of Apath.t * int
      (** the full path of the load/store and the 0-based selector index
          this read resolves *)
  | Sdope of Apath.t  (** open-array dope read during subscripting *)
  | Snumber  (** dope read by the NUMBER builtin *)
  | Sdispatch  (** method-table read for a virtual call *)

type site = {
  site_id : int;
  site_proc : Ident.t;
  site_block : int;
  site_index : int;  (** instruction index within the block *)
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
      (** the prefix actually resolved by this read, or the stored path *)
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
  halted : bool;  (** the program ran Halt() or exhausted its fuel *)
}

exception Halt_program
exception Out_of_fuel

val note_heap_len : Cfg.program -> int -> unit
(** [note_heap_len program n]: a run of [program] reached [n] heap cells,
    so the next {!run} of it (on this domain) starts with at least that
    capacity, when [n] is more than the domain retains between runs
    (65,536 cells; a smaller heap grows in the retained arrays). Capacity
    is unobservable; a hint only saves the doubling series of copies a
    growing heap costs. *)

val run :
  ?fuel:int ->
  ?on_load:(load_event -> unit) ->
  ?on_access:(access -> unit) ->
  Cfg.program ->
  outcome
(** Pre-compiling run. Procedures are compiled lazily, at their first
    call, and every run compiles afresh, so a program optimized in place
    between two runs is simulated as it now stands. Site ids are assigned
    in order of first dynamic occurrence.

    A run borrows its domain's retained cell arrays, cache, output buffer
    and variable tables, and hands back each that stayed within 65,536
    cells (or variables). A run started while they are lent out, from
    inside an [on_load] or [on_access] hook, allocates its own. A program
    whose heap outgrew the retained arrays has a capacity hint instead
    ({!note_heap_len}); the last such heap is held only weakly, and the
    next large run takes it over if the collector has not reclaimed it
    yet. All of these are per domain, so runs on different domains share
    nothing. *)
