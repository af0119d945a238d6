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
    capacity. Capacity is unobservable; a hint only saves the doubling
    series of copies a growing heap costs. *)

val run :
  ?fuel:int ->
  ?on_load:(load_event -> unit) ->
  ?on_access:(access -> unit) ->
  Cfg.program ->
  outcome
(** Pre-compiling run. Procedures are compiled lazily, at their first
    call, and every run compiles afresh, so a program optimized in place
    between two runs is simulated as it now stands. Site ids are assigned
    in order of first dynamic occurrence. Heap capacity hints are kept per
    domain, so runs on different domains share nothing. *)
