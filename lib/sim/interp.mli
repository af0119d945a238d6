(** The IR interpreter and machine simulator.

    Executes a lowered (and possibly optimized) program while counting
    instructions, heap loads, other (stack/global) loads, and stores; runs
    every data reference through the cache model; and charges an Alpha-like
    cycle cost (see {!Cost}). The observable behaviour of a program is its
    printed output plus its termination state — the semantics-preservation
    tests compare these across optimization configurations.

    The language is given *total* semantics so that every optimizer
    equivalence holds even on faulting paths: a NIL dereference resolves to
    a per-type "null zone" — a real, persistent heap block standing in for
    the object behind NIL — so loads and stores through NIL behave like
    ordinary memory (store-to-load forwarding included); out-of-range
    subscripts clamp; x DIV 0 = 0; a virtual call on a NIL receiver
    dispatches through the static receiver type (matching what a
    devirtualized site does). Each such event increments [soft_faults];
    the stock benchmarks trigger none.

    For the limit study, every heap load can be reported through [on_load]
    together with its static site: the access-path position that issued it
    (a multi-selector load performs one read per selector) or the implicit
    read it models — an open-array dope access, NUMBER, or a method
    dispatch table lookup. *)

open Support
open Ir

type site_kind = Precompile.site_kind =
  | Sexplicit of Apath.t * int
      (** the full path of the load/store and the 0-based selector index
          this read resolves *)
  | Sdope of Apath.t  (** open-array dope read during subscripting *)
  | Snumber  (** dope read by the NUMBER builtin *)
  | Sdispatch  (** method-table read for a virtual call *)

type site = Precompile.site = {
  site_id : int;
  site_proc : Ident.t;
  site_block : int;
  site_index : int;  (** instruction index within the block *)
  site_kind : site_kind;
}

type load_event = Precompile.load_event = {
  le_site : site;
  le_addr : int;
  le_value : Value.t;
  le_activation : int;
  le_heap : bool;
}

type access = Precompile.access = {
  ac_store : bool;
  ac_path : Apath.t;
      (** the prefix actually resolved by this read, or the stored path *)
  ac_addr : int;
  ac_activation : int;
  ac_heap : bool;
}
(** A concrete memory access at an explicit access-path site, reported
    through [on_access] for the dynamic soundness auditor. Heap addresses
    are never reused (the heap is bump-allocated); static/stack addresses
    are reused across activations, so the auditor must key them with
    [ac_activation]. *)

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
  halted : bool;  (** the program ran Halt() or exhausted its fuel *)
}

val heap_index : int -> int
(** The dense 0-based heap slot index behind a (negative) heap address;
    both engines allocate heap addresses contiguously, so tracers can
    index flat arrays by [heap_index addr] instead of hashing. *)

val run :
  ?fuel:int ->
  ?on_load:(load_event -> unit) ->
  ?on_access:(access -> unit) ->
  Cfg.program ->
  outcome
(** [fuel] bounds executed instructions (default 50 million). [on_access]
    fires for every explicit access-path read and write (after the write
    lands), reporting the concrete address touched.

    This is the pre-compiled engine ({!Precompile.run}): each procedure
    is compiled once into pre-resolved instruction arrays that run on
    allocation-free payload/tag cells, with observable behaviour
    bit-identical to {!run_reference}. *)

val run_reference :
  ?fuel:int ->
  ?on_load:(load_event -> unit) ->
  ?on_access:(access -> unit) ->
  Cfg.program ->
  outcome
(** The original tree-walking interpreter, kept as the semantic baseline
    for differential testing (test_sim_equiv.ml, and the bench-smoke
    check that both engines agree). Same observable behaviour as {!run},
    only slower. *)
