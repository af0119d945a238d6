(** The unified alias-query engine facade — now summary-based,
    incremental, and domain-parallel.

    One entry point builds everything a client needs: per-procedure
    analysis summaries ({!Summary.t}, keyed by structural fingerprints),
    the merged program facts, the paper's three alias oracles over
    precomputed O(1) compatibility cores, the TypeRefsTable, per-phase
    construction timings, and (on demand) counted oracle handles with
    shared query counters plus per-oracle mod-ref effect views
    ({!modref_direct}/{!modref_merged}).

    {[
      let engine = Tbaa.Engine.create ~domains:4 program in
      let oracle = Tbaa.Engine.cached engine Tbaa.Engine.Sm_field_type_refs in
      if oracle.Tbaa.Oracle.may_alias p q then ...;
      (* ... edit one procedure in place ... *)
      let engine = Tbaa.Engine.update engine program in
      print_endline (Support.Json.to_string (Tbaa.Engine.stats engine))
    ]}

    {!update} re-runs only invalidated work: a procedure whose fingerprint
    and callee-signature view are unchanged keeps its summary; oracles are
    kept when every recomputed summary preserved its canonical
    {!Facts.oracle_inputs}; mod-ref merges are re-done only along the
    affected slice of the call-graph condensation. Results are always
    identical to a from-scratch {!create} on the same program; the test
    suite checks that, and checks the facts and mod-ref views against a
    monolithic facts pass and a whole-program mod-ref closure.

    The engine is the only place oracles are built, and the one handle
    every client reads: {!Type_decl}, {!Field_type_decl} and
    {!Sm_type_refs} export the alias relations and compatibility cores it
    assembles them from. *)

open Support
open Minim3

type kind = Type_decl | Field_type_decl | Sm_field_type_refs

val kind_name : kind -> string

type config = {
  world : World.t;  (** closed (whole program) or open (§4) *)
  variant : Sm_type_refs.variant;  (** type-merging variant for SM *)
}

val default_config : config
(** Closed world, grouped (the paper's Figure 2) merging. *)

type t

val create : ?config:config -> ?domains:int -> Ir.Cfg.program -> t
(** Summarize every procedure (in parallel across at most [domains]
    domains, default 1), merge facts deterministically in program order,
    and build all three oracles. Each construction phase is timed; see
    {!stats}. Results are independent of [domains]. *)

val update :
  ?check:(unit -> unit) -> ?fingerprints:int array -> t -> Ir.Cfg.program -> t
(** Re-analyze after an edit, reusing everything the edit provably did
    not touch (see the module header). Mutates and returns the same
    engine. [program] may be the engine's own program edited in place or
    a fresh one — a freshly re-lowered revision of the same source reuses
    too, since deterministic lowering reproduces a structurally equal
    type environment ({!Minim3.Types.env_equal}) and per-procedure
    fingerprints; a structurally changed type environment forces a full
    rebuild. Cached oracle handles and effect views are dropped whenever
    the underlying oracles are rebuilt.

    [fingerprints], when given, holds the {!Ir.Fingerprint.proc} of each
    procedure of [program], in [prog_procs] order: a caller that already
    tracks them spares the update re-hashing every body. Wrong values
    make the engine reuse stale summaries. Over an unchanged procedure
    list, only the procedures whose fingerprint moved are read, unless
    one of them changed its signature; and mod-ref views whose inputs
    did not move are kept without a copy, so an update that moved k
    procedures costs O(k) beyond linear scans of the procedure list and
    the fingerprints.

    Exception-safe: all fallible re-analysis completes before the engine
    is touched, so if revalidation raises mid-update (e.g. on an
    ill-formed edited procedure) the original engine value remains fully
    usable — every query keeps answering from the last successfully
    installed analysis, and a later {!update} can still succeed.

    [check] (default: no-op) is called at loop boundaries — on entry,
    before each per-procedure re-summarization, and before the facts
    merge and oracle rebuild. Raising from it aborts the update before
    anything is committed, with the same exception-safety guarantee;
    the daemon uses this as its cancellation point. Not called on the
    full-rebuild path (structurally changed type environment), which is
    all-or-nothing anyway. *)

val copy : t -> t
(** An independent engine frozen at the receiver's current analysis
    state, O(procedures): later {!update}s of either engine never affect
    the other. Cheap — everything immutable is shared; only the one
    in-place-patched table is duplicated. The copy starts with fresh
    query counters and incremental stats. Lets a
    client keep per-pipeline-position analysis snapshots (e.g. the pass
    manager's incremental sessions) so each position re-analyzes only
    its own diff. *)

val oracle : t -> kind -> Oracle.t
(** The raw (uncounted) oracle handle. *)

val oracles : t -> Oracle.t list
(** All three, in increasing precision order: TypeDecl, FieldTypeDecl,
    SMFieldTypeRefs. *)

val cached : t -> kind -> Oracle.t
(** A counted handle ({!Oracle_cache.wrap}) over {!oracle}: it answers
    exactly as the raw handle does and counts each query into
    {!counters}. Each call builds a new handle; every handle of one engine
    shares the counters. *)

val facts : t -> Facts.t
(** The merged facts. An {!update} whose recomputed summaries moved a
    contribution merges them here, on the first read after it, unless it
    rebuilt the oracles (which read them); the first read must not race
    another domain's. *)

val world : t -> World.t
val program : t -> Ir.Cfg.program

val procs : t -> Ir.Cfg.proc array
(** The procedures the engine last analyzed, in [prog_procs] order: the
    engine's own array, never written. *)

val fingerprints : t -> int array
(** The {!Ir.Fingerprint.proc} of each procedure the engine last
    analyzed, in [prog_procs] order: the engine's own array, which the
    next {!update} may patch in place — read it, do not keep it. A
    procedure whose fingerprint here differs from its body's is one the
    next {!update} re-reads. *)

val callers : t -> Support.Ident.t -> Support.Ident.t list
(** The procedures whose summaries list the name as a callee (virtual
    calls resolved), in no particular order. Built once per call graph. *)

val type_refs_table : t -> Types.tid -> Types.tid list
(** The SMTypeRefs TypeRefsTable, also used by method resolution. *)

val counters : t -> Oracle_cache.counters
(** Query counters shared by every {!cached} handle. *)

(** {1 Mod-ref effect views}

    Built lazily per oracle kind (direct effects in parallel, merges
    scheduled over condensation levels) and maintained incrementally by
    {!update}. {!Opt.Modref.of_engine} adapts these to the optimizer. *)

val modref_direct : t -> kind -> Ident.t -> Effects.t
(** One procedure's own effects; {!Effects.empty} for unknown names. *)

val modref_merged : t -> kind -> Ident.t -> Effects.t
(** Effects of the procedure and everything reachable from it — equal to
    the monolithic transitive-closure mod-ref result. *)

val modref_built : t -> kind -> bool
(** Whether the views of [kind] are built. While they are not, the next
    {!modref_direct} or {!modref_merged} reads every procedure's body. *)

(** {1 Instrumentation} *)

type update_report = {
  ur_recomputed : Ident.t list;
      (** procedures whose summaries were recomputed, sorted: every
          procedure whose fingerprint changed, plus any whose callees'
          signatures did *)
  ur_oracles_rebuilt : bool;
      (** [false] implies an unchanged procedure list (names and order) *)
  ur_callgraph_rebuilt : bool;
}

val last_update : t -> update_report option
(** What the most recent {!update} actually did; [None] before the
    first one. *)

val stats : t -> Json.t
(** One structured record: configuration, type count, per-phase build
    times ([build_ms]: elapsed milliseconds on {!Support.Clock.now_ms};
    after an {!update} that kept the oracles, only [facts] reflects the
    update, once the merged facts were read), the counted handles' total
    queries, intern-table sizes, and the incremental reuse counters. *)
