(** The optimization-pass interface and its shared analysis context.

    A pass is a named transformation that declares its {!scope}: a
    whole-program pass (devirtualization, inlining — anything that moves
    code across procedure boundaries) receives the shared {!context} and
    the whole program; a per-procedure pass (the paper's clients — RLE,
    and DSE/SLF/LICM/PRE) provides a body over one procedure and a
    {!proc_context}; an analysis-free pass (copyprop, local CSE)
    provides a body over one procedure and the program alone. The
    {!Pass_manager} is the only driver of both per-procedure kinds: it
    runs the body over every procedure — sequentially or across
    {!Support.Domain_pool} domains, with byte-identical results either
    way — and no pass exports a whole-program run of its own.

    Passes pull the alias analysis they need from a {!context}, which
    keeps one {!Tbaa.Engine.t} and marks it stale whenever a pass mutates
    the program. The next read brings it up to date with an incremental
    {!Tbaa.Engine.update}, so the cost of a re-analysis tracks how much of
    the program actually changed. An analysis-free pass never reads it, so
    the refresh waits for the next pass that does. *)

open Tbaa

type oracle_kind = Otype_decl | Ofield_type_decl | Osm_field_type_refs

val oracle_name : oracle_kind -> string

val engine_kind : oracle_kind -> Engine.kind

(** {1 Context} *)

type fault = {
  f_seed : int;
  f_rate : float;
  f_class_kills : bool;
  f_stats : Oracle_fault.stats;  (** flips actually applied, cumulative *)
}
(** Fault-injection configuration: when installed in a context, every
    oracle handed to passes is wrapped in {!Tbaa.Oracle_fault} (under each
    procedure's memoizing cache, so flips stay consistent). A
    fault-injected run takes the same per-procedure path as a plain one;
    since [f_stats] is not domain-safe, it runs that path on one domain
    whatever [jobs] says. Under {!Pass_manager.rerun}, a procedure whose
    recorded result is spliced in does not run, so its flips are not
    counted again. *)

val fault : ?flip_class_kills:bool -> seed:int -> rate:float -> unit -> fault

type context = {
  world : World.t;
  oracle_kind : oracle_kind;
  mutable jobs : int;
      (** domains the per-procedure engine runs across; [<= 1] runs the
          same code path sequentially (results are identical either way) *)
  mutable engine : Engine.t option;
      (** the incremental engine, built on first use; survives
          {!invalidate}, so re-analyses are {!Tbaa.Engine.update}s *)
  mutable stale : bool;
      (** [engine] does not describe the program's current state (set by
          {!invalidate}, cleared by {!analysis}) *)
  mutable modref_memo : Modref.t option;
  oracle_counters : Oracle_cache.counters;
      (** cumulative across re-analyses; the pass manager diffs it per pass *)
  mutable analyses_run : int;
  mutable claims : Claims.t option;
      (** when set, the clients record every alias/kill answer they rely
          on here (the dynamic auditor's input); [None] costs nothing *)
  mutable fault : fault option;
  mutable oracle_log : (Ir.Apath.t -> Ir.Apath.t -> bool -> unit) option;
      (** when set, installed as the {!Tbaa.Oracle_cache.wrap} [log]
          observer of every procedure's counted oracle: fires once per
          may-alias query, with the (possibly fault-injected) answer.
          The fuzzer's precision-lattice oracle hangs off this; [None]
          costs nothing. The hook need not be
          domain-safe: a logged context runs per-procedure passes on one
          domain, on the same path as an unlogged one, so installing it
          changes nothing the optimizer does. Spliced procedures under
          {!Pass_manager.rerun} do not fire it. *)
}

val create :
  ?world:World.t -> ?oracle_kind:oracle_kind -> ?jobs:int -> unit -> context
(** Defaults: closed world, SMFieldTypeRefs, sequential. One context
    serves one program instance; create a fresh context per
    (program, configuration) run. *)

val analysis :
  ?fingerprints:int array -> context -> Ir.Cfg.program -> Engine.t
(** The context's engine, brought up to date with the program's *current*
    state: built on first use, updated incrementally after {!invalidate}.
    [fingerprints] is passed to {!Engine.update} when the recomputation
    is incremental. *)

val raw_oracle : context -> Ir.Cfg.program -> Oracle.t
(** The configured-precision oracle over {!analysis}, with the fault layer
    (when installed) but no query counter: the pass manager wraps this
    once per procedure, so counters never cross domains. A client that
    wants a counted oracle outside a pass reads it from the engine
    ({!Tbaa.Engine.cached}). *)

val modref : context -> Ir.Cfg.program -> Modref.t
(** The memoized mod-ref view of the configured precision, served from the
    engine's cached per-procedure summaries ({!Modref.of_engine}) and
    built on the program as the pass receives it. Valid under fault
    injection too: summaries read only the oracle's raw
    store_class/addr_taken_var, which the fault layer never wraps. *)

val invalidate : context -> unit
(** Mark the engine stale and drop the cached mod-ref view — called by
    the pass manager after any pass that mutated the program.
    The engine itself is kept: the next {!analysis} is an incremental
    update. *)

(** {1 Passes} *)

type outcome = {
  stats : (string * int) list;  (** named counters, e.g. [("hoisted", 2)] *)
  changed : bool;
      (** found and applied work — drives fixed-point convergence *)
  mutated : bool;
      (** touched the program text at all — forces re-analysis. [false]
          promises the procedure's {!Ir.Fingerprint.proc} did not move. A
          pass can be [mutated] without being [changed]: RLE splits a
          store's scalar prefixes into home temporaries even when it
          removed no load. *)
}

val unchanged : (string * int) list -> outcome
(** [{ stats; changed = false; mutated = false }]. *)

val merge_outcomes : outcome array -> outcome
(** Deterministic fold of per-procedure outcomes in program order: stats
    sum per key (key order is first appearance), flags OR. *)

type role =
  | Transform
      (** its [changed] flag counts toward fixed-point convergence *)
  | Enabling
      (** canonicalizes for other passes (e.g. copy propagation); its
          [changed] flag is ignored by the convergence test, since such
          passes may keep finding cosmetic work forever *)

type proc_context = {
  pc_program : Ir.Cfg.program;
      (** the enclosing program — read-only shared state (type
          environment, procedure list); per-procedure passes must not
          mutate anything outside their own procedure *)
  pc_oracle : Oracle.t;  (** counted, private to this procedure *)
  pc_modref : Modref.t;  (** shared, read-only (forced before use) *)
  pc_claims : Claims.t option;
      (** private per-procedure ledger, merged in program order *)
  pc_fresh :
    name:string -> ty:Minim3.Types.tid -> kind:Ir.Reg.kind -> Ir.Reg.var;
      (** deterministic fresh-variable allocator: the k-th temp of
          procedure [i] gets the same id whether the pass runs
          sequentially or across domains (ids are laced
          [start + i + k*nprocs], so procedures never contend) *)
}
(** What a per-procedure pass may touch while transforming one procedure.
    It holds the only oracle, ledger and variable allocator a pass sees;
    a whole-program cache, a shared ledger or [Cfg.fresh_var] on the
    shared program counter would each be unsafe or non-deterministic
    across domains. *)

type scope =
  | Whole_program of (context -> Ir.Cfg.program -> outcome)
  | Per_procedure of (proc_context -> Ir.Cfg.proc -> outcome)
      (** transform one procedure against a snapshot analysis of the
          pre-pass program; must confine writes to the procedure itself
          (and allocations to [pc_fresh]) *)
  | Analysis_free of (Ir.Cfg.program -> Ir.Cfg.proc -> outcome)
      (** a per-procedure pass that reads no analysis — neither the
          oracle nor mod-ref (copy propagation, local CSE): it sees
          only the enclosing program, read-only, and its own procedure,
          and allocates no variables. The pass manager runs it without
          bringing the engine up to date, so a stale engine stays stale
          until the next pass that reads it. *)

type t = {
  name : string;
  role : role;
  scope : scope;
}

val reads_analysis : t -> bool
(** False exactly for [Analysis_free] passes. A whole-program pass may
    read the analysis, and then refreshes it by calling {!analysis}. *)

(** {1 Reports} *)

type report = {
  r_pass : string;
  r_round : int;  (** 1-based fixed-point round; 1 for one-shot passes *)
  r_time_ms : float;
  r_changed : bool;
  r_stats : (string * int) list;
  r_oracle : Oracle_cache.counters;
      (** oracle queries during this pass run only *)
  r_dataflow : Ir.Dataflow.counters;
      (** dataflow solves/iterations during this pass run only *)
  r_analyses : int;
      (** engine builds and incremental updates ({!analysis} calls on a
          stale context) charged to this pass run *)
  r_failure : string option;
      (** guarded execution only ({!Pass_manager.run_guarded}, which
          validates the IR after every pass): set when the pass crashed or
          left the IR failing validation and was rolled back, or was
          skipped because it is quarantined; [None] always under the plain
          {!Pass_manager.run} *)
}

val stat : report -> string -> int
(** A named counter from the report, 0 when absent. *)

val report_to_json : ?extra:(string * Support.Json.t) list -> report -> Support.Json.t
(** One structured-stats record; [extra] fields (workload, config) are
    prepended. *)
