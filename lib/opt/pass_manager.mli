(** Declarative pass scheduling with per-pass instrumentation, a
    parallel per-procedure execution engine, and incremental re-runs.

    A schedule is a list of items: [Run p] executes a pass once; [Fixpoint]
    re-runs a group of passes until no {!Pass.Transform} member reports
    [changed] (or [max_rounds] is hit — a safety net, not the normal exit).
    The manager invalidates the shared {!Pass.context} after every pass
    whose outcome is [mutated], so each pass sees an analysis of the
    program it actually receives; this subsumes the seed pipeline's
    hard-coded second devirtualization leg and post-copy-propagation RLE
    harvest. {!run}, {!run_guarded} and {!rerun} walk a schedule by these
    rules alike; they differ only in how each pass executes.

    A {!Pass.Per_procedure} pass never sees the whole program, and the
    manager is its only driver: no pass exports a whole-program run of
    its own. The manager executes the pass's body over every procedure —
    across [context.jobs] {!Support.Domain_pool} domains when asked — and
    merges outcomes, oracle counters and claims ledgers in program order.
    Results are byte-identical at any domain count (see
    {!Pass.proc_context} for the determinism contract). A context with a
    fault layer or a query log installed takes the same path on one
    domain, so observing a run never changes what it emits. A
    {!Pass.Analysis_free} pass runs the same way but with no oracle, no
    mod-ref and no engine refresh: the engine stays stale until the next
    pass that reads it.

    Each pass execution yields one immutable {!Pass.report} carrying its
    wall-clock time, named counters, and the oracle-cache and dataflow
    activity attributed to it (counter snapshots are diffed around the
    run). Reports accumulate in execution order; nothing is ever mutated
    after the fact, which is what makes "sum a stat over reports" immune to
    the seed's double-counting splices. *)

type item =
  | Run of Pass.t
  | Fixpoint of { passes : Pass.t list; max_rounds : int }

(** {1 Configuration} *)

module Config : sig
  type t = {
    devirt_inline : bool;
    licm : bool;
    pre : bool;
    slf : bool;
    rle : bool;
    copyprop : bool;
    dse : bool;
    local_cse : bool;
  }
  (** Which passes a run enables — the one record every front end (tbaac,
      the fuzz matrix, the golden-stat table, the daemon) passes to
      {!schedule}, replacing the former eight optional booleans. *)

  val none : t
  (** Everything off; enable fields with record update syntax. *)
end

val schedule : Config.t -> item list
(** The standard schedule for a configuration: devirt+inline fixpoint,
    then LICM (hoisting sees the original loop bodies), then PRE
    insertion, then store-to-load forwarding (stored atoms beat home-temp
    indirection), then RLE, then (when copy propagation is on) a
    copyprop+RLE fixpoint, then DSE (stores go dead once the load-removing
    clients have erased their readers), then the local-CSE baseline. *)

(** {1 Execution} *)

val run : Pass.context -> Ir.Cfg.program -> item list -> Pass.report list
(** Execute the schedule; reports are in execution order. Per-procedure
    passes run across [context.jobs] domains (sequentially when [<= 1] or
    when a fault layer or query log is installed) with byte-identical
    results either way. *)

val run_guarded : Pass.context -> Ir.Cfg.program -> item list -> Pass.report list
(** Like {!run}, but each pass executes against a {!Ir.Cfg.snapshot}: a
    pass that raises or leaves the IR failing {!Ir.Verify.program} is
    rolled back to the last-good IR,
    quarantined (subsequent executions are skipped), and recorded via
    [r_failure] in its report; the rest of the schedule continues. With no
    failures the reports are identical to {!run}'s. *)

val failures : Pass.report list -> (string * string) list
(** The [(pass, reason)] failures among the reports, in execution order. *)

(** {1 Incremental re-runs}

    A session re-optimizes successive versions of one program under one
    schedule, memoizing per-procedure pass results per schedule position,
    indexed by the procedure's position in [prog_procs]. A schedule
    position is (item index, index in its group, round), so it names the
    same pass execution in every run however many rounds an earlier
    fixpoint group took. A gate {!Tbaa.Engine} fed only the
    pre-optimization program versions decides validity: when its update
    rebuilds the type oracles or the call graph — always the case when
    the procedure list changes — the memo is flushed, so a procedure
    position names the same procedure in every run the memo survives
    into. Otherwise, on [rerun], the edited procedures and everything
    that transitively calls them (mod-ref summaries flow
    callee-to-caller) run live at every position; any other procedure
    whose pass input is provably unchanged — same input fingerprint and
    allocator state — replays its recorded output body, stats, oracle
    counters and claims instead of re-running the pass.

    The walk touches only live procedures: at a position that follows
    the position it followed in the previous run, with no whole-program
    pass between, a procedure that replayed its entry at the position
    before chains onto its entry here unexamined, and only those that
    ran live there are checked. A replayed procedure's body is spliced
    once, from the last entry replayed for it, when it is next read:
    before it runs live, before the engine re-reads it, before a
    whole-program pass, and at the end of the run. A position's report
    is its totals over all entries from the previous run, adjusted by the
    live procedures' old and new entries. Misses run live (in parallel,
    when the context asks) and refresh the memo. Reports (their dataflow
    counters aside, which count the work done) and the resulting program
    are byte-identical to a from-scratch {!run} with a fresh context.
    Whole-program passes always run live. *)

type session

val session : Pass.context -> session
(** A fresh session around the given context. The context must not be
    shared with other runs while the session is live. *)

val rerun :
  ?fingerprints:int array -> session -> Ir.Cfg.program -> item list ->
  Pass.report list
(** Re-optimize the program (in place, like {!run}) against the memo. The
    first call is a cold run that populates it. The program must be the
    *pre-optimization* form of the next version (the caller re-lowers or
    edits the unoptimized IR, then calls [rerun]). [fingerprints], when
    given, holds the {!Ir.Fingerprint.proc} of each procedure of the
    program, in [prog_procs] order (a caller that tracks them, like the
    daemon's store, spares the rerun hashing every body); wrong values
    make the session replay stale results. *)

val session_stats : session -> Support.Json.t
(** [{runs, reused, reran, flushes}]: cumulative run count, last run's
    spliced and live (pass execution × procedure) counts, and how often
    oracle/call-graph churn flushed the whole memo. *)

val session_counts : session -> int * int
(** Last run's [(reused, reran)] pair. *)

(** {1 Aggregation over report lists} *)

val reports_for : string -> Pass.report list -> Pass.report list
(** All reports from executions of the named pass, in execution order. *)

val ran : string -> Pass.report list -> bool

val sum_stat : string -> string -> Pass.report list -> int
(** [sum_stat pass stat reports] — the stat summed over every execution of
    the pass. Each execution contributes exactly once. *)

val first_stat : string -> string -> Pass.report list -> int
(** The stat from the *first* execution only (e.g. devirt's [unresolved]:
    later rounds re-count call sites duplicated by inlining). *)
