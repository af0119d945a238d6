(** Optimizer configurations and the runs made under them: the one place
    a configuration becomes an optimized program ({!optimize}; simulated
    and memoized per workload as {!run}) or an audited run ({!audit}).

    A configuration is a pass selection, the analysis the clients query
    and the world assumption. The paper's configurations start from
    {!base}, which runs only the block-local trivial-alias load CSE
    ({!Opt.Local_cse}): the paper normalizes against GCC, which already
    eliminates redundant loads with no intervening memory writes. *)

type config = {
  passes : Opt.Pass_manager.Config.t;
  oracle : Opt.Pass.oracle_kind;  (** the analysis every client queries *)
  world : Tbaa.World.t;
}

val base : config
(** Only the local-CSE baseline, SMFieldTypeRefs, closed world. *)

val rle_with : Opt.Pass.oracle_kind -> config
(** [base] plus RLE under the given analysis. *)

val config_name : config -> string
(** E.g. ["rle:SMFieldTypeRefs+minv+cp+open"]: ["rle:"] and the analysis
    when RLE runs, the bare analysis when only other clients query it,
    ["base"] when nothing does; then each further pass and an open
    world. The local-CSE baseline is not named. *)

val optimize :
  ?jobs:int -> ?guarded:bool -> config -> Ir.Cfg.program -> Opt.Pass.report list
(** Optimize the lowered [program] in place under the configuration's
    schedule (uncached) and return the pass reports. Per-procedure passes
    run across [jobs] domains (default 1) with byte-identical results.
    [guarded] (default [false]) runs {!Opt.Pass_manager.run_guarded}: the
    IR is validated after every pass, and a pass that fails is rolled
    back and quarantined. *)

val run : Workloads.Workload.t -> config -> Sim.Interp.outcome
(** Memoized simulated execution, keyed on the workload and the
    configuration value. *)

type audit_result = {
  ar_outcome : Sim.Interp.outcome;
  ar_failures : (string * string) list;  (** quarantined passes: name, reason *)
  ar_auditor : Sim.Audit.t;
  ar_violations : Sim.Audit.violation list;
  ar_claims : Tbaa.Claims.t;
}

val audit :
  ?fault:Opt.Pass.fault ->
  ?fuel:int ->
  ?observe:(Opt.Pass.context -> unit) ->
  label:string ->
  config ->
  Ir.Cfg.program ->
  audit_result
(** The audited run, and the one way to make it: optimize the lowered
    [program] in place under the configuration's schedule through
    {!Opt.Pass_manager.run_guarded} (IR validated after every pass) with
    a claims ledger named [label] installed, then simulate it under the
    dynamic soundness auditor. [fault] injects deterministic oracle
    faults — its flip counters accumulate across calls that share it.
    [observe] receives the pass context before the first pass runs, so a
    caller can hang an oracle log on it or read its live engine. *)

val percent_of_base : Workloads.Workload.t -> config -> float
(** Simulated running time as percent of the base configuration (the
    paper's Figures 8, 11, 12 y-axis). *)

val first_divergence : string -> string -> (int * string * string) option
(** [first_divergence base_output output] is the first line at which the
    two outputs differ, as [(1-based line number, base's line, other's
    line)] — ["<end of output>"] standing in for a side that ran out of
    lines — or [None] when they are equal. *)

val divergence_error :
  workload:string -> config:string -> base_output:string -> output:string -> 'a
(** Raises {!Support.Diag.Compile_error} describing an output divergence:
    workload, configuration, and the first diverging line of each side. *)

val check_outputs_agree : Workloads.Workload.t -> config list -> unit
(** Raises {!Support.Diag.Compile_error} (via {!divergence_error}) if any
    configuration changes the program's output — the harness-level
    semantics check. The error carries the workload name, the offending
    configuration, and the first diverging output line, so a fuzz or CI
    failure is actionable without re-running. *)
