(** Shared (memoized) execution of benchmark configurations.

    A configuration describes what the whole-program optimizer did before
    the simulated run. Every configuration — including the base — finishes
    with the block-local trivial-alias load CSE ({!Opt.Local_cse}), because
    the paper normalizes against GCC, which already eliminates redundant
    loads with no intervening memory writes.

    Preparation goes through {!Opt.Pass_manager}, so every run also yields
    the per-pass instrumented reports (stats, timing, oracle-cache and
    dataflow activity); the memo keeps them alongside the simulated
    outcome. *)

type config = {
  rle : Opt.Pass.oracle_kind option;  (* None = no RLE *)
  minv : bool;  (* method resolution + inlining (§3.7) *)
  world : Tbaa.World.t;
  pre : bool;  (* + partial redundancy elimination (extension) *)
  copyprop : bool;  (* + copy propagation, fixpointed with RLE (extension) *)
  licm : bool;  (* + loop-invariant load motion (client extension) *)
  slf : bool;  (* + store-to-load forwarding (client extension) *)
  dse : bool;  (* + dead-store elimination (client extension) *)
  oracle : Opt.Pass.oracle_kind option;
      (* oracle for the non-RLE clients when [rle = None]
         (default SMFieldTypeRefs); [rle]'s kind wins when set *)
}

val base : config
val rle_with : Opt.Pass.oracle_kind -> config
val config_name : config -> string

val prepare :
  Workloads.Workload.t -> config -> Ir.Cfg.program * Opt.Pass.report list
(** Lower a fresh copy and run the configuration's pass schedule
    (uncached); returns the optimized program and the pass reports. *)

val run : Workloads.Workload.t -> config -> Sim.Interp.outcome
(** Memoized simulated execution. *)

type audit_result = {
  ar_outcome : Sim.Interp.outcome;
  ar_failures : (string * string) list;  (* quarantined passes: name, reason *)
  ar_violations : Sim.Audit.violation list;
  ar_claims : Tbaa.Claims.t;
}

val audit :
  ?fault:Opt.Pass.fault ->
  ?fuel:int ->
  Workloads.Workload.t ->
  config ->
  audit_result
(** [run]'s defense-in-depth sibling (uncached): the configuration's full
    schedule through the guarded pass manager with IR validation on and a
    claims ledger installed, then a simulated run under the dynamic
    soundness auditor. [fault] injects deterministic oracle faults —
    useful for checking that the auditor would notice a miscompile. *)

val reports : Workloads.Workload.t -> config -> Opt.Pass.report list
(** The pass reports from the memoized preparation of [run]. *)

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
