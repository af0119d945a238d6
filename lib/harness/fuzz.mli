(** The generative differential-testing driver ([tbaac fuzz]).

    Each generated program ({!Gen.Generator}) is checked against four
    oracles:

    + {b differential semantics} — the unoptimized lowering and every
      optimized configuration (three analyses × RLE / +PRE / +copyprop /
      Minv+RLE / each standalone client LICM, SLF, DSE / all clients at
      once) must print identical output and terminate identically,
      and the run must be audit-clean ({!Sim.Audit} finds no claim the
      execution contradicts);
    + {b precision lattice} — every may-alias query the optimizer
      actually makes (every query, via {!Tbaa.Oracle_cache}'s log hook) must
      be monotone across TypeDecl ⊒ FieldTypeDecl ⊒ SMFieldTypeRefs;
    + {b typecheck round-trip} — pretty-print ∘ parse is a fixpoint and
      the reprint still typechecks;
    + {b IR validity} — no pass is rolled back by the guarded manager and
      the final program passes {!Ir.Verify}.

    On failure the program is minimized with {!Gen.Shrink} (preserving
    the failing oracle × configuration) and written to [fuzz-failures/]
    as a self-contained repro: a MiniM3 source file whose leading comment
    records the generator seed, the failing oracle and configuration, and
    any fault-injection parameters, so [tbaac fuzz --replay FILE]
    re-establishes the failure from the file alone. *)

type oracle_id = Diff_semantics | Precision_lattice | Roundtrip | Ir_validity

val oracle_id_to_string : oracle_id -> string

type failure = {
  f_oracle : oracle_id;
  f_config : string;  (** e.g. ["FieldTypeDecl:rle+pre"]; ["-"] for roundtrip *)
  f_detail : string;
}

val all_configs : unit -> (string * Runner.config) list
(** The 27 optimized configurations of the matrix (three analyses × nine
    pass variants), in check order, each paired with its name. Each runs
    closed-world and sequentially, through {!Runner.audit}. Exposed so
    other suites (the parallel-pipeline byte-identity test) can sweep
    exactly the configurations the fuzzer exercises. *)

val config_names : unit -> string list
(** [List.map fst (all_configs ())]. *)

val check_source :
  ?fault:int * float ->
  ?fuel:int ->
  ?only:oracle_id * string ->
  name:string ->
  string ->
  failure list
(** Run the oracles over one source program. [fault = (seed, rate)]
    installs deterministic oracle fault injection ({!Tbaa.Oracle_fault},
    load/store flips only) in every optimized configuration. [only]
    restricts the work to one (oracle, configuration) pair — the
    shrinker's fast path. An ill-typed input reports a single roundtrip
    failure. *)

type counterexample = {
  cx_seed : int;  (** generator seed of the failing program *)
  cx_failure : failure;  (** the (first) failure that was shrunk *)
  cx_original_bytes : int;
  cx_shrunk_bytes : int;
  cx_path : string option;  (** repro file, when a directory was given *)
  cx_replayed : bool;  (** the written repro re-establishes the failure *)
}

type result = {
  total : int;
  failed : int;  (** programs with at least one oracle failure *)
  failures : (int * failure list) list;  (** generator seed × failures *)
  counterexamples : counterexample list;
}

val run :
  ?out_dir:string option ->
  ?fault:int * float ->
  ?fuel:int ->
  ?size:int ->
  ?max_counterexamples:int ->
  ?log:(string -> unit) ->
  count:int ->
  seed:int ->
  unit ->
  result
(** Generate [count] programs from seeds [seed, seed+1, ...] (size
    [size], default 2) and check each. Program [i] uses fault seed
    [fault_seed + i] so one flipped answer cannot hide every other. The
    first failure of each of the first [max_counterexamples] (default 3)
    failing programs is shrunk and, when [out_dir] is [Some dir]
    (default [Some "fuzz-failures"]), written as a repro file and
    immediately replayed from disk as a self-check. [log] receives
    progress lines. *)

val replay : ?fuel:int -> path:string -> unit -> (failure, string) Stdlib.result
(** Re-run the (oracle, configuration) recorded in a repro file's
    directive header against the file's source. [Ok f] means the same
    failure re-occurred; [Error reason] covers unreadable files, missing
    directives, and failures that no longer reproduce. *)
