(** The [scaleN] corpus: a deterministic well-typed MiniM3 module with [n]
    worker procedures, a 32-procedure library layer they call into, and a
    200-deep object hierarchy — the incremental engine's benchmark and
    stress subject ([tbaac gen-scale N], [bench/smoke.ml]).

    Unlike {!Generator} there is no seed: [source n] is a pure function of
    [n], byte-identical across runs, so snapshot files keyed to it stay
    comparable. *)

val types : int
val lib_procs : int

val source : int -> string
(** [source n] — the module text with [max 1 n] worker procedures.
    Typechecks by construction (asserted by the test suite). *)

val type_chain : int -> string
(** [type_chain n] — the type-axis corpus: an [max 1 n]-deep object chain
    with one global and one procedure per type, each procedure
    allocating, upcasting into its supertype's global (a merge for
    SMTypeRefs) and touching the inherited field. Everything grows
    linearly with [n], the hierarchy's depth included, so it scales what
    {!source} holds fixed ([types]). Typechecks by construction (asserted
    by the test suite). *)
