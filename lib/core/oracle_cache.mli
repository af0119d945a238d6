(** A counting wrapper around an {!Oracle.t}.

    Every oracle query is a cheap pure function of the analysis facts —
    a precomputed type-compatibility bit plus a pattern match on the
    access paths — so the wrapper memoizes nothing: it passes each call
    through to the wrapped oracle and counts it, so the pass manager can
    report how many questions each pass asked.

    The wrapped oracle answers *identically* to the original, and its
    counters count exactly one query per call on the leg called (a
    property test checks both on randomly generated programs). *)

type counters = {
  mutable compat_queries : int;
  mutable compat_misses : int;
  mutable alias_queries : int;
  mutable alias_misses : int;
  mutable class_queries : int;
  mutable class_misses : int;
  mutable store_queries : int;
  mutable store_misses : int;
}
(** Per-leg query counts. Every query reaches the wrapped oracle, so each
    [*_misses] field always equals its [*_queries] field; the miss fields
    stay for consumers that read them. *)

val fresh_counters : unit -> counters

val queries : counters -> int
(** The sum of the four [*_queries] fields. *)

val snapshot : counters -> counters
(** A copy of a counters record, for before/after diffing. *)

val diff : before:counters -> after:counters -> counters
(** The queries that happened between two snapshots. *)

val add : into:counters -> counters -> unit
(** Add every field of the second record into [into]. *)

val wrap :
  ?counters:counters ->
  ?log:(Ir.Apath.t -> Ir.Apath.t -> bool -> unit) ->
  Oracle.t ->
  Oracle.t
(** Count the oracle's queries. Supplying [counters] lets several wrappers
    (one per procedure per pass, or one per analysis recomputation)
    accumulate into one record. [addr_taken_var] and [stats] are passed
    through uncounted.

    [log] observes [may_alias]: it fires once per query, with the pair in
    the order asked and the answer the wrapped oracle gave (including any
    fault-injection flip sitting below the counter). The fuzzer's
    precision-lattice oracle uses this to replay every query the optimizer
    actually made against all three analyses. *)
