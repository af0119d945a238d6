(** A memoizing wrapper around an {!Oracle.t}.

    Every oracle query is a pure function of the analysis facts, but the
    clients re-ask the same questions relentlessly: RLE's kill-set
    construction queries [may_alias (store, prefix)] for every store
    against every expression in the universe, once per block and again
    during rewriting, and mod-ref replays [class_kills] per call site. The
    wrapper interns results in hash tables — [compat] keyed by an unordered
    tid pair, [may_alias] by a canonicalized (unordered) access-path pair,
    [class_kills] by a (class id, store-class id of the path) pair,
    [store_class] by path — and counts queries and misses so the pass
    manager can report cache effectiveness per pass.

    A [class_kills] query does no structural hashing in the common case:
    the path's store-class id comes from a per-wrapper memo keyed by
    {!Ir.Apath.id} (filled once per path from the raw oracle, uncounted),
    and the class's id is carried while the physically same {!Aloc.t}
    repeats. The tables start at 8 buckets and double as they fill: the
    pass manager wraps one oracle per procedure per pass, and most ask few
    questions.

    The wrapped oracle answers *identically* to the original, and its
    counters count exactly one query per call and one miss per distinct
    key (property tests check both on randomly generated programs). The
    memo tables are tied to the wrapper instance: discard the wrapper
    whenever the underlying analysis is recomputed. *)

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

val fresh_counters : unit -> counters

val queries : counters -> int
val hits : counters -> int
val misses : counters -> int

val hit_rate : counters -> float
(** [hits / queries], 0 when no queries were made. *)

type snapshot
(** An immutable copy of a counters record, for before/after diffing. *)

val snapshot : counters -> snapshot

val diff : before:snapshot -> after:snapshot -> counters
(** The queries/misses that happened between two snapshots. *)

val wrap :
  ?counters:counters ->
  ?log:(Ir.Apath.t -> Ir.Apath.t -> bool -> unit) ->
  Oracle.t ->
  Oracle.t
(** Memoize the oracle. Supplying [counters] lets several wrapper
    incarnations (one per analysis recomputation) accumulate into one
    record. The [addr_taken_var] component is passed through unmemoized (it
    is already a constant-time lookup).

    [log] observes [may_alias]: it fires once per distinct canonicalized
    path pair (on the cache miss, with the answer the wrapped oracle gave,
    including any fault-injection flip sitting below the cache). The
    fuzzer's precision-lattice oracle uses this to replay every query the
    optimizer actually made against all three analyses. *)
