(** The daemon's document store: one persistent {!Tbaa.Engine} per open
    MiniM3 document, with per-document crash isolation and a three-rung
    degradation ladder.

    Every document is always in exactly one mode:

    - {b Fresh} — the engine was built from the document's current source;
      answers are the precise analysis results.
    - {b Stale} — the most recent [open]/[update] failed (compile error or
      an analysis crash), and queries are served from the engine of the
      last source that built successfully. Stale answers are sound for
      that last-good source — the rollback mirrors
      [Opt.Pass_manager.run_guarded]'s quarantine of a crashing pass.
    - {b Conservative} — the engine itself misbehaved while answering (a
      query raised), so the engine is quarantined and every may-alias
      query answers [MayAlias] without consulting it. Always sound: the
      paper's analyses only ever refine MayAlias downward.

    A successful rebuild from any rung returns the document to Fresh with
    answers byte-identical to a from-scratch engine — the chaos harness
    pins this.

    Fault injection (flip/crash/slow) exists for the chaos harness and is
    compiled in but inert unless the store was created with
    [allow_inject:true].

    {b Concurrency.} The store is safe for concurrent use from multiple
    domains under a per-document reader/writer discipline: queries
    ({!may_alias}, {!modref}, {!path}, {!health_json} — reached through
    {!with_doc_read}) run concurrently; {!open_or_update}, {!change} and
    {!close} take the document's exclusive lock and run alone. Store-
    level lookups ({!find}, {!count}, {!names}) are internally
    synchronized. Alias queries share no handle: each request asks
    through its own un-memoized handle over the engine's raw oracles,
    which only read their tables at query time. *)

open Support

type mode = Fresh | Stale | Conservative

val mode_name : mode -> string

(** Deterministic fault injection, per document. *)
type inject =
  | Flip of { seed : int; rate : float }
      (** {!Tbaa.Oracle_fault.wrap}: silently flip a fraction of answers
          (the daemon cannot detect these; it must merely survive them and
          recover on rebuild) *)
  | Crash of { seed : int; rate : float }
      (** raise {!Injected_fault} from a seeded fraction of may-alias
          queries (keyed by the unordered pair, so [(p, q)] and [(q, p)]
          agree), and from a seeded fraction of rebuild attempts *)
  | Slow of { ms : float }
      (** sleep this long inside every may-alias query (deadline and
          cancellation testing); the sleep yields the CPU and is cut
          short when the request's cancellation token flips *)

exception Injected_fault of string

type doc

type t

val create : ?max_docs:int -> ?optimize:bool -> allow_inject:bool -> unit -> t
(** [optimize] (default [false]) re-optimizes every successfully
    installed revision through a per-document incremental
    {!Opt.Pass_manager.session}: the pipeline runs over the fresh
    lowering (reusing memoized per-procedure results from the previous
    revision), its stats land in {!opt_stats}, and the lowering is then
    restored — query answers are always over the unoptimized program
    and are unaffected by the flag. *)

val find : t -> string -> doc option
val count : t -> int
val max_docs : t -> int

val close : t -> string -> bool
(** Takes the document's exclusive lock, so in-flight queries drain
    before the document disappears. *)

val names : t -> string list
(** Sorted. *)

val with_doc_read : t -> string -> (doc option -> 'a) -> 'a
(** [with_doc_read t name f] runs [f] holding [name]'s shared lock, with
    the document looked up under that lock ([None] if not open). All
    query-side access from concurrent dispatch goes through this. *)

type update_outcome =
  | Updated of doc  (** fresh build installed; mode is Fresh *)
  | Rejected of doc option * Diag.t list
      (** the source failed to compile; the existing document (if any)
          degrades to Stale and keeps serving *)
  | Crashed of doc option * string
      (** the build or engine update raised; the existing document (if
          any) is rolled back to last-good and degrades to Stale *)
  | Cancelled of doc option
      (** the request's cancellation token flipped mid-build; the
          existing document (if any) is untouched — still Fresh for its
          last-good source, not counted as a failed update *)

val open_or_update :
  ?cancelled:(unit -> bool) ->
  t -> name:string -> source:string -> inject:inject list -> update_outcome
(** Compile and (re)analyze [source] under the document [name], creating
    the document on first sight. Never raises. Injection requests on a
    store created with [allow_inject:false] are ignored. Takes the
    document's exclusive lock. [cancelled] (default: never) is polled at
    {!Tbaa.Engine.update} loop boundaries; once it returns [true] the
    build aborts with [Cancelled] without touching the document.

    {b Edits.} For an open document the changed bytes are found by
    {!changed_range} against the last-good source. When they lie inside
    one top-level procedure declaration (neither its first nor its last
    byte changed), only that declaration is re-parsed, re-checked and
    re-lowered, into a new program that shares every other procedure
    and the type environment with the last-good one (which is not
    changed); the carried fingerprints go to {!Tbaa.Engine.update}.
    Every other edit takes the full rebuild: one outside every
    procedure or on a declaration boundary, one whose local parse fails
    or ends elsewhere, a changed header, any diagnostic, a check that
    would allocate a type or use one allocated after the old body's
    check began (or an old body whose check allocated one), or a body
    needing a different number of variable ids. Either way the program,
    fingerprints, type environment, answers and diagnostics are exactly
    those of a full rebuild. {!edits_fast}, {!edits_full} and
    {!last_fallback} say which path edits took. *)

val splice :
  source:string -> edits:(int * int * string) list ->
  (string, string) result
(** Apply ranged edits sequentially, LSP-style: each [(start, stop,
    text)] replaces byte range [\[start, stop)] of the text produced by
    the edits before it. [Error] (with a message naming the offending
    range) if any range is out of bounds or inverted; the source is
    never partially applied. *)

val changed_range : string -> string -> int * int * int
(** [changed_range old_s new_s] is [(start, old_stop, new_stop)]: [new_s]
    is [old_s] with bytes [\[start, old_stop)] replaced by [new_s]'s
    bytes [\[start, new_stop)], the rest being the longest common prefix
    and then the longest common suffix of what remains. Both ranges are
    empty iff the strings are equal. *)

type change_outcome =
  | Changed of update_outcome  (** edits spliced; build outcome inside *)
  | No_such_doc  (** the document is not open *)
  | Bad_edit of string  (** a range was out of bounds; nothing changed *)

val change :
  ?cancelled:(unit -> bool) ->
  t -> name:string -> edits:(int * int * string) list -> change_outcome
(** Incremental [didChange]: splice [edits] into the document's
    last-good source and rebuild through {!open_or_update} (an edit
    inside one procedure re-reads only that procedure; unchanged
    procedures are not re-summarized), preserving the document's fault
    injection. Takes the exclusive lock; never raises. *)

(** {1 Per-document views} *)

val name : doc -> string
val doc_mode : doc -> mode
val generation : doc -> int
(** Successful builds installed. *)

val edits_fast : doc -> int
(** Edits (builds of an open document that were installed or rejected)
    whose front end re-read one procedure; see {!open_or_update}. *)

val edits_full : doc -> int
(** Edits that needed the full front end. *)

val last_fallback : doc -> string option
(** Why the most recent of those did. *)

val source : doc -> string
(** Last-good source. *)

val engine : doc -> Tbaa.Engine.t
(** Last-good engine. *)

val program : doc -> Ir.Cfg.program

val opt_stats : doc -> Json.t option
(** The last incremental re-optimization of this document (stores created
    with [optimize:true] only): wall-clock, pass counts and the session's
    cumulative reused/reran/flush counters — or an [error] field if the
    optimizer crashed (the document itself is unaffected). *)

val n_paths : doc -> int
val path : doc -> int -> Ident.t * Ir.Apath.t * bool
(** [path doc i]: procedure, access path and is-store of the [i]th heap
    memory reference of the last-good program (the unit clients query
    over). Raises [Invalid_argument] out of range — callers bounds-check
    against {!n_paths}. *)

val may_alias :
  ?cancelled:(unit -> bool) -> doc -> Tbaa.Engine.kind -> int -> int -> bool
(** [may_alias d kind] resolves one handle for a request — the engine's
    raw, pure oracle of [kind] wrapped in the document's fault injection,
    with no memo — and returns the function that answers a may-alias
    query between two path indices through it. Apply it once per
    request, under the document's shared lock, and the result once per
    pair. Never raises: a query that makes the (possibly fault-injected)
    engine raise quarantines the document to Conservative and answers
    [true] (MayAlias) — as do all subsequent queries, from the next pair
    of the same request on, until a rebuild. [cancelled] only cuts short
    injected [Slow] latency (the answer is still computed and valid); the
    caller's own cancellation check decides whether to use it. *)

val modref : doc -> Tbaa.Engine.kind -> Ident.t -> Tbaa.Effects.t option
(** Merged mod-ref effects of a procedure, [None] when the document is
    Conservative (the sound reading of [None] is "may mod/ref
    everything"). Never raises; a crash quarantines like {!may_alias}. *)

val health_json : doc -> Json.t
(** One structured row for the health endpoint. *)
