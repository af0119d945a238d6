(** Access paths — the unit of memory reference the paper's analyses reason
    about.

    An access path is a base variable followed by a string of selectors:
    [Sfield] (the paper's Qualify, [p.f]), [Sderef] (Dereference, [p^]) and
    [Sindex] (Subscript, [p\[i\]]). Every selector records the static type of
    the value it produces, so [Type (AP)] and the per-prefix types the alias
    analyses consult are available without re-running type inference.

    Paths are hash-consed over a shared-spine (parent-pointer)
    representation: {!extend} is O(1) and shares the prefix, {!equal} is
    physical equality, {!hash}, {!prefix}, {!last}, {!length}, {!ty} and
    {!prefix_ty} are O(1) field reads, and {!id} is a dense intern id
    suitable as an integer table key. *)

open Support
open Minim3

type selector =
  | Sfield of Ident.t * Types.tid  (* field name, field content type *)
  | Sderef of Types.tid  (* referent type *)
  | Sindex of Reg.atom * Types.tid  (* index atom, element type *)

type t

val of_var : Reg.var -> t

val extend : t -> selector -> t
(** O(1): allocates (at most) one interned node sharing the receiver as its
    prefix. *)

val make : Reg.var -> selector list -> t
(** [make base sels] is [extend]-folding [sels] over [of_var base]. *)

val base : t -> Reg.var

val sels : t -> selector list
(** The selectors, first applied first. Materializes a fresh list (O(n)) —
    prefer {!last}, {!length}, {!truncate} and friends on hot paths. *)

val ty : t -> Types.tid
(** The paper's [Type (AP)]: the static type of the value the path denotes.
    For an empty path this is the base variable's type. O(1), cached. *)

val prefix_ty : t -> Types.tid
(** [Type] of the path minus its last selector — the container navigated to
    reach the final location — or the base variable's type for a bare
    variable. O(1). *)

val length : t -> int
(** Number of selectors. O(1). *)

val is_memory_ref : t -> bool
(** True when the path has at least one selector, i.e. denotes a memory
    location rather than a register. *)

val prefixes : t -> t list
(** All prefixes with at least one selector, shortest first, including the
    path itself: the prefixes of [a.b^] are [a.b] and [a.b^]. These are the
    locations whose contents determine the path's value. No new nodes are
    built — every prefix already exists on the spine. *)

val prefix : t -> t option
(** The path minus its last selector, or [None] for a bare variable. O(1). *)

val last : t -> selector option
(** The last selector. O(1). *)

val truncate : t -> int -> t
(** [truncate t k]: the prefix keeping the first [k] selectors ([t] itself
    when [k >= length t]). Walks the spine, allocates nothing. *)

val selector : t -> int -> selector
(** [selector t k]: the selector at 0-based position [k] (first applied
    first). Walks the spine, O(length t - k), allocates nothing. Raises
    [Invalid_argument] unless [0 <= k < length t]. *)

val sels_between : t -> int -> int -> selector list
(** [sels_between t lo hi]: the selectors at positions [lo..hi-1]. *)

val sels_from : t -> int -> selector list
(** [sels_from t lo] is [sels_between t lo (length t)]. *)

val concat : t -> t -> t
(** [concat a b]: [a] extended with all of [b]'s selectors ([b]'s base is
    dropped). Used to splice a path onto the home path of the temporary it
    was rewritten through. *)

val equal : t -> t -> bool
(** Physical equality — complete for structural equality thanks to
    interning. This is the equality under which RLE recognizes redundant
    loads. *)

val compare : t -> t -> int
(** A total order consistent with {!equal} (base variable id, then
    selectors left to right). Used to canonicalize unordered path pairs,
    e.g. the keys of the memoizing oracle cache. *)

val hash : t -> int
(** O(1), cached; identical values to the historical structural fold. *)

val id : t -> int
(** Dense intern id: equal paths share it, distinct paths differ. The
    preferred integer key for side tables. *)

val interned : unit -> int
(** Number of distinct paths interned so far (process-wide). *)

val set_concurrent : bool -> unit
(** Enter/leave concurrent-interning mode. While set, {!of_var} and
    {!extend} serialize intern-table access under a mutex so parallel
    clients (the per-procedure pass engine) may intern new paths from
    several domains; while clear they cost nothing extra. Reads of
    already-interned paths are unaffected either way. *)

val vars_used : t -> Reg.var list
(** The base variable and every variable appearing in an index position —
    redefining any of them changes what the path denotes. *)

val selector_result : selector -> Types.tid

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Tbl : Hashtbl.S with type key = t
