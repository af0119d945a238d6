(** Precomputed O(1) type-compatibility oracles.

    Compatibility ([Subtypes(t1) ∩ Subtypes(t2) ≠ ∅], or the TypeRefsTable
    intersection for selective type merging) is the innermost test of every
    alias query. Both are "one type is an ancestor-or-self of the other" on
    a forest: the inheritance forest ({!subtyping}) or SMTypeRefs' merged
    forest ({!nested}). One routine ({!label}) interval-labels either in a
    linear pass, and a query is three array reads. Footnote 2's per-type
    tables take one bitset intersection per query ({!intersecting}). *)

open Support
open Minim3

type t

val fn : t -> Types.tid -> Types.tid -> bool
(** The O(1) query, the shape the oracle record stores. NIL is compatible
    with nothing. *)

type labels = { pre : int array; post : int array }
(** Pre/post interval labels of a forest over tids: [s] is in [t]'s
    subtree iff [pre t <= pre s < post t]. NIL's interval is empty
    ([-1, -1]). *)

val walk : int array -> enter:(int -> unit) -> leave:(int -> unit) -> unit
(** [walk parent ~enter ~leave]: depth-first over the forest whose node
    [t] has parent [parent.(t)] ([-1] for a root), roots and children in
    ascending order; [enter t] before [t]'s subtree, [leave t] after. *)

val label : int array -> labels
(** The interval labels of the forest [walk] visits. *)

val inheritance : Types.env -> int array
(** The object inheritance forest as a parent array: an object's parent
    is its supertype; ROOT and every non-object type are roots. *)

val nested : labels -> t
(** Compatible iff one type is an ancestor-or-self of the other in the
    labeled forest. Raises [Invalid_argument] on a tid outside it. *)

val subtyping : Types.env -> t
(** {!nested} over the labeled inheritance forest: compat iff equal or
    ancestor-related objects. Types allocated after construction fall
    back to {!Minim3.Types.subtype}. *)

val intersecting : Bitset.t array -> t
(** [intersecting sets]: compat iff [sets.(t1)] and [sets.(t2)] share an
    element. Raises [Invalid_argument] on a tid outside the array. *)
