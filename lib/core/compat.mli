(** Precomputed O(1) type-compatibility oracles.

    Compatibility ([Subtypes(t1) ∩ Subtypes(t2) ≠ ∅], or the TypeRefsTable
    intersection for selective type merging) is the innermost test of every
    alias query. These constructors move all the list/set work to analysis
    construction: queries are two array reads for the subtype forest
    ({!subtyping}, via {!Minim3.Types.forest_labels}) or one bitset probe
    for a precomputed compatibility matrix ({!of_rows}). *)

open Support
open Minim3

type t

val fn : t -> Types.tid -> Types.tid -> bool
(** The O(1) query, the shape the oracle record stores. NIL is compatible
    with nothing. *)

val subtyping : Types.env -> t
(** Interval-labeled subtype forest: compat iff equal or ancestor-related
    objects. One linear labeling pass at construction. *)

val of_rows : Bitset.t array -> t
(** [of_rows rows]: [fn t t1 t2 = Bitset.mem rows.(t1) t2] (after the NIL
    guard). Raises [Invalid_argument] on tids outside the matrix. *)
