(** Imperative union-find with path compression and union by rank.

    This is the engine behind SMTypeRefs' selective type merging (Figure 2 of
    the paper): each element is a type id, and every pointer assignment
    [a := b] with [Type a <> Type b] unions the two types' sets. *)

type t

val create : int -> t
(** [create n] makes a structure over elements [0 .. n-1], each in its own
    singleton set. *)

val find : t -> int -> int
(** Canonical representative of an element's set. Compresses paths. *)

val union : t -> int -> int -> unit
(** Merge the two elements' sets. No-op when already joined. *)

val same : t -> int -> int -> bool
(** [same t a b] iff [a] and [b] are in one set. *)

val group : t -> int -> int list
(** All elements of [x]'s set, ascending. O(n) per call: to group a
    whole table, bucket every element by {!find} in one pass instead. *)

val groups : t -> int list list
(** All equivalence classes, each ascending, ordered by representative. *)

val copy : t -> t
(** Independent snapshot; mutations on either side are invisible to the
    other. Used to compare closed-world and open-world merge states. *)
