(** Fixed-universe bit-vector sets.

    The dataflow framework (available loads) and the alias-pair counters use
    these for dense sets over small integer universes. All binary operations
    require both operands to come from universes of the same width, and run
    a machine word (62 elements) at a time. *)

type t

val create : int -> t
(** [create n] is the empty set over universe [0 .. n-1]. *)

val universe : t -> int
val mem : t -> int -> bool
val add : t -> int -> unit
val remove : t -> int -> unit
val copy : t -> t
val clear : t -> unit
val fill : t -> unit
(** Make the set the full universe. *)

val cardinal : t -> int
val is_empty : t -> bool
val equal : t -> t -> bool

val intersects : t -> t -> bool
(** [intersects a b] is [not (is_empty (a ∩ b))], without materializing the
    intersection; exits at the first overlapping word. *)

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] sets [dst := dst ∪ src]. *)

val inter_into : dst:t -> t -> unit
val diff_into : dst:t -> t -> unit

val iter : (int -> unit) -> t -> unit
(** [iter f t] calls [f] on each element in ascending order. [f] may add
    elements to or remove them from [t] itself: the scan continues from the
    element just visited over the set as it is now, so an element added
    above the cursor is visited, one removed above it is skipped, and
    changes at or below the cursor are not seen — as under a scan that
    tests each element of the universe in turn. *)

val fold : (int -> 'a -> 'a) -> t -> 'a -> 'a
(** Ascending, with the same mutation contract as {!iter}. *)

val elements : t -> int list
(** Ascending. *)

val of_list : int -> int list -> t
val pp : Format.formatter -> t -> unit
