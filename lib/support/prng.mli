(** Deterministic pseudo-random numbers (the xorshift64-star generator).

    The property-based program generator and the synthetic scaling workloads
    need reproducible randomness that does not depend on the stdlib [Random]
    state shared with test frameworks. *)

type t

val create : int64 -> t
(** Seeded generator; a zero seed is remapped to a fixed nonzero constant. *)

val int : t -> int -> int
(** [int t bound] is uniform in [0 .. bound-1]; requires [bound > 0]. *)

val bool : t -> bool

val pick : t -> 'a list -> 'a
(** Uniform element of a non-empty list. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher–Yates. *)
