(** Growable arrays (OCaml 5.1 predates stdlib [Dynarray]).

    Used for CFG block tables and other append-heavy compiler structures. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val get : 'a t -> int -> 'a
val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> int
(** Append, returning the new element's index. *)

val append_array : 'a t -> 'a array -> unit
(** [append_array t a] appends every element of [a] (one grow + blit). *)

val truncate : 'a t -> int -> unit
(** [truncate t n] drops every element with index >= [n]. Raises
    [Invalid_argument] if [n] is negative or exceeds the length. *)

val iter : ('a -> unit) -> 'a t -> unit
val iteri : (int -> 'a -> unit) -> 'a t -> unit
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc
val to_list : 'a t -> 'a list
val exists : ('a -> bool) -> 'a t -> bool
