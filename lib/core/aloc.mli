(** Abstract location classes.

    The interprocedural mod-ref summaries (which RLE uses to decide whether
    a call kills an available load) cannot carry concrete access paths out
    of their procedure — the paths mention callee-local variables. Instead a
    store is abstracted to the *class* of location it writes: a named field
    of some compatible receiver type, an element of some compatible array
    type, the target of a reference type, or a specific variable's own slot
    (reachable only if that variable's address was taken). *)

open Support
open Minim3

type t =
  | Lfield of Ident.t * Types.tid * Types.tid
      (** field name, receiver type, field content type *)
  | Lelem of Types.tid * Types.tid  (** array type, element type *)
  | Ltarget of Types.tid  (** referent type of a dereference *)
  | Lvar of int * Types.tid
      (** a specific variable's slot ([v_id]) and its type *)

val equal : t -> t -> bool

val pp : Types.env -> Format.formatter -> t -> unit

module Set : Set.S with type elt = t
