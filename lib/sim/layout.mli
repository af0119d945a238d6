(** Memory layout of MiniM3 types in the simulator.

    Every scalar occupies one word-sized slot. Records lay fields out
    consecutively, inlining aggregate fields. Objects carry one hidden
    header slot (the type tag used for dynamic dispatch) followed by all
    fields, inherited first. Open arrays exist only behind REF and are laid
    out as a one-slot dope (the element count) followed by the elements —
    the dope read on every subscript is the paper's "Encapsulation" source
    of irreducible redundant loads. *)

open Support
open Minim3

type t
(** The layout of one type environment. Sizes and object allocation
    sizes are tabled per type as they are first asked for, an object
    type's size extending its parent's; an object field's offset is one
    walk up the chain over those tabled sizes. *)

val create : Types.env -> t

val size : t -> Types.tid -> int
(** Slots occupied by a value of this type stored inline. Open arrays and
    the unit type have no inline size; asking for one is a bug. *)

val field_offset : t -> Types.tid -> Ident.t -> int
(** Offset of a field within a record (from slot 0) or an object (from the
    block start, i.e. already including the header slot). *)

val alloc_size : t -> Types.tid -> length:int option -> int
(** Slots to allocate for [NEW] of a REF/object type: the referent size,
    plus header for objects, plus dope for open arrays (whose [length]
    must be given). *)

val fields_start : t -> Types.tid -> int
(** Where an object type's own fields start within its block: after the
    header and every inherited field. *)

val object_header : int
(** Number of hidden slots at the start of every object block. *)

val open_array_dope : int
(** Number of dope slots at the start of every open-array block. *)
