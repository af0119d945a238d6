(** FieldTypeDecl (paper §2.3, Table 2): TypeDecl refined with field names,
    the qualify/dereference/subscript distinction, and AddressTaken.

    The engine is parameterized over the type-compatibility core so that
    SMFieldTypeRefs (which substitutes the TypeRefsTable intersection for
    the Subtypes intersection, §2.4) reuses the identical case analysis. *)

open Minim3
open Ir

val may_alias_with :
  compat:(Types.tid -> Types.tid -> bool) ->
  at:Address_taken.ctx ->
  is_obj:(Types.tid -> bool) ->
  Apath.t ->
  Apath.t ->
  bool
(** The seven cases of Table 2 over selector strings. [is_obj] marks the
    object types, whose field qualifications carry an implicit
    dereference: for those, case 2 bottoms out at receiver-type
    compatibility instead of recursing on the pointer-holding prefix. *)
