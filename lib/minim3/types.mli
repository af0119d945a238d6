(** The MiniM3 semantic type universe.

    Every distinct type in a program gets a dense integer id ([tid]).
    Non-object composite types (arrays, records, REF) are hash-consed so
    structural equality is id equality, mirroring Modula-3's structural
    equivalence; object types and BRANDED refs are nominal. Recursive types
    are expressed through named REF indirections, as in Modula-3.

    The paper's [Subtypes (T)] — the set of types an access path of declared
    type [T] may legally reference — is every [u] with [subtype env u T]
    but NIL, which denotes no location; for an object type, that is [T]'s
    subtree of the inheritance forest ({!subtree_impls} walks it). *)

open Support

type tid = int

type field = { fld_name : Ident.t; fld_ty : tid }

type method_sig = {
  ms_name : Ident.t;
  ms_params : (Ast.param_mode * tid) list;  (* excluding receiver *)
  ms_ret : tid option;
  ms_impl : Ident.t option;  (* default implementation procedure *)
}

type obj_info = {
  obj_name : Ident.t;  (* declared name (or synthesized) — for printing *)
  obj_uid : int;  (* nominal identity *)
  obj_super : tid option;  (* None only for ROOT *)
  obj_brand : string option;
  obj_fields : field array;  (* own fields, excluding inherited *)
  obj_methods : method_sig array;  (* own METHODS *)
  obj_overrides : (Ident.t * Ident.t) array;  (* method name -> procedure *)
}

type desc =
  | Dint
  | Dbool
  | Dchar
  | Dnull  (* the type of NIL *)
  | Dunit  (* procedures without a return type *)
  | Darray of int option * tid  (* fixed length or open *)
  | Drecord of field array
  | Dref of { target : tid; brand : string option }
  | Dobject of obj_info

type env

(* Well-known tids, valid in every environment. *)
val tid_unit : tid
val tid_int : tid
val tid_bool : tid
val tid_char : tid
val tid_null : tid
val tid_root : tid

val create : unit -> env
(** A fresh universe containing only the well-known types. *)

val desc : env -> tid -> desc
val count : env -> int
(** Number of type ids allocated so far. *)

val intern : env -> desc -> tid
(** Hash-consed for structural types; [Dobject] descs must be registered via
    {!reserve_object} and {!patch_object} instead (raises
    {!Support.Diag.Compile_error} otherwise). *)

val find : env -> desc -> tid option
(** The tid {!intern} would return for a structural type, if it already
    exists; allocates nothing. *)

val reserve_ref : env -> brand:string option -> tid
(** Allocate a named REF type whose target is not yet known (recursive
    declarations go through REF in Modula-3). Must be completed with
    {!patch_ref} before use. Named REF declarations are nominal in MiniM3
    (each declaration is its own type), a documented deviation from
    Modula-3's structural equivalence; anonymous REF type expressions are
    still hash-consed structurally via {!intern}. *)

val patch_ref : env -> tid -> target:tid -> unit

val reserve_object : env -> name:Ident.t -> tid
(** Allocate an object type whose body is not yet elaborated; complete with
    {!patch_object}. *)

val patch_object :
  env ->
  tid ->
  super:tid option ->
  brand:string option ->
  fields:field array ->
  methods:method_sig array ->
  overrides:(Ident.t * Ident.t) array ->
  unit

val is_object : env -> tid -> bool

val is_pointer : env -> tid -> bool
(** Object, REF or NIL — the types the alias analyses track. *)

val is_scalar : env -> tid -> bool
(** Assignable as a unit: INTEGER, BOOLEAN, CHAR and pointers. *)

val subtype : env -> tid -> tid -> bool
(** [subtype env s t]: may a value of type [s] inhabit a location of declared
    type [t]? Reflexive; objects by inheritance; NIL below every pointer. *)

val object_fields : env -> tid -> field list
(** All fields of an object type, inherited first. *)

val find_field : env -> tid -> Ident.t -> field option
(** Field lookup on an object (searches the inheritance chain) or record. *)

val lookup_method : env -> tid -> Ident.t -> (tid * method_sig) option
(** [lookup_method env t m] finds the signature of [m] visible on object
    type [t], with the tid of the declaring type. *)

val method_impl : env -> tid -> Ident.t -> Ident.t option
(** The procedure that implements method [m] for *dynamic* type [t]:
    the innermost OVERRIDES or METHODS default along the chain. *)

val subtree_impls : env -> tid -> Ident.t -> Ident.t list
(** [method_impl env u m] of every object type [u] with
    [subtype env u t] that has one, in no particular order and with
    repeats: one walk down [t]'s subtree of the inheritance forest, read
    from a children index the environment builds on first use, so
    O(subtree) after the walk up from [t]. *)

val env_equal : env -> env -> bool
(** Structural equality of two whole environments: same tid count, same
    descriptor at every tid. Two environments this accepts are fully
    interchangeable — every tid denotes the same type in both — so an
    analysis keyed on one may serve queries phrased against the other
    (the incremental engine's cross-lowering reuse gate). O(count). *)

val pp : env -> Format.formatter -> tid -> unit
val to_string : env -> tid -> string
