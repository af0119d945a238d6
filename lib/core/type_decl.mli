(** TypeDecl (paper §2.2): two access paths may alias iff their declared
    types are compatible — [Subtypes(Type p) ∩ Subtypes(Type q) ≠ ∅].

    Since MiniM3 subtyping is a forest (objects inherit from one super,
    everything else only from itself), the intersection test is equivalent
    to "one type is a subtype of the other", which {!Compat.subtyping}
    answers in O(1). NIL's type is compatible with nothing — it denotes no
    location. *)

open Minim3

val may_alias_with :
  compat:(Types.tid -> Types.tid -> bool) ->
  Ir.Apath.t ->
  Ir.Apath.t ->
  bool
(** The TypeDecl alias relation over a compatibility core; the engine
    builds the TypeDecl oracle from it. *)
