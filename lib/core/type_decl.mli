(** TypeDecl (paper §2.2): two access paths may alias iff their declared
    types are compatible — [Subtypes(Type p) ∩ Subtypes(Type q) ≠ ∅].

    Since MiniM3 subtyping is a forest (objects inherit from one super,
    everything else only from itself), the intersection test is equivalent
    to "one type is a subtype of the other", which is how {!compat}
    evaluates it in O(depth). NIL's type is compatible with nothing — it
    denotes no location. *)

open Minim3

val compat : Types.env -> Types.tid -> Types.tid -> bool
(** The Subtypes-intersection test — the per-query reference
    implementation ({!Compat.reference_subtyping}); the oracles run on the
    precomputed {!Compat.subtyping} core. *)

val may_alias_with :
  compat:(Types.tid -> Types.tid -> bool) ->
  Ir.Apath.t ->
  Ir.Apath.t ->
  bool
(** The TypeDecl alias relation over a compatibility core; the engine
    builds the TypeDecl oracle from it. *)
