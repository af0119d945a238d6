(** SMTypeRefs — selective type merging (paper §2.4, Figure 2).

    Step 1 puts every type in its own set; step 2 unions the two sides'
    sets at every implicit or explicit pointer assignment whose static
    types differ; step 3 filters each type's set against its Subtypes,
    producing the (asymmetric) TypeRefsTable.

    Two variants are provided:
    - {!Grouped}: the paper's algorithm — one equivalence class per merged
      set, maintained with union-find (O(n) bit-vector steps overall);
    - {!Per_type}: the formulation of the paper's footnote 2 — every type
      keeps its own directed reachability set, more precise but slower.
      (The paper reports the difference was insignificant on their
      benchmarks; the ABL1 bench lets us check both claims.)

    Under the open-world assumption, unbranded subtype-related types are
    pre-merged, since unavailable structurally-typed code could assign
    between them (§4). *)

open Minim3

type variant = Grouped | Per_type

type t

val merge_pairs : Facts.t -> World.t -> (Types.tid * Types.tid) list
(** The [(dst, src)] pairs step 2 merges: the program's assignments whose
    static types differ, plus the open-world forced merges under
    {!World.Open}. *)

val build : ?variant:variant -> facts:Facts.t -> world:World.t -> unit -> t
(** Default variant is {!Grouped}. *)

val type_refs : t -> Types.tid -> Types.tid list
(** The TypeRefsTable: all types an access path declared with the given
    type may reference. *)

val compat_matrix : t -> Compat.t
(** [TypeRefsTable(t1) ∩ TypeRefsTable(t2) ≠ ∅] for every tid pair,
    precomputed at build time; each query is one bitset probe. This is
    the core the SM oracles run on. *)
