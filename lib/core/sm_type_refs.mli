(** SMTypeRefs — selective type merging (paper §2.4, Figure 2).

    Step 1 puts every type in its own set; step 2 unions the two sides'
    sets at every implicit or explicit pointer assignment whose static
    types differ; step 3 filters each type's set against its Subtypes,
    producing the (asymmetric) TypeRefsTable.

    Two variants are provided:
    - {!Grouped}: the paper's algorithm — one equivalence class per merged
      set, maintained with union-find. Since TypeRefsTable(t) =
      Subtypes(t) ∩ class(t) contains t, two tables intersect iff the
      types share a class and one is a subtype of the other. The build
      keeps class ids and a merged forest (each object's parent is its
      nearest proper ancestor in its own class), interval-labeled like
      the inheritance forest: a table is a subtree and compat is one
      interval test. No per-type set and no pairwise matrix exist; the
      build is linear in the types and merges.
    - {!Per_type}: the formulation of the paper's footnote 2 — every type
      keeps its own directed reachability set, more precise but slower;
      compat is one bitset intersection per query.
      (The paper reports the difference was insignificant on their
      benchmarks; the ABL1 bench lets us check both claims.)

    Under the open-world assumption, unbranded subtype-related types are
    pre-merged, since unavailable structurally-typed code could assign
    between them (§4): each unbranded object merges with its nearest
    unbranded proper ancestor. *)

open Minim3

type variant = Grouped | Per_type

type t

val build : ?variant:variant -> facts:Facts.t -> world:World.t -> unit -> t
(** Default variant is {!Grouped}. *)

val type_refs : t -> Types.tid -> Types.tid list
(** The TypeRefsTable, ascending: all types an access path declared with
    the given type may reference. A non-object type gives itself, NIL
    nothing. Raises [Invalid_argument] on a tid outside the table. *)

val compat : t -> Compat.t
(** [TypeRefsTable(t1) ∩ TypeRefsTable(t2) ≠ ∅]: the core the SM oracles
    run on. Raises [Invalid_argument] on a tid outside the table. *)
