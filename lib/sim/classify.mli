(** Classification of the redundant loads that remain after TBAA + RLE
    (paper §3.5, Figure 10).

    - {b Encapsulated}: the load is implicit in the high-level IR — an
      open-array dope read, NUMBER, or a dispatch-table read — so RLE
      never saw an access path to eliminate.
    - {b Conditional}: the load's expression is partially redundant —
      available along some paths to the site but not all (may-available
      under the oracle, hence out of reach of RLE's full-redundancy CSE;
      partial redundancy elimination would catch it).
    - {b Breakup}: the same address was last loaded through a
      syntactically different access path (the value flowed through
      variables); copy propagation would be needed to connect them.
    - {b Alias}: the expression would have been (fully) available under a
      perfect alias analysis — one that never lets a store or a call kill
      it — but TBAA's may-alias kills blocked it. This is the paper's
      "alias failure" bucket, the true imprecision of TBAA.
    - {b Rest}: everything else.

    Conditional and Alias replay RLE's availability reasoning through the
    builder RLE itself runs on ({!Opt.Rle.availability}): a may-solve
    under the oracle's kill rule ({!Opt.Rle.kill_set}) and a must-solve
    under the perfect-alias rule ({!Opt.Rle.def_kill_set}). Each
    instruction's kill set is taken once per procedure and replayed up to
    the site, so no oracle question is asked per (instruction,
    expression) pair. *)

open Tbaa

type category = Encapsulated | Conditional | Breakup | Alias | Rest

val category_to_string : category -> string
val all_categories : category list

type breakdown = (category * int) list
(** Dynamic count of remaining redundant loads per category (all
    categories present, possibly with zero counts). *)

val classify :
  Ir.Cfg.program -> Oracle.t -> Opt.Modref.t -> Limit.t -> breakdown
