(** Dominator computation: Cooper, Harvey and Kennedy's iterative
    immediate-dominator algorithm over reverse postorder ("A Simple, Fast
    Dominance Algorithm", 2001), then preorder intervals on the dominator
    tree, so {!dominates} is O(1). Only blocks reachable from the entry
    participate; unreachable blocks dominate nothing and are dominated by
    nothing. *)

type t

val compute : Cfg.proc -> t

val dominates : t -> int -> int -> bool
(** [dominates t a b]: does block [a] dominate block [b]? Reflexive on
    reachable blocks. *)

val idom : t -> int -> int option
(** Immediate dominator; [None] for the entry and unreachable blocks. *)

val reachable : t -> int -> bool
