(** Natural loop discovery and preheader insertion.

    A back edge is an edge [t -> h] where [h] dominates [t]; its natural
    loop is [h] plus every block that reaches [t] without passing through
    [h]. Loops sharing a header are merged. The loop hoister RLE and LICM
    share ([Opt.Rle.hoist_loops]) moves loads into a dedicated preheader
    created on demand. *)

type loop = {
  header : int;
  body : Support.Bitset.t;  (* blocks in the loop, including the header *)
  latches : int list;  (* back-edge sources *)
}

val find : Cfg.proc -> Dom.t -> loop list
(** Innermost-first (by increasing body size). *)

val ensure_preheader : Cfg.proc -> loop -> int
(** Returns the id of a block that is the unique out-of-loop predecessor of
    the loop header, creating one (and retargeting edges) if needed. The
    CFG is mutated; dominator info computed before this call is stale
    afterwards. *)

val executes_every_iteration : Cfg.proc -> Dom.t -> loop -> int -> bool
(** Does block [b] execute on every iteration of the loop, i.e. does it
    dominate every latch? (The paper hoists only such references.) *)
