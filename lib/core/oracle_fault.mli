(** Fault-injection wrapper for alias oracles: negative testing for the
    verification layer.

    [wrap ~seed ~rate oracle] returns an oracle that deterministically
    flips a [rate] fraction of [may_alias] and [class_kills] answers.
    Flips are a pure function of (seed, query), not of call order, so a
    question asked twice flips identically and runs repeat identically — a flipped "no alias" stays flipped everywhere it is
    consulted, which is what lets the dynamic auditor pin the resulting
    miscompile on a concrete claim. [compat], [store_class] and
    [addr_taken_var] are passed through untouched. *)

type stats = { mutable alias_flips : int; mutable kill_flips : int }

val fresh_stats : unit -> stats

val wrap :
  ?flip_class_kills:bool ->
  ?stats:stats ->
  seed:int ->
  rate:float ->
  Oracle.t ->
  Oracle.t
(** [flip_class_kills] defaults to [true]; pass [false] to restrict
    faults to [may_alias] (kill-class flips can reach mod-ref call
    summaries, whose claims carry no witness paths for the auditor). *)
