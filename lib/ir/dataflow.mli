(** Generic bit-vector dataflow over a procedure CFG.

    The forward solve is instantiated by copy propagation and through
    RLE's availability builder ([Opt.Rle]), which RLE, PRE, store-to-load
    forwarding and the Figure 10 classifier share; the backward solve by
    dead-store elimination. The client
    provides per-block transfer functions as gen/kill sets over a fixed
    expression universe; the framework iterates to the maximum fixed point
    with intersection ("must" analyses) or union ("may") as confluence. *)

open Support

type confluence = Must  (** intersection over predecessors *) | May  (** union *)

type result = {
  inn : Bitset.t array;  (* fact at block entry, per block id *)
  out : Bitset.t array;  (* fact at block exit *)
  iterations : int;
      (* full sweeps over the CFG until the fixed point, including the
         initializing sweep — 2 for loop-free procedures *)
}

type counters = { solves : int; iterations : int }

exception
  Divergence of { dv_proc : string; dv_universe : int; dv_sweeps : int }
(** Raised when a fixpoint fails to settle within the sweep cap — a
    diagnosis of a non-monotone (buggy) transfer function rather than a
    hang. Carries the procedure name, the bit-vector universe size and
    the sweep count at abort. *)

val counters : unit -> counters
(** Cumulative instrumentation since process start: how many dataflow
    problems were solved and how many total sweeps they took. The pass
    manager snapshots this around each pass run to attribute dataflow work
    per pass in the structured stats. *)

val diff_counters : before:counters -> after:counters -> counters

val run :
  ?max_sweeps:int ->
  proc:Cfg.proc ->
  universe:int ->
  confluence:confluence ->
  gen:(int -> Bitset.t) ->
  kill:(int -> Bitset.t) ->
  entry_fact:Bitset.t ->
  unit ->
  result
(** [gen b]/[kill b] are per-block-id transfer sets; the block transfer is
    [out = (inn - kill) ∪ gen]. For [Must] analyses unreachable blocks keep
    the full set; the entry block starts at [entry_fact].

    [max_sweeps] caps fixpoint iteration (default: block count + 8, which
    monotone bit-vector problems never approach); exceeding it raises
    {!Divergence}. *)

val run_backward :
  ?max_sweeps:int ->
  proc:Cfg.proc ->
  universe:int ->
  confluence:confluence ->
  gen:(int -> Bitset.t) ->
  kill:(int -> Bitset.t) ->
  exit_fact:Bitset.t ->
  unit ->
  result
(** Backward analysis (e.g. liveness): [inn] is the fact at block entry,
    [out] at block exit; [out] of a block is the meet over its successors'
    [inn], blocks with no successor start from [exit_fact], and the block
    transfer is [inn = (out - kill) ∪ gen]. *)
