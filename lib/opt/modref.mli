(** Interprocedural mod-ref analysis (paper §3.4.1: "RLE is preceded by a
    mod-ref analysis which summarizes the access paths that are referenced
    and modified by each call").

    Each procedure is summarized by the abstract location classes it may
    write ([mods]) and read ([refs]), closed transitively over the call
    graph (virtual calls contribute every possible implementation). Only
    externally visible effects enter a summary: heap stores, writes through
    by-reference formals, and global-variable assignments — never a
    procedure's own registers. *)

open Support
open Tbaa

type summary = { mods : Aloc.Set.t; refs : Aloc.Set.t }

type t

val of_summaries :
  ?kill_all:bool -> Ir.Cfg.program -> (Ident.t -> summary) -> t
(** A view over per-procedure summaries, each already closed over
    everything the procedure may call. With [kill_all] (default false)
    the summaries are ignored and every call may write and read anything.
    {!of_engine} and {!conservative} are both built with it; tests use it
    to wrap a reference computation. *)

val of_engine : Engine.t -> Engine.kind -> t
(** The production view: the incremental engine's merged mod-ref effects
    for that oracle kind, built from the per-procedure summaries the
    engine caches and invalidates. The engine's effect table is built on
    the program as it stands at this call, so a client may rewrite
    procedures while it consults the view. *)

val conservative : Ir.Cfg.program -> t
(** No summaries: every call may write anything (the ABL3 ablation —
    what RLE looks like without interprocedural mod-ref). *)

val summary : t -> Ident.t -> summary
(** Empty for unknown procedures. *)

val call_kill_pred :
  t -> Oracle.t -> Ir.Instr.target -> Ir.Apath.t list -> bool
(** [call_kills] with the call-side data (callee mod sets) resolved once
    at partial application; the returned predicate takes precomputed query
    paths (the expression's base variable as a path followed by its
    prefixes). For callers that test one call against many expressions. *)

val call_ref_pred :
  t -> Oracle.t -> Ir.Instr.target -> Ir.Apath.t list -> bool
(** The read-side dual of {!call_kill_pred}: may executing the call
    {e read} any of the expression's cells (per the callees' transitive
    ref sets)? Dead-store elimination keeps a store live across any call
    that may observe it. Conservative ([fun _ -> true]) under
    {!conservative}. *)
