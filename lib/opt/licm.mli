(** Loop-invariant load motion as a standalone TBAA client.

    A load whose access path is invariant in a loop — no base or index
    variable redefined in the body, no store in the body may write any
    prefix of the path (per the alias oracle), no call in the body may
    write it (per the callees' transitive {!Tbaa.Effects} mod summaries)
    — and whose block executes on every iteration is hoisted to the loop
    preheader; in-loop occurrences become register copies from the
    hoisted home temporary.

    Unlike RLE's Figure-6 phase this moves only whole paths, so its
    [hoisted] count isolates the pure loop-invariance opportunity the
    oracle's precision buys. With [claims], every alias/no-mod answer
    relied on is logged under kind ["licm"], and the home temporaries are
    registered for the dynamic auditor's canonicalization. *)

open Tbaa

type stats = { mutable hoisted : int }

val run_proc :
  ?claims:Claims.t ->
  ?fresh:(name:string -> ty:Minim3.Types.tid -> kind:Ir.Reg.kind -> Ir.Reg.var) ->
  Ir.Cfg.program -> Oracle.t -> Modref.t -> Ir.Cfg.proc -> stats
(** One procedure. [fresh] overrides the preheader-home allocator
    (defaults to {!Ir.Cfg.fresh_var} on the program counter). *)

val run :
  modref:Modref.t -> ?claims:Claims.t -> Ir.Cfg.program -> Oracle.t -> stats
(** Run over every procedure, with call effects from [modref]. *)

val pass : Pass.t
(** Runs over the context's cached oracle and engine-backed mod-ref view.
    [changed] and [mutated] iff any load was hoisted. Stats: [hoisted]. *)
