(** Redundant load elimination (paper §3.4.1, Figures 6–7).

    Two phases per procedure, both driven by the alias oracle and the
    interprocedural mod-ref summaries:

    - {b loop-invariant load motion}: a load whose access path is invariant
      in a loop (its base and index variables are not redefined and no
      store or call in the loop may write any prefix of the path) and whose
      block executes on every iteration is moved to the loop preheader;
    - {b redundant-load CSE}: a forward must-availability analysis over the
      procedure's distinct load expressions; a load whose expression is
      available is replaced by a register copy from the expression's home
      temporary. A store makes its own path available (store-to-load
      forwarding), exactly like GCC's baseline behaviour the paper
      normalizes against.

    Like the paper's implementation, this does no partial redundancy
    elimination and no copy propagation — those two gaps are what the
    Conditional and Breakup categories of Figure 10 measure. *)

open Tbaa

type stats = {
  mutable hoisted : int;  (* loads (or load prefixes) moved to preheaders *)
  mutable eliminated : int;  (* loads replaced by register copies *)
  mutable shortened : int;  (* loads whose available prefix was reused *)
}

type query_paths = {
  qp_vars : Ir.Reg.var list;  (* variables the path reads (base and indices) *)
  qp_base : Ir.Apath.t;  (* the base variable as a path *)
  qp_prefixes : Ir.Apath.t list;  (* all prefixes, including the path itself *)
  qp_all : Ir.Apath.t list;  (* qp_base :: qp_prefixes *)
}
(** The derived paths the kill test consults for one expression, resolved
    once (shared by the other TBAA clients — SLF and LICM replay the same
    invalidation reasoning). *)

val query_paths : Ir.Apath.t -> query_paths

val kill_pred :
  ?claims:Claims.t ->
  ?kind:string ->
  Oracle.t ->
  Modref.t ->
  Ir.Instr.t ->
  query_paths ->
  bool
(** [kill_pred oracle modref instr] resolves the instruction-side data
    once and returns the per-expression kill test. With [claims], every
    oracle answer consulted is logged against its witness paths under
    client [kind] (default ["rle"]). *)

val instr_kills :
  ?claims:Claims.t ->
  ?kind:string ->
  Oracle.t ->
  Modref.t ->
  Ir.Instr.t ->
  Ir.Apath.t ->
  bool
(** May executing this instruction change the value of the given memory
    expression? (Exposed for the limit-study classifier, which replays
    RLE's availability reasoning.) With [claims], every oracle answer
    consulted is logged against its witness paths. *)

type kill_index
(** A fixed universe of tracked expressions, numbered by array position,
    with each expression's query paths resolved and the expressions indexed
    by the variables they read. *)

val kill_index : Ir.Apath.t array -> kill_index

val kill_set :
  ?claims:Claims.t ->
  Oracle.t ->
  Modref.t ->
  kill_index ->
  Ir.Instr.t ->
  Support.Bitset.t
(** The expressions of the index that executing the instruction may change:
    bit [i] is set iff {!kill_pred} holds for expression [i]. A definition
    of a local variable (neither global nor address-taken) is answered by
    lookup, with no oracle query; every other instruction runs
    {!kill_pred} over the universe in index order, logging the same claims.
    The returned set may be shared with the index and with other calls: it
    must not be mutated. *)

val removed : stats -> int
(** Total loads removed statically — the paper's Table 6 number. *)

val run_proc :
  ?claims:Claims.t ->
  ?fresh:(name:string -> ty:Minim3.Types.tid -> kind:Ir.Reg.kind -> Ir.Reg.var) ->
  Ir.Cfg.program -> Oracle.t -> Modref.t -> Ir.Cfg.proc -> stats
(** One procedure. [fresh] overrides the home-temporary allocator
    (defaults to {!Ir.Cfg.fresh_var} on the program counter); the
    per-procedure engine passes its deterministic laced allocator. *)

val run :
  modref:Modref.t -> ?claims:Claims.t -> Ir.Cfg.program -> Oracle.t -> stats
(** Run over every procedure, with call kills from [modref] (normally
    {!Modref.of_engine}; {!Modref.conservative} for the ablation). With
    [claims], the alias/kill answers relied on — and the home temporaries
    introduced — are logged for the dynamic soundness auditor. *)

val pass : Pass.t
(** Runs over the context's cached oracle (mod-ref computed internally
    against it). [changed] iff any load was removed; always [mutated].
    Stats: [hoisted], [eliminated], [shortened]. *)
