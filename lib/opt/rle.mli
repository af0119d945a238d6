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
      normalizes against. It decides before it rewrites: a home is
      written only for an expression some eliminated load or shortened
      access reads, so an access nothing reuses stays as written — except
      a store, which still loads its scalar proper prefixes into homes for
      a later run's loop hoisting.

    Like the paper's implementation, this does no partial redundancy
    elimination and no copy propagation — those two gaps are what the
    Conditional and Breakup categories of Figure 10 measure. *)

open Tbaa

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

val pass : Pass.t
(** A per-procedure pass: call kills come from the context's mod-ref view,
    home temporaries from the laced allocator, and with a claims ledger
    the alias/kill answers relied on — and the home temporaries
    introduced — are logged for the dynamic soundness auditor. [changed]
    iff any load was removed; [mutated] iff the procedure's text changed
    (a removed load, or a split store or a home write where none was
    removed). Stats: [hoisted] (loads
    or load prefixes moved to preheaders), [eliminated] (loads replaced
    by register copies), [shortened] (loads whose available prefix was
    reused). *)

val removed : Pass.report list -> int
(** Total loads removed statically (hoisted + eliminated + shortened)
    over every RLE run among the reports — the paper's Table 6 number. *)
