(** Redundant load elimination (paper §3.4.1, Figures 6–7), and the
    machinery the other forward TBAA clients share with it: the kill rule,
    the loop hoister (LICM is the hoister over whole paths) and the
    availability builder (PRE, SLF and the Figure 10 classifier solve over
    it).

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
    once. SLF tests its bindings' paths through {!kill_pred} with these;
    the other clients reach them through {!hoist_loops} or a
    {!kill_index}. *)

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

val def_kill_set : kill_index -> Ir.Instr.t -> Support.Bitset.t
(** The expressions that read the variable the instruction defines (none
    when it defines none), by lookup: a perfect alias analysis's kill set,
    under which no store or call kills anything. Shared like
    {!kill_set}'s. *)

(** {1 Forward availability}

    Every instruction's transfer over a fixed universe — its kill set and
    the expressions it makes available — is taken once, in block and
    instruction order (so claims logged while taking kill sets land in
    that order), and composed into per-block gen/kill sets. *)

type transfers = {
  tr_universe : int;
  tr_gen : Support.Bitset.t array;  (** per block id *)
  tr_kill : Support.Bitset.t array;
  tr_steps : (Support.Bitset.t * int list) list array;
      (** per block id, per instruction: its kill set and its gens *)
}

val compose :
  Ir.Cfg.proc ->
  universe:int ->
  kills:(Ir.Instr.t -> Support.Bitset.t) ->
  gens:(Ir.Instr.t -> int list) ->
  transfers
(** Gens are applied after kills: an instruction that kills and makes
    available the same expression leaves it available. *)

val solve : Ir.Cfg.proc -> transfers -> Ir.Dataflow.confluence -> Ir.Dataflow.result
(** The forward solve from an empty entry fact. *)

val replay :
  transfers ->
  Ir.Cfg.block ->
  Support.Bitset.t ->
  (Support.Bitset.t -> Ir.Instr.t -> 'a) ->
  'a list
(** [replay tr b inn f] applies [f avail instr] to each instruction of [b]
    in order, [avail] holding the facts just before it, starting from the
    block-entry facts [inn] (which are not mutated). [avail] is only valid
    during the call. The block must be as it was when [tr] was composed. *)

val scalar_prefixes : Minim3.Types.env -> Ir.Apath.t -> Ir.Apath.t list
(** The scalar-typed prefixes of a path, shortest first: the words the
    machine actually reads to access it (a pointer or a scalar).
    Aggregate-typed prefixes (an inline record, the array behind a dope)
    are address arithmetic, not loads. *)

type availability = {
  av_exprs : Ir.Apath.t array;  (** the universe, by id *)
  av_ids : int Ir.Apath.Tbl.t;
  av_transfers : transfers;
}
(** RLE's expressions over one procedure: the {!scalar_prefixes} of every
    path it loads or stores. A load makes available the prefixes of its
    path that do not read its destination; a store makes available its
    proper prefixes and its own path. *)

val availability :
  Minim3.Types.env ->
  Ir.Cfg.proc ->
  kills:(kill_index -> Ir.Instr.t -> Support.Bitset.t) ->
  availability option
(** [None] when the procedure loads and stores nothing. [kills] is the
    kill rule over the universe's index: {!kill_set} for TBAA,
    {!def_kill_set} for a perfect alias analysis. *)

(** {1 The passes} *)

val hoist_loops :
  ?claims:Claims.t ->
  ?kind:string ->
  candidates:(Ir.Apath.t -> Ir.Apath.t list) ->
  fresh:(name:string -> ty:Minim3.Types.tid -> kind:Ir.Reg.kind -> Ir.Reg.var) ->
  Oracle.t ->
  Modref.t ->
  Ir.Cfg.proc ->
  int
(** Figure 6: a load in a block that executes on every iteration of a
    loop has the longest of its path's [candidates] (shortest first) that
    is invariant in the loop — no variable it reads is defined in the
    body, and no instruction of the body may kill it ({!kill_pred}) —
    moved to the loop's preheader into a home temporary named ["licm"].
    A whole path moves only when the load's destination has no other
    definition in the loop. Rounds repeat (at most five) while they hoist,
    so loads escape nested loops level by level. Returns the number of
    loads rewritten. With [claims], the oracle answers relied on are
    logged under [kind] (default ["rle"]) and the homes registered. *)

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
