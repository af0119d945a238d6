(** Call graph over the IR, with virtual calls resolved conservatively to
    every method implementation a compatible receiver type could dispatch
    to. Its SCC condensation schedules the engine's interprocedural
    mod-ref merges and decides the inliner's recursion check. *)

open Support

val callees : Cfg.program -> Cfg.proc -> Ident.Set.t
(** Direct callees plus all possible targets of virtual calls. *)

val callees_of_target :
  Cfg.program -> Instr.target -> Ident.t list
(** Possible procedures a call target dispatches to. For [Cvirtual (m, t)]
    this is the set of [method_impl] results over [Subtypes (t)]. *)

type condensation = {
  cond_comps : Ident.t list array;
      (** Strongly connected components in topological order: every
          component's successors (callees) have *smaller* indices, so a
          left-to-right scan sees callees before callers. Members are
          sorted by [Ident.compare]. *)
  cond_index : (Ident.t, int) Hashtbl.t;
      (** Procedure -> index of its component in [cond_comps]. *)
  cond_succs : int list array;
      (** Per component, the distinct successor components (sorted,
          self-loops elided) — the condensation DAG's edges. *)
}

val condense :
  nodes:Ident.t list -> callees:(Ident.t -> Ident.Set.t) -> condensation
(** Tarjan SCC condensation of an arbitrary callee graph (callee names
    without a node are ignored). Deterministic: depends only on [nodes]
    order and the callee sets. Iterative — safe on graphs thousands of
    procedures deep. *)

val condense_program : Cfg.program -> condensation
(** [condense] over the program's procedures and {!callees}. *)
