(** Program facts the alias analyses consume, collected in one linear pass
    over the IR (the paper's complexity argument, §2.5, rests on this pass
    being linear in the number of instructions).

    - every implicit or explicit pointer assignment, as a (destination type,
      source type) pair — explicit [a := b], allocation, argument binding,
      and return-value binding;
    - every address-taking occurrence (the [Iaddr] instructions lowered from
      VAR actuals and WITH-over-designator), split by what was taken:
      an object/record field, an array element, or a whole variable;
    - the types of by-reference formals (the open-world AddressTaken rule);
    - every heap memory reference (the [Apath.t] of each load and store),
      for the static alias-pair metric. *)

open Support
open Minim3

type field_addr = {
  fa_field : Ident.t;
  fa_recv : Types.tid;  (* type of the object/record the field was taken from *)
  fa_content : Types.tid;  (* the field's own type *)
}

type elem_addr = {
  ea_array : Types.tid;  (* array type subscripted *)
  ea_elem : Types.tid;
}

type memref = {
  mr_proc : Ident.t;
  mr_path : Ir.Apath.t;
  mr_is_store : bool;
}

type t = {
  tenv : Types.env;
  assignments : (Types.tid * Types.tid) list;  (* (dst, src), dst <> src *)
  field_addrs : field_addr list;
  elem_addrs : elem_addr list;
  var_addrs : Ir.Reg.var list;  (* whole variables whose address is taken *)
  byref_formal_tids : Types.tid list;  (* distinct referent types of VAR formals *)
  memrefs : memref list;  (* heap references, in program order *)
}

(** {1 Per-procedure collection (the incremental engine's unit of work)} *)

type contrib = {
  c_assignments : (Minim3.Types.tid * Minim3.Types.tid) list;
  c_field_addrs : field_addr list;
  c_elem_addrs : elem_addr list;
  c_var_addrs : Ir.Reg.var list;
  c_byref : Minim3.Types.tid list;  (** deduplicated within the procedure *)
  c_memrefs : memref list;
}
(** One procedure's facts, each list in encounter order. *)

val collect_proc : Ir.Cfg.program -> Ir.Cfg.proc -> contrib
(** Collect one procedure's facts. Pure (interns nothing, reads only the
    IR, [tenv] and callee signatures through [Cfg.find_proc_opt]); safe
    to call concurrently on distinct procedures. *)

val merge : Minim3.Types.env -> contrib list -> t
(** Merge per-procedure contributions given in program order. Produces
    lists *byte-identical* to the historical monolithic pass (the test
    suite's reference collection merges every procedure in program
    order). *)

(** {1 Canonical oracle inputs} *)

type oracle_inputs
(** The projection of a contribution that oracle construction consumes
    (assignment pairs, address-taken occurrences, by-ref formal types —
    not memrefs), canonicalized to sorted deduplicated integer lists.
    Every consumer has set semantics, so procedures whose edits preserve
    their [oracle_inputs] cannot change any oracle's answers. *)

val oracle_inputs : contrib -> oracle_inputs
val oracle_inputs_equal : oracle_inputs -> oracle_inputs -> bool

val contrib_equal : contrib -> contrib -> bool
(** Structural equality of two contributions (interned idents by id,
    hash-consed paths by node identity). When every re-collected
    procedure's contribution is unchanged, the merged whole-program facts
    are unchanged too — the engine's fast path past {!merge}. *)
