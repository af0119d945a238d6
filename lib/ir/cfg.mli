(** Control-flow graphs, procedures and whole programs.

    Blocks are identified by dense integer ids within a procedure. The
    structure is mutable — optimization passes edit instruction lists and
    retarget terminators in place; analyses that need a stable view compute
    over a snapshot (block ids are never reused). *)

open Support
open Minim3

type block = {
  b_id : int;
  mutable b_instrs : Instr.t list;
  mutable b_term : Instr.terminator;
}

type proc = {
  pr_name : Ident.t;
  pr_params : Reg.var list;
  pr_ret : Types.tid option;
  pr_blocks : block Vec.t;
  mutable pr_entry : int;
  mutable pr_locals : Reg.var list;  (* source locals + temporaries, for interp *)
}

type index
(** The program's procedure-name index. *)

type program = private {
  tenv : Types.env;
  prog_globals : Reg.var list;
  mutable prog_procs : proc list;
  prog_main : Ident.t;
  mutable next_var_id : int;  (* program-wide variable id counter *)
  mutable prog_index : index;  (* built over [prog_procs] *)
}
(** Private, so that the procedure list and its index change together:
    build a program with {!make_program}, replace its list with
    {!set_procs}. *)

val make_program :
  tenv:Types.env -> globals:Reg.var list -> main:Ident.t -> next_var_id:int ->
  proc list -> program

val set_procs : program -> proc list -> unit
(** Replace the procedure list and rebuild the index over it. *)

val new_block : proc -> Instr.terminator -> block
(** Append a fresh block with the given (provisional) terminator. *)

val block : proc -> int -> block

val n_blocks : proc -> int

val successors : Instr.terminator -> int list

val predecessors : proc -> int list array
(** [predecessors p] indexed by block id; unreachable blocks included. *)

val reverse_postorder : proc -> int list
(** Blocks reachable from entry, in reverse postorder. *)

val find_proc : program -> Ident.t -> proc
(** O(1). When the list repeats a name, the first binding wins. Raises
    [Not_found]. *)

val find_proc_opt : program -> Ident.t -> proc option
(** As {!find_proc}. The index is read-only between list replacements,
    so any number of domains may look up at once. *)

val fresh_var :
  program -> name:string -> ty:Types.tid -> kind:Reg.kind -> Reg.var
(** Allocate a program-unique variable. *)

val set_next_var_id : program -> int -> unit
(** Move the id counter past ids a caller allocated itself. *)

type snapshot
(** A rollback point for [restore]: the proc list, each procedure's
    entry/locals/blocks (instruction lists and terminators), and the
    variable-id counter, captured by value. *)

val snapshot : program -> snapshot
(** Capture enough state to undo any in-place pass mutation. *)

val restore : program -> snapshot -> unit
(** Roll the program back to a previously captured {!snapshot}. Blocks
    appended since the snapshot are dropped, blocks dropped since are
    re-created; instruction lists and terminators revert to their
    captured values. *)

val iter_instrs : proc -> (block -> Instr.t -> unit) -> unit

val instr_count : proc -> int

val pp_proc : Format.formatter -> proc -> unit
val pp_program : Format.formatter -> program -> unit
