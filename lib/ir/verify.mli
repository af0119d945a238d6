(** Structural IR validator.

    Checks the invariants every pass is supposed to preserve: dense
    block ids with in-range terminator targets and entry block, variable
    ids inside the program's id space, access-path well-typedness
    against the type environment (selector-by-selector, including the
    referent convention for address-holding bases), assign/load/store
    type compatibility, resolvable call targets, and definite assignment
    of compiler temporaries (a must-availability fixpoint — deliberately
    not single-assignment, which RLE home temps do not satisfy).

    Run between passes via [Pass_manager.run_guarded] / [tbaac
    --verify-ir] so the first pass that emits garbage is the one named
    in the report. *)

type error = {
  ve_proc : string;
  ve_block : int;  (** -1 for procedure-level errors *)
  ve_instr : string option;  (** pretty-printed offending instruction *)
  ve_msg : string;
}

val program : Cfg.program -> error list
(** All violations found, in procedure order; [] means the IR is clean. *)

val error_to_string : error -> string
