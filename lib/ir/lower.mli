(** Lowering from the typed AST to the mid-level IR.

    Design points that matter to the paper's experiments:

    - Access paths are preserved whole: a source expression [a.b^.c\[i\]]
      lowers to a single [Iload] carrying the full selector string (after
      flattening index subexpressions), exactly the unit the paper's RLE
      hoists and CSEs. When the source names an intermediate pointer in a
      variable, the path is split accordingly — which is what produces the
      "Breakup" category of missed redundancies, since RLE does no copy
      propagation.
    - By-reference formals and WITH aliases hold addresses; their uses go
      through an explicit [Sderef], and the corresponding [Iaddr]
      instructions are the ground truth for AddressTaken.
    - Short-circuit AND/OR lower to control flow.
    - Global initializers run at the head of the synthesized main. *)

val lower_program : Minim3.Tast.program -> Cfg.program

type layout
(** What {!lower_proc} needs from a program's lowering: its global
    variables by name and the variable ids each procedure was given. *)

val lower_program_layout : Minim3.Tast.program -> Cfg.program * layout
(** {!lower_program}, also returning the layout. *)

val lower_proc : Cfg.program -> layout -> Minim3.Tast.proc -> Cfg.proc option
(** [lower_proc program layout tp] lowers a new version of one of
    [program]'s procedures (matched by name) into the variable ids the
    old version was given, so it is the procedure {!lower_program} would
    produce for the edited module. [None] when the new version needs a
    different number of ids. [program] is not changed. *)

val lower_string : ?file:string -> string -> Cfg.program
(** Parse, check, lower. *)
