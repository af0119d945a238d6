(** Pretty-printer from the raw AST back to MiniM3 concrete syntax.

    The output parses back to an equivalent module (same token-level
    semantics; layout normalized, expressions fully parenthesized). Round
    trips are checked both as a fixed point of [print ∘ parse] and
    semantically — the reprinted program must behave identically on the
    simulator. *)

val module_to_string : Ast.module_ -> string

val reprint : file:string -> string -> string
(** Parse then print. *)
