(** Recursive-descent parser for MiniM3.

    The grammar is LL(2) — one token of lookahead everywhere except
    distinguishing a supertype name from a plain type name in
    [T = Super OBJECT ... END]. *)

val parse_module : file:string -> string -> Ast.module_
(** Parse a full compilation unit. Raises {!Support.Diag.Compile_error} on
    syntax errors, with the offending location. *)

type span = {
  sp_start : int;  (** offset of the [PROCEDURE] keyword *)
  sp_stop : int;  (** offset just past the closing [;] *)
  sp_line : int;  (** line of the [PROCEDURE] keyword *)
}
(** Where a top-level procedure declaration sits in its source. *)

val parse_module_spans : file:string -> string -> Ast.module_ * span array
(** {!parse_module}, also returning the span of every top-level
    procedure declaration, in declaration order. *)

val parse_proc_at :
  file:string -> string -> pos:int -> line:int -> Ast.proc_decl * int
(** [parse_proc_at ~file source ~pos ~line] parses the one procedure
    declaration that starts at byte [pos] (on line [line]) of [source],
    and returns it with the offset just past its closing [;]. Nothing
    after that [;] is read. Raises {!Support.Diag.Compile_error} on a
    lexical or syntax error inside the declaration. *)

val parse_expr_string : string -> Ast.expr
(** Parse a single expression (testing convenience). *)
