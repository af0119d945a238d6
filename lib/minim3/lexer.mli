(** Hand-written lexer for MiniM3.

    Comments are Modula-3 style [(* ... *)] and nest. Character literals use
    single quotes with [\n], [\t], [\\], [\'] escapes; string literals (used
    only as arguments to the Print builtin) use double quotes with the same
    escapes.

    The lexer allocates nothing per character: a token costs its location
    and, for [IDENT], [INT], [CHARLIT] and [STRING], its payload. The parser
    pulls tokens one at a time with {!next}. *)

type t

val create : file:string -> string -> t
(** [create ~file source] positions the lexer at the start of [source];
    [file] is used in diagnostics only. *)

val create_at : file:string -> string -> pos:int -> line:int -> t
(** [create_at ~file source ~pos ~line] positions the lexer at byte [pos]
    of [source], taking that byte to be on line [line] (columns count from
    the newline before it). [create] is [create_at ~pos:0 ~line:1]. *)

val next : t -> Token.t
(** The next token. Returns [EOF] indefinitely at end of input. Raises
    {!Support.Diag.Compile_error} on malformed input. *)

val last_loc : t -> Support.Loc.t
(** Where the token {!next} last returned starts. *)

val last_offset : t -> int
(** The byte offset of that token. *)

val finish : t -> unit
(** Lex the rest of the input, raising its first error, unless {!next} has
    already returned [EOF] or raised. A parser that stops early calls this,
    so that a lexical error anywhere in the input is reported in place of
    a syntax error, as if the whole input had been lexed first. *)

val tokenize : file:string -> string -> (Token.t * Support.Loc.t) list
(** The whole token stream including the final [EOF]. *)
