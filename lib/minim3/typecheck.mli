(** MiniM3 type checker and elaborator.

    Checks a parsed module against Modula-3-style rules and produces the
    typed program ({!Tast.program}) the rest of the pipeline consumes:

    - names resolved (locals/params/globals/consts/procedures/methods);
    - every expression annotated with its {!Types.tid};
    - [p.f] and [p\[i\]] through a REF desugared into explicit dereference;
    - VAR actuals and WITH-over-designator marked as address-taking;
    - VAR (by-reference) actuals required to have *identical* type to the
      formal, as Modula-3 requires — the open-world AddressTaken rule
      depends on this;
    - assignments restricted to scalar types (the paper assumes aggregate
      assignments are broken into component accesses);
    - the module body packaged as a procedure named ["@main"].

    All violations raise {!Support.Diag.Compile_error}. *)

val check_module : Ast.module_ -> Tast.program
(** Stops at the first error. *)

type context
(** What a successful {!check_module_context} ends with: the module's
    types, constants, globals and procedure signatures, and for each
    procedure the type count its body check started at and whether that
    check allocated types. *)

val check_module_context :
  Ast.module_ -> (Tast.program * context, Support.Diag.t list) result
(** {!check_module_all}, also returning the context for {!check_proc}. *)

val check_proc : context -> Ast.proc_decl -> (Tast.proc, string) result
(** Re-check a new declaration of one of the context's procedures, as
    the module check would check it in place of the old one. [Ok] only
    if its header elaborates to the old signature, its body checks with
    no diagnostic, and the check neither allocates a type nor uses one
    allocated after the old body's check began; nor is it tried when
    the old body's check allocated types. Under these conditions the
    module check of the edited module yields the same type environment
    and, for this procedure, the same typed procedure. [Error] says
    which condition failed. Leaves the context as it was. *)

val check_string : ?file:string -> string -> Tast.program
(** Parse then check. *)

val check_module_all :
  Ast.module_ -> (Tast.program, Support.Diag.t list) result
(** Like {!check_module}, but recovers at statement and declaration
    boundaries and reports *every* diagnostic found, in source-report
    order. [Ok] iff the program is error-free (and then the result is
    identical to {!check_module}'s). *)

val check_string_all :
  ?file:string -> string -> (Tast.program, Support.Diag.t list) result
(** Parse then {!check_module_all}; a parse error yields a one-element
    error list. *)
