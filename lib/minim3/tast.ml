(* Typed abstract syntax.

   Produced by Typecheck from the raw AST: every expression carries its tid,
   names are resolved to variable references, [p.f] on a REF RECORD is
   desugared into an explicit dereference followed by a field access (so the
   access-path shape seen by the alias analyses matches the paper's
   Qualify / Dereference / Subscript taxonomy), and WITH bindings are
   classified as aliases (designator operand — an address-taking construct)
   or plain value bindings. *)

open Support

type var_kind = Kglobal | Kparam of Ast.param_mode | Klocal

type var_ref = { vr_name : Ident.t; vr_kind : var_kind; vr_ty : Types.tid }

type builtin =
  | Bprint_int
  | Bprint_char
  | Bprint_bool
  | Bprint_text of string
  | Bprint_ln
  | Bord  (* CHAR -> INTEGER *)
  | Bchr  (* INTEGER -> CHAR *)
  | Babs
  | Bmin
  | Bmax
  | Bnumber  (* NUMBER(open array designator): its length, via the dope vector *)
  | Bhalt

type expr = { ty : Types.tid; desc : expr_desc; loc : Loc.t }

and expr_desc =
  | Eint of int
  | Ebool of bool
  | Echar of char
  | Enil
  | Evar of var_ref
  | Efield of expr * Ident.t  (* object qualify, or record field of a designator *)
  | Ederef of expr
  | Eindex of expr * expr
  | Ebinop of Ast.binop * expr * expr
  | Eunop of Ast.unop * expr
  | Ecall_proc of Ident.t * arg list
  | Ecall_method of expr * Ident.t * arg list  (* dynamic dispatch on receiver *)
  | Ebuiltin of builtin * expr list
  | Enew of Types.tid * expr option  (* allocated type; open-array length *)

and arg =
  | Aby_value of expr
  | Aby_ref of expr  (* designator whose address is passed (VAR actual) *)

type with_bind = {
  wb_var : var_ref;
  wb_alias : bool;  (* true: binds an alias to a designator (takes an address) *)
  wb_expr : expr;
}

type stmt = { s_desc : stmt_desc; s_loc : Loc.t }

and stmt_desc =
  | Sassign of expr * expr  (* designator := value; scalar-typed only *)
  | Scall of expr  (* Ecall_proc / Ecall_method / Ebuiltin for effect *)
  | Sif of (expr * stmt list) list * stmt list
  | Swhile of expr * stmt list
  | Srepeat of stmt list * expr
  | Sloop of stmt list
  | Sfor of var_ref * expr * expr * int * stmt list
  | Sexit
  | Sreturn of expr option
  | Swith of with_bind list * stmt list

type proc = {
  p_name : Ident.t;
  p_params : (Ident.t * Ast.param_mode * Types.tid) list;
  p_ret : Types.tid option;
  p_locals : (Ident.t * Types.tid * expr option) list;
  p_body : stmt list;
  p_loc : Loc.t;
}

type program = {
  module_name : Ident.t;
  tenv : Types.env;
  type_names : (Ident.t * Types.tid) list;  (* declared type names, in order *)
  globals : (Ident.t * Types.tid * expr option) list;
  procs : proc list;  (* includes the synthesized main, named "@main" *)
  main_name : Ident.t;
}

let main_ident = Ident.intern "@main"

(* Designator test on typed expressions (locations one can assign to or take
   the address of). *)
let rec is_designator e =
  match e.desc with
  | Evar _ -> true
  | Efield (base, _) | Eindex (base, _) -> is_designator base
  | Ederef base -> is_designator base
  | _ -> false
