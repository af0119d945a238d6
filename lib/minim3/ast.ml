(* Abstract syntax of MiniM3.

   The tree is deliberately close to Modula-3 concrete syntax: the paper's
   access-path notation (p.f qualify, p^ dereference, p[i] subscript) maps
   one-to-one onto [Field], [Deref] and [Index] nodes, and the two
   address-taking constructs (VAR actuals, WITH over a designator) are
   explicit in [With] and in call argument positions. *)

open Support

type binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | And | Or

type unop = Neg | Not

(* Type expressions as written in source; elaborated by Typecheck into
   Types.tid. *)
type ty_expr = { t_desc : ty_desc; t_loc : Loc.t }

and ty_desc =
  | Tname of Ident.t
  | Tint
  | Tbool
  | Tchar
  | Troot  (* ROOT, the top object type *)
  | Tarray of int option * ty_expr  (* ARRAY [0..n-1] OF T, or open ARRAY OF T *)
  | Trecord of field_decl list
  | Tref of string option * ty_expr  (* REF T, optionally BRANDED "brand" *)
  | Tobject of object_decl

and field_decl = { f_name : Ident.t; f_ty : ty_expr; f_loc : Loc.t }

and object_decl = {
  o_super : ty_expr option;  (* None means ROOT *)
  o_brand : string option;
  o_fields : field_decl list;
  o_methods : method_decl list;  (* METHODS section: new methods *)
  o_overrides : (Ident.t * Ident.t * Loc.t) list;  (* OVERRIDES m := Proc *)
}

and method_decl = {
  m_name : Ident.t;
  m_params : param_decl list;  (* excluding the implicit receiver *)
  m_ret : ty_expr option;
  m_impl : Ident.t option;  (* := Proc default implementation *)
  m_loc : Loc.t;
}

and param_mode = By_value | By_ref  (* VAR parameter *)

and param_decl = {
  p_name : Ident.t;
  p_mode : param_mode;
  p_ty : ty_expr;
  p_loc : Loc.t;
}

type expr = { e_desc : expr_desc; e_loc : Loc.t }

and expr_desc =
  | Int_lit of int
  | Bool_lit of bool
  | Char_lit of char
  | String_lit of string  (* only legal as a Print argument *)
  | Nil
  | Name of Ident.t
  | Field of expr * Ident.t  (* p.f — also method selection before a call *)
  | Deref of expr  (* p^ *)
  | Index of expr * expr  (* p[i] *)
  | Binop of binop * expr * expr
  | Unop of unop * expr
  | Call of expr * expr list  (* callee is Name (proc) or Field (method) *)
  | New of ty_expr * expr list  (* NEW(T) or NEW(T, length) *)

type stmt = { s_desc : stmt_desc; s_loc : Loc.t }

and stmt_desc =
  | Assign of expr * expr  (* designator := expr *)
  | Call_stmt of expr  (* procedure or method call for effect *)
  | If of (expr * stmt list) list * stmt list  (* IF/ELSIF branches, ELSE *)
  | While of expr * stmt list
  | Repeat of stmt list * expr  (* REPEAT body UNTIL cond *)
  | Loop of stmt list  (* LOOP ... END, left by EXIT *)
  | For of Ident.t * expr * expr * int * stmt list  (* FOR i := a TO b BY k *)
  | Exit
  | Return of expr option
  | With of (Ident.t * expr) list * stmt list

type const_decl = { c_name : Ident.t; c_value : expr; c_loc : Loc.t }

type var_decl = {
  v_name : Ident.t;
  v_ty : ty_expr;
  v_init : expr option;
  v_loc : Loc.t;
}

type proc_decl = {
  pr_name : Ident.t;
  pr_params : param_decl list;
  pr_ret : ty_expr option;
  pr_consts : const_decl list;
  pr_locals : var_decl list;
  pr_body : stmt list;
  pr_loc : Loc.t;
}

type decl =
  | Dtype of Ident.t * ty_expr * Loc.t
  | Dconst of const_decl
  | Dvar of var_decl
  | Dproc of proc_decl

type module_ = {
  mod_name : Ident.t;
  mod_decls : decl list;
  mod_body : stmt list;  (* main body *)
  mod_loc : Loc.t;
}

let binop_to_string = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "DIV" | Mod -> "MOD"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "=" | Ne -> "#"
  | And -> "AND" | Or -> "OR"

let unop_to_string = function Neg -> "-" | Not -> "NOT"
