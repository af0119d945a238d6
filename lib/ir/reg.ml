(* IR variables ("registers") and atoms.

   A variable is a scalar slot: a global, a parameter, a source local, or a
   compiler temporary. By-reference parameters and address temporaries hold
   addresses; their [v_ty] is the *referent* type, and every access to the
   referent goes through an explicit [Sderef] selector, which is exactly how
   the paper's analyses see them. Aggregate-typed globals and locals are
   memory-resident (the interpreter gives them addresses so VAR/WITH can
   alias into them); scalar locals and temporaries live in registers. *)

open Support
open Minim3

type kind =
  | Vglobal
  | Vparam of Ast.param_mode
  | Vlocal
  | Vtemp
  | Vaddr  (* temporary holding the address of a designator (Iaddr result) *)

type var = {
  v_id : int;  (* unique across the whole program *)
  v_name : Ident.t;
  v_ty : Types.tid;
  v_kind : kind;
}

type atom =
  | Avar of var
  | Aint of int
  | Abool of bool
  | Achar of char
  | Anil

let var_equal a b = a.v_id = b.v_id
let var_compare a b = Int.compare a.v_id b.v_id
let var_hash v = v.v_id

let atom_ty = function
  | Avar v -> v.v_ty
  | Aint _ -> Types.tid_int
  | Abool _ -> Types.tid_bool
  | Achar _ -> Types.tid_char
  | Anil -> Types.tid_null

let holds_address v =
  match v.v_kind with Vparam Ast.By_ref | Vaddr -> true | _ -> false

let pp_var ppf v =
  match v.v_kind with
  | Vtemp | Vaddr -> Format.fprintf ppf "%a#%d" Ident.pp v.v_name v.v_id
  | Vglobal | Vparam _ | Vlocal -> Ident.pp ppf v.v_name

let pp_atom ppf = function
  | Avar v -> pp_var ppf v
  | Aint n -> Format.pp_print_int ppf n
  | Abool b -> Format.pp_print_bool ppf b
  | Achar c -> Format.fprintf ppf "'%c'" c
  | Anil -> Format.pp_print_string ppf "NIL"

module Var_tbl = Hashtbl.Make (struct
  type t = var

  let equal = var_equal
  let hash = var_hash
end)

