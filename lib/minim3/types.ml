open Support

type tid = int

type field = { fld_name : Ident.t; fld_ty : tid }

type method_sig = {
  ms_name : Ident.t;
  ms_params : (Ast.param_mode * tid) list;
  ms_ret : tid option;
  ms_impl : Ident.t option;
}

type obj_info = {
  obj_name : Ident.t;
  obj_uid : int;
  obj_super : tid option;
  obj_brand : string option;
  obj_fields : field array;
  obj_methods : method_sig array;
  obj_overrides : (Ident.t * Ident.t) array;
}

type desc =
  | Dint
  | Dbool
  | Dchar
  | Dnull
  | Dunit
  | Darray of int option * tid
  | Drecord of field array
  | Dref of { target : tid; brand : string option }
  | Dobject of obj_info

(* Structural key used to hash-cons non-object descs. Objects are nominal so
   they never enter this table. *)
type key =
  | Kprim of int
  | Karray of int option * tid
  | Krecord of (int * tid) list  (* field ident ids *)
  | Kref of tid * string option

(* The inheritance forest's children index: [kids.(t)] lists the object
   types whose super is [t], built over the first [built] tids. *)
type forest = { built : int; kids : tid array array }

type env = {
  mutable descs : desc array;
  mutable len : int;
  cons : (key, tid) Hashtbl.t;
  mutable next_uid : int;
  forest : forest option Atomic.t;
      (* built on first use, dropped by any change to the types *)
}

let tid_unit = 0
let tid_int = 1
let tid_bool = 2
let tid_char = 3
let tid_null = 4
let tid_root = 5

let root_info =
  { obj_name = Ident.intern "ROOT"; obj_uid = 0; obj_super = None;
    obj_brand = None; obj_fields = [||]; obj_methods = [||]; obj_overrides = [||] }

let create () =
  let descs = Array.make 64 Dunit in
  descs.(tid_unit) <- Dunit;
  descs.(tid_int) <- Dint;
  descs.(tid_bool) <- Dbool;
  descs.(tid_char) <- Dchar;
  descs.(tid_null) <- Dnull;
  descs.(tid_root) <- Dobject root_info;
  let env =
    { descs; len = 6; cons = Hashtbl.create 64; next_uid = 1;
      forest = Atomic.make None }
  in
  Hashtbl.add env.cons (Kprim tid_unit) tid_unit;
  Hashtbl.add env.cons (Kprim tid_int) tid_int;
  Hashtbl.add env.cons (Kprim tid_bool) tid_bool;
  Hashtbl.add env.cons (Kprim tid_char) tid_char;
  Hashtbl.add env.cons (Kprim tid_null) tid_null;
  env

let count env = env.len

(* A short human-readable tag for diagnostics raised before the full
   printer is available (definition order in this file). *)
let desc_kind = function
  | Dunit -> "the unit type"
  | Dint -> "INTEGER"
  | Dbool -> "BOOLEAN"
  | Dchar -> "CHAR"
  | Dnull -> "NULL"
  | Darray _ -> "an array type"
  | Drecord _ -> "a record type"
  | Dref _ -> "a reference type"
  | Dobject info -> "object type " ^ Ident.name info.obj_name

let desc env tid =
  if tid < 0 || tid >= env.len then
    Diag.error "Types.desc: type id %d out of range (environment has %d types)"
      tid env.len;
  env.descs.(tid)

let push env d =
  if env.len = Array.length env.descs then begin
    let bigger = Array.make (2 * env.len) Dunit in
    Array.blit env.descs 0 bigger 0 env.len;
    env.descs <- bigger
  end;
  env.descs.(env.len) <- d;
  env.len <- env.len + 1;
  Atomic.set env.forest None;
  env.len - 1

let key_of_desc = function
  | Dunit -> Kprim tid_unit
  | Dint -> Kprim tid_int
  | Dbool -> Kprim tid_bool
  | Dchar -> Kprim tid_char
  | Dnull -> Kprim tid_null
  | Darray (n, t) -> Karray (n, t)
  | Drecord fields ->
    Krecord (Array.to_list (Array.map (fun f -> (Ident.id f.fld_name, f.fld_ty)) fields))
  | Dref { target; brand } -> Kref (target, brand)
  | Dobject info ->
    Diag.error
      "Types.intern: object type %a is nominal; create it with new_object"
      Ident.pp info.obj_name

let intern env d =
  let key = key_of_desc d in
  match Hashtbl.find_opt env.cons key with
  | Some tid -> tid
  | None ->
    let tid = push env d in
    Hashtbl.add env.cons key tid;
    tid

let find env d = Hashtbl.find_opt env.cons (key_of_desc d)

let reserve_ref env ~brand = push env (Dref { target = tid_unit; brand })

let patch_ref env tid ~target =
  match desc env tid with
  | Dref { brand; _ } -> env.descs.(tid) <- Dref { target; brand }
  | d ->
    Diag.error "Types.patch_ref: type id %d is %s, not a reserved REF" tid
      (desc_kind d)

let reserve_object env ~name =
  let info =
    { obj_name = name; obj_uid = env.next_uid; obj_super = Some tid_root;
      obj_brand = None; obj_fields = [||]; obj_methods = [||];
      obj_overrides = [||] }
  in
  env.next_uid <- env.next_uid + 1;
  push env (Dobject info)

let patch_object env tid ~super ~brand ~fields ~methods ~overrides =
  match desc env tid with
  | Dobject info ->
    env.descs.(tid) <-
      Dobject { info with obj_super = super; obj_brand = brand;
                obj_fields = fields; obj_methods = methods;
                obj_overrides = overrides };
    Atomic.set env.forest None
  | d ->
    Diag.error "Types.patch_object: type id %d is %s, not a reserved object"
      tid (desc_kind d)

let is_object env t = match desc env t with Dobject _ -> true | _ -> false

let is_pointer env t =
  match desc env t with Dobject _ | Dref _ | Dnull -> true | _ -> false

let is_scalar env t =
  match desc env t with
  | Dint | Dbool | Dchar | Dnull | Dref _ | Dobject _ -> true
  | Dunit | Darray _ | Drecord _ -> false

(* [s] is a proper descendant of [t] in the inheritance forest: a walk up
   [s]'s supertypes that allocates nothing. *)
let rec inherits env s t =
  match desc env s with
  | Dobject { obj_super = Some p; _ } -> p = t || inherits env p t
  | _ -> false

let subtype env s t =
  s = t
  ||
  match (desc env s, desc env t) with
  | Dnull, (Dref _ | Dobject _) -> true
  | Dobject _, Dobject _ -> inherits env s t
  | _ -> false

let forest env =
  match Atomic.get env.forest with
  | Some f when f.built = env.len -> f
  | _ ->
    let count = Array.make env.len 0 in
    let parent u =
      match env.descs.(u) with Dobject { obj_super = Some p; _ } -> p | _ -> -1
    in
    for u = 0 to env.len - 1 do
      let p = parent u in
      if p >= 0 then count.(p) <- count.(p) + 1
    done;
    let kids = Array.map (fun n -> Array.make n 0) count in
    for u = env.len - 1 downto 0 do
      let p = parent u in
      if p >= 0 then begin
        count.(p) <- count.(p) - 1;
        kids.(p).(count.(p)) <- u
      end
    done;
    let f = { built = env.len; kids } in
    Atomic.set env.forest (Some f);
    f

let rec object_fields env t =
  match desc env t with
  | Dobject info ->
    let inherited =
      match info.obj_super with Some s -> object_fields env s | None -> []
    in
    inherited @ Array.to_list info.obj_fields
  | d -> Diag.error "Types.object_fields: %s has no object fields" (desc_kind d)

(* The first field named [name] in [object_fields env t] order (supertypes
   first), found without building that list. *)
let rec find_object_field env t name =
  match desc env t with
  | Dobject info -> (
    let inherited =
      match info.obj_super with
      | Some s -> find_object_field env s name
      | None -> None
    in
    match inherited with
    | Some _ -> inherited
    | None -> Array.find_opt (fun f -> Ident.equal f.fld_name name) info.obj_fields)
  | _ -> None

let find_field env t name =
  match desc env t with
  | Drecord fields ->
    Array.fold_left
      (fun acc f -> if Ident.equal f.fld_name name then Some f else acc)
      None fields
  | Dobject _ -> find_object_field env t name
  | _ -> None

let rec lookup_method env t m =
  match desc env t with
  | Dobject info -> (
    let own =
      Array.fold_left
        (fun acc ms -> if Ident.equal ms.ms_name m then Some ms else acc)
        None info.obj_methods
    in
    match own with
    | Some ms -> Some (t, ms)
    | None -> (
      match info.obj_super with
      | Some s -> lookup_method env s m
      | None -> None))
  | _ -> None

(* The implementation of [m] that object type [info] itself declares:
   its last OVERRIDES entry for [m], else the default of its last METHODS
   entry for [m]. [None] defers to the super. *)
let own_impl info m =
  let override =
    Array.fold_left
      (fun acc (name, proc) -> if Ident.equal name m then Some proc else acc)
      None info.obj_overrides
  in
  match override with
  | Some _ -> override
  | None ->
    Array.fold_left
      (fun acc ms -> if Ident.equal ms.ms_name m then ms.ms_impl else acc)
      None info.obj_methods

let rec method_impl env t m =
  match desc env t with
  | Dobject info -> (
    match own_impl info m with
    | Some _ as impl -> impl
    | None -> (
      match info.obj_super with
      | Some s -> method_impl env s m
      | None -> None))
  | _ -> None

let subtree_impls env t m =
  match desc env t with
  | Dobject _ ->
    let kids = (forest env).kids in
    (* A subtype inherits its parent's implementation unless it declares
       its own, so one walk down the subtree resolves every member. *)
    let rec below acc inherited u =
      let impl =
        match env.descs.(u) with
        | Dobject info -> (
          match own_impl info m with Some _ as own -> own | None -> inherited)
        | _ -> inherited
      in
      let acc = match impl with Some p -> p :: acc | None -> acc in
      Array.fold_left (fun acc v -> below acc impl v) acc kids.(u)
    in
    let inherited =
      match desc env t with
      | Dobject { obj_super = Some s; _ } -> method_impl env s m
      | _ -> None
    in
    below [] inherited t
  | _ -> []

(* Descriptors hold only ints, interned idents, strings and tids, so
   polymorphic equality is structural equality; [next_uid] is per-env, so
   two lowerings of one source assign identical uids. *)
let env_equal a b =
  a == b
  || (a.len = b.len
      && (try
            for i = 0 to a.len - 1 do
              if a.descs.(i) <> b.descs.(i) then raise Exit
            done;
            true
          with Exit -> false))

let rec pp env ppf t =
  match desc env t with
  | Dunit -> Format.pp_print_string ppf "<unit>"
  | Dint -> Format.pp_print_string ppf "INTEGER"
  | Dbool -> Format.pp_print_string ppf "BOOLEAN"
  | Dchar -> Format.pp_print_string ppf "CHAR"
  | Dnull -> Format.pp_print_string ppf "NULL"
  | Darray (Some n, t) -> Format.fprintf ppf "ARRAY [0..%d] OF %a" (n - 1) (pp env) t
  | Darray (None, t) -> Format.fprintf ppf "ARRAY OF %a" (pp env) t
  | Drecord fields ->
    Format.fprintf ppf "RECORD %a END"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.pp_print_string ppf "; ")
         (fun ppf f -> Format.fprintf ppf "%a: %a" Ident.pp f.fld_name (pp env) f.fld_ty))
      (Array.to_list fields)
  | Dref { target; brand = None } -> Format.fprintf ppf "REF %a" (pp env) target
  | Dref { target; brand = Some b } ->
    Format.fprintf ppf "BRANDED %S REF %a" b (pp env) target
  | Dobject info -> Ident.pp ppf info.obj_name

let to_string env t = Format.asprintf "%a" (pp env) t
