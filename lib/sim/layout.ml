open Support
open Minim3

(* [sizes] holds the inline size by tid, [obj_sizes] an object type's
   allocation size (header plus every field, inherited first), extended
   from its parent's; both [unknown] until asked. Both cover the tids the
   environment had at [create]; a later tid is computed afresh. *)
type t = { env : Types.env; sizes : int array; obj_sizes : int array }

let object_header = 1
let open_array_dope = 1
let unknown = -1

let create env =
  let n = Types.count env in
  { env; sizes = Array.make n unknown; obj_sizes = Array.make n unknown }

let ty_str t tid = Types.to_string t.env tid

let rec size t tid =
  if tid >= 0 && tid < Array.length t.sizes && t.sizes.(tid) <> unknown then
    t.sizes.(tid)
  else
    let s =
      match Types.desc t.env tid with
      | Types.Dint | Types.Dbool | Types.Dchar | Types.Dnull | Types.Dref _
      | Types.Dobject _ ->
        1
      | Types.Dunit -> Diag.error "Layout.size: the unit type has no runtime layout"
      | Types.Darray (Some n, elem) -> n * size t elem
      | Types.Darray (None, _) ->
        Diag.error "Layout.size: open array type %s has no inline size (it only \
                    exists behind a REF)"
          (ty_str t tid)
      | Types.Drecord fields ->
        Array.fold_left (fun acc f -> acc + size t f.Types.fld_ty) 0 fields
    in
    if tid < Array.length t.sizes then t.sizes.(tid) <- s;
    s

let no_fields t tid =
  Diag.error "Layout: %s is not an object type" (Types.to_string t.env tid)

(* The allocation size of object type [tid], built from its parent's. *)
let rec obj_size t tid =
  if tid >= 0 && tid < Array.length t.obj_sizes && t.obj_sizes.(tid) <> unknown
  then t.obj_sizes.(tid)
  else
    match Types.desc t.env tid with
    | Types.Dobject info ->
      let s = fields_from t info + own_size t info in
      if tid < Array.length t.obj_sizes then t.obj_sizes.(tid) <- s;
      s
    | _ -> no_fields t tid

(* Where an object's own fields start: after its parent's cells. *)
and fields_from t (info : Types.obj_info) =
  match info.Types.obj_super with
  | Some s -> obj_size t s
  | None -> object_header

and own_size t (info : Types.obj_info) =
  Array.fold_left (fun acc f -> acc + size t f.Types.fld_ty) 0 info.Types.obj_fields

(* The offset of the first of [fields] from index [i] on named [fname],
   field [i] being at [off]; [unknown] if there is none. *)
let rec offset_in t fields fname off i =
  if i >= Array.length fields then unknown
  else if Ident.equal fields.(i).Types.fld_name fname then off
  else offset_in t fields fname (off + size t fields.(i).Types.fld_ty) (i + 1)

(* The first field named [fname] in inherited-first order is the one
   declared highest up the chain: walk to the root, keeping the last
   match seen. *)
let rec chain_offset t tid fname found =
  match Types.desc t.env tid with
  | Types.Dobject info -> (
    let off = offset_in t info.Types.obj_fields fname (fields_from t info) 0 in
    let found = if off = unknown then found else off in
    match info.Types.obj_super with
    | Some s -> chain_offset t s fname found
    | None -> found)
  | _ -> no_fields t tid

let object_offset t tid fname =
  let off = chain_offset t tid fname unknown in
  if off = unknown then
    Diag.error "Layout.field_offset: object type %s has no field '%a'"
      (ty_str t tid) Ident.pp fname;
  off

let field_offset t tid fname =
  match Types.desc t.env tid with
  | Types.Drecord fields ->
    let off = offset_in t fields fname 0 0 in
    if off = unknown then
      Diag.error "Layout.field_offset: record type %s has no field '%a'"
        (ty_str t tid) Ident.pp fname;
    off
  | Types.Dobject _ -> object_offset t tid fname
  | _ ->
    Diag.error "Layout.field_offset: cannot select field '%a' from %s (not a \
                record or object type)"
      Ident.pp fname (ty_str t tid)

let alloc_size t tid ~length =
  match Types.desc t.env tid with
  | Types.Dobject _ -> obj_size t tid
  | Types.Dref { target; _ } -> (
    match Types.desc t.env target with
    | Types.Darray (None, elem) -> (
      match length with
      | Some n when n >= 0 -> open_array_dope + (n * size t elem)
      | Some n ->
        Diag.error "Layout.alloc_size: open array %s needs a nonnegative \
                    length, got %d"
          (ty_str t tid) n
      | None ->
        Diag.error "Layout.alloc_size: open array %s needs a length argument"
          (ty_str t tid))
    | _ -> size t target)
  | _ ->
    Diag.error "Layout.alloc_size: %s is not a heap-allocatable type"
      (ty_str t tid)

let fields_start t tid =
  match Types.desc t.env tid with
  | Types.Dobject info -> fields_from t info
  | _ -> no_fields t tid
