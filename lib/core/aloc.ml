open Support
open Minim3

type t =
  | Lfield of Ident.t * Types.tid * Types.tid
  | Lelem of Types.tid * Types.tid
  | Ltarget of Types.tid
  | Lvar of int * Types.tid

let compare a b =
  match (a, b) with
  | Lfield (f, r, c), Lfield (g, r', c') ->
    let x = Ident.compare f g in
    if x <> 0 then x
    else
      let x = Int.compare r r' in
      if x <> 0 then x else Int.compare c c'
  | Lfield _, _ -> -1
  | _, Lfield _ -> 1
  | Lelem (a1, e1), Lelem (a2, e2) ->
    let x = Int.compare a1 a2 in
    if x <> 0 then x else Int.compare e1 e2
  | Lelem _, _ -> -1
  | _, Lelem _ -> 1
  | Ltarget t, Ltarget u -> Int.compare t u
  | Ltarget _, _ -> -1
  | _, Ltarget _ -> 1
  | Lvar (i, t), Lvar (j, u) ->
    let x = Int.compare i j in
    if x <> 0 then x else Int.compare t u

let equal a b =
  a == b
  ||
  match (a, b) with
  | Lfield (f, r, c), Lfield (g, r', c') -> Ident.equal f g && r = r' && c = c'
  | Lelem (a1, e1), Lelem (a2, e2) -> a1 = a2 && e1 = e2
  | Ltarget t, Ltarget u -> t = u
  | Lvar (i, t), Lvar (j, u) -> i = j && t = u
  | _ -> false

(* Cheap structural hash: every component is already an int (Ident.hash is
   the interned id), so no allocation and no polymorphic-hash traversal. *)
let hash = function
  | Lfield (f, r, c) -> (((Ident.hash f * 31) + r) * 31) + c
  | Lelem (a, e) -> 0x3f11 + (a * 31) + e
  | Ltarget t -> 0x7a21 + t
  | Lvar (i, t) -> 0x1555 + (i * 31) + t

(* Global intern table: structurally equal classes share one dense id, so
   memo tables key on an int compare instead of a structural hash+equal.
   Components are tids and interned ident/var ids, so the key is flat. *)
module Itbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)

let intern_tbl : int Itbl.t = Itbl.create 256
let next_id = ref 0

(* Same guard discipline as [Ir.Apath]: the per-procedure pass engine's
   parallel region may intern new classes (the memoizing oracle cache keys
   class_kills rows by [id]) from several domains, so it flips
   [concurrent] on; sequential runs pay only an atomic load. *)
let concurrent = Atomic.make false
let set_concurrent b = Atomic.set concurrent b
let intern_mutex = Mutex.create ()

let intern a =
  match Itbl.find intern_tbl a with
  | i -> i
  | exception Not_found ->
    let i = !next_id in
    incr next_id;
    Itbl.add intern_tbl a i;
    i

let id a =
  if Atomic.get concurrent then Mutex.protect intern_mutex (fun () -> intern a)
  else intern a

let interned () = !next_id

let pp env ppf = function
  | Lfield (f, r, _) ->
    Format.fprintf ppf "field %a of %a" Ident.pp f (Types.pp env) r
  | Lelem (a, _) -> Format.fprintf ppf "elem of %a" (Types.pp env) a
  | Ltarget t -> Format.fprintf ppf "target %a" (Types.pp env) t
  | Lvar (i, _) -> Format.fprintf ppf "var#%d" i

module Set = Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
