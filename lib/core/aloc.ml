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
