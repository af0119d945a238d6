open Support
open Ir

(* Table 2, case by case. [ftd] asks: may the two paths denote the same
   location (when used as lvalues) / the same object (when they are the
   pointer-valued prefixes reached by recursion)? The recursion bottoms out
   at bare variables, where case 7's TypeDecl applies — two distinct
   variables of compatible type may hold the same pointer. *)
let rec ftd ~compat ~at ~is_obj ap1 ap2 =
  if Apath.equal ap1 ap2 then true (* case 1 *)
  else
    let pre ap = match Apath.prefix ap with Some p -> p | None -> ap in
    match (Apath.last ap1, Apath.last ap2) with
    | Some (Apath.Sfield (f, _)), Some (Apath.Sfield (g, _)) ->
      (* case 2: same field on possibly-identical containers. Qualifying
         an *object*-typed receiver carries an implicit dereference
         ([o.f] abbreviates [o^.f]), so the recursion must bottom out at
         the two referent objects — case 7 on [o^]/[o'^], i.e. type
         compatibility of the receivers — not at the pointer-holding
         prefixes. Recursing on the prefixes there would separate
         same-named fields of a shared sub-object whenever the pointers
         to it live in unrelated places (e.g. [o6.peer.tag] vs
         [o7.peer.tag] with o6, o7 of sibling object types but
         [o6.peer = o7.peer]). Record receivers are qualified in place,
         so for them prefix recursion is exact. *)
      Ident.equal f g
      &&
      let r1 = Kills.prefix_ty ap1 and r2 = Kills.prefix_ty ap2 in
      if is_obj r1 || is_obj r2 then compat r1 r2
      else ftd ~compat ~at ~is_obj (pre ap1) (pre ap2)
    | Some (Apath.Sfield (f, content)), Some (Apath.Sderef t) ->
      (* case 3: a dereference reaches a field only if that field's address
         was taken somewhere and the types are compatible *)
      Address_taken.field_taken at f ~recv:(Kills.prefix_ty ap1) ~content
      && compat content t
    | Some (Apath.Sderef t), Some (Apath.Sfield (f, content)) ->
      Address_taken.field_taken at f ~recv:(Kills.prefix_ty ap2) ~content
      && compat content t
    | Some (Apath.Sderef t), Some (Apath.Sindex (_, elem)) ->
      (* case 4: likewise for array elements *)
      Address_taken.elem_taken at ~array_ty:(Kills.prefix_ty ap2) ~elem
      && compat elem t
    | Some (Apath.Sindex (_, elem)), Some (Apath.Sderef t) ->
      Address_taken.elem_taken at ~array_ty:(Kills.prefix_ty ap1) ~elem
      && compat elem t
    | Some (Apath.Sfield _), Some (Apath.Sindex _)
    | Some (Apath.Sindex _), Some (Apath.Sfield _) ->
      (* case 5: a subscripted expression cannot alias a qualified one *)
      false
    | Some (Apath.Sindex _), Some (Apath.Sindex _) ->
      (* case 6: same array reachable? subscripts are ignored *)
      ftd ~compat ~at ~is_obj (pre ap1) (pre ap2)
    | _ ->
      (* case 7: everything else, including two dereferences and bare
         variables, falls back to type compatibility *)
      compat (Apath.ty ap1) (Apath.ty ap2)

let may_alias_with ~compat ~at ~is_obj ap1 ap2 =
  let m1 = Apath.is_memory_ref ap1 and m2 = Apath.is_memory_ref ap2 in
  if not (m1 || m2) then Reg.var_equal (Apath.base ap1) (Apath.base ap2)
  else if not (m1 && m2) then false
  else ftd ~compat ~at ~is_obj ap1 ap2
