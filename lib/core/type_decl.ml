open Ir

(* Subtypes(t1) ∩ Subtypes(t2) ≠ ∅. MiniM3 subtyping forms a forest, so the
   subtype sets of two types intersect exactly when one type is an ancestor
   of the other; NIL denotes no location and is compatible with nothing.
   The engine passes the O(1) interval-labeled core, {!Compat.subtyping}. *)
let may_alias_with ~compat ap1 ap2 =
  let m1 = Apath.is_memory_ref ap1 and m2 = Apath.is_memory_ref ap2 in
  if not (m1 || m2) then Reg.var_equal (Apath.base ap1) (Apath.base ap2)
  else if not (m1 && m2) then false
  else compat (Apath.ty ap1) (Apath.ty ap2)
