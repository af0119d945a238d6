open Support
open Minim3

(* O(1) type-compatibility oracles.

   Every may_alias / class_kills query funnels into a compat test, so this
   is the hottest core of the whole engine. The two constructors precompute
   everything at analysis-construction time:

   - {!subtyping}: the paper's [Subtypes(t1) ∩ Subtypes(t2) ≠ ∅] for a
     subtype *forest* holds exactly when one type is an ancestor of the
     other, which an Euler-tour interval labeling answers with two array
     reads and two comparisons — no [super_chain] list is built per query.

   - {!of_rows}: a dense tid-indexed adjacency matrix of bitset rows
     (SMFieldTypeRefs precomputes [TypeRefsTable(t1) ∩ TypeRefsTable(t2) ≠ ∅]
     for all pairs), so a query is one [Bitset.mem].

   NIL denotes no location and is compatible with nothing, in both. *)

type t = Types.tid -> Types.tid -> bool

let fn t = t

let subtyping env =
  let fl = Types.forest_labels env in
  let n = Types.count env in
  let is_obj = Array.init n (fun i -> Types.is_object env i) in
  fun t1 t2 ->
    t1 <> Types.tid_null && t2 <> Types.tid_null
    && (t1 = t2
       ||
       if t1 < n && t2 < n then
         is_obj.(t1) && is_obj.(t2)
         && (Types.label_subtype fl t1 t2 || Types.label_subtype fl t2 t1)
       else
         (* types allocated after the labeling — fall back to the walk *)
         Types.subtype env t1 t2 || Types.subtype env t2 t1)

let of_rows rows =
  let n = Array.length rows in
  fun t1 t2 ->
    if t1 < 0 || t1 >= n || t2 < 0 || t2 >= n then
      invalid_arg "Compat.of_rows: bad tid";
    t1 <> Types.tid_null && t2 <> Types.tid_null && Bitset.mem rows.(t1) t2
