open Ir

type counters = {
  mutable compat_queries : int;
  mutable compat_misses : int;
  mutable alias_queries : int;
  mutable alias_misses : int;
  mutable class_queries : int;
  mutable class_misses : int;
  mutable store_queries : int;
  mutable store_misses : int;
}

let fresh_counters () =
  { compat_queries = 0; compat_misses = 0; alias_queries = 0;
    alias_misses = 0; class_queries = 0; class_misses = 0; store_queries = 0;
    store_misses = 0 }

let queries c =
  c.compat_queries + c.alias_queries + c.class_queries + c.store_queries

let misses c = c.compat_misses + c.alias_misses + c.class_misses + c.store_misses
let hits c = queries c - misses c

let hit_rate c =
  let q = queries c in
  if q = 0 then 0.0 else float_of_int (hits c) /. float_of_int q

type snapshot = {
  s_compat_queries : int;
  s_compat_misses : int;
  s_alias_queries : int;
  s_alias_misses : int;
  s_class_queries : int;
  s_class_misses : int;
  s_store_queries : int;
  s_store_misses : int;
}

let snapshot c =
  { s_compat_queries = c.compat_queries; s_compat_misses = c.compat_misses;
    s_alias_queries = c.alias_queries; s_alias_misses = c.alias_misses;
    s_class_queries = c.class_queries; s_class_misses = c.class_misses;
    s_store_queries = c.store_queries; s_store_misses = c.store_misses }

let diff ~before ~after =
  { compat_queries = after.s_compat_queries - before.s_compat_queries;
    compat_misses = after.s_compat_misses - before.s_compat_misses;
    alias_queries = after.s_alias_queries - before.s_alias_queries;
    alias_misses = after.s_alias_misses - before.s_alias_misses;
    class_queries = after.s_class_queries - before.s_class_queries;
    class_misses = after.s_class_misses - before.s_class_misses;
    store_queries = after.s_store_queries - before.s_store_queries;
    store_misses = after.s_store_misses - before.s_store_misses }

(* ------------------------------------------------------------------ *)
(* Memo tables                                                         *)
(* ------------------------------------------------------------------ *)

(* The raw oracle queries are cheap — most answers fall out of a pattern
   match plus a memoized compat bit — so a generic [Hashtbl] over tupled
   keys (one allocation per lookup, two hash traversals per probe chain)
   costs more than it saves. Every key here is one or two ints — tids,
   interned path ids ({!Apath.id}) and interned class ids ({!Aloc.id}); a
   one-int key takes [b = 0] — so these hand-rolled buckets compare keys
   as ints, with no equality closure, hash each query once, and allocate
   only on a miss. The hash is stored alongside the entry for resizing. *)

type 'v node =
  | Nil
  | Cons of { h : int; a : int; b : int; v : 'v; tl : 'v node }

type 'v ptbl = { mutable buckets : 'v node array; mutable count : int }

let ptbl_create n = { buckets = Array.make n Nil; count = 0 }

(* Bucket counts are powers of two (created so, doubled on resize), so
   indexing is a mask, not a division. *)
let ptbl_find t h a b =
  let rec go = function
    | Nil -> None
    | Cons c -> if c.a = a && c.b = b then Some c.v else go c.tl
  in
  go t.buckets.(h land (Array.length t.buckets - 1))

(* Boolean-valued probe that encodes the result as an int (-1 = absent,
   0 = false, 1 = true) so a hit allocates nothing. *)
let ptbl_find_bool (t : bool ptbl) h a b =
  let rec go = function
    | Nil -> -1
    | Cons c -> if c.a = a && c.b = b then Bool.to_int c.v else go c.tl
  in
  go t.buckets.(h land (Array.length t.buckets - 1))

(* The same for non-negative int values (-1 = absent). *)
let ptbl_find_id (t : int ptbl) h a b =
  let rec go = function
    | Nil -> -1
    | Cons c -> if c.a = a && c.b = b then c.v else go c.tl
  in
  go t.buckets.(h land (Array.length t.buckets - 1))

let ptbl_add t h a b v =
  (if t.count >= 2 * Array.length t.buckets then begin
     let old = t.buckets in
     let n = 2 * Array.length old in
     let nb = Array.make n Nil in
     Array.iter
       (fun node ->
         let rec go = function
           | Nil -> ()
           | Cons c ->
             let i = c.h land (n - 1) in
             nb.(i) <- Cons { c with tl = nb.(i) };
             go c.tl
         in
         go node)
       old;
     t.buckets <- nb
   end);
  let i = h land (Array.length t.buckets - 1) in
  t.buckets.(i) <- Cons { h; a; b; v; tl = t.buckets.(i) };
  t.count <- t.count + 1

let wrap ?(counters = fresh_counters ()) ?log (oracle : Oracle.t) : Oracle.t =
  let c = counters in
  (* The pass manager wraps one oracle per procedure per pass, and most
     procedures ask few questions: tables start at 8 buckets and double as
     they fill. *)
  let compat_tbl : bool ptbl = ptbl_create 8 in
  let alias_tbl : bool ptbl = ptbl_create 8 in
  let class_tbl : bool ptbl = ptbl_create 8 in
  let store_tbl : Aloc.t ptbl = ptbl_create 8 in
  (* [class_kills]'s own memo of each path's store-class id, keyed by path
     id: it asks the raw oracle (uncounted, like every miss's answer) and
     interns the class once per path, not once per query. *)
  let scid_tbl : int ptbl = ptbl_create 8 in
  let compat t1 t2 =
    c.compat_queries <- c.compat_queries + 1;
    let t1, t2 = if t1 <= t2 then (t1, t2) else (t2, t1) in
    let h = (t1 * 31) + t2 in
    match ptbl_find_bool compat_tbl h t1 t2 with
    | 1 -> true
    | 0 -> false
    | _ ->
      c.compat_misses <- c.compat_misses + 1;
      let r = oracle.Oracle.compat t1 t2 in
      ptbl_add compat_tbl h t1 t2 r;
      r
  in
  (* may_alias is symmetric in all three analyses (TypeDecl's subtype
     intersection, FieldTypeDecl's mirrored case table, SMFieldTypeRefs'
     TypeRefsTable intersection), so the pair is canonicalized by hash —
     with a structural tie-break only on equal hashes — and both orders
     share one table entry. *)
  (* Clients probe one store against many tracked expressions in a row, so
     the first argument's hash is carried while the physically-same path
     repeats. *)
  let last_a : (Apath.t * int) option ref = ref None in
  let may_alias ap1 ap2 =
    c.alias_queries <- c.alias_queries + 1;
    let h1 =
      match !last_a with
      | Some (p, h) when p == ap1 -> h
      | _ ->
        let h = Apath.hash ap1 in
        last_a := Some (ap1, h);
        h
    in
    let h2 = Apath.hash ap2 in
    let ap1', ap2', h1, h2 =
      if h1 < h2 || (h1 = h2 && Apath.compare ap1 ap2 <= 0) then
        (ap1, ap2, h1, h2)
      else (ap2, ap1, h2, h1)
    in
    let h = (h1 * 31) + h2 in
    let id1 = Apath.id ap1' and id2 = Apath.id ap2' in
    match ptbl_find_bool alias_tbl h id1 id2 with
    | 1 -> true
    | 0 -> false
    | _ ->
      c.alias_misses <- c.alias_misses + 1;
      let r = oracle.Oracle.may_alias ap1 ap2 in
      ptbl_add alias_tbl h id1 id2 r;
      (* Fire the observer on misses only: each distinct (canonicalized)
         pair is reported exactly once per wrapper incarnation, which is
         what the fuzzer's precision-lattice oracle wants to replay. *)
      (match log with None -> () | Some f -> f ap1' ap2' r);
      r
  in
  (* class_kills factors through the path's store class (the {!Oracle}
     contract): the memo is keyed by the (class, class) pair, so a query
     never hashes or compares a path — abstracting the path first is a
     cheap pattern match and the rest is integer work. This also makes the
     table dense: every path with the same last selector and prefix type
     shares one row. *)
  (* Mod-ref call kills probe one path against a whole summary's classes in
     a row, so the path's store-class id is carried while the
     physically-same path repeats; a kill predicate probes one class
     against a tracked expression's prefixes in a row, so the class's id
     is carried while the physically-same class repeats. *)
  let last_sc : (Apath.t * int) option ref = ref None in
  let no_class = Aloc.Ltarget min_int (* no tid is negative *) in
  let last_cls = ref no_class and last_cid = ref (-1) in
  let class_kills cls ap =
    c.class_queries <- c.class_queries + 1;
    let scid =
      match !last_sc with
      | Some (p, i) when p == ap -> i
      | _ ->
        let pid = Apath.id ap in
        let i =
          match ptbl_find_id scid_tbl pid pid 0 with
          | -1 ->
            let i = Aloc.id (oracle.Oracle.store_class ap) in
            ptbl_add scid_tbl pid pid 0 i;
            i
          | i -> i
        in
        last_sc := Some (ap, i);
        i
    in
    let cid =
      if cls == !last_cls then !last_cid
      else begin
        let i = Aloc.id cls in
        last_cls := cls;
        last_cid := i;
        i
      end
    in
    let h = (cid * 31) + scid in
    match ptbl_find_bool class_tbl h cid scid with
    | 1 -> true
    | 0 -> false
    | _ ->
      c.class_misses <- c.class_misses + 1;
      let r = oracle.Oracle.class_kills cls ap in
      ptbl_add class_tbl h cid scid r;
      r
  in
  let store_class ap =
    c.store_queries <- c.store_queries + 1;
    let h = Apath.hash ap in
    let pid = Apath.id ap in
    match ptbl_find store_tbl h pid 0 with
    | Some r -> r
    | None ->
      c.store_misses <- c.store_misses + 1;
      let r = oracle.Oracle.store_class ap in
      ptbl_add store_tbl h pid 0 r;
      r
  in
  let stats () =
    Support.Json.Obj
      [ ("oracle", Support.Json.String oracle.Oracle.name);
        ("kind", Support.Json.String "cached");
        ("queries", Support.Json.Int (queries c));
        ("hits", Support.Json.Int (hits c));
        ("misses", Support.Json.Int (misses c));
        ("hit_rate", Support.Json.Float (hit_rate c));
        ("compat_queries", Support.Json.Int c.compat_queries);
        ("alias_queries", Support.Json.Int c.alias_queries);
        ("class_queries", Support.Json.Int c.class_queries);
        ("store_queries", Support.Json.Int c.store_queries);
        ("under", oracle.Oracle.stats ()) ]
  in
  { oracle with
    Oracle.compat;
    may_alias;
    class_kills;
    store_class;
    stats
    (* addr_taken_var is already an O(1) lookup; not worth a table. *) }
