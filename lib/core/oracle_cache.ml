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

let snapshot c = { c with compat_queries = c.compat_queries }

let diff ~before ~after =
  { compat_queries = after.compat_queries - before.compat_queries;
    compat_misses = after.compat_misses - before.compat_misses;
    alias_queries = after.alias_queries - before.alias_queries;
    alias_misses = after.alias_misses - before.alias_misses;
    class_queries = after.class_queries - before.class_queries;
    class_misses = after.class_misses - before.class_misses;
    store_queries = after.store_queries - before.store_queries;
    store_misses = after.store_misses - before.store_misses }

let add ~into c =
  into.compat_queries <- into.compat_queries + c.compat_queries;
  into.compat_misses <- into.compat_misses + c.compat_misses;
  into.alias_queries <- into.alias_queries + c.alias_queries;
  into.alias_misses <- into.alias_misses + c.alias_misses;
  into.class_queries <- into.class_queries + c.class_queries;
  into.class_misses <- into.class_misses + c.class_misses;
  into.store_queries <- into.store_queries + c.store_queries;
  into.store_misses <- into.store_misses + c.store_misses

(* Every query reaches the analysis, so each leg's miss count moves with
   its query count. *)
let wrap ?(counters = fresh_counters ()) ?log (oracle : Oracle.t) : Oracle.t =
  let c = counters in
  let compat t1 t2 =
    c.compat_queries <- c.compat_queries + 1;
    c.compat_misses <- c.compat_misses + 1;
    oracle.Oracle.compat t1 t2
  in
  let may_alias ap1 ap2 =
    c.alias_queries <- c.alias_queries + 1;
    c.alias_misses <- c.alias_misses + 1;
    let r = oracle.Oracle.may_alias ap1 ap2 in
    (match log with None -> () | Some f -> f ap1 ap2 r);
    r
  in
  let class_kills cls ap =
    c.class_queries <- c.class_queries + 1;
    c.class_misses <- c.class_misses + 1;
    oracle.Oracle.class_kills cls ap
  in
  let store_class ap =
    c.store_queries <- c.store_queries + 1;
    c.store_misses <- c.store_misses + 1;
    oracle.Oracle.store_class ap
  in
  { oracle with Oracle.compat; may_alias; class_kills; store_class }
