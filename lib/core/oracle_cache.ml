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
