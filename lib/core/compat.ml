open Support
open Minim3

(* O(1) type-compatibility oracles.

   Every may_alias / class_kills query funnels into a compat test, so this
   is the hottest core of the whole engine. Both forests the oracles ask
   about are labeled once, by {!label}, with pre/post (Euler-tour)
   intervals, and a query is one interval test — is one type an
   ancestor-or-self of the other? — with three array reads:

   - {!subtyping}: the paper's [Subtypes(t1) ∩ Subtypes(t2) ≠ ∅] on the
     inheritance forest, where every non-object type is a singleton root.
   - SMTypeRefs' [TypeRefsTable(t1) ∩ TypeRefsTable(t2) ≠ ∅] on the merged
     forest [Sm_type_refs] builds, through {!nested}.

   {!intersecting} serves footnote 2's per-type tables, one bitset
   intersection per query. NIL denotes no location and is compatible with
   nothing, in all three. *)

type t = Types.tid -> Types.tid -> bool

let fn t = t

type labels = { pre : int array; post : int array }

let walk parent ~enter ~leave =
  let n = Array.length parent in
  (* children lists, built backwards so each node's children end up in
     ascending tid order *)
  let children = Array.make n [] and roots = ref [] in
  for t = n - 1 downto 0 do
    let p = parent.(t) in
    if p < 0 then roots := t :: !roots else children.(p) <- t :: children.(p)
  done;
  let rec go t =
    enter t;
    List.iter go children.(t);
    leave t
  in
  List.iter go !roots

let label parent =
  let n = Array.length parent in
  let pre = Array.make n (-1) and post = Array.make n (-1) in
  let clock = ref 0 in
  walk parent
    ~enter:(fun t ->
      pre.(t) <- !clock;
      incr clock)
    ~leave:(fun t -> post.(t) <- !clock);
  (* NIL's interval is empty and lies before every other, so {!nested}
     finds it inside nothing and nothing inside it. *)
  pre.(Types.tid_null) <- -1;
  post.(Types.tid_null) <- -1;
  { pre; post }

let inheritance env =
  Array.init (Types.count env) (fun t ->
      match Types.desc env t with
      | Types.Dobject { Types.obj_super = Some s; _ } -> s
      | _ -> -1)

(* The type with the smaller preorder number is the only candidate
   ancestor. Array reads raise [Invalid_argument] on unlabeled tids. *)
let related (pre : int array) (post : int array) t1 t2 =
  let p1 = pre.(t1) and p2 = pre.(t2) in
  if p1 <= p2 then p2 < post.(t1) else p1 < post.(t2)

let nested l =
  let pre = l.pre and post = l.post in
  fun t1 t2 -> related pre post t1 t2

let subtyping env =
  let { pre; post } = label (inheritance env) in
  let n = Array.length pre in
  fun t1 t2 ->
    if t1 < n && t2 < n then related pre post t1 t2
    else
      (* types allocated after the labeling — fall back to the walk *)
      t1 <> Types.tid_null && t2 <> Types.tid_null
      && (Types.subtype env t1 t2 || Types.subtype env t2 t1)

let intersecting sets t1 t2 = Bitset.intersects sets.(t1) sets.(t2)
