open Support
open Minim3

type variant = Grouped | Per_type

type t =
  | Forest of { labels : Compat.labels; order : Types.tid array }
      (* Grouped: the merged forest's labels, and its tids in preorder *)
  | Tables of Bitset.t array  (* Per_type: TypeRefsTable(t) as a bitset *)

(* Open-world forced merges: unavailable structurally-typed code can
   reconstruct any unbranded type and assign between subtype-related ones.
   Merging each unbranded object with its nearest unbranded proper
   ancestor has those pairs as its transitive closure, so it gives the
   same classes and the same per-type reach. The walk keeps the innermost
   unbranded object on the current path; [near.(t)] saves it on entry. *)
let open_world_pairs env inheritance =
  let near = Array.make (Array.length inheritance) (-1) in
  let inner = ref (-1) and acc = ref [] in
  Compat.walk inheritance
    ~enter:(fun t ->
      near.(t) <- !inner;
      match Types.desc env t with
      | Types.Dobject { Types.obj_brand = None; _ } ->
        if !inner >= 0 then acc := (!inner, t) :: !acc;
        inner := t
      | _ -> ())
    ~leave:(fun t -> inner := near.(t));
  !acc

let build ?(variant = Grouped) ~(facts : Facts.t) ~world () =
  let env = facts.Facts.tenv in
  let n = Types.count env in
  let inheritance = Compat.inheritance env in
  let pairs =
    match world with
    | World.Closed -> facts.Facts.assignments
    | World.Open -> facts.Facts.assignments @ open_world_pairs env inheritance
  in
  match variant with
  | Grouped ->
    (* Figure 2 steps 1-2: union-find over the type table. *)
    let uf = Union_find.create n in
    List.iter (fun (dst, src) -> Union_find.union uf dst src) pairs;
    (* Step 3: TypeRefsTable (t) = Subtypes (t) ∩ class (t) contains t,
       so two tables intersect iff the types share a class and one is a
       subtype of the other. In the merged forest an object's parent is
       its nearest proper ancestor in its own class, found in one walk
       over the inheritance forest that keeps each class's innermost
       object on the current path ([parent.(t)] saves it on entry). t's
       TypeRefsTable is its subtree there, and compat the interval test. *)
    let cls = Array.init n (Union_find.find uf) in
    let inner = Array.make n (-1) and parent = Array.make n (-1) in
    Compat.walk inheritance
      ~enter:(fun t ->
        let c = cls.(t) in
        parent.(t) <- inner.(c);
        inner.(c) <- t)
      ~leave:(fun t -> inner.(cls.(t)) <- parent.(t));
    let labels = Compat.label parent in
    let order = Array.make n 0 in
    Array.iteri (fun t p -> if p >= 0 then order.(p) <- t) labels.Compat.pre;
    Forest { labels; order }
  | Per_type ->
    (* Footnote 2: directed reachability — reach(T) accumulates the types
       assigned (transitively) into T, without symmetrizing. *)
    let reach = Array.init n (fun i -> Bitset.of_list n [ i ]) in
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (dst, src) ->
          let before = Bitset.cardinal reach.(dst) in
          Bitset.union_into ~dst:reach.(dst) reach.(src);
          if Bitset.cardinal reach.(dst) <> before then changed := true)
        pairs
    done;
    (* Step 3 per type: keep the reached types in t's inheritance subtree
       (an object's Subtypes; a non-object type's is itself, NIL's is
       empty). *)
    let { Compat.pre; post } = Compat.label inheritance in
    Array.iteri
      (fun t s ->
        Bitset.iter
          (fun u ->
            if not (pre.(t) <= pre.(u) && pre.(u) < post.(t)) then
              Bitset.remove s u)
          s)
      reach;
    Tables reach

let type_refs t tid =
  match t with
  | Forest { labels = { Compat.pre; post }; order } ->
    let lo = pre.(tid) in
    List.init (post.(tid) - lo) (fun i -> order.(lo + i))
    |> List.sort Int.compare
  | Tables trt -> Bitset.elements trt.(tid)

let compat = function
  | Forest { labels; _ } -> Compat.nested labels
  | Tables trt -> Compat.intersecting trt
