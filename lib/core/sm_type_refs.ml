open Support
open Minim3

type variant = Grouped | Per_type

type t = {
  variant : variant;
  trt : Bitset.t array;  (* TypeRefsTable(t) as a bitset, built eagerly *)
  rows : Bitset.t array;  (* precomputed pairwise-compat matrix *)
}

(* Open-world forced merges: unavailable structurally-typed code can
   reconstruct any unbranded type and assign between subtype-related ones. *)
let open_world_pairs env =
  let acc = ref [] in
  let unbranded t =
    match Types.desc env t with
    | Types.Dobject { Types.obj_brand = None; _ } -> true
    | _ -> false
  in
  for s = 0 to Types.count env - 1 do
    if unbranded s then
      for u = 0 to Types.count env - 1 do
        if s <> u && unbranded u && Types.subtype env s u then acc := (u, s) :: !acc
      done
  done;
  !acc

let merge_pairs (facts : Facts.t) world =
  let base = facts.Facts.assignments in
  match world with
  | World.Closed -> base
  | World.Open -> base @ open_world_pairs facts.Facts.tenv

let build ?(variant = Grouped) ~(facts : Facts.t) ~world () =
  let env = facts.Facts.tenv in
  let n = Types.count env in
  let pairs = merge_pairs facts world in
  (* group.(t): the set t was merged into, as a bitset. *)
  let group =
    match variant with
    | Grouped ->
      (* Figure 2 steps 1-2: union-find over the type table, then one bitset
         per root, shared by its members, in a single pass. *)
      let uf = Union_find.create n in
      List.iter (fun (dst, src) -> Union_find.union uf dst src) pairs;
      let by_root = Array.make n None in
      Array.init n (fun t ->
          let r = Union_find.find uf t in
          let s =
            match by_root.(r) with
            | Some s -> s
            | None ->
              let s = Bitset.create n in
              by_root.(r) <- Some s;
              s
          in
          Bitset.add s t;
          s)
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
      reach
  in
  (* Figure 2 step 3: TypeRefsTable (t) = Subtypes (t) ∩ group (t), for
     every t up front. An object's Subtypes is itself plus its inheritance
     children's, built bottom-up over the forest; a non-object type has
     only itself, and NIL has none. *)
  let trt = Array.init n (fun _ -> Bitset.create n) in
  let children = Array.make n [] and roots = ref [] in
  for t = n - 1 downto 0 do
    match Types.desc env t with
    | Types.Dobject { Types.obj_super = Some s; _ } ->
      children.(s) <- t :: children.(s)
    | Types.Dobject { Types.obj_super = None; _ } -> roots := t :: !roots
    | _ -> if t <> Types.tid_null then Bitset.add trt.(t) t
  done;
  let rec subtypes t =
    Bitset.add trt.(t) t;
    List.iter
      (fun c ->
        subtypes c;
        Bitset.union_into ~dst:trt.(t) trt.(c))
      children.(t)
  in
  List.iter subtypes !roots;
  Array.iteri (fun t s -> Bitset.inter_into ~dst:s group.(t)) trt;
  (* The full pairwise compat matrix: rows.(t1) holds every t2 whose
     TypeRefsTable intersects t1's, read off the transpose. holders.(u) is
     the set of types whose TypeRefsTable contains u, so rows.(t) is the
     union of holders.(u) over u in TypeRefsTable (t): Σ|TypeRefsTable|
     word-parallel unions at build time, and every compat query is one
     bitset probe. *)
  let holders = Array.init n (fun _ -> Bitset.create n) in
  Array.iteri (fun t s -> Bitset.iter (fun u -> Bitset.add holders.(u) t) s) trt;
  let rows =
    Array.map
      (fun s ->
        let row = Bitset.create n in
        Bitset.iter (fun u -> Bitset.union_into ~dst:row holders.(u)) s;
        row)
      trt
  in
  { variant; trt; rows }

let trt t tid =
  if tid < 0 || tid >= Array.length t.trt then
    invalid_arg "Sm_type_refs: bad tid";
  t.trt.(tid)

let type_refs t tid = Bitset.elements (trt t tid)

let compat_matrix t = Compat.of_rows t.rows
