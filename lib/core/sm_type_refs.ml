open Support
open Minim3

type variant = Grouped | Per_type

type t = {
  env : Types.env;
  variant : variant;
  group_of : int -> int list;  (* the set this type was merged into *)
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
  let group_of =
    match variant with
    | Grouped ->
      (* Figure 2 steps 1-2: union-find over the type table. *)
      let uf = Union_find.create n in
      List.iter (fun (dst, src) -> Union_find.union uf dst src) pairs;
      fun t -> Union_find.group uf t
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
      fun t -> Bitset.elements reach.(t)
  in
  (* Figure 2 step 3: TypeRefsTable (t) = group (t) ∩ Subtypes (t), for every
     t up front. Subtypes sets come from the interval-labeled forest (one
     O(1) containment test per candidate) instead of a subtype walk each. *)
  let fl = Types.forest_labels env in
  let objects = ref [] in
  for u = n - 1 downto 0 do
    if Types.is_object env u then objects := u :: !objects
  done;
  let objects = !objects in
  let trt =
    Array.init n (fun tid ->
        let subs = Bitset.create n in
        if Types.is_object env tid then
          List.iter
            (fun u -> if Types.label_subtype fl u tid then Bitset.add subs u)
            objects
        else if tid <> Types.tid_null then Bitset.add subs tid;
        let grp = Bitset.of_list n (group_of tid) in
        Bitset.inter_into ~dst:grp subs;
        grp)
  in
  (* The full pairwise compat matrix: rows.(t1) holds every t2 whose
     TypeRefsTable intersects t1's. n is the program's type count (dozens),
     so the n²/2 early-exit intersection tests are build-time noise — and
     they turn every subsequent compat query into one bitset probe. *)
  let rows = Array.init n (fun _ -> Bitset.create n) in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      if Bitset.intersects trt.(i) trt.(j) then begin
        Bitset.add rows.(i) j;
        Bitset.add rows.(j) i
      end
    done
  done;
  { env; variant; group_of; trt; rows }

let trt t tid =
  if tid < 0 || tid >= Array.length t.trt then
    invalid_arg "Sm_type_refs: bad tid";
  t.trt.(tid)

let type_refs t tid = Bitset.elements (trt t tid)

(* Reference implementation: one intersection per query. Kept as the
   differential baseline for the precomputed matrix (tests, and the "before"
   leg of the alias microbenchmark). *)
let compat t t1 t2 =
  if t1 = Types.tid_null || t2 = Types.tid_null then false
  else begin
    let a = Bitset.copy (trt t t1) in
    Bitset.inter_into ~dst:a (trt t t2);
    not (Bitset.is_empty a)
  end

let compat_matrix t =
  Compat.of_rows
    ~name:
      (match t.variant with
      | Grouped -> "type_refs"
      | Per_type -> "type_refs(per-type)")
    t.rows
