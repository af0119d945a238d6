(* Unit and property tests for the support substrate. *)

open Support

(* Explicitly seeded per test: reproducible without QCHECK_SEED, and
   independent of sibling tests' draws. *)
let pinned_rand () = Random.State.make [| 0xBAA; 2024 |]

let test_ident_interning () =
  let a = Ident.intern "foo" and b = Ident.intern "foo" in
  Alcotest.(check bool) "same ident" true (Ident.equal a b);
  Alcotest.(check string) "name round-trips" "foo" (Ident.name a);
  let c = Ident.intern "bar" in
  Alcotest.(check bool) "distinct idents" false (Ident.equal a c)

let test_ident_fresh () =
  let f1 = Ident.fresh "t" and f2 = Ident.fresh "t" in
  Alcotest.(check bool) "fresh are distinct" false (Ident.equal f1 f2);
  let again = Ident.intern (Ident.name f1) in
  Alcotest.(check bool) "fresh is interned" true (Ident.equal f1 again)

let test_union_find_basic () =
  let uf = Union_find.create 8 in
  Alcotest.(check bool) "initially apart" false (Union_find.same uf 0 1);
  Union_find.union uf 0 1;
  Union_find.union uf 2 3;
  Alcotest.(check bool) "joined" true (Union_find.same uf 0 1);
  Alcotest.(check bool) "separate groups" false (Union_find.same uf 1 2);
  Union_find.union uf 1 3;
  Alcotest.(check bool) "transitively joined" true (Union_find.same uf 0 2);
  Alcotest.(check (list int)) "group members" [ 0; 1; 2; 3 ] (Union_find.group uf 0)

let test_union_find_groups () =
  let uf = Union_find.create 5 in
  Union_find.union uf 0 4;
  let gs = Union_find.groups uf in
  Alcotest.(check int) "number of groups" 4 (List.length gs);
  Alcotest.(check bool) "0 and 4 together" true
    (List.exists (fun g -> List.mem 0 g && List.mem 4 g) gs)

let test_union_find_copy () =
  let uf = Union_find.create 4 in
  Union_find.union uf 0 1;
  let snapshot = Union_find.copy uf in
  Union_find.union uf 2 3;
  Alcotest.(check bool) "copy unaffected" false (Union_find.same snapshot 2 3);
  Alcotest.(check bool) "copy kept past merges" true (Union_find.same snapshot 0 1)

let test_bitset_basic () =
  let s = Bitset.create 20 in
  Alcotest.(check bool) "empty" true (Bitset.is_empty s);
  Bitset.add s 3;
  Bitset.add s 17;
  Alcotest.(check bool) "mem 3" true (Bitset.mem s 3);
  Alcotest.(check bool) "not mem 4" false (Bitset.mem s 4);
  Alcotest.(check int) "cardinal" 2 (Bitset.cardinal s);
  Bitset.remove s 3;
  Alcotest.(check (list int)) "elements" [ 17 ] (Bitset.elements s)

let test_bitset_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] and b = Bitset.of_list 10 [ 2; 3; 4 ] in
  let u = Bitset.copy a in
  Bitset.union_into ~dst:u b;
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.elements u);
  let i = Bitset.copy a in
  Bitset.inter_into ~dst:i b;
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.elements i);
  let d = Bitset.copy a in
  Bitset.diff_into ~dst:d b;
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.elements d)

let test_bitset_fill () =
  let s = Bitset.create 13 in
  Bitset.fill s;
  Alcotest.(check int) "cardinal = universe" 13 (Bitset.cardinal s);
  Alcotest.(check bool) "last element present" true (Bitset.mem s 12)

let test_bitset_universe_guard () =
  let s = Bitset.create 4 in
  Alcotest.check_raises "out of universe" (Invalid_argument "Bitset: element out of universe")
    (fun () -> Bitset.add s 4)

let test_table_render () =
  let t = Table.create ~headers:[ "Program"; "Count" ] in
  Table.add_row t [ "format"; "75" ];
  Table.add_row t [ "m3cg"; "4515" ];
  let out = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length out > 0 && String.sub out 0 7 = "Program");
  Alcotest.(check bool) "right-aligns numbers" true
    (let lines = String.split_on_char '\n' out in
     (* "format" padded to width 7, two-space gap, "75" right in width 5 *)
     List.exists (fun l -> l = "format      75") lines)

let test_prng_determinism () =
  let a = Prng.create 42L and b = Prng.create 42L in
  let xs = List.init 10 (fun _ -> Prng.int a 1000) in
  let ys = List.init 10 (fun _ -> Prng.int b 1000) in
  Alcotest.(check (list int)) "same seed, same stream" xs ys

let test_prng_bounds () =
  let p = Prng.create 7L in
  for _ = 1 to 1000 do
    let v = Prng.int p 17 in
    if v < 0 || v >= 17 then Alcotest.fail "Prng.int out of bounds"
  done

let test_vec_basics () =
  let v = Vec.create () in
  Alcotest.(check int) "empty" 0 (Vec.length v);
  Alcotest.(check int) "push returns index" 0 (Vec.push v 10);
  Alcotest.(check int) "second index" 1 (Vec.push v 20);
  Alcotest.(check int) "get" 20 (Vec.get v 1);
  Vec.set v 0 99;
  Alcotest.(check (list int)) "to_list" [ 99; 20 ] (Vec.to_list v);
  Alcotest.(check int) "fold" 119 (Vec.fold_left ( + ) 0 v);
  Alcotest.(check bool) "exists" true (Vec.exists (fun x -> x = 99) v);
  Alcotest.check_raises "bounds" (Invalid_argument "Vec: index out of bounds")
    (fun () -> ignore (Vec.get v 2))

let test_vec_growth () =
  let v = Vec.create () in
  for i = 0 to 999 do
    ignore (Vec.push v i)
  done;
  Alcotest.(check int) "length" 1000 (Vec.length v);
  Alcotest.(check int) "spot check" 731 (Vec.get v 731)

(* Property tests. *)

let prop_union_find_is_equivalence =
  QCheck.Test.make ~name:"union_find: same is an equivalence relation"
    ~count:100
    QCheck.(pair (int_range 2 20) (small_list (pair (int_range 0 19) (int_range 0 19))))
    (fun (n, pairs) ->
      let uf = Union_find.create n in
      List.iter (fun (a, b) -> Union_find.union uf (a mod n) (b mod n)) pairs;
      (* reflexive, symmetric, and union implies same *)
      let ok_refl = List.init n (fun i -> Union_find.same uf i i) in
      let ok_sym =
        List.for_all
          (fun (a, b) ->
            Union_find.same uf (a mod n) (b mod n)
            = Union_find.same uf (b mod n) (a mod n))
          pairs
      in
      List.for_all Fun.id ok_refl && ok_sym)

let prop_bitset_union_cardinal =
  QCheck.Test.make ~name:"bitset: |a ∪ b| + |a ∩ b| = |a| + |b|" ~count:100
    QCheck.(pair (small_list (int_range 0 63)) (small_list (int_range 0 63)))
    (fun (xs, ys) ->
      let a = Bitset.of_list 64 xs and b = Bitset.of_list 64 ys in
      let u = Bitset.copy a and i = Bitset.copy a in
      Bitset.union_into ~dst:u b;
      Bitset.inter_into ~dst:i b;
      Bitset.cardinal u + Bitset.cardinal i = Bitset.cardinal a + Bitset.cardinal b)

(* Bitset against a [bool array] model. Each case runs a random operation
   sequence on two sets [a] and [b] over one universe, mirroring every
   operation on the model, and after each step compares every observer.
   The universes straddle the 62-element word boundary. [Scan] runs [iter]
   (or [fold]) with a callback that adds or removes elements at offsets
   below, at and above the cursor; the model replays the same callback
   under an element-by-element scan. Each operation's first [bool] picks
   the set it acts on ([true] is [a]). *)
type bitset_op =
  | Add of bool * int
  | Remove of bool * int
  | Clear of bool
  | Fill of bool
  | Copy of bool  (* the chosen set becomes a copy of the other *)
  | Of_list of bool * int list
  | Union of bool
  | Inter of bool
  | Diff of bool
  | Scan of bool * bool * (int * bool) list
      (* target, by fold, cyclic plan of (offset, add) per visit *)

let bitset_universes = [ 0; 1; 61; 62; 63; 124; 200; 1000 ]

let pp_bitset_op = function
  | Add (w, i) -> Printf.sprintf "add %b %d" w i
  | Remove (w, i) -> Printf.sprintf "remove %b %d" w i
  | Clear w -> Printf.sprintf "clear %b" w
  | Fill w -> Printf.sprintf "fill %b" w
  | Copy w -> Printf.sprintf "copy %b" w
  | Of_list (w, xs) ->
    Printf.sprintf "of_list %b [%s]" w
      (String.concat ";" (List.map string_of_int xs))
  | Union w -> Printf.sprintf "union %b" w
  | Inter w -> Printf.sprintf "inter %b" w
  | Diff w -> Printf.sprintf "diff %b" w
  | Scan (w, by_fold, plan) ->
    Printf.sprintf "scan %b fold=%b [%s]" w by_fold
      (String.concat ";"
         (List.map
            (fun (d, add) -> Printf.sprintf "%+d%s" d (if add then "+" else "-"))
            plan))

let gen_bitset_case =
  let open QCheck.Gen in
  let* u = oneofl bitset_universes in
  let elt = int_bound 1099 in
  let op =
    frequency
      [ (6, map2 (fun w i -> Add (w, i)) bool elt);
        (3, map2 (fun w i -> Remove (w, i)) bool elt);
        (1, map (fun w -> Clear w) bool);
        (1, map (fun w -> Fill w) bool);
        (1, map (fun w -> Copy w) bool);
        (1, map2 (fun w xs -> Of_list (w, xs)) bool (list_size (int_bound 8) elt));
        (2, map (fun w -> Union w) bool);
        (2, map (fun w -> Inter w) bool);
        (2, map (fun w -> Diff w) bool);
        ( 3,
          map3
            (fun w f plan -> Scan (w, f, plan))
            bool bool
            (list_size (int_range 1 4) (pair (int_range (-70) 70) bool)) ) ]
  in
  let+ ops = list_size (int_bound 40) op in
  (u, ops)

let arb_bitset_case =
  QCheck.make gen_bitset_case ~print:(fun (u, ops) ->
      Printf.sprintf "universe %d: %s" u
        (String.concat ", " (List.map pp_bitset_op ops)))

(* Elements are drawn up to 1099 and reduced into the universe; an element
   drawn at or past 1000 is tried as-is, to exercise the universe guard. *)
let bitset_matches_model (u, ops) =
  let a = ref (Bitset.create u) and b = ref (Bitset.create u) in
  let ma = ref (Array.make u false) and mb = ref (Array.make u false) in
  let pick w = if w then (a, ma) else (b, mb) in
  let other w = if w then (b, mb) else (a, ma) in
  let elt i = if i >= 1000 || u = 0 then i - 1000 + u else i mod u in
  let raises f = match f () with _ -> false | exception Invalid_argument _ -> true in
  let model_elements m =
    List.filter (fun i -> m.(i)) (List.init (Array.length m) Fun.id)
  in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_report m) fmt in
  let observe step =
    List.iter
      (fun (s, m, name) ->
        let s = !s and m = !m in
        let els = model_elements m in
        if Bitset.universe s <> u then fail "step %d: %s universe" step name;
        for i = 0 to u - 1 do
          if Bitset.mem s i <> m.(i) then fail "step %d: %s mem %d" step name i
        done;
        if Bitset.elements s <> els then fail "step %d: %s elements" step name;
        let visited = ref [] in
        Bitset.iter (fun i -> visited := i :: !visited) s;
        if List.rev !visited <> els then fail "step %d: %s iter order" step name;
        if List.rev (Bitset.fold (fun i acc -> i :: acc) s []) <> els then
          fail "step %d: %s fold order" step name;
        if Bitset.cardinal s <> List.length els then
          fail "step %d: %s cardinal" step name;
        if Bitset.is_empty s <> (els = []) then fail "step %d: %s is_empty" step name;
        if not (Bitset.equal s (Bitset.of_list u els)) then
          fail "step %d: %s equal to its rebuild" step name;
        let shown = Format.asprintf "%a" Bitset.pp s in
        let expect =
          "{" ^ String.concat ", " (List.map string_of_int els) ^ "}"
        in
        if shown <> expect then fail "step %d: %s pp %s" step name shown)
      [ (a, ma, "a"); (b, mb, "b") ];
    let ea = model_elements !ma and eb = model_elements !mb in
    if Bitset.equal !a !b <> (ea = eb) then fail "step %d: equal" step;
    if Bitset.intersects !a !b <> List.exists (fun i -> !mb.(i)) ea then
      fail "step %d: intersects" step
  in
  let binop w f g =
    let s, m = pick w and s', m' = other w in
    f ~dst:!s !s';
    m := Array.mapi (fun i x -> g x !m'.(i)) !m
  in
  observe 0;
  List.iteri
    (fun step op ->
      (match op with
      | Add (w, i) ->
        let s, m = pick w and i = elt i in
        if i < 0 || i >= u then begin
          if not (raises (fun () -> Bitset.add !s i)) then
            fail "step %d: add %d accepted outside universe %d" step i u
        end
        else begin
          Bitset.add !s i;
          !m.(i) <- true
        end
      | Remove (w, i) ->
        let s, m = pick w and i = elt i in
        if i < 0 || i >= u then begin
          if
            not
              (raises (fun () -> Bitset.remove !s i)
              && raises (fun () -> Bitset.mem !s i))
          then fail "step %d: remove/mem %d accepted outside universe %d" step i u
        end
        else begin
          Bitset.remove !s i;
          !m.(i) <- false
        end
      | Clear w ->
        let s, m = pick w in
        Bitset.clear !s;
        m := Array.make u false
      | Fill w ->
        let s, m = pick w in
        Bitset.fill !s;
        m := Array.make u true
      | Copy w ->
        let s, m = pick w and s', m' = other w in
        s := Bitset.copy !s';
        m := Array.copy !m'
      | Of_list (w, xs) ->
        let s, m = pick w in
        let xs = List.filter (fun i -> i >= 0 && i < u) (List.map elt xs) in
        s := Bitset.of_list u xs;
        m := Array.make u false;
        List.iter (fun i -> !m.(i) <- true) xs
      | Union w -> binop w Bitset.union_into ( || )
      | Inter w -> binop w Bitset.inter_into ( && )
      | Diff w -> binop w Bitset.diff_into (fun x y -> x && not y)
      | Scan (w, by_fold, plan) ->
        let s, m = pick w in
        let plan = Array.of_list plan in
        (* The k-th visit at cursor i adds or removes i + offset (when in
           the universe), on whichever of set or model it is handed. *)
        let mutate k i set_bit =
          let d, add = plan.(k mod Array.length plan) in
          let j = i + d in
          if j >= 0 && j < u then set_bit j add
        in
        let visits = ref [] in
        let callback i =
          mutate (List.length !visits) i (fun j add ->
              if add then Bitset.add !s j else Bitset.remove !s j);
          visits := i :: !visits
        in
        if by_fold then
          ignore (Bitset.fold (fun i () -> callback i) !s ())
        else Bitset.iter callback !s;
        let expect = ref [] in
        for i = 0 to u - 1 do
          if !m.(i) then begin
            mutate (List.length !expect) i (fun j add -> !m.(j) <- add);
            expect := i :: !expect
          end
        done;
        if !visits <> !expect then
          fail "step %d: scan under mutation visited [%s], model [%s]" step
            (String.concat ";" (List.rev_map string_of_int !visits))
            (String.concat ";" (List.rev_map string_of_int !expect)));
      observe (step + 1))
    ops;
  if u > 0 then begin
    let wider = Bitset.create (u + 1) in
    if not (raises (fun () -> Bitset.union_into ~dst:!a wider)) then
      fail "union across universes accepted"
  end;
  true

let prop_bitset_model =
  QCheck.Test.make ~name:"bitset: operation sequences match a bool-array model"
    ~count:400 arb_bitset_case bitset_matches_model

let prop_groups_partition =
  QCheck.Test.make ~name:"union_find: groups form a partition" ~count:100
    QCheck.(pair (int_range 1 16) (small_list (pair small_nat small_nat)))
    (fun (n, pairs) ->
      let uf = Union_find.create n in
      List.iter (fun (a, b) -> Union_find.union uf (a mod n) (b mod n)) pairs;
      let gs = Union_find.groups uf in
      let all = List.concat gs in
      List.length all = n && List.sort compare all = List.init n Fun.id)


(* --- json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Support.Json.(
      Obj
        [ ("name", String "bench \"alias\"\n");
          ("count", Int 42);
          ("rate", Float 0.8125);
          ("ok", Bool true);
          ("none", Null);
          ("legs", List [ Int 1; Float 2.5; String "x" ]);
          ("empty_obj", Obj []);
          ("empty_list", List []) ])
  in
  let text = Support.Json.to_string v in
  Alcotest.(check bool) "parse(print(v)) = v" true
    (Support.Json.of_string text = v);
  Alcotest.(check bool) "whitespace tolerated" true
    (Support.Json.of_string " { \"a\" : [ 1 , 2 ] } "
    = Support.Json.(Obj [ ("a", List [ Int 1; Int 2 ]) ]))

let test_json_parse_errors () =
  List.iter
    (fun bad ->
      match Support.Json.of_string bad with
      | exception Support.Json.Parse_error _ -> ()
      | v ->
        Alcotest.failf "%S parsed as %s" bad (Support.Json.to_string v))
    [ ""; "{"; "[1,"; "{\"a\":}"; "tru"; "\"unterminated"; "1 2"; "{1:2}" ]

let test_json_unicode_escapes () =
  Alcotest.(check bool) "legal \\u escape" true
    (Support.Json.of_string "\"\\u0041\"" = Support.Json.String "A");
  Alcotest.(check bool) "control escape" true
    (Support.Json.of_string "\"\\u000a\"" = Support.Json.String "\n");
  List.iter
    (fun bad ->
      match Support.Json.of_string bad with
      | exception Support.Json.Parse_error _ -> ()
      | v -> Alcotest.failf "%S parsed as %s" bad (Support.Json.to_string v)
      | exception e ->
        Alcotest.failf "%S raised %s instead of Parse_error" bad
          (Printexc.to_string e))
    [ "\"\\u00";  (* truncated escape *)
      "\"\\u00\"";  (* closing quote inside the four digits *)
      "\"\\uZZZZ\"";  (* non-hex digits *)
      "\"\\u12g4\"";  (* one bad digit *)
      "\"\\u12_3\""  (* int_of_string would accept the underscore *) ]

let test_json_hardening () =
  (* Adversarial inputs must produce Parse_error — never Stack_overflow,
     never a silently wrapped or rounded number. *)
  let expect_parse_error what s =
    match Support.Json.of_string s with
    | exception Support.Json.Parse_error _ -> ()
    | exception e ->
      Alcotest.failf "%s raised %s instead of Parse_error" what
        (Printexc.to_string e)
    | v -> Alcotest.failf "%s parsed as %s" what (Support.Json.to_string v)
  in
  expect_parse_error "unclosed depth bomb" (String.make 4000 '[');
  expect_parse_error "balanced depth bomb"
    (String.make 600 '[' ^ "1" ^ String.make 600 ']');
  expect_parse_error "nested object bomb"
    (String.concat "" (List.init 600 (fun _ -> "{\"a\":")) ^ "1");
  expect_parse_error "integer overflow" "99999999999999999999999";
  expect_parse_error "negative integer overflow" "-99999999999999999999999";
  expect_parse_error "non-finite float" "1e99999";
  (* Deep-but-legal nesting still parses. *)
  let ok = String.make 100 '[' ^ "1" ^ String.make 100 ']' in
  Alcotest.(check bool) "100 levels parse" true
    (match Support.Json.of_string ok with
    | _ -> true
    | exception _ -> false);
  Alcotest.(check bool) "max_int round-trips" true
    (Support.Json.of_string (string_of_int max_int)
    = Support.Json.Int max_int)

let test_json_parse_result () =
  (match Support.Json.parse "{\"a\":1}" with
  | Ok (Support.Json.Obj [ ("a", Support.Json.Int 1) ]) -> ()
  | Ok v -> Alcotest.failf "parsed wrong: %s" (Support.Json.to_string v)
  | Error d -> Alcotest.failf "rejected: %s" d.Support.Diag.message);
  List.iter
    (fun bad ->
      match Support.Json.parse bad with
      | Error d ->
        Alcotest.(check bool) "diagnostic has a message" true
          (String.length d.Support.Diag.message > 0)
      | Ok v ->
        Alcotest.failf "%S accepted as %s" bad (Support.Json.to_string v))
    [ "{"; "nope"; String.make 2000 '['; "1e99999" ]

(* A generator of arbitrary Json values; shrinking is structural. *)
let json_gen =
  let open QCheck.Gen in
  sized (fun size ->
      fix
        (fun self n ->
          let scalar =
            oneof
              [ return Support.Json.Null;
                map (fun b -> Support.Json.Bool b) bool;
                map (fun i -> Support.Json.Int i) small_signed_int;
                map (fun f -> Support.Json.Float f) (float_bound_inclusive 1e6);
                map (fun s -> Support.Json.String s) (small_string ?gen:None) ]
          in
          if n <= 0 then scalar
          else
            frequency
              [ (3, scalar);
                ( 1,
                  map
                    (fun l -> Support.Json.List l)
                    (list_size (int_bound 4) (self (n / 2))) );
                ( 1,
                  map
                    (fun kvs ->
                      Support.Json.Obj
                        (List.mapi
                           (fun i (k, v) -> (k ^ string_of_int i, v))
                           kvs))
                    (list_size (int_bound 4)
                       (pair (small_string ?gen:None) (self (n / 2)))) ) ])
        (min size 6))

let prop_json_roundtrip_fixpoint =
  QCheck.Test.make ~name:"json: to_string output re-parses to itself"
    ~count:300
    (QCheck.make json_gen)
    (fun v ->
      let s = Support.Json.to_string v in
      match Support.Json.of_string s with
      | reparsed -> Support.Json.to_string reparsed = s
      | exception Support.Json.Parse_error _ -> false)

(* The decoder against its baseline, the peek-and-substring parser in
   [Reference]: the same value, or the same [Parse_error] message, on
   every input. Floats compare by their bits. *)
let decode parse s =
  match parse s with
  | v -> Ok v
  | exception Support.Json.Parse_error msg -> Error ("Parse_error: " ^ msg)
  | exception e -> Error ("raised " ^ Printexc.to_string e)

let rec same_json (a : Support.Json.t) (b : Support.Json.t) =
  match (a, b) with
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | List xs, List ys -> List.equal same_json xs ys
  | Obj xs, Obj ys ->
    List.equal (fun (k, v) (k', v') -> String.equal k k' && same_json v v') xs ys
  | (Null | Bool _ | Int _ | String _), _ -> a = b
  | (Float _ | List _ | Obj _), _ -> false

let agrees s =
  match (decode Support.Json.of_string s, decode Reference.json_of_string s) with
  | Ok a, Ok b -> same_json a b
  | Error a, Error b -> String.equal a b
  | _ -> false

let check_agrees s =
  if not (agrees s) then
    let show = function
      | Ok v -> "value " ^ Support.Json.to_string v
      | Error m -> m
    in
    Alcotest.failf "%S: decoder gives %s, baseline %s" s
      (show (decode Support.Json.of_string s))
      (show (decode Reference.json_of_string s))

let prop_json_matches_baseline =
  let scalar =
    QCheck.Gen.(
      oneof
        [ json_gen;
          map (fun i -> Support.Json.Int i) int;
          map (fun f -> Support.Json.Float f) float ])
  in
  QCheck.Test.make ~name:"json: decoder = baseline on printed values"
    ~count:500
    (QCheck.make ~print:Support.Json.to_string
       QCheck.Gen.(
         oneof [ json_gen; map (fun l -> Support.Json.List l) (list_size (int_bound 8) scalar) ]))
    (fun v -> agrees (Support.Json.to_string v))

(* Byte-level mutants of the daemon's real request lines: a byte
   replaced (by a JSON-significant character or any byte), deleted or
   duplicated, or the line cut short — one to three edits each. *)
let test_json_mutants () =
  let rpc meth params =
    Support.Json.(
      to_string
        (Obj
           [ ("jsonrpc", String "2.0"); ("id", Int 17); ("method", String meth);
             ("params", Obj params) ]))
  in
  let lines =
    [ rpc "alias"
        Support.Json.
          [ ("doc", String "scale"); ("oracle", String "SMFieldTypeRefs");
            ( "pairs",
              List
                (List.init 12 (fun i -> List [ Int (i * 37 mod 528); Int (i * 101 mod 528) ])) ) ];
      rpc "change"
        Support.Json.
          [ ("name", String "scale");
            ( "edits",
              List
                [ Obj
                    [ ("start", Int 4120); ("end", Int 4121);
                      ("text", String "    g7 := NEW (T7);\n\t\"q\"\\ \001") ] ] ) ];
      rpc "alias" Support.Json.[ ("doc", String "d"); ("deadline_ms", Float 2.5) ] ]
  in
  let significant = "{}[],:\"\\ -+.eE0123456789tfnu" in
  let rng = Random.State.make [| 0x15; 0x0DE |] in
  let mutate line =
    let b = Buffer.create (String.length line) in
    let n = String.length line in
    let at = Random.State.int rng n in
    (match Random.State.int rng 5 with
    | 0 | 1 ->
      let c =
        if Random.State.bool rng then
          significant.[Random.State.int rng (String.length significant)]
        else Char.chr (Random.State.int rng 256)
      in
      Buffer.add_string b (String.sub line 0 at);
      Buffer.add_char b c;
      Buffer.add_string b (String.sub line (at + 1) (n - at - 1))
    | 2 ->
      Buffer.add_string b (String.sub line 0 at);
      Buffer.add_string b (String.sub line (at + 1) (n - at - 1))
    | 3 ->
      Buffer.add_string b (String.sub line 0 (at + 1));
      Buffer.add_string b (String.sub line at (n - at))
    | _ -> Buffer.add_string b (String.sub line 0 at));
    Buffer.contents b
  in
  List.iter check_agrees lines;
  for _ = 1 to 4000 do
    let line = List.nth lines (Random.State.int rng (List.length lines)) in
    let rec go k line = if k = 0 || line = "" then line else go (k - 1) (mutate line) in
    check_agrees (go (1 + Random.State.int rng 3) line)
  done

let test_json_number_edges () =
  let nines k = String.make k '9' in
  let numbers =
    [ "-"; "1-2"; "007"; "-0"; "+5"; "1e5"; "0"; "-7"; "--1"; "1."; ".5";
      "1e"; "1.5e-3"; "1E400"; "-1e400"; nines 18; "-" ^ nines 18; nines 19;
      "-" ^ nines 19; nines 20; "-" ^ nines 20; "1" ^ String.make 17 '0';
      "1" ^ String.make 18 '0'; "00000000000000000000001";
      string_of_int max_int; string_of_int min_int;
      "4611686018427387904"; "-4611686018427387905";
      "4611686018427387902"; "-4611686018427387903" ]
  in
  List.iter
    (fun t ->
      List.iter check_agrees
        [ t; "[" ^ t ^ "]"; "[" ^ t ^ ",1]"; "{\"a\":" ^ t ^ "}"; " " ^ t ^ " ";
          t ^ "x"; "[" ^ t ^ "]]" ])
    numbers

(* ------------------------------------------------------------------ *)
(* Domain_pool edge cases                                              *)
(* ------------------------------------------------------------------ *)

let test_domain_pool_size_one () =
  let slots = Array.make 16 (-1) in
  Domain_pool.run ~domains:1 16 (fun i -> slots.(i) <- i * i);
  Alcotest.(check bool) "all slots written" true
    (Array.for_all (fun x -> x >= 0) slots);
  Alcotest.(check int) "sequential result" 225 slots.(15);
  (* Degenerate shapes. *)
  Domain_pool.run ~domains:1 0 (fun _ -> Alcotest.fail "ran on n=0");
  Domain_pool.run ~domains:8 2 (fun i -> slots.(i) <- -i)

let test_domain_pool_exception_propagation () =
  let ran = Array.make 8 false in
  (match
     Domain_pool.run ~domains:4 8 (fun i ->
         ran.(i) <- true;
         if i = 5 then failwith "task 5 exploded")
   with
  | () -> Alcotest.fail "exception was swallowed"
  | exception Failure msg ->
    Alcotest.(check string) "the task's own exception" "task 5 exploded" msg);
  Alcotest.(check bool) "failing task did run" true ran.(5)

let test_domain_pool_reuse_after_failure () =
  (* A failed batch must not wedge subsequent runs (fresh domains are
     joined even when a task raises). *)
  (try
     Domain_pool.run ~domains:4 4 (fun _ -> failwith "all tasks explode")
   with Failure _ -> ());
  let slots = Array.make 32 0 in
  Domain_pool.run ~domains:4 32 (fun i -> slots.(i) <- i + 1);
  Alcotest.(check int) "pool still works" (32 * 33 / 2)
    (Array.fold_left ( + ) 0 slots)

let test_json_accessors () =
  let v = Support.Json.of_string "{\"x\":3,\"y\":2.5,\"s\":\"hi\"}" in
  Alcotest.(check (option (float 0.0))) "int member" (Some 3.0)
    (Option.bind (Support.Json.member "x" v) Support.Json.to_float);
  Alcotest.(check (option (float 0.0))) "float member" (Some 2.5)
    (Option.bind (Support.Json.member "y" v) Support.Json.to_float);
  Alcotest.(check bool) "non-numeric member" true
    (Option.bind (Support.Json.member "s" v) Support.Json.to_float = None);
  Alcotest.(check bool) "missing member" true
    (Support.Json.member "z" v = None)

let () =
  Alcotest.run "support"
    [ ( "ident",
        [ Alcotest.test_case "interning" `Quick test_ident_interning;
          Alcotest.test_case "fresh" `Quick test_ident_fresh ] );
      ( "union_find",
        [ Alcotest.test_case "basic" `Quick test_union_find_basic;
          Alcotest.test_case "groups" `Quick test_union_find_groups;
          Alcotest.test_case "copy" `Quick test_union_find_copy;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_union_find_is_equivalence;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_groups_partition ] );
      ( "bitset",
        [ Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "ops" `Quick test_bitset_ops;
          Alcotest.test_case "fill" `Quick test_bitset_fill;
          Alcotest.test_case "universe guard" `Quick test_bitset_universe_guard;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_bitset_union_cardinal;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_bitset_model ] );
      ( "vec",
        [ Alcotest.test_case "basics" `Quick test_vec_basics;
          Alcotest.test_case "growth" `Quick test_vec_growth ] );
      ( "table",
        [ Alcotest.test_case "render" `Quick test_table_render ] );
      ( "json",
        [ Alcotest.test_case "round-trip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
          Alcotest.test_case "unicode escapes" `Quick test_json_unicode_escapes;
          Alcotest.test_case "accessors" `Quick test_json_accessors;
          Alcotest.test_case "hardening" `Quick test_json_hardening;
          Alcotest.test_case "exception-free parse" `Quick
            test_json_parse_result;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            prop_json_roundtrip_fixpoint;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            prop_json_matches_baseline;
          Alcotest.test_case "decoder = baseline on mutated requests" `Quick
            test_json_mutants;
          Alcotest.test_case "decoder = baseline on number edges" `Quick
            test_json_number_edges ] );
      ( "domain_pool",
        [ Alcotest.test_case "size-one pool" `Quick test_domain_pool_size_one;
          Alcotest.test_case "exception propagation" `Quick
            test_domain_pool_exception_propagation;
          Alcotest.test_case "reuse after failure" `Quick
            test_domain_pool_reuse_after_failure ] );
      ( "prng",
        [ Alcotest.test_case "determinism" `Quick test_prng_determinism;
          Alcotest.test_case "bounds" `Quick test_prng_bounds ] ) ]
