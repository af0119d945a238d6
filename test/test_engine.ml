(* Tests for the PR-4 scaling layer: hash-consed access paths (physical
   equality must coincide with the historical structural equality on
   well-typed programs), the precomputed O(1) compatibility cores against
   their per-query reference implementations, and the Engine facade's
   oracle handles, counters and stats surface. *)

open Ir

(* Seeds are pinned: every program here is byte-reproducible. *)
let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34 ]

let lower_gen seed =
  let g = Gen.Generator.generate ~size:((seed mod 3) + 1) seed in
  Lower.lower_string ~file:"<gen>" g.Gen.Generator.source

let paths_of facts =
  List.map (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
    facts.Tbaa.Facts.memrefs

(* --- hash-consing invariants ------------------------------------------- *)

(* The paths of a program, plus every prefix: physical equality must be
   exactly structural equality (the pre-interning [Apath.compare]), hashes
   must agree with equality, and rebuilding a path from its base and
   selector list must return the *same* node. *)
let test_hashcons_physical_eq () =
  List.iter
    (fun seed ->
      let program = lower_gen seed in
      let facts = Reference.facts program in
      let paths =
        List.concat_map (fun p -> Apath.prefixes p) (paths_of facts)
      in
      List.iter
        (fun p ->
          let rebuilt = Apath.make (Apath.base p) (Apath.sels p) in
          if not (Apath.equal rebuilt p) then
            Alcotest.failf "seed %d: make(base, sels) not physically equal: %s"
              seed (Apath.to_string p);
          List.iter
            (fun q ->
              let structural = Apath.compare p q = 0 in
              if not (Bool.equal (Apath.equal p q) structural) then
                Alcotest.failf "seed %d: == vs compare disagree on %s / %s"
                  seed (Apath.to_string p) (Apath.to_string q);
              if structural && Apath.hash p <> Apath.hash q then
                Alcotest.failf "seed %d: equal paths, distinct hashes: %s" seed
                  (Apath.to_string p);
              if structural && Apath.id p <> Apath.id q then
                Alcotest.failf "seed %d: equal paths, distinct ids: %s" seed
                  (Apath.to_string p))
            paths)
        paths)
    seeds

(* Extending shares the spine: the prefix of an extension is the original
   node itself, and re-extending with the same selector hits the intern
   table instead of allocating a fresh path. *)
let test_hashcons_extend_sharing () =
  List.iter
    (fun seed ->
      let program = lower_gen seed in
      let facts = Reference.facts program in
      List.iter
        (fun p ->
          match Apath.last p with
          | None -> ()
          | Some sel ->
            let parent =
              match Apath.prefix p with Some q -> q | None -> assert false
            in
            let again = Apath.extend parent sel in
            if not (Apath.equal again p) then
              Alcotest.failf "seed %d: extend does not re-intern %s" seed
                (Apath.to_string p))
        (paths_of facts))
    seeds

(* --- compatibility cores vs references --------------------------------- *)

let all_tid_pairs tenv f =
  let n = Minim3.Types.count tenv in
  for t1 = 0 to n - 1 do
    for t2 = 0 to n - 1 do
      f t1 t2
    done
  done

let test_subtyping_matches_reference () =
  List.iter
    (fun seed ->
      let program = lower_gen seed in
      let facts = Reference.facts program in
      let tenv = facts.Tbaa.Facts.tenv in
      let fast = Tbaa.Compat.subtyping tenv in
      all_tid_pairs tenv (fun t1 t2 ->
          let a = Tbaa.Compat.fn fast t1 t2
          and b = Reference.subtyping tenv t1 t2 in
          if not (Bool.equal a b) then
            Alcotest.failf
              "seed %d: interval compat %b <> reference %b on (%d, %d)" seed a
              b t1 t2))
    seeds

let test_type_refs_matrix_matches_reference () =
  List.iter
    (fun seed ->
      let program = lower_gen seed in
      let facts = Reference.facts program in
      let tenv = facts.Tbaa.Facts.tenv in
      List.iter
        (fun variant ->
          let sm =
            Tbaa.Sm_type_refs.build ~variant ~facts ~world:Tbaa.World.Closed ()
          in
          let matrix = Tbaa.Sm_type_refs.compat_matrix sm in
          all_tid_pairs tenv (fun t1 t2 ->
              let a = Tbaa.Compat.fn matrix t1 t2
              and b = Reference.typerefs_compat sm t1 t2 in
              if not (Bool.equal a b) then
                Alcotest.failf
                  "seed %d: matrix %b <> per-query %b on (%d, %d)" seed a b t1
                  t2))
        [ Tbaa.Sm_type_refs.Grouped; Tbaa.Sm_type_refs.Per_type ])
    seeds

(* The TypeRefsTable and compat rows against the pairwise build
   ([Reference.type_refs]): both variants, closed and open world, over the
   workloads, the scale document and the seeds above. *)
let test_type_refs_match_pairwise_build () =
  let corpus =
    List.map
      (fun (w : Workloads.Workload.t) ->
        (w.Workloads.Workload.name, Workloads.Workload.lower w))
      Workloads.Suite.all
    @ [ ("scale", Lower.lower_string ~file:"<scale>" (Gen.Scale.source 200)) ]
    @ List.map (fun seed -> (Printf.sprintf "seed %d" seed, lower_gen seed)) seeds
  in
  List.iter
    (fun (name, program) ->
      let facts = Reference.facts program in
      let tenv = facts.Tbaa.Facts.tenv in
      List.iter
        (fun (variant, world) ->
          let sm = Tbaa.Sm_type_refs.build ~variant ~facts ~world () in
          let matrix = Tbaa.Sm_type_refs.compat_matrix sm in
          let trt, rows = Reference.type_refs ~variant ~facts ~world () in
          Array.iteri
            (fun t s ->
              if Tbaa.Sm_type_refs.type_refs sm t <> Support.Bitset.elements s
              then Alcotest.failf "%s: TypeRefsTable (%d) differs" name t)
            trt;
          all_tid_pairs tenv (fun t1 t2 ->
              let expect =
                t1 <> Minim3.Types.tid_null && t2 <> Minim3.Types.tid_null
                && Support.Bitset.mem rows.(t1) t2
              in
              if Tbaa.Compat.fn matrix t1 t2 <> expect then
                Alcotest.failf "%s: compat (%d, %d) differs" name t1 t2))
        [ (Tbaa.Sm_type_refs.Grouped, Tbaa.World.Closed);
          (Tbaa.Sm_type_refs.Grouped, Tbaa.World.Open);
          (Tbaa.Sm_type_refs.Per_type, Tbaa.World.Closed);
          (Tbaa.Sm_type_refs.Per_type, Tbaa.World.Open) ])
    corpus

(* --- the Engine facade -------------------------------------------------- *)

let test_engine_cached_and_counters () =
  let program = lower_gen 7 in
  let engine = Tbaa.Engine.create program in
  let refs = paths_of (Tbaa.Engine.facts engine) in
  let raw = Tbaa.Engine.oracle engine Tbaa.Engine.Sm_field_type_refs in
  let cached = Tbaa.Engine.cached engine Tbaa.Engine.Sm_field_type_refs in
  List.iter
    (fun p ->
      List.iter
        (fun q ->
          Alcotest.(check bool) "cached = raw"
            (raw.Tbaa.Oracle.may_alias p q)
            (cached.Tbaa.Oracle.may_alias p q))
        refs)
    refs;
  let other = Tbaa.Engine.cached engine Tbaa.Engine.Type_decl in
  List.iter (fun p -> ignore (other.Tbaa.Oracle.may_alias p p)) refs;
  let n = List.length refs in
  Alcotest.(check int) "every handle counts into the engine's counters"
    ((n * n) + n)
    (Tbaa.Engine.counters engine).Tbaa.Oracle_cache.alias_queries

let test_engine_stats_shape () =
  let program = lower_gen 4 in
  let engine = Tbaa.Engine.create program in
  ignore
    ((Tbaa.Engine.cached engine Tbaa.Engine.Type_decl).Tbaa.Oracle.compat
       Minim3.Types.tid_int Minim3.Types.tid_int);
  let keys =
    match Tbaa.Engine.stats engine with
    | Support.Json.Obj kvs -> List.map fst kvs
    | _ -> []
  in
  List.iter
    (fun k ->
      Alcotest.(check bool) (Printf.sprintf "stats has %S" k) true
        (List.mem k keys))
    [ "world"; "variant"; "types"; "build_ms"; "queries"; "paths_interned" ];
  let t = Tbaa.Engine.timings engine in
  Alcotest.(check bool) "timings are non-negative" true
    (t.Tbaa.Engine.facts_ms >= 0.
    && t.Tbaa.Engine.type_decl_ms >= 0.
    && t.Tbaa.Engine.field_type_decl_ms >= 0.
    && t.Tbaa.Engine.sm_ms >= 0.);
  List.iter
    (fun (o : Tbaa.Oracle.t) ->
      match o.Tbaa.Oracle.stats () with
      | Support.Json.Obj kvs ->
        Alcotest.(check bool)
          (o.Tbaa.Oracle.name ^ " stats names itself")
          true
          (List.mem_assoc "oracle" kvs)
      | _ -> Alcotest.failf "%s: stats is not an object" o.Tbaa.Oracle.name)
    (Tbaa.Engine.oracles engine)

let () =
  Alcotest.run "engine"
    [ ( "hash-consing",
        [ Alcotest.test_case "physical = structural equality" `Quick
            test_hashcons_physical_eq;
          Alcotest.test_case "extend re-interns shared spines" `Quick
            test_hashcons_extend_sharing ] );
      ( "compat cores",
        [ Alcotest.test_case "interval subtyping = reference" `Quick
            test_subtyping_matches_reference;
          Alcotest.test_case "TypeRefs matrix = per-query intersection" `Quick
            test_type_refs_matrix_matches_reference;
          Alcotest.test_case "TypeRefs = pairwise build" `Quick
            test_type_refs_match_pairwise_build ] );
      ( "engine facade",
        [ Alcotest.test_case "cached handles and shared counters" `Quick
            test_engine_cached_and_counters;
          Alcotest.test_case "stats surface" `Quick test_engine_stats_shape ] )
    ]
