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

(* The type-axis corpus: a 400-deep chain where every type is merged
   with its supertype, the regime where a TypeRefsTable is largest. *)
let type_chain () =
  Lower.lower_string ~file:"<types>" (Gen.Scale.type_chain 400)

let variants = [ Tbaa.Sm_type_refs.Grouped; Tbaa.Sm_type_refs.Per_type ]
let worlds = [ Tbaa.World.Closed; Tbaa.World.Open ]

let test_type_refs_compat_matches_reference () =
  let check name program worlds =
    let facts = Reference.facts program in
    let tenv = facts.Tbaa.Facts.tenv in
    let n = Minim3.Types.count tenv in
    List.iter
      (fun world ->
        List.iter
          (fun variant ->
            let sm = Tbaa.Sm_type_refs.build ~variant ~facts ~world () in
            let compat = Tbaa.Sm_type_refs.compat sm in
            let reference = Reference.typerefs_compat sm n in
            all_tid_pairs tenv (fun t1 t2 ->
                let a = Tbaa.Compat.fn compat t1 t2 and b = reference t1 t2 in
                if not (Bool.equal a b) then
                  Alcotest.failf "%s: compat %b <> per-query %b on (%d, %d)"
                    name a b t1 t2))
          variants)
      worlds
  in
  List.iter
    (fun seed ->
      check (Printf.sprintf "seed %d" seed) (lower_gen seed)
        [ Tbaa.World.Closed ])
    seeds;
  check "type chain 400" (type_chain ()) worlds

(* The TypeRefsTable and compat rows against the pairwise build
   ([Reference.type_refs]): both variants, closed and open world, over the
   workloads, the scale document, the type-axis corpus and the seeds
   above. *)
let test_type_refs_match_pairwise_build () =
  let corpus =
    List.map
      (fun (w : Workloads.Workload.t) ->
        (w.Workloads.Workload.name, Workloads.Workload.lower w))
      Workloads.Suite.all
    @ [ ("scale", Lower.lower_string ~file:"<scale>" (Gen.Scale.source 200));
        ("type chain 400", type_chain ()) ]
    @ List.map (fun seed -> (Printf.sprintf "seed %d" seed, lower_gen seed)) seeds
  in
  List.iter
    (fun (name, program) ->
      let facts = Reference.facts program in
      let tenv = facts.Tbaa.Facts.tenv in
      List.iter
        (fun (variant, world) ->
          let sm = Tbaa.Sm_type_refs.build ~variant ~facts ~world () in
          let compat = Tbaa.Sm_type_refs.compat sm in
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
              if Tbaa.Compat.fn compat t1 t2 <> expect then
                Alcotest.failf "%s: compat (%d, %d) differs" name t1 t2))
        (List.concat_map (fun v -> List.map (fun w -> (v, w)) worlds) variants))
    corpus

(* Hand-written merged forests over T2 <: T1 <: T0: the tids of the
   globals g0..g2 (of types T0..T2), and both variants' SMTypeRefs in
   [world], each checked against the pairwise build. *)
let chain3 src world =
  let program = Lower.lower_string ~file:"<chain3>" src in
  let facts = Reference.facts program in
  let tid name =
    (List.find
       (fun (g : Reg.var) -> Support.Ident.name g.Reg.v_name = name)
       program.Cfg.prog_globals)
      .Reg.v_ty
  in
  let sms =
    List.map
      (fun variant ->
        let sm = Tbaa.Sm_type_refs.build ~variant ~facts ~world () in
        let trt, _ = Reference.type_refs ~variant ~facts ~world () in
        Array.iteri
          (fun t s ->
            Alcotest.(check (list int))
              (Printf.sprintf "TypeRefs (%d) = pairwise build" t)
              (Support.Bitset.elements s)
              (Tbaa.Sm_type_refs.type_refs sm t))
          trt;
        sm)
      variants
  in
  ((tid "g0", tid "g1", tid "g2"), sms)

(* T0 and T2 share a class and T1 does not. *)
let expect_skip ~what (t0, t1, t2) sms =
  List.iter
    (fun sm ->
      let compat = Tbaa.Compat.fn (Tbaa.Sm_type_refs.compat sm) in
      let refs = Tbaa.Sm_type_refs.type_refs sm in
      Alcotest.(check bool) (what ^ ": compat T0 T2") true (compat t0 t2);
      Alcotest.(check bool) (what ^ ": compat T2 T0") true (compat t2 t0);
      Alcotest.(check bool) (what ^ ": compat T1 T2") false (compat t1 t2);
      Alcotest.(check bool) (what ^ ": compat T0 T1") false (compat t0 t1);
      Alcotest.(check (list int)) (what ^ ": TypeRefs T0") [ t0; t2 ] (refs t0);
      Alcotest.(check (list int)) (what ^ ": TypeRefs T1") [ t1 ] (refs t1);
      Alcotest.(check (list int)) (what ^ ": TypeRefs T2") [ t2 ] (refs t2))
    sms

(* An assignment merges T0 with T2 only: T2's parent in the merged forest
   skips a level. *)
let test_merged_forest_skips_a_level () =
  let src =
    {|MODULE M;
TYPE
  T0 = OBJECT a: INTEGER; END;
  T1 = T0 OBJECT END;
  T2 = T1 OBJECT END;
VAR g0: T0; g1: T1; g2: T2;
BEGIN
  g0 := NEW (T0); g1 := NEW (T1); g2 := NEW (T2);
  g0 := g2;
END M.
|}
  in
  let tids, sms = chain3 src Tbaa.World.Closed in
  expect_skip ~what:"closed" tids sms

(* An open-world chain whose middle type is BRANDED: T2's nearest
   unbranded ancestor is T0, so the forced merges skip T1. *)
let test_open_world_skips_branded () =
  let src =
    {|MODULE M;
TYPE
  T0 = OBJECT a: INTEGER; END;
  T1 = BRANDED "mid" T0 OBJECT END;
  T2 = T1 OBJECT END;
VAR g0: T0; g1: T1; g2: T2;
BEGIN
  g0 := NEW (T0); g1 := NEW (T1); g2 := NEW (T2);
END M.
|}
  in
  let tids, sms = chain3 src Tbaa.World.Open in
  expect_skip ~what:"open" tids sms;
  let (t0, _, t2), closed = chain3 src Tbaa.World.Closed in
  List.iter
    (fun sm ->
      Alcotest.(check bool) "closed: compat T0 T2" false
        (Tbaa.Compat.fn (Tbaa.Sm_type_refs.compat sm) t0 t2))
    closed

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
  let build_ms =
    match Support.Json.member "build_ms" (Tbaa.Engine.stats engine) with
    | Some (Support.Json.Obj phases) -> phases
    | _ -> []
  in
  Alcotest.(check (list string)) "build_ms phases"
    [ "facts"; "type_decl"; "field_type_decl"; "sm_field_type_refs" ]
    (List.map fst build_ms);
  List.iter
    (fun (phase, ms) ->
      Alcotest.(check bool) (phase ^ " time is non-negative") true
        (match Support.Json.to_float ms with Some ms -> ms >= 0. | None -> false))
    build_ms;
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
          Alcotest.test_case "TypeRefs compat = per-query intersection" `Quick
            test_type_refs_compat_matches_reference;
          Alcotest.test_case "TypeRefs = pairwise build" `Quick
            test_type_refs_match_pairwise_build;
          Alcotest.test_case "merged forest skips a level" `Quick
            test_merged_forest_skips_a_level;
          Alcotest.test_case "open world skips a BRANDED type" `Quick
            test_open_world_skips_branded ] );
      ( "engine facade",
        [ Alcotest.test_case "cached handles and shared counters" `Quick
            test_engine_cached_and_counters;
          Alcotest.test_case "stats surface" `Quick test_engine_stats_shape ] )
    ]
