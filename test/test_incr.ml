(* Tests for the incremental, domain-parallel analysis engine:

   - SCC condensation of the call graph (structure, topological order,
     agreement with [Reference.transitive_closure]);
   - invalidation correctness: mutate one procedure, [Engine.update],
     and the result must be indistinguishable from a from-scratch
     [Engine.create] of the edited program — facts byte-identical,
     mod-ref views equal, sampled oracle answers equal — across
     workloads, fuzz seeds and several mutation kinds (digest-neutral
     constant toggles, fact-preserving store duplication, effect-changing
     block erasure, procedure removal);
   - update reports: exactly the edited procedure recomputed for
     body-local edits, oracle rebuilds only when inputs demand it;
   - parallel [create] is observationally identical to sequential;
   - [Opt.Modref.of_engine] agrees with the whole-program
     [Reference.modref];
   - the scaleN corpus ([Gen.Scale]) typechecks. *)

open Support
open Ir

let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89 ]

let lower_gen seed =
  let g = Gen.Generator.generate ~size:((seed mod 3) + 1) seed in
  Lower.lower_string ~file:"<gen>" g.Gen.Generator.source

let kinds =
  [ Tbaa.Engine.Type_decl;
    Tbaa.Engine.Field_type_decl;
    Tbaa.Engine.Sm_field_type_refs ]

let take n l = List.filteri (fun i _ -> i < n) l

(* ------------------------------------------------------------------ *)
(* Condensation                                                        *)
(* ------------------------------------------------------------------ *)

let test_condense_structure () =
  let i = Ident.intern in
  let a = i "a" and b = i "b" and c = i "c" in
  let d = i "d" and e = i "e" and f = i "f" in
  let edges =
    [ (a, [ b ]); (b, [ c ]); (c, [ a ]); (d, [ a; f ]); (e, [ e ]);
      (f, []) ]
  in
  let callees n = Ident.Set.of_list (List.assoc n edges) in
  let cond = Callgraph.condense ~nodes:[ a; b; c; d; e; f ] ~callees in
  Alcotest.(check int)
    "component count" 4
    (Array.length cond.Callgraph.cond_comps);
  (* topological: every successor index is smaller *)
  Array.iteri
    (fun ci succs ->
      List.iter
        (fun s ->
          if s >= ci then
            Alcotest.failf "comp %d has successor %d (not topological)" ci s)
        succs)
    cond.Callgraph.cond_succs;
  (* members sorted, index consistent *)
  Array.iteri
    (fun ci members ->
      let sorted = List.sort Ident.compare members in
      if not (List.equal Ident.equal sorted members) then
        Alcotest.failf "comp %d members not sorted" ci;
      List.iter
        (fun m ->
          Alcotest.(check int)
            "cond_index round-trip" ci
            (Hashtbl.find cond.Callgraph.cond_index m))
        members)
    cond.Callgraph.cond_comps;
  (* the cycle {a,b,c} is one component; d, e, f are singletons *)
  let comp_of n = Hashtbl.find cond.Callgraph.cond_index n in
  Alcotest.(check int) "a and b share a component" (comp_of a) (comp_of b);
  Alcotest.(check int) "a and c share a component" (comp_of a) (comp_of c);
  if comp_of d = comp_of a || comp_of e = comp_of a || comp_of f = comp_of a
  then Alcotest.fail "singleton merged into the cycle";
  (* d's successors are exactly the components of a and f *)
  Alcotest.(check (list int))
    "d's successor components"
    (List.sort compare [ comp_of a; comp_of f ])
    (List.sort compare cond.Callgraph.cond_succs.(comp_of d));
  (* e's self-loop is elided *)
  Alcotest.(check (list int)) "self-loop elided" []
    cond.Callgraph.cond_succs.(comp_of e)

(* Reachability through the condensation DAG must equal the monolithic
   transitive closure (restricted to procedures with bodies). *)
let test_condense_matches_closure () =
  List.iter
    (fun seed ->
      let program = lower_gen seed in
      let cond = Callgraph.condense_program program in
      let closure = Reference.transitive_closure program in
      let nc = Array.length cond.Callgraph.cond_comps in
      (* member sets of every component reachable from c, including c *)
      let reach = Array.make nc Ident.Set.empty in
      for c = 0 to nc - 1 do
        reach.(c) <-
          List.fold_left
            (fun acc s -> Ident.Set.union acc reach.(s))
            (Ident.Set.of_list cond.Callgraph.cond_comps.(c))
            cond.Callgraph.cond_succs.(c)
      done;
      let has_body =
        let tbl = Hashtbl.create 64 in
        List.iter
          (fun p -> Hashtbl.replace tbl p.Cfg.pr_name ())
          program.Cfg.prog_procs;
        Hashtbl.mem tbl
      in
      List.iter
        (fun p ->
          let name = p.Cfg.pr_name in
          let c = Hashtbl.find cond.Callgraph.cond_index name in
          let expect =
            Ident.Set.add name
              (Ident.Set.filter has_body
                 (Option.value
                    (Hashtbl.find_opt closure name)
                    ~default:Ident.Set.empty))
          in
          if not (Ident.Set.equal reach.(c) expect) then
            Alcotest.failf "seed %d: condensation reach <> closure for %s"
              seed (Ident.name name))
        program.Cfg.prog_procs)
    seeds

(* ------------------------------------------------------------------ *)
(* Equivalence harness                                                 *)
(* ------------------------------------------------------------------ *)

let check_facts_equal label (a : Tbaa.Facts.t) (b : Tbaa.Facts.t) =
  let fail what = Alcotest.failf "%s: facts differ (%s)" label what in
  if
    not
      (List.equal
         (fun (d1, s1) (d2, s2) -> d1 = d2 && s1 = s2)
         a.Tbaa.Facts.assignments b.Tbaa.Facts.assignments)
  then fail "assignments";
  if
    not
      (List.equal
         (fun (x : Tbaa.Facts.field_addr) y ->
           Ident.equal x.Tbaa.Facts.fa_field y.Tbaa.Facts.fa_field
           && x.Tbaa.Facts.fa_recv = y.Tbaa.Facts.fa_recv
           && x.Tbaa.Facts.fa_content = y.Tbaa.Facts.fa_content)
         a.Tbaa.Facts.field_addrs b.Tbaa.Facts.field_addrs)
  then fail "field_addrs";
  if
    not
      (List.equal
         (fun (x : Tbaa.Facts.elem_addr) y ->
           x.Tbaa.Facts.ea_array = y.Tbaa.Facts.ea_array
           && x.Tbaa.Facts.ea_elem = y.Tbaa.Facts.ea_elem)
         a.Tbaa.Facts.elem_addrs b.Tbaa.Facts.elem_addrs)
  then fail "elem_addrs";
  if
    not
      (List.equal
         (fun (x : Reg.var) y -> x.Reg.v_id = y.Reg.v_id)
         a.Tbaa.Facts.var_addrs b.Tbaa.Facts.var_addrs)
  then fail "var_addrs";
  if
    not
      (List.equal
         (fun (x : Minim3.Types.tid) y -> x = y)
         a.Tbaa.Facts.byref_formal_tids b.Tbaa.Facts.byref_formal_tids)
  then fail "byref_formal_tids";
  if
    not
      (List.equal
         (fun (x : Tbaa.Facts.memref) y ->
           Ident.equal x.Tbaa.Facts.mr_proc y.Tbaa.Facts.mr_proc
           && Apath.equal x.Tbaa.Facts.mr_path y.Tbaa.Facts.mr_path
           && x.Tbaa.Facts.mr_is_store = y.Tbaa.Facts.mr_is_store)
         a.Tbaa.Facts.memrefs b.Tbaa.Facts.memrefs)
  then fail "memrefs"

(* The updated engine must be indistinguishable from a from-scratch one:
   identical facts, identical mod-ref views, identical oracle answers. *)
let check_engine_equiv label updated fresh (program : Cfg.program) =
  check_facts_equal label
    (Tbaa.Engine.facts updated)
    (Tbaa.Engine.facts fresh);
  List.iter
    (fun kind ->
      List.iter
        (fun p ->
          let n = p.Cfg.pr_name in
          if
            not
              (Tbaa.Effects.equal
                 (Tbaa.Engine.modref_direct updated kind n)
                 (Tbaa.Engine.modref_direct fresh kind n))
          then
            Alcotest.failf "%s: direct effects differ for %s (%s)" label
              (Ident.name n)
              (Tbaa.Engine.kind_name kind);
          if
            not
              (Tbaa.Effects.equal
                 (Tbaa.Engine.modref_merged updated kind n)
                 (Tbaa.Engine.modref_merged fresh kind n))
          then
            Alcotest.failf "%s: merged effects differ for %s (%s)" label
              (Ident.name n)
              (Tbaa.Engine.kind_name kind))
        program.Cfg.prog_procs)
    kinds;
  let paths =
    take 30
      (List.map
         (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
         (Tbaa.Engine.facts fresh).Tbaa.Facts.memrefs)
  in
  List.iter
    (fun kind ->
      let ou = Tbaa.Engine.oracle updated kind in
      let off = Tbaa.Engine.oracle fresh kind in
      List.iter
        (fun p ->
          List.iter
            (fun q ->
              if
                not
                  (Bool.equal
                     (ou.Tbaa.Oracle.may_alias p q)
                     (off.Tbaa.Oracle.may_alias p q))
              then
                Alcotest.failf "%s: may_alias disagrees (%s) on %s / %s"
                  label
                  (Tbaa.Engine.kind_name kind)
                  (Apath.to_string p) (Apath.to_string q))
            paths)
        paths)
    kinds

(* Materialize every lazy piece so [update] exercises the incremental
   effects maintenance, not a post-update lazy rebuild. *)
let force engine =
  List.iter
    (fun kind ->
      List.iter
        (fun p ->
          ignore (Tbaa.Engine.modref_merged engine kind p.Cfg.pr_name))
        (Tbaa.Engine.program engine).Cfg.prog_procs)
    kinds

(* ------------------------------------------------------------------ *)
(* Mutations                                                           *)
(* ------------------------------------------------------------------ *)

(* Shared with test_pipeline, which replays the same edits against the
   incremental optimizer sessions. *)
let toggle_const = Test_mutations.toggle_const
let dup_store = Test_mutations.dup_store
let erase_store_block = Test_mutations.erase_store_block

(* ------------------------------------------------------------------ *)
(* Invalidation correctness                                            *)
(* ------------------------------------------------------------------ *)

let programs () =
  List.map
    (fun (w : Workloads.Workload.t) ->
      (w.Workloads.Workload.name, Workloads.Workload.lower w))
    Workloads.Suite.all
  @ List.map
      (fun seed -> (Printf.sprintf "gen-%d" seed, lower_gen seed))
      seeds

let body_fingerprints program =
  Array.of_list (List.map Fingerprint.proc program.Cfg.prog_procs)

(* With [supply_fingerprints], the update is handed the edited program's
   fingerprints instead of hashing the bodies itself. *)
let run_mutation ?(supply_fingerprints = false) ~label ~mutate
    ~expect_oracles_kept () =
  List.iter
    (fun (name, program) ->
      let engine = Tbaa.Engine.create program in
      force engine;
      match mutate program with
      | None -> () (* nothing to mutate in this program *)
      | Some edited ->
        let engine =
          if supply_fingerprints then
            Tbaa.Engine.update ~fingerprints:(body_fingerprints program)
              engine program
          else Tbaa.Engine.update engine program
        in
        let fresh = Tbaa.Engine.create program in
        force fresh;
        let where = Printf.sprintf "%s/%s" label name in
        check_engine_equiv where engine fresh program;
        (match Tbaa.Engine.last_update engine with
        | None -> Alcotest.failf "%s: no update report" where
        | Some r ->
          if not (List.equal Ident.equal r.Tbaa.Engine.ur_recomputed [ edited ])
          then
            Alcotest.failf "%s: expected only %s recomputed, got [%s]" where
              (Ident.name edited)
              (String.concat "; "
                 (List.map Ident.name r.Tbaa.Engine.ur_recomputed));
          if expect_oracles_kept && r.Tbaa.Engine.ur_oracles_rebuilt then
            Alcotest.failf "%s: oracles rebuilt for an input-preserving edit"
              where))
    (programs ())

let test_update_toggle_const () =
  run_mutation ~label:"toggle-const" ~mutate:toggle_const
    ~expect_oracles_kept:true ()

let test_update_dup_store () =
  run_mutation ~label:"dup-store" ~mutate:dup_store
    ~expect_oracles_kept:true ()

let test_update_erase_block () =
  run_mutation ~label:"erase-store-block" ~mutate:erase_store_block
    ~expect_oracles_kept:false ()

(* Supplied fingerprints stand in for hashing: the right ones give the
   same update as hashing, and the update trusts them — handed the
   pre-edit ones, it sees no edit at all. *)
let test_update_supplied_fingerprints () =
  run_mutation ~supply_fingerprints:true ~label:"toggle-const/supplied"
    ~mutate:toggle_const ~expect_oracles_kept:true ();
  run_mutation ~supply_fingerprints:true ~label:"erase-store-block/supplied"
    ~mutate:erase_store_block ~expect_oracles_kept:false ();
  List.iter
    (fun (name, program) ->
      let engine = Tbaa.Engine.create program in
      force engine;
      let before = body_fingerprints program in
      match toggle_const program with
      | None -> ()
      | Some _ -> (
        let engine = Tbaa.Engine.update ~fingerprints:before engine program in
        match Tbaa.Engine.last_update engine with
        | Some r when r.Tbaa.Engine.ur_recomputed = [] -> ()
        | Some r ->
          Alcotest.failf "%s: stale fingerprints, yet [%s] recomputed" name
            (String.concat "; "
               (List.map Ident.name r.Tbaa.Engine.ur_recomputed))
        | None -> Alcotest.failf "%s: no update report" name))
    (programs ())

let test_update_noop () =
  List.iter
    (fun (name, program) ->
      let engine = Tbaa.Engine.create program in
      force engine;
      let engine = Tbaa.Engine.update engine program in
      (match Tbaa.Engine.last_update engine with
      | Some r ->
        if r.Tbaa.Engine.ur_recomputed <> [] then
          Alcotest.failf "%s: no-op update recomputed [%s]" name
            (String.concat "; "
               (List.map Ident.name r.Tbaa.Engine.ur_recomputed));
        if r.Tbaa.Engine.ur_oracles_rebuilt then
          Alcotest.failf "%s: no-op update rebuilt oracles" name;
        if r.Tbaa.Engine.ur_callgraph_rebuilt then
          Alcotest.failf "%s: no-op update rebuilt the call graph" name
      | None -> Alcotest.failf "%s: no update report" name);
      let fresh = Tbaa.Engine.create program in
      force fresh;
      check_engine_equiv (Printf.sprintf "noop/%s" name) engine fresh program)
    (programs ())

let test_update_drop_proc () =
  List.iter
    (fun (name, program) ->
      match program.Cfg.prog_procs with
      | [] | [ _ ] -> ()
      | procs ->
        let engine = Tbaa.Engine.create program in
        force engine;
        Cfg.set_procs program (take (List.length procs - 1) procs);
        let engine = Tbaa.Engine.update engine program in
        let fresh = Tbaa.Engine.create program in
        force fresh;
        check_engine_equiv (Printf.sprintf "drop-proc/%s" name) engine fresh
          program)
    (programs ())

(* An update over the same procedure list reads only the procedures
   whose fingerprint moved since the engine's last analysis: an edit and
   its undo, each a fresh lowering, must come back to the original
   analysis. *)
let test_update_edit_and_undo () =
  List.iter
    (fun seed ->
      let original () = lower_gen seed in
      let engine = Tbaa.Engine.create (original ()) in
      force engine;
      let edited = original () in
      if Option.is_some (erase_store_block edited) then begin
        let engine = Tbaa.Engine.update engine edited in
        let back = original () in
        let engine = Tbaa.Engine.update engine back in
        let fresh = Tbaa.Engine.create back in
        force fresh;
        check_engine_equiv (Printf.sprintf "edit+undo/seed %d" seed) engine
          fresh back
      end)
    seeds

(* A callee whose formal changes type changes what its callers' call
   sites contribute, though the callers' bodies (and fingerprints) stay
   as they were. *)
let test_update_callee_signature () =
  let source formal =
    Printf.sprintf
      "MODULE S;\nTYPE T = OBJECT f: INTEGER; END;\n  U = T OBJECT END;\n\
       VAR t: T;\n  u: U;\n\
       PROCEDURE F (p: %s) =\n  BEGIN\n    t := p;\n  END F;\n\
       PROCEDURE G () =\n  BEGIN\n    F (u);\n  END G;\n\
       BEGIN\n  u := NEW (U);\n  G ();\nEND S.\n"
      formal
  in
  let engine = Tbaa.Engine.create (Lower.lower_string ~file:"<sig>" (source "T")) in
  force engine;
  let program = Lower.lower_string ~file:"<sig>" (source "U") in
  let engine = Tbaa.Engine.update engine program in
  let fresh = Tbaa.Engine.create program in
  force fresh;
  check_engine_equiv "callee signature" engine fresh program;
  match Tbaa.Engine.last_update engine with
  | Some r ->
    Alcotest.(check bool) "the caller was recomputed" true
      (List.exists (fun n -> Ident.name n = "G") r.Tbaa.Engine.ur_recomputed)
  | None -> Alcotest.fail "no update report"

(* ------------------------------------------------------------------ *)
(* Parallel create                                                     *)
(* ------------------------------------------------------------------ *)

let test_parallel_create_equiv () =
  List.iter
    (fun (name, program) ->
      let seq = Tbaa.Engine.create ~domains:1 program in
      force seq;
      let par = Tbaa.Engine.create ~domains:4 program in
      force par;
      check_engine_equiv (Printf.sprintf "parallel/%s" name) par seq program)
    (take 6 (programs ()))

(* The per-procedure summaries, merged, must reproduce the monolithic
   whole-program facts pass list for list, at any domain count. *)
let test_facts_match_monolithic () =
  List.iter
    (fun (name, program) ->
      let mono = Reference.facts program in
      List.iter
        (fun domains ->
          check_facts_equal
            (Printf.sprintf "monolithic/%s/domains=%d" name domains)
            (Tbaa.Engine.facts (Tbaa.Engine.create ~domains program))
            mono)
        [ 1; 4 ])
    (take 6 (programs ()))

(* ------------------------------------------------------------------ *)
(* Modref: engine view vs monolithic baseline                          *)
(* ------------------------------------------------------------------ *)

let test_modref_of_engine_matches_compute () =
  List.iter
    (fun (name, program) ->
      let engine = Tbaa.Engine.create program in
      List.iter
        (fun kind ->
          let oracle = Tbaa.Engine.oracle engine kind in
          let mono = Reference.modref program oracle in
          let view = Opt.Modref.of_engine engine kind in
          List.iter
            (fun p ->
              let n = p.Cfg.pr_name in
              let a = Opt.Modref.summary mono n in
              let b = Opt.Modref.summary view n in
              if
                not
                  (Tbaa.Aloc.Set.equal a.Opt.Modref.mods b.Opt.Modref.mods
                  && Tbaa.Aloc.Set.equal a.Opt.Modref.refs b.Opt.Modref.refs)
              then
                Alcotest.failf "%s: modref views differ for %s (%s)" name
                  (Ident.name n)
                  (Tbaa.Engine.kind_name kind))
            program.Cfg.prog_procs)
        kinds)
    (programs ())

(* The refs-side call predicate is what DSE stakes store removals on;
   both mod-ref views must answer it identically for every call site ×
   stored path in the corpus (workloads and fuzz-seed programs alike). *)
let test_call_ref_pred_differential () =
  List.iter
    (fun (name, program) ->
      let store_paths =
        let tbl = Ir.Apath.Tbl.create 32 in
        List.iter
          (fun p ->
            Cfg.iter_instrs p (fun _ i ->
                match i with
                | Ir.Instr.Istore (ap, _) -> Ir.Apath.Tbl.replace tbl ap ()
                | _ -> ()))
          program.Cfg.prog_procs;
        Ir.Apath.Tbl.fold (fun ap () acc -> ap :: acc) tbl []
      in
      let engine = Tbaa.Engine.create program in
      List.iter
        (fun kind ->
          let oracle = Tbaa.Engine.oracle engine kind in
          let mono = Reference.modref program oracle in
          let view = Opt.Modref.of_engine engine kind in
          List.iter
            (fun p ->
              Cfg.iter_instrs p (fun _ instr ->
                  match instr with
                  | Ir.Instr.Icall (_, target, _) ->
                    let mp = Opt.Modref.call_ref_pred mono oracle target
                    and vp = Opt.Modref.call_ref_pred view oracle target in
                    List.iter
                      (fun sp ->
                        if mp [ sp ] <> vp [ sp ] then
                          Alcotest.failf
                            "%s: call_ref_pred views differ in %s on %s (%s)"
                            name (Ident.name p.Cfg.pr_name)
                            (Ir.Apath.to_string sp)
                            (Tbaa.Engine.kind_name kind))
                      store_paths
                  | _ -> ()))
            program.Cfg.prog_procs)
        kinds)
    (programs ())

(* ------------------------------------------------------------------ *)
(* Scale corpus                                                        *)
(* ------------------------------------------------------------------ *)

let test_scale_typechecks () =
  List.iter
    (fun n ->
      match
        Minim3.Typecheck.check_string_all ~file:"<scale>"
          (Gen.Scale.source n)
      with
      | Ok p ->
        Alcotest.(check int)
          "worker + lib + main procedures present"
          (max 1 n + Gen.Scale.lib_procs + 1)
          (List.length p.Minim3.Tast.procs)
      | Error ds ->
        Alcotest.failf "scale %d does not typecheck: %s" n
          (match ds with
          | d :: _ -> Support.Diag.to_string d
          | [] -> "?"))
    [ 1; 10; 200 ]

let test_type_chain_typechecks () =
  List.iter
    (fun n ->
      match
        Minim3.Typecheck.check_string_all ~file:"<types>"
          (Gen.Scale.type_chain n)
      with
      | Ok p ->
        Alcotest.(check int) "one procedure per type, plus main" (n + 1)
          (List.length p.Minim3.Tast.procs)
      | Error ds ->
        Alcotest.failf "type chain %d does not typecheck: %s" n
          (match ds with
          | d :: _ -> Support.Diag.to_string d
          | [] -> "?"))
    [ 1; 10; 400 ]

let test_scale_incremental () =
  let program =
    Lower.lower_string ~file:"<scale>" (Gen.Scale.source 120)
  in
  let engine = Tbaa.Engine.create program in
  force engine;
  (* edit a library procedure: its dependent workers' merged views ride on
     the propagation path *)
  match erase_store_block program with
  | None -> Alcotest.fail "scale has no store to erase"
  | Some edited ->
    let engine = Tbaa.Engine.update engine program in
    let fresh = Tbaa.Engine.create program in
    force fresh;
    check_engine_equiv "scale-edit" engine fresh program;
    (match Tbaa.Engine.last_update engine with
    | Some r ->
      if not (List.equal Ident.equal r.Tbaa.Engine.ur_recomputed [ edited ])
      then Alcotest.fail "scale-edit: unexpected recomputation set"
    | None -> Alcotest.fail "scale-edit: no update report")

let () =
  Alcotest.run "incremental"
    [ ( "condensation",
        [ Alcotest.test_case "structure on a known graph" `Quick
            test_condense_structure;
          Alcotest.test_case "reachability = transitive closure" `Quick
            test_condense_matches_closure ] );
      ( "invalidation",
        [ Alcotest.test_case "digest-only edit (constant toggle)" `Quick
            test_update_toggle_const;
          Alcotest.test_case "fact-preserving edit (dup store)" `Quick
            test_update_dup_store;
          Alcotest.test_case "effect-changing edit (erase block)" `Quick
            test_update_erase_block;
          Alcotest.test_case "no-op update reuses everything" `Quick
            test_update_noop;
          Alcotest.test_case "caller-supplied fingerprints" `Quick
            test_update_supplied_fingerprints;
          Alcotest.test_case "procedure removal" `Quick
            test_update_drop_proc;
          Alcotest.test_case "an edit and its undo" `Quick
            test_update_edit_and_undo;
          Alcotest.test_case "a callee's signature changes" `Quick
            test_update_callee_signature ] );
      ( "parallel",
        [ Alcotest.test_case "parallel create = sequential" `Quick
            test_parallel_create_equiv;
          Alcotest.test_case "facts = monolithic pass" `Quick
            test_facts_match_monolithic ] );
      ( "modref",
        [ Alcotest.test_case "of_engine = monolithic compute" `Quick
            test_modref_of_engine_matches_compute;
          Alcotest.test_case "call_ref_pred agrees across views" `Quick
            test_call_ref_pred_differential ] );
      ( "scale",
        [ Alcotest.test_case "corpus typechecks" `Quick
            test_scale_typechecks;
          Alcotest.test_case "type-axis corpus typechecks" `Quick
            test_type_chain_typechecks;
          Alcotest.test_case "library edit propagates" `Quick
            test_scale_incremental ] )
    ]
