(* Property-based tests over randomly generated MiniM3 programs: the
   precision lattice between the three analyses, soundness of every oracle
   against observed dynamic aliasing, semantics preservation of the whole
   optimizer, and open-world conservatism. *)

open Ir

(* Every QCheck test gets its own explicitly seeded state: runs are
   reproducible without QCHECK_SEED, and no test's draws depend on how
   many cases an earlier test consumed. *)
let pinned_rand () = Random.State.make [| 0xBAA; 2024 |]

let lower seed = Lower.lower_string ~file:"gen" (Gen_prog.generate seed)

let count = 60

(* --- semantics preservation -------------------------------------------- *)

let output program = (Sim.Interp.run program).Sim.Interp.output

let preserves_output transform seed =
  let reference = output (lower seed) in
  let program = lower seed in
  transform program;
  String.equal reference (output program)

let prop_rle_preserves oracle_kind name =
  QCheck.Test.make ~name ~count Gen_prog.arbitrary
    (preserves_output (fun program ->
         ignore (Passes.run ~oracle_kind program [ Opt.Rle.pass ])))

let prop_full_pipeline_preserves =
  QCheck.Test.make ~name:"pipeline (devirt+inline+RLE+local CSE) preserves output"
    ~count Gen_prog.arbitrary
    (preserves_output (fun program ->
         ignore
           (Opt.Pass_manager.run (Opt.Pass.create ()) program
              (Opt.Pass_manager.schedule
                 { Opt.Pass_manager.Config.devirt_inline = true; licm = true;
                   pre = true; slf = true; rle = true; copyprop = true;
                   dse = true; local_cse = true }))))

let prop_dce_preserves =
  QCheck.Test.make ~name:"DCE preserves output" ~count Gen_prog.arbitrary
    (preserves_output (fun program ->
         ignore (Passes.run program [ Reference.Dce.pass ])))

let prop_local_cse_preserves =
  QCheck.Test.make ~name:"local CSE preserves output" ~count Gen_prog.arbitrary
    (preserves_output (fun program ->
         ignore (Passes.run program [ Opt.Local_cse.pass ])))

(* --- oracle query counting ---------------------------------------------- *)

(* The counting wrapper must be observationally identical to the raw
   oracle and count exactly one query per call on the leg called: over
   random streams of compat / may_alias / store_class / class_kills
   queries (with repeats), every answer must match the raw oracle, each
   leg's queries and misses must equal the calls made on it, and the log
   must see every may_alias call, in order, with its answer. *)
let prop_oracle_cache_counts =
  QCheck.Test.make
    ~name:"Oracle_cache.wrap answers like the raw oracle, one query per call"
    ~count
    QCheck.(
      pair Gen_prog.arbitrary
        (list_of_size (Gen.int_range 50 300)
           (triple (int_range 0 3) small_nat small_nat)))
    (fun (seed, picks) ->
      let program = lower seed in
      let a = Tbaa.Engine.create program in
      let refs =
        Array.of_list
          (List.concat_map
             (fun (r : Tbaa.Facts.memref) ->
               let ap = r.Tbaa.Facts.mr_path in
               Apath.of_var (Apath.base ap) :: Apath.prefixes ap)
             (Tbaa.Engine.facts a).Tbaa.Facts.memrefs)
      in
      let n = Array.length refs in
      n = 0
      || List.for_all
           (fun (raw : Tbaa.Oracle.t) ->
             let c = Tbaa.Oracle_cache.fresh_counters () in
             let logged = ref [] and asked = ref [] in
             let counted =
               Tbaa.Oracle_cache.wrap ~counters:c
                 ~log:(fun p q r -> logged := (p, q, r) :: !logged)
                 raw
             in
             let calls = Array.make 4 0 in
             let agreed =
               List.for_all
                 (fun (op, i, j) ->
                   let x = refs.(i mod n) and y = refs.(j mod n) in
                   calls.(op) <- calls.(op) + 1;
                   match op with
                   | 0 ->
                     let t1 = Apath.ty x and t2 = Apath.ty y in
                     Bool.equal
                       (counted.Tbaa.Oracle.compat t1 t2)
                       (raw.Tbaa.Oracle.compat t1 t2)
                   | 1 ->
                     let r = raw.Tbaa.Oracle.may_alias x y in
                     asked := (x, y, r) :: !asked;
                     Bool.equal (counted.Tbaa.Oracle.may_alias x y) r
                   | 2 ->
                     Tbaa.Aloc.equal
                       (counted.Tbaa.Oracle.store_class x)
                       (raw.Tbaa.Oracle.store_class x)
                   | _ ->
                     let cls =
                       if Apath.is_memory_ref x then raw.Tbaa.Oracle.store_class x
                       else
                         let v = Apath.base x in
                         Tbaa.Aloc.Lvar (v.Reg.v_id, v.Reg.v_ty)
                     in
                     Bool.equal
                       (counted.Tbaa.Oracle.class_kills cls y)
                       (raw.Tbaa.Oracle.class_kills cls y))
                 picks
             in
             let open Tbaa.Oracle_cache in
             let want = Array.to_list calls in
             agreed
             && [ c.compat_queries; c.alias_queries; c.store_queries;
                  c.class_queries ]
                = want
             && [ c.compat_misses; c.alias_misses; c.store_misses;
                  c.class_misses ]
                = want
             && List.length !logged = List.length !asked
             && List.for_all2
                  (fun (p, q, r) (p', q', r') ->
                    p == p' && q == q' && Bool.equal r r')
                  !logged !asked)
           (Tbaa.Engine.oracles a))

(* --- precision lattice --------------------------------------------------- *)

let prop_precision_lattice =
  QCheck.Test.make ~name:"SMFieldTypeRefs ⊑ FieldTypeDecl ⊑ TypeDecl" ~count
    Gen_prog.arbitrary (fun seed ->
      let program = lower seed in
      let a = Tbaa.Engine.create program in
      let refs =
        List.map
          (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
          (Tbaa.Engine.facts a).Tbaa.Facts.memrefs
      in
      let sm = Tbaa.Engine.oracle a Tbaa.Engine.Sm_field_type_refs
      and ftd = Tbaa.Engine.oracle a Tbaa.Engine.Field_type_decl
      and td = Tbaa.Engine.oracle a Tbaa.Engine.Type_decl in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              (not (sm.Tbaa.Oracle.may_alias x y) || ftd.Tbaa.Oracle.may_alias x y)
              && ((not (ftd.Tbaa.Oracle.may_alias x y))
                 || td.Tbaa.Oracle.may_alias x y))
            refs)
        refs)

let prop_open_world_conservative =
  QCheck.Test.make ~name:"open world only adds aliases" ~count Gen_prog.arbitrary
    (fun seed ->
      let program = lower seed in
      let analyze world =
        Tbaa.Engine.create
          ~config:{ Tbaa.Engine.default_config with Tbaa.Engine.world }
          program
      in
      let closed = analyze Tbaa.World.Closed in
      let opened = analyze Tbaa.World.Open in
      let refs =
        List.map
          (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
          (Tbaa.Engine.facts closed).Tbaa.Facts.memrefs
      in
      let c = Tbaa.Engine.oracle closed Tbaa.Engine.Sm_field_type_refs in
      let o = Tbaa.Engine.oracle opened Tbaa.Engine.Sm_field_type_refs in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              (not (c.Tbaa.Oracle.may_alias x y)) || o.Tbaa.Oracle.may_alias x y)
            refs)
        refs)

(* --- dynamic soundness ----------------------------------------------------- *)

(* Record, per static load site, the set of heap addresses it touches; any
   two sites that ever touch a common address must be may-aliases under
   every oracle. *)
let prop_soundness =
  QCheck.Test.make ~name:"dynamic overlap implies static may-alias" ~count
    Gen_prog.arbitrary (fun seed ->
      let program = lower seed in
      let a = Tbaa.Engine.create program in
      let site_exprs : (int, Apath.t) Hashtbl.t = Hashtbl.create 64 in
      let touched : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
      let on_load (e : Sim.Interp.load_event) =
        match e.Sim.Interp.le_site.Sim.Interp.site_kind with
        | Sim.Interp.Sexplicit (ap, k) ->
          let expr = Apath.truncate ap k in
          if Apath.is_memory_ref expr then begin
            let id = e.Sim.Interp.le_site.Sim.Interp.site_id in
            Hashtbl.replace site_exprs id expr;
            let set =
              match Hashtbl.find_opt touched id with
              | Some s -> s
              | None ->
                let s = Hashtbl.create 16 in
                Hashtbl.add touched id s;
                s
            in
            Hashtbl.replace set e.Sim.Interp.le_addr ()
          end
        | _ -> ()
      in
      let _ = Sim.Interp.run ~on_load program in
      let sites = Hashtbl.fold (fun id _ acc -> id :: acc) site_exprs [] in
      let overlap i j =
        let si = Hashtbl.find touched i and sj = Hashtbl.find touched j in
        Hashtbl.fold (fun addr () acc -> acc || Hashtbl.mem sj addr) si false
      in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              i >= j
              || (not (overlap i j))
              || List.for_all
                   (fun (o : Tbaa.Oracle.t) ->
                     o.Tbaa.Oracle.may_alias (Hashtbl.find site_exprs i)
                       (Hashtbl.find site_exprs j))
                   (Tbaa.Engine.oracles a))
            sites)
        sites)

(* --- verification layer ---------------------------------------------------- *)

(* The audited run over SMFieldTypeRefs, closed world: the guarded pass
   manager with the IR validator on, then the dynamic auditor. *)
let guarded_run ~label ?fault ?fuel program passes =
  Harness.Runner.audit ?fault ?fuel ~label
    { Harness.Runner.base with Harness.Runner.passes }
    program

(* A sound oracle must survive its own audit: run the guarded pipeline
   with the IR validator on and every RLE alias bet logged, then execute
   under the dynamic auditor — no pass may fail validation and no claimed
   -disjoint path pair may touch a common cell. *)
let prop_audit_clean =
  QCheck.Test.make ~name:"guarded pipeline verifies and audits clean"
    ~count:40 Gen_prog.arbitrary (fun seed ->
      let r =
        guarded_run ~label:"SMFieldTypeRefs" (lower seed)
          { Opt.Pass_manager.Config.devirt_inline = true; licm = true;
            pre = false; slf = true; rle = true; copyprop = true; dse = true;
            local_cse = false }
      in
      r.Harness.Runner.ar_failures = [] && r.Harness.Runner.ar_violations = [])

(* Negative testing: flip 10% of may-alias answers and the optimizer may
   miscompile — but it must do so *gracefully* (no crash), and whenever
   the output actually diverges from the reference the auditor must name
   a violated claim. Kill-class flips are left off so every divergence is
   attributable to a logged alias bet. *)
let prop_fault_injection_caught =
  QCheck.Test.make
    ~name:"fault-injected oracle is graceful and divergence is caught"
    ~count:40 Gen_prog.arbitrary (fun seed ->
      let fuel = 2_000_000 in
      let reference = Sim.Interp.run ~fuel (lower seed) in
      let fault =
        Opt.Pass.fault ~flip_class_kills:false ~seed:((seed * 7) + 1)
          ~rate:0.1 ()
      in
      let r =
        guarded_run ~label:"SMFieldTypeRefs+fault" ~fault ~fuel (lower seed)
          { Opt.Pass_manager.Config.none with
            Opt.Pass_manager.Config.rle = true }
      in
      String.equal reference.Sim.Interp.output
        r.Harness.Runner.ar_outcome.Sim.Interp.output
      || r.Harness.Runner.ar_violations <> [])

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let test_validator_catches_corruption () =
  let program = lower 42 in
  let proc = List.hd program.Cfg.prog_procs in
  (Cfg.block proc proc.Cfg.pr_entry).Cfg.b_term <- Instr.Tjump 9999;
  match Verify.program program with
  | [] -> Alcotest.fail "validator accepted a jump to a nonexistent block"
  | errs ->
    Alcotest.(check bool)
      "error names the proc" true
      (List.exists
         (fun (e : Verify.error) ->
           String.equal e.Verify.ve_proc
             (Support.Ident.name proc.Cfg.pr_name))
         errs)

let test_guarded_quarantines_crash () =
  let program = lower 43 in
  let before = Format.asprintf "%a" Cfg.pp_program program in
  let boom =
    { Opt.Pass.name = "boom"; role = Opt.Pass.Transform;
      scope = Opt.Pass.Whole_program (fun _ _ -> failwith "kaboom") }
  in
  let ctx = Opt.Pass.create () in
  let reports =
    Opt.Pass_manager.run_guarded ctx program [ Opt.Pass_manager.Run boom ]
  in
  (match Opt.Pass_manager.failures reports with
  | [ (pass, reason) ] ->
    Alcotest.(check string) "failing pass" "boom" pass;
    Alcotest.(check bool)
      "reason mentions the exception" true
      (contains ~sub:"kaboom" reason)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d" (List.length fs)));
  Alcotest.(check string)
    "program rolled back" before
    (Format.asprintf "%a" Cfg.pp_program program)

let test_guarded_rolls_back_invalid_ir () =
  let program = lower 44 in
  let before = Format.asprintf "%a" Cfg.pp_program program in
  let corrupt =
    { Opt.Pass.name = "corrupt"; role = Opt.Pass.Transform;
      scope =
        Opt.Pass.Whole_program
          (fun _ (p : Cfg.program) ->
            let proc = List.hd p.Cfg.prog_procs in
            (Cfg.block proc proc.Cfg.pr_entry).Cfg.b_term <- Instr.Tjump 9999;
            { Opt.Pass.stats = []; changed = true; mutated = true }) }
  in
  let ctx = Opt.Pass.create () in
  let reports =
    Opt.Pass_manager.run_guarded ctx program
      [ Opt.Pass_manager.Run corrupt ]
  in
  (match Opt.Pass_manager.failures reports with
  | [ (pass, reason) ] ->
    Alcotest.(check string) "failing pass" "corrupt" pass;
    Alcotest.(check bool)
      "reason mentions validation" true
      (contains ~sub:"IR validation" reason)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d" (List.length fs)));
  Alcotest.(check string)
    "program rolled back" before
    (Format.asprintf "%a" Cfg.pp_program program)

(* --- printer round trip --------------------------------------------------- *)

let prop_printer_roundtrip =
  QCheck.Test.make ~name:"reprint preserves behaviour" ~count:40
    Gen_prog.arbitrary (fun seed ->
      let src = Gen_prog.generate seed in
      let printed = Minim3.Ast_pp.reprint ~file:"gen" src in
      let o1 = Sim.Interp.run (Lower.lower_string ~file:"a" src) in
      let o2 = Sim.Interp.run (Lower.lower_string ~file:"b" printed) in
      String.equal o1.Sim.Interp.output o2.Sim.Interp.output
      && String.equal printed (Minim3.Ast_pp.reprint ~file:"c" printed))

(* --- determinism -------------------------------------------------------------- *)

let prop_interp_deterministic =
  QCheck.Test.make ~name:"simulator is deterministic" ~count:20 Gen_prog.arbitrary
    (fun seed ->
      let a = Sim.Interp.run (lower seed) in
      let b = Sim.Interp.run (lower seed) in
      String.equal a.Sim.Interp.output b.Sim.Interp.output
      && a.Sim.Interp.cycles = b.Sim.Interp.cycles
      && a.Sim.Interp.counters.Sim.Interp.heap_loads
         = b.Sim.Interp.counters.Sim.Interp.heap_loads)

let () =
  Alcotest.run "properties"
    [ ( "preservation",
        [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            (prop_rle_preserves Opt.Pass.Otype_decl "RLE(TypeDecl) preserves output");
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            (prop_rle_preserves Opt.Pass.Ofield_type_decl
               "RLE(FieldTypeDecl) preserves output");
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            (prop_rle_preserves Opt.Pass.Osm_field_type_refs
               "RLE(SMFieldTypeRefs) preserves output");
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_full_pipeline_preserves;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_local_cse_preserves;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_dce_preserves ] );
      ( "lattice",
        [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_precision_lattice;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_open_world_conservative ] );
      ( "soundness", [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_soundness ] );
      ( "verification",
        [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_audit_clean;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_fault_injection_caught;
          Alcotest.test_case "validator catches a corrupted CFG" `Quick
            test_validator_catches_corruption;
          Alcotest.test_case "guarded run quarantines a crashing pass" `Quick
            test_guarded_quarantines_crash;
          Alcotest.test_case "guarded run rolls back invalid IR" `Quick
            test_guarded_rolls_back_invalid_ir ] );
      ( "oracle cache",
        [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            prop_oracle_cache_counts ] );
      ( "printer", [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_printer_roundtrip ] );
      ( "determinism", [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_interp_deterministic ] ) ]
