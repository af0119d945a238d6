(* Tests for the generative differential-testing stack: generator
   determinism and well-typedness, shrinker contract, the clean-pipeline
   fuzz loop, fault-injected counterexample production with repro
   replay, and the rejection paths of the guarded pass manager's IR
   validation (a corrupting pass must be rolled back, quarantined, and
   named in its report). *)

let typechecks src =
  match Minim3.Typecheck.check_string_all ~file:"<t>" src with
  | Ok _ -> true
  | Error _ | (exception _) -> false

(* --- generator ----------------------------------------------------------- *)

let test_generator_deterministic () =
  let a = Gen.Generator.generate ~size:2 5
  and b = Gen.Generator.generate ~size:2 5 in
  Alcotest.(check string) "same seed, same source" a.Gen.Generator.source
    b.Gen.Generator.source;
  let c = Gen.Generator.generate ~size:2 6 in
  Alcotest.(check bool) "different seed, different source" false
    (String.equal a.Gen.Generator.source c.Gen.Generator.source)

let test_generator_well_typed () =
  for seed = 1 to 12 do
    let g = Gen.Generator.generate ~size:((seed mod 3) + 1) seed in
    if not (typechecks g.Gen.Generator.source) then
      Alcotest.fail
        (Printf.sprintf "seed %d (size %d) does not typecheck" seed
           ((seed mod 3) + 1))
  done

let test_generator_observable () =
  (* Every generated program must terminate within fuel and print
     something: a silent program cannot witness a miscompile. *)
  for seed = 1 to 6 do
    let g = Gen.Generator.generate ~size:1 seed in
    let program = Ir.Lower.lower_string ~file:"<gen>" g.Gen.Generator.source in
    let out = Sim.Interp.run ~fuel:2_000_000 program in
    Alcotest.(check bool)
      (Printf.sprintf "seed %d terminates" seed)
      false out.Sim.Interp.halted;
    Alcotest.(check bool)
      (Printf.sprintf "seed %d prints" seed)
      true
      (String.length out.Sim.Interp.output > 0)
  done

(* --- shrinker ------------------------------------------------------------ *)

let test_shrink_preserves_predicate () =
  let g = Gen.Generator.generate ~size:1 3 in
  let small = Gen.Shrink.minimize ~keep:typechecks g.Gen.Generator.source in
  Alcotest.(check bool) "minimized still satisfies predicate" true
    (typechecks small);
  Alcotest.(check bool) "minimized is no larger" true
    (String.length small <= String.length g.Gen.Generator.source)

(* --- fuzz loop ----------------------------------------------------------- *)

let test_clean_fuzz_run () =
  let r =
    Harness.Fuzz.run ~out_dir:None ~size:1 ~log:ignore ~count:5 ~seed:1 ()
  in
  Alcotest.(check int) "all programs checked" 5 r.Harness.Fuzz.total;
  (match r.Harness.Fuzz.failures with
  | [] -> ()
  | (seed, fs) :: _ ->
    Alcotest.fail
      (Printf.sprintf "seed %d failed: %s" seed
         (String.concat "; "
            (List.map (fun f -> f.Harness.Fuzz.f_detail) fs))));
  Alcotest.(check int) "no failures on the clean pipeline" 0
    r.Harness.Fuzz.failed

let test_fault_injection_counterexample () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "tbaac-test-fuzz" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let r =
    Harness.Fuzz.run ~out_dir:(Some dir) ~fault:(1000, 0.1) ~size:2
      ~max_counterexamples:1 ~log:ignore ~count:5 ~seed:1 ()
  in
  Alcotest.(check bool) "fault injection detected" true (r.Harness.Fuzz.failed > 0);
  match r.Harness.Fuzz.counterexamples with
  | [] -> Alcotest.fail "no counterexample was shrunk"
  | cx :: _ ->
    Alcotest.(check bool) "shrunk no larger than original" true
      (cx.Harness.Fuzz.cx_shrunk_bytes <= cx.Harness.Fuzz.cx_original_bytes);
    Alcotest.(check bool) "repro file written" true
      (cx.Harness.Fuzz.cx_path <> None);
    Alcotest.(check bool) "repro replays from disk" true
      cx.Harness.Fuzz.cx_replayed;
    (* And through the public replay entry point, as the CLI would. *)
    (match cx.Harness.Fuzz.cx_path with
    | None -> ()
    | Some path ->
      (match Harness.Fuzz.replay ~path () with
      | Ok f ->
        Alcotest.(check string) "replay hits the recorded configuration"
          cx.Harness.Fuzz.cx_failure.Harness.Fuzz.f_config
          f.Harness.Fuzz.f_config
      | Error e -> Alcotest.fail ("replay failed: " ^ e)))

(* --- configuration matrix ------------------------------------------------ *)

let test_matrix_covers_new_clients () =
  let names = Harness.Fuzz.config_names () in
  Alcotest.(check int) "three analyses x nine variants" 27
    (List.length names);
  List.iter
    (fun n ->
      Alcotest.(check bool) ("matrix includes " ^ n) true (List.mem n names))
    [ "TypeDecl:licm"; "FieldTypeDecl:slf"; "SMFieldTypeRefs:dse";
      "SMFieldTypeRefs:licm+slf+rle+dse"; "TypeDecl:rle";
      "FieldTypeDecl:minv+rle"; "TypeDecl:all" ]

(* --- per-client fault injection caught by the auditor -------------------- *)

(* Each trap program makes its client bet on exactly the kind of no-alias
   answer a fault flip falsifies; the dynamic auditor must then report a
   violated claim attributed to that client. Class-kill flips are left
   off: those bets carry no witness path (they are claim-exempt), so only
   may-alias flips are auditable. *)

let client_config ~licm ~slf ~dse =
  { Harness.Runner.base with
    Harness.Runner.passes =
      { Opt.Pass_manager.Config.none with Opt.Pass_manager.Config.licm; slf; dse } }

let audit_trap ?fault config src =
  let program = Ir.Lower.lower_string ~file:"<trap>" src in
  (Harness.Runner.audit ?fault ~label:"SMFieldTypeRefs" config program)
    .Harness.Runner.ar_violations

let check_fault_caught ~kind config src =
  (* The clean run must discharge every claim... *)
  Alcotest.(check int) (kind ^ ": clean run is audit-clean") 0
    (List.length (audit_trap config src));
  (* ...and some deterministic fault seed must flip the load-bearing
     answer into a violation the auditor attributes to the client. *)
  let rec scan seed =
    if seed > 100 then
      Alcotest.fail (kind ^ ": no fault seed produced an audit violation")
    else
      let fault =
        Opt.Pass.fault ~flip_class_kills:false ~seed ~rate:0.5 ()
      in
      match audit_trap ~fault config src with
      | [] -> scan (seed + 1)
      | violations ->
        Alcotest.(check bool)
          (kind ^ ": violation attributed to the client")
          true
          (List.exists
             (fun v -> List.mem kind v.Sim.Audit.vi_kinds)
             violations)
  in
  scan 1

let test_fault_in_dse_caught () =
  check_fault_caught ~kind:"dse"
    (client_config ~licm:false ~slf:false ~dse:true)
    {|
MODULE T;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P () =
  BEGIN
    n.val := 1;
    sink := m.val;   (* the read DSE must not lose: m is n *)
    n.val := 2;
  END P;
BEGIN
  n := NEW (Node);
  m := n;
  P ();
  PrintInt (n.val * 10 + sink);
END T.
|}

let test_fault_in_slf_caught () =
  check_fault_caught ~kind:"slf"
    (client_config ~licm:false ~slf:true ~dse:false)
    {|
MODULE T;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P () =
  VAR x: INTEGER;
  BEGIN
    n.val := 1;
    m.val := 2;      (* overwrites the binding: m is n *)
    x := n.val;
    sink := x;
  END P;
BEGIN
  n := NEW (Node);
  m := n;
  P ();
  PrintInt (sink);
END T.
|}

let test_fault_in_licm_caught () =
  (* The blocker is an in-loop *store* through an alias — a call's mod
     summary is class-set based and claim-exempt, so only the store form
     leaves an auditable witness. *)
  check_fault_caught ~kind:"licm"
    (client_config ~licm:true ~slf:false ~dse:false)
    {|
MODULE T;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P (k: INTEGER) =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 1 TO k DO
      s := s + n.val;
      m.val := i;    (* variant: m is n *)
    END;
    sink := s;
  END P;
BEGIN
  n := NEW (Node);
  m := n;
  P (3);
  PrintInt (sink);
END T.
|}

(* --- guarded-manager rejection paths ------------------------------------- *)

(* A pass that corrupts the IR must be caught by the verifier, rolled
   back to the last good program, and reported under its own name. *)

let evil_source = {|MODULE T;
VAR g: INTEGER;
BEGIN
  g := 1;
  PrintInt (g);
END T.
|}

let entry_block (program : Ir.Cfg.program) =
  let p = Ir.Cfg.find_proc program program.Ir.Cfg.prog_main in
  (p, Ir.Cfg.block p p.Ir.Cfg.pr_entry)

let run_evil name corrupt =
  let program = Ir.Lower.lower_string ~file:"<evil>" evil_source in
  let reference = (Sim.Interp.run program).Sim.Interp.output in
  let pass =
    { Opt.Pass.name;
      role = Opt.Pass.Transform;
      scope =
        Opt.Pass.Whole_program
          (fun _ctx program ->
            corrupt program;
            { Opt.Pass.stats = []; changed = true; mutated = true }) }
  in
  let ctx = Opt.Pass.create () in
  let reports =
    Opt.Pass_manager.run_guarded ctx program
      [ Opt.Pass_manager.Run pass ]
  in
  (match Opt.Pass_manager.failures reports with
  | [ (p, reason) ] ->
    Alcotest.(check string) "failure names the offending pass" name p;
    Alcotest.(check bool) "failure carries a reason" true
      (String.length reason > 0)
  | fs ->
    Alcotest.fail
      (Printf.sprintf "expected exactly one failure for %s, got %d" name
         (List.length fs)));
  Alcotest.(check (list string)) "program rolled back to valid IR" []
    (List.map Ir.Verify.error_to_string (Ir.Verify.program program));
  Alcotest.(check string) "rolled-back program still runs" reference
    (Sim.Interp.run program).Sim.Interp.output

let test_verify_rejects_bad_edge () =
  run_evil "evil-edge" (fun program ->
      let _p, b = entry_block program in
      b.Ir.Cfg.b_term <- Ir.Instr.Tjump 9999)

let test_verify_rejects_ill_typed_path () =
  run_evil "evil-path" (fun program ->
      (* Field selection on an INTEGER global: structurally a path, but
         ill-typed selector-by-selector. *)
      let g =
        List.find
          (fun (v : Ir.Reg.var) -> v.Ir.Reg.v_ty = Minim3.Types.tid_int)
          program.Ir.Cfg.prog_globals
      in
      let bad =
        Ir.Apath.make g
          [ Ir.Apath.Sfield (Support.Ident.intern "nofield",
                             Minim3.Types.tid_int) ]
      in
      let t =
        Ir.Cfg.fresh_var program ~name:"evil" ~ty:Minim3.Types.tid_int
          ~kind:Ir.Reg.Vtemp
      in
      let _p, b = entry_block program in
      b.Ir.Cfg.b_instrs <- Ir.Instr.Iload (t, bad) :: b.Ir.Cfg.b_instrs)

let test_verify_rejects_use_before_assign () =
  run_evil "evil-undef" (fun program ->
      let t =
        Ir.Cfg.fresh_var program ~name:"undef" ~ty:Minim3.Types.tid_int
          ~kind:Ir.Reg.Vtemp
      in
      let _p, b = entry_block program in
      (* t := t: the use on the right precedes any assignment. *)
      b.Ir.Cfg.b_instrs <-
        Ir.Instr.Iassign (t, Ir.Instr.Ratom (Ir.Reg.Avar t))
        :: b.Ir.Cfg.b_instrs)

let () =
  Alcotest.run "fuzz"
    [ ( "generator",
        [ Alcotest.test_case "deterministic" `Quick test_generator_deterministic;
          Alcotest.test_case "well-typed across seeds" `Quick
            test_generator_well_typed;
          Alcotest.test_case "terminating and observable" `Quick
            test_generator_observable ] );
      ( "shrink",
        [ Alcotest.test_case "preserves predicate" `Quick
            test_shrink_preserves_predicate ] );
      ( "loop",
        [ Alcotest.test_case "clean pipeline is clean" `Slow test_clean_fuzz_run;
          Alcotest.test_case "fault injection yields replaying counterexample"
            `Slow test_fault_injection_counterexample ] );
      ( "matrix",
        [ Alcotest.test_case "covers the new clients" `Quick
            test_matrix_covers_new_clients ] );
      ( "client faults",
        [ Alcotest.test_case "dse fault caught by audit" `Quick
            test_fault_in_dse_caught;
          Alcotest.test_case "slf fault caught by audit" `Quick
            test_fault_in_slf_caught;
          Alcotest.test_case "licm fault caught by audit" `Quick
            test_fault_in_licm_caught ] );
      ( "verify-rejects",
        [ Alcotest.test_case "malformed CFG edge" `Quick
            test_verify_rejects_bad_edge;
          Alcotest.test_case "ill-typed access path" `Quick
            test_verify_rejects_ill_typed_path;
          Alcotest.test_case "use before assignment" `Quick
            test_verify_rejects_use_before_assign ] ) ]
