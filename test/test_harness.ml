(* Tests over the experiment harness: the paper's qualitative findings must
   hold as *shapes* of our regenerated tables and figures. Each test states
   the claim from the paper it checks. *)

module E = Harness.Experiments

let test_table5_shapes () =
  let rows = E.Table5.compute () in
  Alcotest.(check int) "all ten programs" 10 (List.length rows);
  List.iter
    (fun (r : E.Table5.row) ->
      (* "TypeDecl performs a lot worse than FieldTypeDecl" *)
      Alcotest.(check bool) (r.E.Table5.name ^ ": FTD <= TD (local)") true
        (r.E.Table5.ftd.Tbaa.Alias_pairs.local_pairs
        <= r.E.Table5.td.Tbaa.Alias_pairs.local_pairs);
      Alcotest.(check bool) (r.E.Table5.name ^ ": SM <= FTD (local)") true
        (r.E.Table5.sm.Tbaa.Alias_pairs.local_pairs
        <= r.E.Table5.ftd.Tbaa.Alias_pairs.local_pairs);
      (* "The number of interprocedural aliases is much higher" *)
      Alcotest.(check bool) (r.E.Table5.name ^ ": global >= local") true
        (r.E.Table5.sm.Tbaa.Alias_pairs.global_pairs
        >= r.E.Table5.sm.Tbaa.Alias_pairs.local_pairs))
    rows;
  (* "SMFieldTypeRefs improves ... postcard, and the number of global
     aliases for m3cg" — and nothing else. *)
  List.iter
    (fun (r : E.Table5.row) ->
      let sm_improves =
        r.E.Table5.sm.Tbaa.Alias_pairs.global_pairs
        < r.E.Table5.ftd.Tbaa.Alias_pairs.global_pairs
      in
      let expected = r.E.Table5.name = "postcard" || r.E.Table5.name = "m3cg" in
      Alcotest.(check bool)
        (r.E.Table5.name ^ ": SM improvement exactly where the paper saw it")
        expected sm_improves)
    rows

let test_table6_shapes () =
  let rows = E.Table6.compute () in
  Alcotest.(check int) "seven programs" 7 (List.length rows);
  List.iter
    (fun (r : E.Table6.row) ->
      (* "FieldTypeDecl ... result in an increase in the number of
         redundant loads found by RLE" (never a decrease) *)
      Alcotest.(check bool) (r.E.Table6.name ^ ": FTD >= TD") true
        (r.E.Table6.ftd >= r.E.Table6.td);
      (* "reductions ... between FieldTypeDecl and SMFieldTypeRefs does not
         change the number of redundant loads found by RLE" *)
      Alcotest.(check int) (r.E.Table6.name ^ ": SM = FTD") r.E.Table6.ftd
        r.E.Table6.sm)
    rows

let test_figure8_shapes () =
  let rows = E.Figure8.compute () in
  List.iter
    (fun (r : E.Figure8.row) ->
      (* RLE never hurts, and the wins stay modest (the paper's 0-8% band;
         we allow up to 20% for our simpler machine model). *)
      List.iter
        (fun (v, label) ->
          Alcotest.(check bool) (r.E.Figure8.name ^ ": " ^ label ^ " <= 100.5") true
            (v <= 100.5);
          Alcotest.(check bool) (r.E.Figure8.name ^ ": " ^ label ^ " >= 80") true
            (v >= 80.0))
        [ (r.E.Figure8.td, "td"); (r.E.Figure8.ftd, "ftd"); (r.E.Figure8.sm, "sm") ];
      (* more precise analyses never run slower *)
      Alcotest.(check bool) (r.E.Figure8.name ^ ": sm <= td") true
        (r.E.Figure8.sm <= r.E.Figure8.td +. 0.01))
    rows

let test_figure9_shapes () =
  let rows = E.Figure9.compute () in
  Alcotest.(check int) "eight programs" 8 (List.length rows);
  List.iter
    (fun (r : E.Figure9.row) ->
      Alcotest.(check bool) (r.E.Figure9.name ^ ": after <= before") true
        (r.E.Figure9.after <= r.E.Figure9.before +. 1e-9);
      Alcotest.(check bool) (r.E.Figure9.name ^ ": fractions sane") true
        (r.E.Figure9.before >= 0.0 && r.E.Figure9.before <= 1.0))
    rows;
  (* "our optimizations eliminate between 37% and 87% of the redundant
     loads" — require a substantial elimination somewhere *)
  let big_cut =
    List.exists
      (fun (r : E.Figure9.row) ->
        r.E.Figure9.before > 0.0
        && r.E.Figure9.after /. r.E.Figure9.before < 0.65)
      rows
  in
  Alcotest.(check bool) "a large share of redundancy is eliminated" true big_cut

let test_figure10_shapes () =
  let rows = E.Figure10.compute () in
  let total cat =
    List.fold_left
      (fun acc (r : E.Figure10.row) ->
        acc +. List.assoc cat r.E.Figure10.fractions)
      0.0 rows
  in
  (* "Encapsulation ... is the most significant source" *)
  List.iter
    (fun cat ->
      Alcotest.(check bool)
        ("encapsulation >= " ^ Sim.Classify.category_to_string cat)
        true
        (total Sim.Classify.Encapsulated >= total cat))
    [ Sim.Classify.Conditional; Sim.Classify.Breakup; Sim.Classify.Alias;
      Sim.Classify.Rest ];
  (* "we did not encounter a single situation when optimization failed due
     to inadequacies in our alias analysis" — alias failures must be a
     trace amount (< 2.5% of heap refs on average, like the paper's Rest
     bound) *)
  let n = float_of_int (List.length rows) in
  Alcotest.(check bool) "alias failures are negligible" true
    (total Sim.Classify.Alias /. n < 0.025)

let test_figure11_shapes () =
  let rows = E.Figure11.compute () in
  List.iter
    (fun (r : E.Figure11.row) ->
      (* the combination should roughly dominate each individual leg *)
      Alcotest.(check bool) (r.E.Figure11.name ^ ": both <= rle + slack") true
        (r.E.Figure11.both <= r.E.Figure11.rle +. 1.0);
      Alcotest.(check bool) (r.E.Figure11.name ^ ": values sane") true
        (r.E.Figure11.both > 50.0 && r.E.Figure11.both <= 115.0))
    rows

let test_figure12_shapes () =
  let rows = E.Figure12.compute () in
  List.iter
    (fun (r : E.Figure12.row) ->
      (* "the open-world assumption has an insignificant impact" — allow a
         few percent of drift, never an improvement beyond noise *)
      Alcotest.(check bool) (r.E.Figure12.name ^ ": open within 5% of closed") true
        (r.E.Figure12.opened >= r.E.Figure12.closed -. 0.01
        && r.E.Figure12.opened <= r.E.Figure12.closed +. 5.0))
    rows

let test_table4_shapes () =
  let rows = E.Table4.compute () in
  Alcotest.(check int) "ten rows" 10 (List.length rows);
  List.iter
    (fun (r : E.Table4.row) ->
      match r.E.Table4.instructions with
      | None ->
        Alcotest.(check bool) (r.E.Table4.name ^ " is interactive") true
          (r.E.Table4.name = "dom" || r.E.Table4.name = "postcard")
      | Some n ->
        Alcotest.(check bool) (r.E.Table4.name ^ ": nontrivial run") true
          (n > 100_000);
        let heap = Option.get r.E.Table4.heap_load_pct in
        Alcotest.(check bool) (r.E.Table4.name ^ ": heap share sane") true
          (heap > 1.0 && heap < 50.0))
    rows

let test_runner_outputs_agree () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      Harness.Runner.check_outputs_agree w
        [ Harness.Runner.rle_with Opt.Pass.Otype_decl;
          Harness.Runner.rle_with Opt.Pass.Osm_field_type_refs;
          { (Harness.Runner.rle_with Opt.Pass.Osm_field_type_refs) with
            Harness.Runner.world = Tbaa.World.Open };
          { Harness.Runner.base with
            Harness.Runner.passes =
              { Harness.Runner.base.Harness.Runner.passes with
                Opt.Pass_manager.Config.devirt_inline = true } } ])
    E.dynamic_seven

let test_runner_divergence_error () =
  (* The structured error must carry workload, config, and the first
     diverging line — actionable from a CI log alone. *)
  Alcotest.(check (option (triple int string string)))
    "equal outputs have no divergence" None
    (Harness.Runner.first_divergence "a\nb\n" "a\nb\n");
  Alcotest.(check (option (triple int string string)))
    "first differing line reported" (Some (2, "b", "X"))
    (Harness.Runner.first_divergence "a\nb\nc" "a\nX\nc");
  Alcotest.(check (option (triple int string string)))
    "truncated side reported" (Some (2, "b", "<end of output>"))
    (Harness.Runner.first_divergence "a\nb" "a");
  match
    Harness.Runner.divergence_error ~workload:"richards" ~config:"rle:decl"
      ~base_output:"tick 1\ntick 2\n" ~output:"tick 1\ntick 3\n"
  with
  | exception Support.Diag.Compile_error { message; _ } ->
    let contains needle =
      let nl = String.length needle and hl = String.length message in
      let rec go i =
        i + nl <= hl && (String.sub message i nl = needle || go (i + 1))
      in
      go 0
    in
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Printf.sprintf "error mentions %S" needle)
          true (contains needle))
      [ "richards"; "rle:decl"; "line 2"; "tick 2"; "tick 3" ]
  | _ -> Alcotest.fail "divergence_error did not raise"

let test_runner_audit_clean () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let c = Harness.Runner.rle_with Opt.Pass.Osm_field_type_refs in
      let r =
        Harness.Runner.audit ~label:"SMFieldTypeRefs"
          { c with
            Harness.Runner.passes =
              { c.Harness.Runner.passes with
                Opt.Pass_manager.Config.devirt_inline = true;
                copyprop = true } }
          (Workloads.Workload.lower w)
      in
      Alcotest.(check (list (pair string string)))
        (w.Workloads.Workload.name ^ ": no quarantined passes")
        [] r.Harness.Runner.ar_failures;
      Alcotest.(check (list string))
        (w.Workloads.Workload.name ^ ": no audit violations")
        []
        (List.map Sim.Audit.violation_to_string
           r.Harness.Runner.ar_violations))
    E.dynamic_seven

(* The fault-injected audit [make check] runs through the CLI: flipping
   5% of the oracle's answers on m3cg must produce a miscompile the
   auditor catches, and each violation names the ledger it came from. *)
let test_runner_audit_catches_faults () =
  let label = "SMFieldTypeRefs+fault-probe" in
  let r =
    Harness.Runner.audit
      ~fault:(Opt.Pass.fault ~seed:0xBAA ~rate:0.05 ())
      ~label
      { Harness.Runner.base with
        Harness.Runner.passes =
          { Opt.Pass_manager.Config.none with Opt.Pass_manager.Config.rle = true } }
      (Workloads.Workload.lower (Workloads.Suite.find "m3cg"))
  in
  let violations = r.Harness.Runner.ar_violations in
  Alcotest.(check bool) "at least one violation" true (violations <> []);
  List.iter
    (fun (v : Sim.Audit.violation) ->
      Alcotest.(check string) "violation carries the claims label" label
        v.Sim.Audit.vi_oracle)
    violations

(* Every table and figure [tbaac experiment all] prints — Tables 4-5,
   Figs. 8-10 and the rest — byte for byte: the simulator's counters,
   cycles and traced load streams all feed into this text. *)
let test_run_all_digest () =
  let buf = Buffer.create 65536 in
  let ppf = Format.formatter_of_buffer buf in
  E.run_all ppf;
  Format.pp_print_flush ppf ();
  Alcotest.(check string)
    "md5 of the experiments' output" "62001d4d05e7b864953e3df8c634e90b"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "harness"
    [ ( "static",
        [ Alcotest.test_case "table 4" `Slow test_table4_shapes;
          Alcotest.test_case "table 5" `Slow test_table5_shapes;
          Alcotest.test_case "table 6" `Slow test_table6_shapes ] );
      ( "dynamic",
        [ Alcotest.test_case "figure 8" `Slow test_figure8_shapes;
          Alcotest.test_case "figure 11" `Slow test_figure11_shapes;
          Alcotest.test_case "figure 12" `Slow test_figure12_shapes;
          Alcotest.test_case "outputs agree" `Slow test_runner_outputs_agree;
          Alcotest.test_case "divergence error is structured" `Quick
            test_runner_divergence_error;
          Alcotest.test_case "audited runs are clean" `Slow
            test_runner_audit_clean;
          Alcotest.test_case "fault-injected audit is caught" `Slow
            test_runner_audit_catches_faults ] );
      ( "limit",
        [ Alcotest.test_case "figure 9" `Slow test_figure9_shapes;
          Alcotest.test_case "figure 10" `Slow test_figure10_shapes ] );
      ( "all",
        [ Alcotest.test_case "experiment all digest" `Slow
            test_run_all_digest ] ) ]
