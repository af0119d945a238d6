(* The benchmark executable.

   Part 1 regenerates every table and figure of the paper's evaluation
   (Tables 4-6, Figures 8-12) plus the ablations — this is the output
   EXPERIMENTS.md records.

   Part 2 measures the cost of the machinery itself with Bechamel: one
   Test.make per table/figure exercising the analysis or optimization that
   produces it, plus the ABL4 scaling series backing the paper's O(n)
   complexity claim for selective type merging (§2.5). *)

open Bechamel
open Toolkit

(* ------------------------------------------------------------------ *)
(* Part 2 subjects                                                     *)
(* ------------------------------------------------------------------ *)

let workload name = Workloads.Suite.find name
let lowered name = Workloads.Workload.lower (workload name)

let tests =
  [ (* Table 4 is interpreter-bound: one simulated run. *)
    Test.make ~name:"table4:simulate-slisp"
      (Staged.stage (fun () -> Sim.Interp.run (lowered "slisp")));
    (* Table 5: the static alias-pair metric on the largest program. *)
    Test.make ~name:"table5:alias-pairs-m3cg"
      (let program = lowered "m3cg" in
       let e = Tbaa.Engine.create program in
       Staged.stage (fun () ->
           Tbaa.Alias_pairs.count
             (Tbaa.Engine.oracle e Tbaa.Engine.Sm_field_type_refs)
             (Tbaa.Engine.facts e)));
    (* Table 6 / Figure 8: the optimizer itself. *)
    Test.make ~name:"table6:rle-m3cg"
      (Staged.stage (fun () ->
           Opt.Pass_manager.run (Opt.Pass.create ()) (lowered "m3cg")
             [ Opt.Pass_manager.Run Opt.Rle.pass ]));
    Test.make ~name:"fig8:prepare-format"
      (Staged.stage (fun () ->
           Harness.Runner.optimize
             (Harness.Runner.rle_with Opt.Pass.Osm_field_type_refs)
             (lowered "format")));
    (* Figures 9-10: the traced (limit-study) run. *)
    Test.make ~name:"fig9:traced-run-write_pickle"
      (Staged.stage (fun () ->
           let program = lowered "write_pickle" in
           let tracer = Sim.Limit.create () in
           Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program));
    (* Figure 11: devirtualization + inlining. *)
    Test.make ~name:"fig11:devirt-inline-ktree"
      (Staged.stage (fun () ->
           let program = lowered "ktree" in
           let e = Tbaa.Engine.create program in
           let _ =
             Opt.Devirt.run program ~type_refs:(Tbaa.Engine.type_refs_table e)
           in
           Opt.Inline.run program));
    (* Figure 12: the open-world analysis. *)
    Test.make ~name:"fig12:analyze-open-m3cg"
      (let program = lowered "m3cg" in
       let config =
         { Tbaa.Engine.default_config with Tbaa.Engine.world = Tbaa.World.Open }
       in
       Staged.stage (fun () -> Tbaa.Engine.create ~config program));
    (* ABL1: the two merge formulations (paper footnote 2). *)
    Test.make ~name:"abl1:merge-grouped-m3cg"
      (let facts = Reference.facts (lowered "m3cg") in
       Staged.stage (fun () ->
           Tbaa.Sm_type_refs.build ~variant:Tbaa.Sm_type_refs.Grouped ~facts
             ~world:Tbaa.World.Closed ()));
    Test.make ~name:"abl1:merge-per-type-m3cg"
      (let facts = Reference.facts (lowered "m3cg") in
       Staged.stage (fun () ->
           Tbaa.Sm_type_refs.build ~variant:Tbaa.Sm_type_refs.Per_type ~facts
             ~world:Tbaa.World.Closed ())) ]
  @ (* ABL4: facts collection + merging over the growing type-axis corpus
       — time per size should grow roughly linearly (the §2.5 claim). *)
  List.map
    (fun n ->
      let program = Ir.Lower.lower_string ~file:"scale" (Gen.Scale.type_chain n) in
      Test.make ~name:(Printf.sprintf "abl4:analyze-n%d" n)
        (Staged.stage (fun () -> Tbaa.Engine.create program)))
    [ 25; 50; 100; 200 ]

(* ------------------------------------------------------------------ *)

let run_bechamel () =
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:1000 ~quota:(Time.second 0.5) ~kde:(Some 500) ()
  in
  Printf.printf "%-34s %14s %10s\n" "benchmark" "ns/run" "r^2";
  print_endline (String.make 60 '-');
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let estimate =
            match Analyze.OLS.estimates ols_result with
            | Some [ e ] -> e
            | _ -> nan
          in
          let r2 =
            match Analyze.OLS.r_square ols_result with Some r -> r | None -> nan
          in
          Printf.printf "%-34s %14.0f %10.4f\n%!" name estimate r2)
        analyzed)
    tests

let () =
  (* Part 1: regenerate every table and figure. *)
  Harness.Experiments.run_all Format.std_formatter;
  (* Part 2: time the machinery. *)
  print_endline "\n=== Bechamel micro-benchmarks (one per table/figure) ===\n";
  run_bechamel ()
