(* The full whole-program-optimizer pipeline on a real workload.

   Takes the k-tree benchmark from the built-in suite and walks the same
   steps the experiment harness uses: lower, devirtualize + inline, RLE,
   baseline local CSE — one pass-manager run per step over one context,
   whose engine re-analyzes incrementally in between — reporting what
   each pass did and how the simulated machine numbers move.

     dune exec examples/optimize_pipeline.exe *)

let describe label (o : Sim.Interp.outcome) =
  Printf.printf "%-24s %9d instrs  %8d heap loads  %9d cycles\n" label
    o.Sim.Interp.counters.Sim.Interp.instrs
    o.Sim.Interp.counters.Sim.Interp.heap_loads o.Sim.Interp.cycles

let () =
  let w = Workloads.Suite.find "ktree" in
  Printf.printf "workload: %s — %s (%d source lines)\n\n" w.Workloads.Workload.name
    w.Workloads.Workload.description
    (Workloads.Workload.source_lines w);

  (* Base: what GCC-with-standard-optimizations would see. *)
  let open Opt.Pass_manager in
  let base = Workloads.Workload.lower w in
  ignore (run (Opt.Pass.create ()) base [ Run Opt.Local_cse.pass ]);
  let base_out = Sim.Interp.run base in
  describe "base" base_out;

  (* Step 1: method invocation resolution + inlining. *)
  let program = Workloads.Workload.lower w in
  let ctx = Opt.Pass.create () in
  let r = run ctx program [ Run Opt.Devirt.pass; Run Opt.Inline.pass ] in
  Printf.printf "\ndevirt: %d resolved, %d left virtual; inlined %d sites\n"
    (sum_stat "devirt" "resolved" r) (sum_stat "devirt" "unresolved" r)
    (sum_stat "inline" "inlined" r);

  (* Step 2: RLE over the engine brought up to date with the transformed
     program. *)
  let r = run ctx program [ Run Opt.Rle.pass ] in
  Printf.printf "RLE: %d hoisted, %d eliminated, %d shortened\n\n"
    (sum_stat "rle" "hoisted" r) (sum_stat "rle" "eliminated" r)
    (sum_stat "rle" "shortened" r);

  (* Step 3: the GCC-like baseline runs over everything. *)
  ignore (run ctx program [ Run Opt.Local_cse.pass ]);
  let opt_out = Sim.Interp.run program in
  describe "optimized" opt_out;

  Printf.printf "\nrunning time: %.1f%% of base; output unchanged: %b\n"
    (100.0
    *. float_of_int opt_out.Sim.Interp.cycles
    /. float_of_int base_out.Sim.Interp.cycles)
    (String.equal base_out.Sim.Interp.output opt_out.Sim.Interp.output)
