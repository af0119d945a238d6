(* The full whole-program-optimizer pipeline on a real workload.

   Takes the k-tree benchmark from the built-in suite and walks the same
   steps the experiment harness uses: lower, analyze, devirtualize +
   inline, re-analyze, RLE, baseline local CSE — reporting what each pass
   did and how the simulated machine numbers move.

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
  let base = Workloads.Workload.lower w in
  ignore (Opt.Local_cse.run base);
  let base_out = Sim.Interp.run base in
  describe "base" base_out;

  (* Step 1: method invocation resolution + inlining. *)
  let program = Workloads.Workload.lower w in
  let pre = Tbaa.Engine.create program in
  let d =
    Opt.Devirt.run program ~type_refs:(Tbaa.Engine.type_refs_table pre)
  in
  let i = Opt.Inline.run program in
  Printf.printf "\ndevirt: %d resolved, %d left virtual; inlined %d sites\n"
    d.Opt.Devirt.resolved d.Opt.Devirt.unresolved i.Opt.Inline.inlined;

  (* Step 2: re-analyze the transformed program and run RLE. *)
  let engine = Tbaa.Engine.create program in
  let sm = Tbaa.Engine.Sm_field_type_refs in
  let stats =
    Opt.Rle.run ~modref:(Opt.Modref.of_engine engine sm) program
      (Tbaa.Engine.oracle engine sm)
  in
  Printf.printf "RLE: %d hoisted, %d eliminated, %d shortened\n\n"
    stats.Opt.Rle.hoisted stats.Opt.Rle.eliminated stats.Opt.Rle.shortened;

  (* Step 3: the GCC-like baseline runs over everything. *)
  ignore (Opt.Local_cse.run program);
  let opt_out = Sim.Interp.run program in
  describe "optimized" opt_out;

  Printf.printf "\nrunning time: %.1f%% of base; output unchanged: %b\n"
    (100.0
    *. float_of_int opt_out.Sim.Interp.cycles
    /. float_of_int base_out.Sim.Interp.cycles)
    (String.equal base_out.Sim.Interp.output opt_out.Sim.Interp.output)
