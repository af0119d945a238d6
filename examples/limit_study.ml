(* The limit study (paper §3.5) on one program, step by step.

   Runs slisp under the ATOM-style tracer before and after TBAA+RLE,
   prints the redundancy fractions (one row of Figure 9), classifies
   what remains (one row of Figure 10), and names the top offending
   static sites — the kind of digging the authors did by hand to produce
   their Encapsulation/Conditional/Breakup taxonomy.

     dune exec examples/limit_study.exe *)

(* Optimize (or not) through the pass manager, keeping the oracle of the
   program as written: the classifier reads residual loads through it, as
   in the paper. *)
let trace ~optimize w =
  let program = Workloads.Workload.lower w in
  let ctx = Opt.Pass.create () in
  let oracle =
    Tbaa.Engine.cached (Opt.Pass.analysis ctx program)
      Tbaa.Engine.Sm_field_type_refs
  in
  ignore
    (Opt.Pass_manager.run ctx program
       (Opt.Pass_manager.schedule
          { Opt.Pass_manager.Config.none with
            Opt.Pass_manager.Config.rle = optimize; local_cse = true }));
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  (ctx, program, oracle, tracer)

let describe_site (s : Sim.Interp.site) =
  let where =
    Printf.sprintf "%s B%d#%d"
      (Support.Ident.name s.Sim.Interp.site_proc)
      s.Sim.Interp.site_block s.Sim.Interp.site_index
  in
  match s.Sim.Interp.site_kind with
  | Sim.Interp.Sexplicit (ap, k) ->
    Printf.sprintf "%-22s load %s (prefix %d)" where (Ir.Apath.to_string ap) k
  | Sim.Interp.Sdope ap ->
    Printf.sprintf "%-22s dope of %s" where (Ir.Apath.to_string ap)
  | Sim.Interp.Snumber -> Printf.sprintf "%-22s NUMBER dope" where
  | Sim.Interp.Sdispatch -> Printf.sprintf "%-22s dispatch header" where

let () =
  let w = Workloads.Suite.find "slisp" in
  Printf.printf "limit study: %s\n\n" w.Workloads.Workload.name;

  let _, _, _, before = trace ~optimize:false w in
  let ctx, program, oracle, after = trace ~optimize:true w in
  let original = float_of_int (Sim.Limit.total_heap_loads before) in

  Printf.printf "heap loads (original run):   %d\n"
    (Sim.Limit.total_heap_loads before);
  Printf.printf "dynamically redundant:       %d (%.1f%%)\n"
    (Sim.Limit.total_redundant before)
    (100.0 *. float_of_int (Sim.Limit.total_redundant before) /. original);
  Printf.printf "redundant after TBAA+RLE:    %d (%.1f%% of original)\n\n"
    (Sim.Limit.total_redundant after)
    (100.0 *. float_of_int (Sim.Limit.total_redundant after) /. original);

  (* Classify the residual (one row of Figure 10). *)
  let modref = Opt.Pass.modref ctx program in
  let breakdown = Sim.Classify.classify program oracle modref after in
  print_endline "residual classification:";
  List.iter
    (fun (cat, n) ->
      Printf.printf "  %-14s %6d  (%.3f of original heap loads)\n"
        (Sim.Classify.category_to_string cat)
        n
        (float_of_int n /. original))
    breakdown;

  (* The hottest residual sites. *)
  print_endline "\ntop redundant sites after optimization:";
  let sites =
    List.sort
      (fun (a : Sim.Limit.site_stat) b ->
        compare b.Sim.Limit.ss_redundant a.Sim.Limit.ss_redundant)
      (Sim.Limit.sites after)
  in
  List.iteri
    (fun i (s : Sim.Limit.site_stat) ->
      if i < 6 && s.Sim.Limit.ss_redundant > 0 then
        Printf.printf "  %6d/%6d  %s\n" s.Sim.Limit.ss_redundant
          s.Sim.Limit.ss_loads
          (describe_site s.Sim.Limit.ss_site))
    sites
