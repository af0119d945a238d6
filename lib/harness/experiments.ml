open Support
open Workloads

let dynamic_seven =
  List.filter (fun (w : Workload.t) -> w.Workload.name <> "pp") Suite.dynamic

let dynamic_eight = Suite.dynamic

let pct x = Printf.sprintf "%.1f" x

(* ------------------------------------------------------------------ *)

module Table4 = struct
  type row = {
    name : string;
    lines : int;
    instructions : int option;
    heap_load_pct : float option;
    other_load_pct : float option;
  }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        if w.Workload.dynamic then begin
          let o = Runner.run w Runner.base in
          let c = o.Sim.Interp.counters in
          (* Machine instructions ≈ IR steps + one per memory access. *)
          let instrs =
            c.Sim.Interp.instrs + c.Sim.Interp.heap_loads
            + c.Sim.Interp.other_loads + c.Sim.Interp.stores
          in
          { name = w.Workload.name; lines = Workload.source_lines w;
            instructions = Some instrs;
            heap_load_pct =
              Some (100.0 *. float_of_int c.Sim.Interp.heap_loads /. float_of_int instrs);
            other_load_pct =
              Some (100.0 *. float_of_int c.Sim.Interp.other_loads /. float_of_int instrs) }
        end
        else
          { name = w.Workload.name; lines = Workload.source_lines w;
            instructions = None; heap_load_pct = None; other_load_pct = None })
      Suite.all

  let render () =
    let t =
      Table.create
        ~headers:[ "Program"; "Lines"; "Instructions"; "% Heap loads"; "% Other loads" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ r.name; string_of_int r.lines;
            (match r.instructions with Some n -> string_of_int n | None -> "-");
            (match r.heap_load_pct with Some p -> pct p | None -> "-");
            (match r.other_load_pct with Some p -> pct p | None -> "-") ])
      (compute ());
    "Table 4: Description of Benchmark Programs\n" ^ Table.render t
end

(* ------------------------------------------------------------------ *)

module Table5 = struct
  type row = {
    name : string;
    references : int;
    td : Tbaa.Alias_pairs.counts;
    ftd : Tbaa.Alias_pairs.counts;
    sm : Tbaa.Alias_pairs.counts;
  }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        (* A fresh analysis of the *unoptimized* program: the static
           metrics are measured on the program as written. *)
        let e = Tbaa.Engine.create (Workload.lower w) in
        let count k =
          Tbaa.Alias_pairs.count (Tbaa.Engine.oracle e k) (Tbaa.Engine.facts e)
        in
        let td = count Tbaa.Engine.Type_decl in
        { name = w.Workload.name; references = td.Tbaa.Alias_pairs.references;
          td; ftd = count Tbaa.Engine.Field_type_decl;
          sm = count Tbaa.Engine.Sm_field_type_refs })
      Suite.all

  let render () =
    let t =
      Table.create
        ~headers:
          [ "Program"; "References"; "TD L"; "TD G"; "FTD L"; "FTD G";
            "SMFTR L"; "SMFTR G" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ r.name; string_of_int r.references;
            string_of_int r.td.Tbaa.Alias_pairs.local_pairs;
            string_of_int r.td.Tbaa.Alias_pairs.global_pairs;
            string_of_int r.ftd.Tbaa.Alias_pairs.local_pairs;
            string_of_int r.ftd.Tbaa.Alias_pairs.global_pairs;
            string_of_int r.sm.Tbaa.Alias_pairs.local_pairs;
            string_of_int r.sm.Tbaa.Alias_pairs.global_pairs ])
      (compute ());
    "Table 5: Alias Pairs (TypeDecl / FieldTypeDecl / SMFieldTypeRefs)\n"
    ^ Table.render t
end

(* ------------------------------------------------------------------ *)

let rle_removed ?(pass = Opt.Rle.pass) w kind =
  let program = Workload.lower w in
  let ctx = Opt.Pass.create ~oracle_kind:kind () in
  Opt.Rle.removed
    (Opt.Pass_manager.run ctx program [ Opt.Pass_manager.Run pass ])

module Table6 = struct
  type row = { name : string; td : int; ftd : int; sm : int }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        { name = w.Workload.name;
          td = rle_removed w Opt.Pass.Otype_decl;
          ftd = rle_removed w Opt.Pass.Ofield_type_decl;
          sm = rle_removed w Opt.Pass.Osm_field_type_refs })
      dynamic_seven

  let render () =
    let t =
      Table.create ~headers:[ "Program"; "TypeDecl"; "FieldTypeDecl"; "SMFieldTypeRefs" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ r.name; string_of_int r.td; string_of_int r.ftd; string_of_int r.sm ])
      (compute ());
    "Table 6: Number of Redundant Loads Removed Statically\n" ^ Table.render t
end

(* ------------------------------------------------------------------ *)

module Figure8 = struct
  type row = { name : string; td : float; ftd : float; sm : float }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        { name = w.Workload.name;
          td = Runner.percent_of_base w (Runner.rle_with Opt.Pass.Otype_decl);
          ftd = Runner.percent_of_base w (Runner.rle_with Opt.Pass.Ofield_type_decl);
          sm = Runner.percent_of_base w (Runner.rle_with Opt.Pass.Osm_field_type_refs) })
      dynamic_seven

  let render () =
    let t =
      Table.create
        ~headers:
          [ "Program"; "Base"; "Types only"; "Types and fields";
            "Types, fields, and merges" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ r.name; "100.0"; pct r.td; pct r.ftd; pct r.sm ])
      (compute ());
    "Figure 8: Impact of RLE (percent of original running time)\n"
    ^ Table.render t
end

(* ------------------------------------------------------------------ *)

(* Run a workload with the limit tracer attached; [optimize] applies
   SMFieldTypeRefs RLE (plus the GCC-like local baseline, as always);
   [future_work] adds the PRE + copy-propagation extension passes. *)
let traced_run ?(future_work = false) w ~optimize =
  let program = Workload.lower w in
  let ctx = Opt.Pass.create () in
  (* Capture the pre-optimization oracle: classification (Figure 10) reads
     residual loads of the optimized program through the alias relation of
     the program as written, as in the paper. The cached handle closes
     over that analysis, so it stays valid across the engine's updates. *)
  let oracle =
    Tbaa.Engine.cached (Opt.Pass.analysis ctx program)
      (Opt.Pass.engine_kind ctx.Opt.Pass.oracle_kind)
  in
  let schedule =
    let base = Runner.base.Runner.passes in
    Opt.Pass_manager.schedule
      (if optimize then
         { base with
           Opt.Pass_manager.Config.rle = true; pre = future_work;
           copyprop = future_work }
       else base)
  in
  ignore (Opt.Pass_manager.run ctx program schedule);
  let tracer = Sim.Limit.create () in
  let outcome = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  (ctx, program, oracle, tracer, outcome)

module Figure9 = struct
  type row = { name : string; before : float; after : float }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        let _, _, _, t0, _ = traced_run w ~optimize:false in
        let _, _, _, t1, _ = traced_run w ~optimize:true in
        let original = float_of_int (Sim.Limit.total_heap_loads t0) in
        { name = w.Workload.name;
          before = float_of_int (Sim.Limit.total_redundant t0) /. original;
          after = float_of_int (Sim.Limit.total_redundant t1) /. original })
      dynamic_eight

  let render () =
    let t =
      Table.create
        ~headers:[ "Program"; "Redundant originally"; "Redundant after opts" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ r.name; Printf.sprintf "%.3f" r.before; Printf.sprintf "%.3f" r.after ])
      (compute ());
    "Figure 9: Comparing TBAA to an Upper Bound "
    ^ "(fraction of original heap references)\n" ^ Table.render t
end

module Figure10 = struct
  type row = { name : string; fractions : (Sim.Classify.category * float) list }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        let _, _, _, t0, _ = traced_run w ~optimize:false in
        let ctx, program, oracle, t1, _ = traced_run w ~optimize:true in
        let original = float_of_int (Sim.Limit.total_heap_loads t0) in
        (* mod-ref of the optimized program, from the context's engine *)
        let modref = Opt.Pass.modref ctx program in
        let breakdown = Sim.Classify.classify program oracle modref t1 in
        { name = w.Workload.name;
          fractions =
            List.map (fun (c, n) -> (c, float_of_int n /. original)) breakdown })
      dynamic_eight

  let render () =
    let t =
      Table.create
        ~headers:
          ("Program"
          :: List.map Sim.Classify.category_to_string Sim.Classify.all_categories)
    in
    List.iter
      (fun r ->
        Table.add_row t
          (r.name
          :: List.map (fun (_, f) -> Printf.sprintf "%.3f" f) r.fractions))
      (compute ());
    "Figure 10: Source of Redundant Loads after Optimizations "
    ^ "(fraction of original heap references)\n" ^ Table.render t
end

(* ------------------------------------------------------------------ *)

module Figure11 = struct
  type row = { name : string; rle : float; minv : float; both : float }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        let with_minv (c : Runner.config) =
          { c with
            Runner.passes =
              { c.Runner.passes with Opt.Pass_manager.Config.devirt_inline = true } }
        in
        let rle = Runner.rle_with Opt.Pass.Osm_field_type_refs in
        let minv = with_minv Runner.base in
        let both = with_minv rle in
        { name = w.Workload.name;
          rle = Runner.percent_of_base w rle;
          minv = Runner.percent_of_base w minv;
          both = Runner.percent_of_base w both })
      dynamic_seven

  let render () =
    let t =
      Table.create
        ~headers:[ "Program"; "Base"; "RLE"; "Minv+Inlining"; "RLE+Minv+Inlining" ]
    in
    List.iter
      (fun r ->
        Table.add_row t [ r.name; "100.0"; pct r.rle; pct r.minv; pct r.both ])
      (compute ());
    "Figure 11: Cumulative Impact of Optimizations (percent of running time)\n"
    ^ Table.render t
end

module Figure12 = struct
  type row = { name : string; closed : float; opened : float }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        let rle = Runner.rle_with Opt.Pass.Osm_field_type_refs in
        let opened = { rle with Runner.world = Tbaa.World.Open } in
        { name = w.Workload.name;
          closed = Runner.percent_of_base w rle;
          opened = Runner.percent_of_base w opened })
      dynamic_seven

  let render () =
    let t = Table.create ~headers:[ "Program"; "RLE"; "RLE Open" ] in
    List.iter
      (fun r -> Table.add_row t [ r.name; pct r.closed; pct r.opened ])
      (compute ());
    "Figure 12: Open and Closed World Assumptions (percent of running time)\n"
    ^ Table.render t
end

(* ------------------------------------------------------------------ *)

module Ablation_merge = struct
  type row = {
    name : string;
    grouped_local : int;
    per_type_local : int;
    grouped_global : int;
    per_type_global : int;
  }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        let program = Workload.lower w in
        let count variant =
          let engine =
            Tbaa.Engine.create
              ~config:{ Tbaa.Engine.world = Tbaa.World.Closed; variant }
              program
          in
          Tbaa.Alias_pairs.count
            (Tbaa.Engine.oracle engine Tbaa.Engine.Sm_field_type_refs)
            (Tbaa.Engine.facts engine)
        in
        let g = count Tbaa.Sm_type_refs.Grouped in
        let p = count Tbaa.Sm_type_refs.Per_type in
        { name = w.Workload.name;
          grouped_local = g.Tbaa.Alias_pairs.local_pairs;
          per_type_local = p.Tbaa.Alias_pairs.local_pairs;
          grouped_global = g.Tbaa.Alias_pairs.global_pairs;
          per_type_global = p.Tbaa.Alias_pairs.global_pairs })
      Suite.all

  let render () =
    let t =
      Table.create
        ~headers:
          [ "Program"; "Grouped L"; "Per-type L"; "Grouped G"; "Per-type G" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ r.name; string_of_int r.grouped_local; string_of_int r.per_type_local;
            string_of_int r.grouped_global; string_of_int r.per_type_global ])
      (compute ());
    "ABL1: Grouped vs per-type selective merging (alias pairs)\n"
    ^ Table.render t
end

module Ablation_modref = struct
  type row = { name : string; with_modref : int; without_modref : int }

  (* RLE's own per-procedure body, with every call killing every
     expression instead of the engine's mod-ref view. *)
  let calls_kill_all =
    match Opt.Rle.pass.Opt.Pass.scope with
    | Opt.Pass.Per_procedure body ->
      { Opt.Rle.pass with
        Opt.Pass.scope =
          Opt.Pass.Per_procedure
            (fun pc proc ->
              body
                { pc with
                  Opt.Pass.pc_modref =
                    Opt.Modref.conservative pc.Opt.Pass.pc_program }
                proc) }
    | Opt.Pass.Whole_program _ | Opt.Pass.Analysis_free _ ->
      invalid_arg "Ablation_modref: RLE is not a per-procedure pass"

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        let with_m = rle_removed w Opt.Pass.Osm_field_type_refs in
        let without =
          rle_removed ~pass:calls_kill_all w Opt.Pass.Osm_field_type_refs
        in
        { name = w.Workload.name; with_modref = with_m; without_modref = without })
      dynamic_seven

  let render () =
    let t =
      Table.create ~headers:[ "Program"; "With mod-ref"; "Calls kill all" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ r.name; string_of_int r.with_modref; string_of_int r.without_modref ])
      (compute ());
    "ABL3: RLE with vs without interprocedural mod-ref (loads removed)\n"
    ^ Table.render t
end

(* Extension: the paper's future work (PRE + copy propagation) applied on
   top of TBAA+RLE — how much of the Conditional and Breakup residual do
   they recover? *)
module Extension_future_work = struct
  type row = {
    name : string;
    rle_after : float;  (* residual redundancy fraction, RLE only *)
    ext_after : float;  (* ... with PRE + copy propagation *)
    rle_cycles : int;
    ext_cycles : int;
  }

  let compute () =
    List.map
      (fun (w : Workload.t) ->
        let _, _, _, t0, _ = traced_run w ~optimize:false in
        let original = float_of_int (Sim.Limit.total_heap_loads t0) in
        let _, _, _, t1, o1 = traced_run w ~optimize:true in
        let _, _, _, t2, o2 = traced_run ~future_work:true w ~optimize:true in
        { name = w.Workload.name;
          rle_after = float_of_int (Sim.Limit.total_redundant t1) /. original;
          ext_after = float_of_int (Sim.Limit.total_redundant t2) /. original;
          rle_cycles = o1.Sim.Interp.cycles;
          ext_cycles = o2.Sim.Interp.cycles })
      dynamic_eight

  let render () =
    let t =
      Table.create
        ~headers:
          [ "Program"; "Residual (RLE)"; "Residual (+PRE+CP)"; "Cycles delta %" ]
    in
    List.iter
      (fun r ->
        Table.add_row t
          [ r.name; Printf.sprintf "%.3f" r.rle_after;
            Printf.sprintf "%.3f" r.ext_after;
            Printf.sprintf "%+.1f"
              (100.0
              *. (float_of_int r.ext_cycles /. float_of_int r.rle_cycles -. 1.0)) ])
      (compute ());
    "EXT: Paper's future work — PRE + copy propagation on top of TBAA+RLE\n"
    ^ Table.render t
end

let run_all ppf =
  let sections =
    [ Table4.render; Table5.render; Table6.render; Figure8.render;
      Figure9.render; Figure10.render; Figure11.render; Figure12.render;
      Ablation_merge.render; Ablation_modref.render;
      Extension_future_work.render ]
  in
  List.iter (fun render -> Format.fprintf ppf "%s@.@." (render ())) sections
