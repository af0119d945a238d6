(* Baselines production code is checked against, shared by the tests and
   the benchmarks. The incremental engine collects facts per procedure and
   answers the whole-program questions from the call-graph SCC
   condensation and its per-procedure summaries; these are the monolithic
   pass and the direct fixpoint and closure formulations. The oracles'
   subtype test reads an interval-labeled forest; the baseline walks the
   supertype chain per query. The optimizer's kill sets come from an index
   over the tracked expressions; the baseline asks the per-expression kill
   test of every expression. *)

open Support
open Minim3
open Ir

(* The whole-program facts pass: every procedure's contribution, merged in
   program order. *)
let facts program =
  let find = Tbaa.Facts.index program in
  Tbaa.Facts.merge program.Cfg.tenv
    (List.map (Tbaa.Facts.collect_proc program ~find) program.Cfg.prog_procs)

(* TypeDecl's Subtypes-intersection test by chain walking: MiniM3
   subtyping is a forest, so two subtype sets intersect exactly when one
   type is an ancestor of the other. NIL is compatible with nothing. *)
let subtyping env t1 t2 =
  t1 <> Types.tid_null && t2 <> Types.tid_null
  && (Types.subtype env t1 t2 || Types.subtype env t2 t1)

(* For each procedure, every procedure reachable from it (including itself
   if recursive), by iterating set unions to a fixpoint. *)
let transitive_closure program =
  let closure = Hashtbl.create 32 in
  List.iter
    (fun proc ->
      Hashtbl.replace closure proc.Cfg.pr_name (Callgraph.callees program proc))
    program.Cfg.prog_procs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun proc ->
        let name = proc.Cfg.pr_name in
        let cur = Hashtbl.find closure name in
        let expanded =
          Ident.Set.fold
            (fun callee acc ->
              match Hashtbl.find_opt closure callee with
              | Some s -> Ident.Set.union acc s
              | None -> acc)
            cur cur
        in
        if not (Ident.Set.equal expanded cur) then begin
          Hashtbl.replace closure name expanded;
          changed := true
        end)
      program.Cfg.prog_procs
  done;
  closure

let empty = { Opt.Modref.mods = Tbaa.Aloc.Set.empty; refs = Tbaa.Aloc.Set.empty }

(* Mod-ref by one direct-effects pass per procedure, merged over the
   transitive closure. Effects come from the oracle's raw
   store_class/addr_taken_var, as in the engine. *)
let modref program (oracle : Tbaa.Oracle.t) =
  let closure = transitive_closure program in
  let direct = Hashtbl.create 32 in
  List.iter
    (fun proc ->
      Hashtbl.replace direct proc.Cfg.pr_name
        (Tbaa.Effects.direct ~store_class:oracle.Tbaa.Oracle.store_class
           ~addr_taken_var:oracle.Tbaa.Oracle.addr_taken_var proc))
    program.Cfg.prog_procs;
  let summaries = Hashtbl.create 32 in
  List.iter
    (fun proc ->
      let name = proc.Cfg.pr_name in
      let reach =
        Ident.Set.add name
          (Option.value (Hashtbl.find_opt closure name) ~default:Ident.Set.empty)
      in
      let merged =
        Ident.Set.fold
          (fun callee (acc : Opt.Modref.summary) ->
            match Hashtbl.find_opt direct callee with
            | Some (e : Tbaa.Effects.t) ->
              { Opt.Modref.mods = Tbaa.Aloc.Set.union acc.mods e.e_mods;
                refs = Tbaa.Aloc.Set.union acc.refs e.e_refs }
            | None -> acc)
          reach empty
      in
      Hashtbl.replace summaries name merged)
    program.Cfg.prog_procs;
  Opt.Modref.of_summaries program (fun name ->
      Option.value (Hashtbl.find_opt summaries name) ~default:empty)

(* The kill set of one instruction over [exprs]: bit [i] iff the instruction
   may change expression [i], with the instruction-side data resolved
   afresh for every expression. *)
let kill_set ?claims oracle modref exprs instr =
  let s = Bitset.create (Array.length exprs) in
  Array.iteri
    (fun i ap ->
      if Opt.Rle.kill_pred ?claims oracle modref instr (Opt.Rle.query_paths ap)
      then Bitset.add s i)
    exprs;
  s
