open Support
open Ir
open Tbaa

type summary = { mods : Aloc.Set.t; refs : Aloc.Set.t }

type t = {
  program : Cfg.program;
  lookup : Ident.t -> summary;
  kill_all : bool;
}

let empty = { mods = Aloc.Set.empty; refs = Aloc.Set.empty }

let of_effects (e : Effects.t) =
  { mods = e.Effects.e_mods; refs = e.Effects.e_refs }

let of_summaries ?(kill_all = false) program lookup =
  { program; lookup; kill_all }

let of_engine engine kind =
  let program = Engine.program engine in
  (* Build the engine's merged-effects table now, against the program as
     it stands: clients rewrite procedures while they consult the view,
     and the lazy build also mutates the engine, which must not happen
     under parallel readers. *)
  ignore (Engine.modref_merged engine kind program.Cfg.prog_main);
  of_summaries program (fun name ->
      of_effects (Engine.modref_merged engine kind name))

let conservative program = of_summaries ~kill_all:true program (fun _ -> empty)

let summary t name = t.lookup name

(* Resolves the possible callees' mod sets once; the returned predicate
   takes the expression's query paths (its base variable as a path followed
   by its prefixes). Path-outer so a memoizing oracle sees consecutive
   queries against the same path (it hashes each path once instead of once
   per class). *)
let call_effect_pred sets (oracle : Oracle.t) =
  fun paths ->
    List.exists
      (fun m ->
        List.exists
          (fun p ->
            List.exists (fun cls -> oracle.Oracle.class_kills cls p) m)
          paths)
      sets

(* The classes are materialized as sorted lists ([Set.elements]), not
   probed with [Set.exists]: [exists] visits the tree root first, so its
   short-circuit order depends on the set's construction history — two
   equal summaries built by different union sequences (incremental vs
   from-scratch merge) would issue different query streams and drift the
   oracle counters the differential suite compares. Element order makes
   the stream a function of the summary's value alone. *)
let callee_sets t target select =
  List.filter_map
    (fun callee ->
      let s = select (summary t callee) in
      if Aloc.Set.is_empty s then None else Some (Aloc.Set.elements s))
    (Callgraph.callees_of_target t.program target)

let call_kill_pred t (oracle : Oracle.t) target =
  if t.kill_all then fun _ -> true
  else call_effect_pred (callee_sets t target (fun s -> s.mods)) oracle

(* The read-side dual, for dead-store elimination: may some callee *read*
   any of the expression's cells? A location of class [cls] may be read
   where a location of class [cls] may be written, so the same
   class-vs-path overlap test ([class_kills]) answers both directions. *)
let call_ref_pred t (oracle : Oracle.t) target =
  if t.kill_all then fun _ -> true
  else call_effect_pred (callee_sets t target (fun s -> s.refs)) oracle
