open Support
open Minim3

type kind = Type_decl | Field_type_decl | Sm_field_type_refs

let kind_name = function
  | Type_decl -> "TypeDecl"
  | Field_type_decl -> "FieldTypeDecl"
  | Sm_field_type_refs -> "SMFieldTypeRefs"

type config = { world : World.t; variant : Sm_type_refs.variant }

let default_config = { world = World.Closed; variant = Sm_type_refs.Grouped }

type timings = {
  facts_ms : float;
  type_decl_ms : float;
  field_type_decl_ms : float;
  sm_ms : float;
}

type update_report = {
  ur_recomputed : Ident.t list;  (* sorted *)
  ur_oracles_rebuilt : bool;
  ur_callgraph_rebuilt : bool;
}

type incr_stats = {
  mutable updates : int;
  mutable summaries_reused : int;
  mutable summaries_recomputed : int;
  mutable effects_reused : int;
  mutable effects_recomputed : int;
  mutable merges_reused : int;
  mutable merges_recomputed : int;
  mutable oracles_rebuilt : int;
  mutable last_report : update_report option;
}

let fresh_incr () =
  { updates = 0; summaries_reused = 0; summaries_recomputed = 0;
    effects_reused = 0; effects_recomputed = 0; merges_reused = 0;
    merges_recomputed = 0; oracles_rebuilt = 0; last_report = None }

(* Per-oracle-kind mod-ref state: each procedure's direct effects and its
   merged (transitively closed) view, plus the condensation both were
   computed against. Materialized lazily on first demand for a kind and
   maintained incrementally by [update]. *)
type effects_state = {
  ef_direct : Effects.t Ident.Tbl.t;
  ef_merged : Effects.t Ident.Tbl.t;
  ef_cond : Ir.Callgraph.condensation;
}

type t = {
  config : config;
  domains : int;
  mutable program : Ir.Cfg.program;
  mutable proc_list : Ir.Cfg.proc list;  (* the [prog_procs] analyzed *)
  mutable procs : Ir.Cfg.proc array;  (* [proc_list] *)
  mutable proc_names : Ident.t list;  (* program order, duplicates kept *)
  mutable fingerprints : int array;
      (* by position in [proc_names]; this engine's own, patched in place *)
  mutable summaries : Summary.t Ident.Tbl.t;
  mutable cond : Ir.Callgraph.condensation;
  mutable callers : Ident.t list Ident.Tbl.t option;
      (* callee -> callers over [summaries], built on demand per [cond] *)
  mutable facts : (Facts.t * float) Lazy.t;
      (* the merged facts and the merge's milliseconds, merged on first
         read: an update's clients (the pass manager's engines, the
         session's gate) mostly read only the oracles and effects *)
  mutable type_decl : Oracle.t;
  mutable field_type_decl : Oracle.t;
  mutable sm_field_type_refs : Oracle.t;
  mutable sm : Sm_type_refs.t;
  mutable timings : timings;
  counters : Oracle_cache.counters;  (* shared across the counted handles *)
  mutable effects : (kind * effects_state) list;
  incr : incr_stats;
}

(* Elapsed milliseconds on the monotonic clock: with several domains,
   process CPU time would sum every domain's share. *)
let timed f =
  let t0 = Clock.now_ms () in
  let r = f () in
  (r, Clock.now_ms () -. t0)

(* Run [f] on every index, results into pre-allocated slots. [f] must be
   pure (Summary.compute / Effects.direct are: they intern nothing). *)
let par_map ~domains arr f =
  let n = Array.length arr in
  let slots = Array.make n None in
  Domain_pool.run ~domains n (fun i -> slots.(i) <- Some (f arr.(i)));
  Array.map
    (function Some x -> x | None -> invalid_arg "Engine.par_map")
    slots

let condense_summaries proc_names summaries =
  Ir.Callgraph.condense ~nodes:proc_names
    ~callees:(fun n ->
      match Ident.Tbl.find_opt summaries n with
      | Some s -> s.Summary.sp_callees
      | None -> Ident.Set.empty)

let summaries_table sums =
  let tbl = Ident.Tbl.create (max 16 (Array.length sums)) in
  Array.iter
    (fun s ->
      if not (Ident.Tbl.mem tbl s.Summary.sp_name) then
        Ident.Tbl.add tbl s.Summary.sp_name s)
    sums;
  tbl

(* The paper's three oracles over one set of merged facts. TypeDecl and
   FieldTypeDecl run on the subtype forest; SMFieldTypeRefs runs the
   FieldTypeDecl case analysis over the TypeRefsTable of the one
   [Sm_type_refs.t] built here (kept for [type_refs_table]). *)
let build_oracles config facts =
  let world = config.world in
  let env = facts.Facts.tenv in
  let make name core ~fields : Oracle.t =
    let compat = Compat.fn core in
    let at = Address_taken.make ~facts ~world ~compat in
    { Oracle.name;
      compat;
      may_alias =
        (if fields then
           Field_type_decl.may_alias_with ~compat ~at
             ~is_obj:(Types.is_object env)
         else Type_decl.may_alias_with ~compat);
      store_class = Kills.store_class;
      class_kills = Kills.class_kills ~compat ~at;
      addr_taken_var = Address_taken.var_taken at;
      stats = Oracle.raw_stats ~name }
  in
  let type_decl, type_decl_ms =
    timed (fun () -> make "TypeDecl" (Compat.subtyping env) ~fields:false)
  in
  let field_type_decl, field_type_decl_ms =
    timed (fun () -> make "FieldTypeDecl" (Compat.subtyping env) ~fields:true)
  in
  let (sm, sm_field_type_refs), sm_ms =
    timed (fun () ->
        let sm = Sm_type_refs.build ~variant:config.variant ~facts ~world () in
        let name =
          match config.variant with
          | Sm_type_refs.Grouped -> "SMFieldTypeRefs"
          | Sm_type_refs.Per_type -> "SMFieldTypeRefs(per-type)"
        in
        (sm, make name (Sm_type_refs.compat sm) ~fields:true))
  in
  (type_decl, field_type_decl, sm_field_type_refs, sm,
   type_decl_ms, field_type_decl_ms, sm_ms)

(* Summaries in parallel (slot-per-procedure), then the deterministic
   sequential merge in program order — byte-identical to the monolithic
   whole-program pass. *)
let summarize ~domains program procs =
  let sums =
    par_map ~domains procs (fun p ->
        Summary.compute program p ~fingerprint:(Ir.Fingerprint.proc p))
  in
  let facts =
    Facts.merge program.Ir.Cfg.tenv
      (Array.to_list (Array.map (fun s -> s.Summary.sp_contrib) sums))
  in
  (sums, facts)

(* The whole analysis of [program] from scratch — summaries, facts, the
   condensed call graph and the three oracles — with fresh counters and
   statistics. *)
let build config ~domains program =
  let procs = Array.of_list program.Ir.Cfg.prog_procs in
  let (sums, facts), facts_ms =
    timed (fun () -> summarize ~domains program procs)
  in
  let summaries = summaries_table sums in
  let proc_names =
    List.map (fun p -> p.Ir.Cfg.pr_name) program.Ir.Cfg.prog_procs
  in
  let cond = condense_summaries proc_names summaries in
  let type_decl, field_type_decl, sm_field_type_refs, sm,
      type_decl_ms, field_type_decl_ms, sm_ms =
    build_oracles config facts
  in
  { config; domains; program; proc_list = program.Ir.Cfg.prog_procs; procs;
    proc_names;
    fingerprints = Array.map (fun s -> s.Summary.sp_fingerprint) sums;
    summaries; cond; callers = None; facts = Lazy.from_val (facts, facts_ms);
    type_decl; field_type_decl; sm_field_type_refs; sm;
    timings = { facts_ms; type_decl_ms; field_type_decl_ms; sm_ms };
    counters = Oracle_cache.fresh_counters (); effects = [];
    incr = fresh_incr () }

let create ?(config = default_config) ?(domains = 1) program =
  build config ~domains program

(* An independent engine frozen at [t]'s current analysis state, O(procs).
   [update] replaces every composite value wholesale (facts, oracles,
   condensation, effects states — [update_effects_state] builds over
   copies) except [summaries] and [fingerprints], which it patches in
   place; copying those two is enough to decouple the two engines'
   futures. Everything shared is immutable. The copy gets its own query
   counters and incremental stats so the originals keep counting for [t]
   alone. *)
let copy t =
  { t with
    fingerprints = Array.copy t.fingerprints;
    summaries = Ident.Tbl.copy t.summaries;
    counters = Oracle_cache.fresh_counters ();
    incr = fresh_incr () }

let facts t = fst (Lazy.force t.facts)
let world t = t.config.world
let program t = t.program
let procs t = t.procs
let fingerprints t = t.fingerprints

(* Callee -> callers over the summaries' edges, built on first use for
   each call graph: an update that keeps the condensation kept every
   callee set. *)
let callers t name =
  let tbl =
    match t.callers with
    | Some tbl -> tbl
    | None ->
      let tbl = Ident.Tbl.create (max 16 (Ident.Tbl.length t.summaries)) in
      List.iter
        (fun caller ->
          match Ident.Tbl.find_opt t.summaries caller with
          | Some s ->
            Ident.Set.iter
              (fun c ->
                Ident.Tbl.replace tbl c
                  (caller
                  :: Option.value (Ident.Tbl.find_opt tbl c) ~default:[]))
              s.Summary.sp_callees
          | None -> ())
        (List.sort_uniq Ident.compare t.proc_names);
      t.callers <- Some tbl;
      tbl
  in
  Option.value (Ident.Tbl.find_opt tbl name) ~default:[]

let oracle t = function
  | Type_decl -> t.type_decl
  | Field_type_decl -> t.field_type_decl
  | Sm_field_type_refs -> t.sm_field_type_refs

let oracles t = [ t.type_decl; t.field_type_decl; t.sm_field_type_refs ]

let cached t kind = Oracle_cache.wrap ~counters:t.counters (oracle t kind)

let type_refs_table t = Sm_type_refs.type_refs t.sm
let counters t = t.counters
let timings t =
  if Lazy.is_val t.facts then
    { t.timings with facts_ms = snd (Lazy.force t.facts) }
  else t.timings

(* ------------------------------------------------------------------ *)
(* Mod-ref effects states                                             *)

(* Merged view per condensation component, callees first. A component's
   merged effects are the union of its members' directs and its successor
   components' merged views — by associativity and idempotence of set
   union this equals the union of directs over the full reachable set
   ({p} with everything reachable from p), i.e. the monolithic
   transitive-closure result. Components on the same dependency level are
   independent, so each level runs on the pool (slot-per-component). *)
let merged_of_cond ~domains (cond : Ir.Callgraph.condensation) direct_of =
  let nc = Array.length cond.Ir.Callgraph.cond_comps in
  let comp_merged = Array.make nc Effects.empty in
  let level = Array.make nc 0 in
  for c = 0 to nc - 1 do
    level.(c) <-
      1
      + List.fold_left
          (fun m s -> max m level.(s))
          (-1) cond.Ir.Callgraph.cond_succs.(c)
  done;
  let max_level = Array.fold_left max 0 level in
  let by_level = Array.make (max_level + 1) [] in
  for c = nc - 1 downto 0 do
    by_level.(level.(c)) <- c :: by_level.(level.(c))
  done;
  Array.iter
    (fun comps ->
      let comps = Array.of_list comps in
      Domain_pool.run ~domains (Array.length comps) (fun i ->
          let c = comps.(i) in
          let base =
            List.fold_left
              (fun acc m -> Effects.union acc (direct_of m))
              Effects.empty cond.Ir.Callgraph.cond_comps.(c)
          in
          comp_merged.(c) <-
            List.fold_left
              (fun acc s -> Effects.union acc comp_merged.(s))
              base cond.Ir.Callgraph.cond_succs.(c)))
    by_level;
  comp_merged

let fill_merged_table tbl (cond : Ir.Callgraph.condensation) comp_merged =
  Array.iteri
    (fun c members ->
      List.iter (fun m -> Ident.Tbl.replace tbl m comp_merged.(c)) members)
    cond.Ir.Callgraph.cond_comps

let direct_of_table tbl name =
  match Ident.Tbl.find_opt tbl name with
  | Some e -> e
  | None -> Effects.empty

let build_effects_state t kind =
  let o = oracle t kind in
  let procs = Array.of_list t.program.Ir.Cfg.prog_procs in
  let directs =
    par_map ~domains:t.domains procs
      (Effects.direct ~store_class:o.Oracle.store_class
         ~addr_taken_var:o.Oracle.addr_taken_var)
  in
  let n = Array.length procs in
  let ef_direct = Ident.Tbl.create (max 16 n) in
  Array.iteri
    (fun i p -> Ident.Tbl.replace ef_direct p.Ir.Cfg.pr_name directs.(i))
    procs;
  t.incr.effects_recomputed <- t.incr.effects_recomputed + n;
  let comp_merged =
    merged_of_cond ~domains:t.domains t.cond (direct_of_table ef_direct)
  in
  t.incr.merges_recomputed <-
    t.incr.merges_recomputed + Array.length t.cond.Ir.Callgraph.cond_comps;
  let ef_merged = Ident.Tbl.create (max 16 n) in
  fill_merged_table ef_merged t.cond comp_merged;
  { ef_direct; ef_merged; ef_cond = t.cond }

let effects_state t kind =
  match List.assoc_opt kind t.effects with
  | Some st -> st
  | None ->
    let st = build_effects_state t kind in
    t.effects <- (kind, st) :: t.effects;
    st

let modref_direct t kind name =
  direct_of_table (effects_state t kind).ef_direct name

let modref_merged t kind name =
  direct_of_table (effects_state t kind).ef_merged name

let modref_built t kind = List.mem_assoc kind t.effects

(* ------------------------------------------------------------------ *)
(* Incremental update                                                 *)

let sorted_names names = List.sort_uniq Ident.compare names

(* Everything changed (or the type environment did, which every summary
   and oracle reads through): recompute from scratch.

   Exception safety (here and in [update]): every computation that can
   raise — summarizing an ill-formed edited procedure, re-merging facts,
   rebuilding oracles — runs to completion into locals *before* the first
   field of [t] is assigned. If anything raises mid-update the engine is
   untouched and stays fully usable on its last-good analysis; only the
   [incr] statistics counters may reflect the aborted attempt. *)
let rebuild t program =
  let f = build t.config ~domains:t.domains program in
  (* Commit: nothing below raises. *)
  t.program <- program;
  t.proc_list <- f.proc_list;
  t.procs <- f.procs;
  t.proc_names <- f.proc_names;
  t.fingerprints <- f.fingerprints;
  t.summaries <- f.summaries;
  t.cond <- f.cond;
  t.callers <- None;
  t.facts <- f.facts;
  t.type_decl <- f.type_decl;
  t.field_type_decl <- f.field_type_decl;
  t.sm_field_type_refs <- f.sm_field_type_refs;
  t.sm <- f.sm;
  t.timings <- f.timings;
  t.effects <- [];
  t.incr.summaries_recomputed <-
    t.incr.summaries_recomputed + List.length f.proc_names;
  t.incr.oracles_rebuilt <- t.incr.oracles_rebuilt + 1;
  t.incr.last_report <-
    Some { ur_recomputed = sorted_names t.proc_names;
           ur_oracles_rebuilt = true; ur_callgraph_rebuilt = true }

(* Re-derive one effects state after an update that kept the oracles (so
   the store_class / addr_taken_var closures are still valid and the
   procedure name set is unchanged). Only [changed] procedures get fresh
   directs; when the condensation was reused, a component's merged view is
   recomputed only when a member's direct effects actually changed
   ([Effects.equal] cutoff) or a callee component's merged view did.

   [old_st] is never mutated — the new state is built over copies of its
   tables, so an exception part-way through an update leaves the engine's
   installed effects views intact. [program]/[cond] are the post-update
   program and condensation (passed in because the engine's own fields
   are only assigned once the whole update has succeeded). *)
let update_effects_state t kind old_st program ~cond ~nprocs ~changed
    ~cond_reused =
  let incr = t.incr in
  let o = oracle t kind in
  let directs =
    List.filter_map
      (fun name ->
        Option.map
          (fun proc ->
            ( name,
              Effects.direct ~store_class:o.Oracle.store_class
                ~addr_taken_var:o.Oracle.addr_taken_var proc ))
          (Ir.Cfg.find_proc_opt program name))
      changed
  in
  let direct_changed = Ident.Tbl.create 16 in
  List.iter
    (fun (name, d) ->
      if not (Effects.equal d (direct_of_table old_st.ef_direct name)) then
        Ident.Tbl.replace direct_changed name ())
    directs;
  let nchanged = List.length changed in
  incr.effects_recomputed <- incr.effects_recomputed + nchanged;
  incr.effects_reused <- incr.effects_reused + (nprocs - nchanged);
  let nc = Array.length cond.Ir.Callgraph.cond_comps in
  if cond_reused && Ident.Tbl.length direct_changed = 0 then begin
    (* Nothing a merge reads moved: the state stands as it is. *)
    incr.merges_reused <- incr.merges_reused + nc;
    old_st
  end
  else begin
    let ef_direct = Ident.Tbl.copy old_st.ef_direct in
    List.iter (fun (name, d) -> Ident.Tbl.replace ef_direct name d) directs;
    if not cond_reused then begin
      (* The call graph itself changed: every merged view is suspect. *)
      let comp_merged =
        merged_of_cond ~domains:t.domains cond (direct_of_table ef_direct)
      in
      incr.merges_recomputed <- incr.merges_recomputed + nc;
      let ef_merged = Ident.Tbl.create (max 16 nprocs) in
      fill_merged_table ef_merged cond comp_merged;
      { ef_direct; ef_merged; ef_cond = cond }
    end
    else begin
      (* Same condensation: patch a copy of the merged table, touching
         only components on the affected slice. *)
      let ef_merged = Ident.Tbl.copy old_st.ef_merged in
      let comp_merged = Array.make nc Effects.empty in
      let comp_changed = Array.make nc false in
      for c = 0 to nc - 1 do
        let members = cond.Ir.Callgraph.cond_comps.(c) in
        let old_m =
          match members with
          | m :: _ -> direct_of_table ef_merged m
          | [] -> Effects.empty
        in
        let need =
          List.exists (fun m -> Ident.Tbl.mem direct_changed m) members
          || List.exists
               (fun s -> comp_changed.(s))
               cond.Ir.Callgraph.cond_succs.(c)
        in
        if need then begin
          let base =
            List.fold_left
              (fun acc m -> Effects.union acc (direct_of_table ef_direct m))
              Effects.empty members
          in
          let v =
            List.fold_left
              (fun acc s -> Effects.union acc comp_merged.(s))
              base cond.Ir.Callgraph.cond_succs.(c)
          in
          comp_merged.(c) <- v;
          comp_changed.(c) <- not (Effects.equal v old_m);
          List.iter (fun m -> Ident.Tbl.replace ef_merged m v) members;
          incr.merges_recomputed <- incr.merges_recomputed + 1
        end
        else begin
          comp_merged.(c) <- old_m;
          incr.merges_reused <- incr.merges_reused + 1
        end
      done;
      { ef_direct; ef_merged; ef_cond = cond }
    end
  end

(* Does the array of procedures name [names], in order? *)
let same_names procs names =
  let n = Array.length procs in
  let rec go i = function
    | [] -> i = n
    | name :: rest ->
      i < n && Ident.equal procs.(i).Ir.Cfg.pr_name name && go (i + 1) rest
  in
  go 0 names

let update ?(check = fun () -> ()) ?fingerprints t program =
  check ();
  t.incr.updates <- t.incr.updates + 1;
  if not (Types.env_equal t.program.Ir.Cfg.tenv program.Ir.Cfg.tenv) then begin
    rebuild t program;
    t
  end
  else begin
    let incr = t.incr in
    (* The very list analyzed last: the same procedure objects, whose
       names and signatures are immutable. *)
    let same_list = program.Ir.Cfg.prog_procs == t.proc_list in
    let procs =
      if same_list then t.procs else Array.of_list program.Ir.Cfg.prog_procs
    in
    let n = Array.length procs in
    let old_summaries = t.summaries in
    let fps =
      match fingerprints with
      | Some fps -> fps
      | None -> Array.map Ir.Fingerprint.proc procs
    in
    let same_procs = same_list || same_names procs t.proc_names in
    let old_of i = Ident.Tbl.find_opt old_summaries procs.(i).Ir.Cfg.pr_name in
    (* Over the same procedure list with unique names, a procedure whose
       fingerprint did not move keeps its summary unless a callee's
       signature moved, and a signature moves only with its procedure's
       fingerprint (which covers the formals and the return type). So
       when no moved procedure changed its signature, the moved ones are
       exactly the procedures to recompute; otherwise revalidate every
       summary against the new program. *)
    let moved =
      if same_procs && Ident.Tbl.length old_summaries = n then begin
        let moved = ref [] in
        for i = n - 1 downto 0 do
          if fps.(i) <> t.fingerprints.(i) then moved := i :: !moved
        done;
        if
          same_list
          || List.for_all
               (fun i ->
                 match old_of i with
                 | Some s ->
                   s.Summary.sp_signature = Ir.Fingerprint.signature procs.(i)
                 | None -> false)
               !moved
        then Some !moved
        else None
      end
      else None
    in
    let invalid =
      match moved with
      | Some moved -> Array.of_list moved
      | None ->
        (* One memoized signature read per callee — every caller of a
           procedure revalidates against the same signature. *)
        let sig_memo = Ident.Tbl.create 64 in
        let signature_of name =
          match Ident.Tbl.find_opt sig_memo name with
          | Some s -> s
          | None ->
            let s = Summary.signature_of program name in
            Ident.Tbl.add sig_memo name s;
            s
        in
        let invalid = ref [] in
        for i = n - 1 downto 0 do
          match old_of i with
          | Some s
            when Summary.reusable s ~fingerprint:fps.(i) ~signature_of ->
            ()
          | _ -> invalid := i :: !invalid
        done;
        Array.of_list !invalid
    in
    (* The recomputed summaries, by index into [invalid]. *)
    let fresh =
      let slots = Array.make (Array.length invalid) None in
      Domain_pool.run ~domains:t.domains (Array.length invalid) (fun k ->
          (* Cancellation point at per-procedure granularity: a raise here
             (from any domain) aborts before anything is committed, so the
             exception-safety contract below covers cancellation too. *)
          check ();
          let i = invalid.(k) in
          slots.(k) <-
            Some (Summary.compute program procs.(i) ~fingerprint:fps.(i)));
      Array.map (function Some s -> s | None -> assert false) slots
    in
    (* Every summary of the new program, built only when a whole-program
       product (the merged facts, a new summary table) needs them all. *)
    let sums =
      lazy
        (let at = Array.make n (-1) in
         Array.iteri (fun k i -> at.(i) <- k) invalid;
         Array.init n (fun i ->
             if at.(i) >= 0 then fresh.(at.(i))
             else match old_of i with Some s -> s | None -> assert false))
    in
    let nrecomp = Array.length invalid in
    incr.summaries_recomputed <- incr.summaries_recomputed + nrecomp;
    incr.summaries_reused <- incr.summaries_reused + (n - nrecomp);
    let recomputed_names =
      List.map
        (fun i -> procs.(i).Ir.Cfg.pr_name)
        (Array.to_list invalid)
    in
    let new_names =
      if same_procs then t.proc_names
      else List.map (fun p -> p.Ir.Cfg.pr_name) program.Ir.Cfg.prog_procs
    in
    (* Does [same] hold between every recomputed summary and the one it
       replaces? *)
    let kept same =
      let ok = ref true in
      Array.iteri
        (fun k i ->
          if !ok then
            match old_of i with
            | Some old_s -> ok := same old_s fresh.(k)
            | None -> ok := false)
        invalid;
      !ok
    in
    (* Strongest reuse: every recomputed procedure's whole contribution is
       unchanged (an edit that moved no facts), so the merged facts stand
       as-is. *)
    let contribs_unchanged =
      same_procs
      && kept (fun o s ->
             Facts.contrib_equal o.Summary.sp_contrib s.Summary.sp_contrib)
    in
    (* Oracles survive iff the procedure list is unchanged and every
       recomputed summary preserved its canonical oracle inputs: all
       oracle constructors have set semantics over the facts, so per-
       procedure input equality implies global answer equality. *)
    let oracles_ok =
      contribs_unchanged
      || same_procs
         && kept (fun o s ->
                Facts.oracle_inputs_equal o.Summary.sp_inputs
                  s.Summary.sp_inputs)
    in
    let cond_reused =
      same_procs
      && kept (fun o s ->
             Ident.Set.equal o.Summary.sp_callees s.Summary.sp_callees)
    in
    (* Fallible phase continues: merge facts, rebuild oracles and re-derive
       the effects views into locals — only then commit. A raise anywhere
       above the commit leaves the engine on its last-good analysis. *)
    let new_summaries =
      (* Patch the existing summary table at commit when the (unique) name
         set is unchanged and the condensation survives; build a fresh
         table on any add/remove/reorder, duplicate names, or call-graph
         change (the new condensation needs the full new table now). *)
      if cond_reused && same_procs && Ident.Tbl.length t.summaries = n then
        None
      else Some (summaries_table (Lazy.force sums))
    in
    let new_cond =
      if cond_reused then t.cond
      else
        match new_summaries with
        | Some tbl -> condense_summaries new_names tbl
        | None -> assert false (* [None] only when [cond_reused] *)
    in
    check ();
    let new_facts =
      if contribs_unchanged then None
      else
        let sums = Lazy.force sums in
        Some
          (lazy
            (timed (fun () ->
                 Facts.merge program.Ir.Cfg.tenv
                   (Array.to_list
                      (Array.map (fun s -> s.Summary.sp_contrib) sums)))))
    in
    check ();
    let new_oracles =
      if oracles_ok then None
      else
        Some
          (build_oracles t.config
             (fst
                (Lazy.force
                   (match new_facts with Some f -> f | None -> t.facts))))
    in
    let new_effects =
      if oracles_ok then
        List.map
          (fun (kind, st) ->
            ( kind,
              update_effects_state t kind st program ~cond:new_cond ~nprocs:n
                ~changed:recomputed_names ~cond_reused ))
          t.effects
      else []
    in
    (* Commit: nothing below raises. *)
    t.program <- program;
    t.proc_list <- program.Ir.Cfg.prog_procs;
    t.procs <- procs;
    t.proc_names <- new_names;
    (match (moved, fingerprints) with
    | Some moved, _ -> List.iter (fun i -> t.fingerprints.(i) <- fps.(i)) moved
    | None, Some fps -> t.fingerprints <- Array.copy fps
    | None, None -> t.fingerprints <- fps);
    (match new_summaries with
    | Some tbl -> t.summaries <- tbl
    | None ->
      Array.iteri
        (fun k i ->
          Ident.Tbl.replace t.summaries procs.(i).Ir.Cfg.pr_name fresh.(k))
        invalid);
    if not cond_reused then t.callers <- None;
    t.cond <- new_cond;
    (match new_facts with Some f -> t.facts <- f | None -> ());
    (match new_oracles with
    | None -> t.effects <- new_effects
    | Some (type_decl, field_type_decl, sm_field_type_refs, sm,
            type_decl_ms, field_type_decl_ms, sm_ms) ->
      t.type_decl <- type_decl;
      t.field_type_decl <- field_type_decl;
      t.sm_field_type_refs <- sm_field_type_refs;
      t.sm <- sm;
      t.timings <-
        { t.timings with type_decl_ms; field_type_decl_ms; sm_ms };
      t.effects <- [];
      incr.oracles_rebuilt <- incr.oracles_rebuilt + 1);
    incr.last_report <-
      Some { ur_recomputed = sorted_names recomputed_names;
             ur_oracles_rebuilt = not oracles_ok;
             ur_callgraph_rebuilt = not cond_reused };
    t
  end

let last_update t = t.incr.last_report

let update_stats t =
  let i = t.incr in
  [ ("updates", i.updates);
    ("summaries_reused", i.summaries_reused);
    ("summaries_recomputed", i.summaries_recomputed);
    ("effects_reused", i.effects_reused);
    ("effects_recomputed", i.effects_recomputed);
    ("merges_reused", i.merges_reused);
    ("merges_recomputed", i.merges_recomputed);
    ("oracles_rebuilt", i.oracles_rebuilt) ]

let stats t =
  Json.Obj
    [ ("world", Json.String (match world t with
          | World.Closed -> "closed"
          | World.Open -> "open"));
      ("variant", Json.String (match t.config.variant with
          | Sm_type_refs.Grouped -> "grouped"
          | Sm_type_refs.Per_type -> "per-type"));
      ("types", Json.Int (Types.count t.program.Ir.Cfg.tenv));
      ("build_ms",
       Json.Obj
         (let ti = timings t in
          [ ("facts", Json.Float ti.facts_ms);
            ("type_decl", Json.Float ti.type_decl_ms);
            ("field_type_decl", Json.Float ti.field_type_decl_ms);
            ("sm_field_type_refs", Json.Float ti.sm_ms) ]));
      ("queries", Json.Int (Oracle_cache.queries t.counters));
      ("paths_interned", Json.Int (Ir.Apath.interned ()));
      ("incremental",
       Json.Obj
         (List.map
            (fun (k, v) -> (k, Json.Int v))
            (update_stats t))) ]
