open Tbaa

type oracle_kind = Otype_decl | Ofield_type_decl | Osm_field_type_refs

let oracle_name = function
  | Otype_decl -> "TypeDecl"
  | Ofield_type_decl -> "FieldTypeDecl"
  | Osm_field_type_refs -> "SMFieldTypeRefs"

let engine_kind = function
  | Otype_decl -> Engine.Type_decl
  | Ofield_type_decl -> Engine.Field_type_decl
  | Osm_field_type_refs -> Engine.Sm_field_type_refs

(* ------------------------------------------------------------------ *)
(* Shared analysis context                                             *)
(* ------------------------------------------------------------------ *)

type fault = {
  f_seed : int;
  f_rate : float;
  f_class_kills : bool;
  f_stats : Oracle_fault.stats;
}

let fault ?(flip_class_kills = true) ~seed ~rate () =
  { f_seed = seed; f_rate = rate; f_class_kills = flip_class_kills;
    f_stats = Oracle_fault.fresh_stats () }

type context = {
  world : World.t;
  oracle_kind : oracle_kind;
  mutable jobs : int;  (* domains for per-procedure passes; <= 1 sequential *)
  mutable engine : Engine.t option;
      (* survives invalidation: re-analyses go through Engine.update *)
  mutable stale : bool;  (* [engine] predates the program's current state *)
  mutable modref_memo : Modref.t option;  (* engine view over [engine] *)
  oracle_counters : Oracle_cache.counters;
      (* accumulates across wrapper incarnations *)
  mutable analyses_run : int;
  mutable claims : Claims.t option;  (* when set, RLE logs its oracle bets *)
  mutable fault : fault option;  (* when set, the oracle is fault-injected *)
  mutable oracle_log : (Ir.Apath.t -> Ir.Apath.t -> bool -> unit) option;
      (* when set, observes each procedure's distinct may_alias queries *)
}

let create ?(world = World.Closed) ?(oracle_kind = Osm_field_type_refs)
    ?(jobs = 1) () =
  { world; oracle_kind; jobs; engine = None; stale = true;
    modref_memo = None;
    oracle_counters = Oracle_cache.fresh_counters (); analyses_run = 0;
    claims = None; fault = None; oracle_log = None }

let invalidate ctx =
  ctx.stale <- true;
  ctx.modref_memo <- None

let analysis ?fingerprints ctx program =
  match ctx.engine with
  | Some e when not ctx.stale -> e
  | memo ->
    (* Re-analyses after a mutating pass are incremental engine updates:
       unchanged procedures reuse their summaries by fingerprint, so the
       cost of "analyze again" tracks how much of the program the pass
       actually rewrote. *)
    let e =
      match memo with
      | Some e -> Engine.update ?fingerprints e program
      | None ->
        Engine.create
          ~config:{ Engine.default_config with Engine.world = ctx.world }
          program
    in
    ctx.engine <- Some e;
    ctx.stale <- false;
    ctx.analyses_run <- ctx.analyses_run + 1;
    e

(* The analysis oracle of the configured precision with the fault layer
   (when installed) applied, but no memoizing cache: the pass manager
   wraps this once per procedure. The fault layer sits *under* that cache:
   flips are deterministic per query, so memoizing flipped answers keeps
   the view consistent. *)
let raw_oracle ctx program =
  let raw =
    Engine.oracle (analysis ctx program) (engine_kind ctx.oracle_kind)
  in
  match ctx.fault with
  | None -> raw
  | Some f ->
    Oracle_fault.wrap ~flip_class_kills:f.f_class_kills ~stats:f.f_stats
      ~seed:f.f_seed ~rate:f.f_rate raw

let modref ctx program =
  match ctx.modref_memo with
  | Some m -> m
  | None ->
    (* Built from the engine's merged effect views. Summaries depend only
       on the oracle's raw store_class/addr_taken_var — the fault layer
       never wraps those — so this is also the right view for
       fault-injected runs. *)
    let m =
      Modref.of_engine (analysis ctx program) (engine_kind ctx.oracle_kind)
    in
    ctx.modref_memo <- Some m;
    m

(* ------------------------------------------------------------------ *)
(* The pass interface                                                  *)
(* ------------------------------------------------------------------ *)

type outcome = {
  stats : (string * int) list;
  changed : bool;
  mutated : bool;
}

let unchanged stats = { stats; changed = false; mutated = false }

type role = Transform | Enabling

type proc_context = {
  pc_program : Ir.Cfg.program;
  pc_oracle : Oracle.t;
  pc_modref : Modref.t;
  pc_claims : Claims.t option;
  pc_fresh :
    name:string -> ty:Minim3.Types.tid -> kind:Ir.Reg.kind -> Ir.Reg.var;
}

type scope =
  | Whole_program of (context -> Ir.Cfg.program -> outcome)
  | Per_procedure of (proc_context -> Ir.Cfg.proc -> outcome)
  | Analysis_free of (Ir.Cfg.program -> Ir.Cfg.proc -> outcome)

type t = {
  name : string;
  role : role;
  scope : scope;
}

let reads_analysis p =
  match p.scope with
  | Analysis_free _ -> false
  | Per_procedure _ | Whole_program _ -> true

(* Deterministic merge of per-procedure outcomes, in program (array)
   order: stats sum per key (key order = first appearance, i.e. the
   uniform key list every client pass emits), flags OR. *)
let merge_outcomes (outcomes : outcome array) =
  let keys = ref [] in
  let totals : (string, int) Hashtbl.t = Hashtbl.create 8 in
  let changed = ref false and mutated = ref false in
  Array.iter
    (fun o ->
      if o.changed then changed := true;
      if o.mutated then mutated := true;
      List.iter
        (fun (k, n) ->
          match Hashtbl.find_opt totals k with
          | Some m -> Hashtbl.replace totals k (m + n)
          | None ->
            keys := k :: !keys;
            Hashtbl.add totals k n)
        o.stats)
    outcomes;
  { stats =
      List.rev_map (fun k -> (k, Hashtbl.find totals k)) !keys;
    changed = !changed;
    mutated = !mutated }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

type report = {
  r_pass : string;
  r_round : int;
  r_time_ms : float;
  r_changed : bool;
  r_stats : (string * int) list;
  r_oracle : Oracle_cache.counters;  (* queries during this pass run *)
  r_dataflow : Ir.Dataflow.counters;
  r_analyses : int;  (* engine builds and updates charged to this pass *)
  r_failure : string option;
      (* guarded execution only: why the pass was rolled back / skipped *)
}

let stat report name =
  match List.assoc_opt name report.r_stats with Some n -> n | None -> 0

let report_to_json ?(extra = []) r =
  let open Support.Json in
  Obj
    (extra
    @ [ ("pass", String r.r_pass); ("round", Int r.r_round);
        ("time_ms", Float r.r_time_ms); ("changed", Bool r.r_changed);
        ("stats", of_stats r.r_stats);
        ( "oracle",
          Obj [ ("queries", Int (Oracle_cache.queries r.r_oracle)) ] );
        ( "dataflow",
          Obj
            [ ("solves", Int r.r_dataflow.Ir.Dataflow.solves);
              ("iterations", Int r.r_dataflow.Ir.Dataflow.iterations) ] );
        ("analyses", Int r.r_analyses) ]
    @ (match r.r_failure with
      | None -> []  (* absent key keeps unguarded output byte-identical *)
      | Some why -> [ ("failure", String why) ]))
