(* Declarative scheduling of Pass.t values over one program, replacing the
   seed pipeline's hand-written analyze/run/re-analyze sequencing. *)

open Support
open Tbaa

type item =
  | Run of Pass.t
  | Fixpoint of { passes : Pass.t list; max_rounds : int }

(* ------------------------------------------------------------------ *)
(* Pass configuration                                                  *)
(* ------------------------------------------------------------------ *)

module Config = struct
  type t = {
    devirt_inline : bool;
    licm : bool;
    pre : bool;
    slf : bool;
    rle : bool;
    copyprop : bool;
    dse : bool;
    local_cse : bool;
  }

  let none =
    { devirt_inline = false; licm = false; pre = false; slf = false;
      rle = false; copyprop = false; dse = false; local_cse = false }
end

(* ------------------------------------------------------------------ *)
(* The per-procedure execution engine                                  *)
(* ------------------------------------------------------------------ *)

(* What running a per-procedure pass live over some procedures left, by
   index into the [live] positions it was handed. *)
type live_results = {
  lr_outcomes : Pass.outcome array;
  lr_counters : Oracle_cache.counters array;
  lr_ledgers : Claims.t option array;
  lr_counts : int array;  (* temps each procedure allocated *)
}

(* Run a per-procedure pass over the procedures at positions [live] —
   every procedure under [run], the live ones under [rerun].

   Determinism: procedures are independent (each run reads only its own
   procedure plus shared read-only analysis state), so the merge in
   program order makes parallel execution byte-identical to sequential.
   The three shared-state hazards are each closed off:

   - fresh variables come from a laced allocator (procedure [i]'s [k]-th
     temp is [start + i + k*n]), used identically at any domain count;
   - every procedure gets a private counted oracle over the raw analysis
     oracle (the raw closures are pure) and a private claims ledger, both
     merged in program order afterwards;
   - the [Apath] intern table flips into mutex-guarded mode for
     the duration of a multi-domain region, and dataflow's cumulative
     counters are atomics.

   A fault-injected or query-logged context takes this same path, with
   the log installed in each procedure's counted oracle, but on one
   domain: the fault layer's flip counters and the caller's log callback
   are not domain-safe. Observing a run therefore never changes what it
   emits.

   [inputs] is the raw oracle and mod-ref view, [None] for an
   analysis-free pass ({!Pass.Analysis_free}), which gets no oracle, no
   mod-ref and no engine refresh. *)
let run_live (ctx : Pass.context) program (p : Pass.t) ~procs ~start ~inputs
    live =
  let n = Array.length procs in
  let nlive = Array.length live in
  let dummy_counters = Oracle_cache.fresh_counters () in
  let r =
    { lr_outcomes = Array.make nlive (Pass.unchanged []);
      lr_counters = Array.make nlive dummy_counters;
      lr_ledgers = Array.make nlive None;
      lr_counts = Array.make nlive 0 }
  in
  let oname = Pass.oracle_name ctx.Pass.oracle_kind in
  let log = ctx.Pass.oracle_log in
  let want_claims = ctx.Pass.claims <> None in
  (* The flip counters and the log callback are not domain-safe. *)
  let domains =
    if
      ctx.Pass.jobs <= 1 || Option.is_some ctx.Pass.fault
      || Option.is_some log
    then 1
    else min ctx.Pass.jobs nlive
  in
  let run_one j =
    let i = live.(j) in
    let proc = procs.(i) in
    let fresh ~name ~ty ~kind =
      let k = r.lr_counts.(j) in
      r.lr_counts.(j) <- k + 1;
      { Ir.Reg.v_id = start + i + (k * n); v_name = Ident.intern name;
        v_ty = ty; v_kind = kind }
    in
    let claims =
      if want_claims then Some (Claims.create ~oracle:oname) else None
    in
    r.lr_ledgers.(j) <- claims;
    r.lr_outcomes.(j) <-
      (match p.Pass.scope with
      | Pass.Per_procedure f ->
        let raw, modref = Option.get inputs in
        let c = Oracle_cache.fresh_counters () in
        r.lr_counters.(j) <- c;
        f
          { Pass.pc_program = program;
            pc_oracle = Oracle_cache.wrap ~counters:c ?log raw;
            pc_modref = modref;
            pc_claims = claims;
            pc_fresh = fresh }
          proc
      | Pass.Analysis_free f -> f program proc
      | Pass.Whole_program _ -> invalid_arg "Pass_manager.run_live")
  in
  if domains > 1 then begin
    Ir.Apath.set_concurrent true;
    Fun.protect
      ~finally:(fun () -> Ir.Apath.set_concurrent false)
      (fun () -> Domain_pool.run ~domains nlive run_one)
  end
  else Domain_pool.run ~domains:1 nlive run_one;
  r

(* The raw oracle and the mod-ref view a per-procedure pass reads, forced
   on the pre-pass program state; [None] for an analysis-free pass.
   [Pass.modref] builds the engine's merged-effects table now: that build
   mutates the engine, which must not happen concurrently. *)
let live_inputs (ctx : Pass.context) program (p : Pass.t) =
  if not (Pass.reads_analysis p) then None
  else begin
    ignore (Pass.analysis ctx program);
    Some (Pass.raw_oracle ctx program, Pass.modref ctx program)
  end

(* Run a per-procedure pass over every procedure — the only whole-program
   run a per-procedure pass has. *)
let exec_per_procedure (ctx : Pass.context) program (p : Pass.t) =
  let procs = Array.of_list program.Ir.Cfg.prog_procs in
  let n = Array.length procs in
  if n = 0 then Pass.unchanged []
  else begin
    let start = program.Ir.Cfg.next_var_id in
    let inputs = live_inputs ctx program p in
    let r = run_live ctx program p ~procs ~start ~inputs (Array.init n Fun.id) in
    (* Reserve the allocator lanes actually used: the highest id handed
       out is [start + (n-1) + (kmax-1)*n]. *)
    let kmax = Array.fold_left max 0 r.lr_counts in
    Ir.Cfg.set_next_var_id program (start + (kmax * n));
    (* Deterministic merges, program order. *)
    Array.iter (Oracle_cache.add ~into:ctx.Pass.oracle_counters) r.lr_counters;
    (match ctx.Pass.claims with
    | Some dst ->
      Array.iter
        (function Some l -> Claims.absorb ~into:dst l | None -> ())
        r.lr_ledgers
    | None -> ());
    Pass.merge_outcomes r.lr_outcomes
  end

let exec_pass ctx program (p : Pass.t) =
  match p.Pass.scope with
  | Pass.Whole_program run -> run ctx program
  | Pass.Per_procedure _ | Pass.Analysis_free _ ->
    exec_per_procedure ctx program p

(* ------------------------------------------------------------------ *)
(* Plain execution                                                     *)
(* ------------------------------------------------------------------ *)

(* One pass execution and its report; [exec] runs the pass. *)
let run_one ctx ~round (p : Pass.t) exec : Pass.report =
  let oracle_before = Oracle_cache.snapshot ctx.Pass.oracle_counters in
  let dataflow_before = Ir.Dataflow.counters () in
  let analyses_before = ctx.Pass.analyses_run in
  let t0 = Support.Clock.now_ms () in
  let outcome = exec () in
  let t1 = Support.Clock.now_ms () in
  if outcome.Pass.mutated then Pass.invalidate ctx;
  { Pass.r_pass = p.Pass.name;
    r_round = round;
    r_time_ms = t1 -. t0;
    r_changed = outcome.Pass.changed;
    r_stats = outcome.Pass.stats;
    r_oracle =
      Oracle_cache.diff ~before:oracle_before
        ~after:(Oracle_cache.snapshot ctx.Pass.oracle_counters);
    r_dataflow =
      Ir.Dataflow.diff_counters ~before:dataflow_before
        ~after:(Ir.Dataflow.counters ());
    r_analyses = ctx.Pass.analyses_run - analyses_before;
    r_failure = None }

(* The one schedule walker, over any per-pass runner: a [Run] item runs
   once; a [Fixpoint] group runs in rounds until no Transform pass finds
   work, at most [max_rounds] of them (Enabling passes keep canonicalizing
   forever and must not drive the loop). Each execution is handed its
   schedule position — [slot] is (item index, index in the group), and
   with [round] it names the execution independently of how many rounds
   earlier groups took. Reports come back in run order. *)
let walk (run_pass : slot:int * int -> round:int -> Pass.t -> Pass.report)
    items =
  let run_item (item, acc) = function
    | Run p -> (item + 1, run_pass ~slot:(item, 0) ~round:1 p :: acc)
    | Fixpoint { passes; max_rounds } ->
      let rec go round acc =
        if round > max_rounds then acc
        else begin
          let _, acc, progressed =
            List.fold_left
              (fun (member, acc, progressed) p ->
                let r = run_pass ~slot:(item, member) ~round p in
                let drives = r.Pass.r_changed && p.Pass.role = Pass.Transform in
                (member + 1, r :: acc, progressed || drives))
              (0, acc, false) passes
          in
          if progressed then go (round + 1) acc else acc
        end
      in
      (item + 1, go 1 acc)
  in
  List.rev (snd (List.fold_left run_item (0, []) items))

let run ctx program items =
  walk
    (fun ~slot:_ ~round p -> run_one ctx ~round p (fun () -> exec_pass ctx program p))
    items

(* ------------------------------------------------------------------ *)
(* Guarded execution                                                   *)
(* ------------------------------------------------------------------ *)

(* Defense in depth: each pass runs against a rollback snapshot. A pass
   that raises, or leaves the IR failing {!Ir.Verify}, is
   undone — the program reverts to the last-good IR — and quarantined:
   later executions of the same pass are skipped, with the original
   failure echoed in their reports. The schedule keeps going, so one
   broken pass degrades the optimization level instead of the run. *)

let failure_report ~round ~reason (p : Pass.t) =
  { Pass.r_pass = p.Pass.name;
    r_round = round;
    r_time_ms = 0.0;
    r_changed = false;
    r_stats = [];
    r_oracle = Oracle_cache.fresh_counters ();
    r_dataflow = { Ir.Dataflow.solves = 0; iterations = 0 };
    r_analyses = 0;
    r_failure = Some reason }

let validation_failure errs =
  let n = List.length errs in
  Printf.sprintf "IR validation failed (%d error%s), e.g. %s" n
    (if n = 1 then "" else "s")
    (Ir.Verify.error_to_string (List.hd errs))

let run_one_guarded ctx program ~quarantine ~round (p : Pass.t) =
  match Hashtbl.find_opt quarantine p.Pass.name with
  | Some earlier ->
    failure_report ~round ~reason:("quarantined: " ^ earlier) p
  | None ->
    let snap = Ir.Cfg.snapshot program in
    let roll_back reason report =
      Ir.Cfg.restore program snap;
      Pass.invalidate ctx;
      Hashtbl.replace quarantine p.Pass.name reason;
      { report with Pass.r_changed = false; r_failure = Some reason }
    in
    (match run_one ctx ~round p (fun () -> exec_pass ctx program p) with
    | report -> (
      match Ir.Verify.program program with
      | [] -> report
      | errs -> roll_back (validation_failure errs) report)
    | exception exn ->
      let reason = "exception: " ^ Printexc.to_string exn in
      roll_back reason (failure_report ~round ~reason p))

let run_guarded ctx program items =
  let quarantine : (string, string) Hashtbl.t = Hashtbl.create 8 in
  walk (fun ~slot:_ -> run_one_guarded ctx program ~quarantine) items

let failures reports =
  List.filter_map
    (fun r ->
      match r.Pass.r_failure with
      | Some why -> Some (r.Pass.r_pass, why)
      | None -> None)
    reports

(* ------------------------------------------------------------------ *)
(* Incremental re-execution                                            *)
(* ------------------------------------------------------------------ *)

(* A session keeps, across runs of the same schedule over successive
   versions of one program: the shared analysis context (whose engine
   makes mid-pipeline re-analyses incremental), one record per schedule
   position holding that position's memo of pass results and its frozen
   analysis engine, and a gate engine fed only the *pre-optimization*
   program versions. A position is (item index, index in the group,
   round): it names the same pass execution in every run, however many
   rounds a fixpoint group before it took this time. (An execution count
   would not: one extra copyprop+RLE round shifts every later count onto
   another pass's record.)

   Within a position, a memo entry is indexed by the procedure's position
   in [prog_procs] alone. That names the same procedure (and allocator
   lane) in every run the memo survives into: no pass adds, drops or
   reorders procedures, and the gate keeps its oracles and call graph
   only when the procedure list is unchanged — any other update flushes
   the memo.

   Validity of a memoized result for procedure P at a position requires
   more than P's input fingerprint: P's transform also consulted the
   type-level oracle (a whole-program artifact) and its callees' merged
   mod-ref summaries. The gate engine's update report covers the former —
   if the oracles' canonical inputs changed at all, everything is
   flushed — and the reverse-call-graph closure of the procedures whose
   summaries it recomputed (every procedure whose fingerprint changed)
   covers the latter: summaries flow callee-to-caller, so only edited
   procedures and their (transitive) callers can observe an edit while
   the oracles stand. Those are the run's contaminated procedures: they
   run live at every position. The gate diffs against the previous run
   only, so a position's entries are replayed only in the run right after
   the one that recorded them; a position an earlier run skipped (its
   fixpoint took fewer rounds) starts over.

   The walk touches only live procedures. A memo entry is replayable when
   the procedure is not contaminated, its input fingerprint is the
   recorded one, the position starts at the recorded allocator state and
   the entry carries a ledger if one is kept. When a position follows the
   same position it followed in the previous run, with no whole-program
   pass between, every procedure that replayed its previous entry stands
   where it stood at this point of the previous run, so its entry here
   chains onto it: the walk checks only the procedures that ran live at
   the previous position. An uncontaminated procedure thus follows its
   memo chain by recorded fingerprints alone, and its body is spliced
   once, from the last entry replayed for it: before it next runs live,
   before the engine reads it, before a whole-program pass, and at the
   end of the run. Any other position checks every procedure. Each
   position's report comes from its totals over every entry, kept from
   the previous run and adjusted by the live procedures' old and new
   entries. *)

(* One memoized result of running one per-procedure pass execution (one
   schedule position) over one procedure: the output body plus what the
   report and the allocator consume. Its key, the *input* fingerprint,
   and the output body's fingerprint sit in flat arrays beside the
   entries (see [slot]), which the walk scans. A recorded entry replayed
   under identical conditions is byte-for-byte what the live run would
   produce. *)
type slot_entry = {
  e_count : int;  (* temps this procedure allocated *)
  e_entry : int;
  e_locals : Ir.Reg.var list;
  e_blocks : (Ir.Instr.t list * Ir.Instr.terminator) array;  (* output *)
  e_outcome : Pass.outcome;
  e_counters : Oracle_cache.counters;
  e_claims : Claims.t option;  (* per-procedure ledger, if one was kept *)
}

(* Stands for "the body as the run was handed it" and fills fresh
   arrays; never replayed. *)
let no_entry =
  { e_count = 0; e_entry = 0; e_locals = [];
    e_blocks = [||]; e_outcome = Pass.unchanged [];
    e_counters = Oracle_cache.fresh_counters (); e_claims = None }

let splice proc (e : slot_entry) =
  let open Ir in
  let nb = Array.length e.e_blocks in
  while Cfg.n_blocks proc < nb do
    ignore (Cfg.new_block proc (Instr.Treturn None))
  done;
  if Cfg.n_blocks proc > nb then Vec.truncate proc.Cfg.pr_blocks nb;
  Array.iteri
    (fun bi (instrs, term) ->
      let b = Cfg.block proc bi in
      b.Cfg.b_instrs <- instrs;
      b.Cfg.b_term <- term)
    e.e_blocks;
  proc.Cfg.pr_entry <- e.e_entry;
  proc.Cfg.pr_locals <- e.e_locals

let snapshot_blocks proc =
  Array.init (Ir.Cfg.n_blocks proc) (fun i ->
      let b = Ir.Cfg.block proc i in
      (b.Ir.Cfg.b_instrs, b.Ir.Cfg.b_term))

(* A position's report inputs summed over all of its entries: the merged
   stats, how many entries report [changed] and [mutated], the oracle
   counters, and the largest temp count (with how many entries reach
   it). *)
type totals = {
  mutable t_stats : (string * int) list;
  t_keys : string list;  (* the stat keys, in merge order *)
  t_sums : int array;  (* per key *)
  t_uniform : bool;  (* every entry's stats carry exactly [t_keys] *)
  mutable t_changed : int;
  mutable t_mutated : int;
  t_counters : Oracle_cache.counters;
  mutable t_kmax : int;
  mutable t_at_kmax : int;
}

let rec same_keys stats keys =
  match (stats, keys) with
  | (k, _) :: stats, k' :: keys -> String.equal k k' && same_keys stats keys
  | [], [] -> true
  | _ -> false

let count f entries =
  Array.fold_left (fun c e -> if f e then c + 1 else c) 0 entries

let totals_of entries =
  let merged = Pass.merge_outcomes (Array.map (fun e -> e.e_outcome) entries) in
  let keys = List.map fst merged.Pass.stats in
  let counters = Oracle_cache.fresh_counters () in
  Array.iter (fun e -> Oracle_cache.add ~into:counters e.e_counters) entries;
  let kmax = Array.fold_left (fun m e -> max m e.e_count) 0 entries in
  { t_stats = merged.Pass.stats;
    t_keys = keys;
    t_sums = Array.of_list (List.map snd merged.Pass.stats);
    t_uniform =
      Array.for_all (fun e -> same_keys e.e_outcome.Pass.stats keys) entries;
    t_changed = count (fun e -> e.e_outcome.Pass.changed) entries;
    t_mutated = count (fun e -> e.e_outcome.Pass.mutated) entries;
    t_counters = counters;
    t_kmax = kmax;
    t_at_kmax = count (fun e -> e.e_count = kmax) entries }

(* Replace the entries [old] by [fresh] (pairwise) in the totals; [false]
   when a stat key list differs from the position's, which leaves the
   totals untouched for a full recount. [entries] is the position's
   entry array after the replacement. *)
let adjust t entries ~old ~fresh =
  let keyed e = same_keys e.e_outcome.Pass.stats t.t_keys in
  t.t_uniform && Array.for_all keyed old && Array.for_all keyed fresh
  && begin
    let add sign e =
      let o = e.e_outcome in
      List.iteri
        (fun k (_, v) -> t.t_sums.(k) <- t.t_sums.(k) + (sign * v))
        o.Pass.stats;
      if o.Pass.changed then t.t_changed <- t.t_changed + sign;
      if o.Pass.mutated then t.t_mutated <- t.t_mutated + sign
    in
    Array.iteri
      (fun j o ->
        let e = fresh.(j) in
        add (-1) o;
        add 1 e;
        Oracle_cache.add ~into:t.t_counters
          (Oracle_cache.diff ~before:o.e_counters ~after:e.e_counters);
        (* [t_at_kmax] counts exactly the entries at [t_kmax], which
           bounds every count. *)
        if o.e_count = t.t_kmax then t.t_at_kmax <- t.t_at_kmax - 1;
        if e.e_count > t.t_kmax then begin
          t.t_kmax <- e.e_count;
          t.t_at_kmax <- 1
        end
        else if e.e_count = t.t_kmax then t.t_at_kmax <- t.t_at_kmax + 1)
      old;
    if t.t_at_kmax = 0 then begin
      t.t_kmax <- Array.fold_left (fun m e -> max m e.e_count) 0 entries;
      t.t_at_kmax <- count (fun e -> e.e_count = t.t_kmax) entries
    end;
    t.t_stats <- List.mapi (fun k key -> (key, t.t_sums.(k))) t.t_keys;
    true
  end

(* A schedule position: (item index, index in its group, round). *)
type key = int * int * int

(* The position before the first pass of a run. *)
let run_start : key = (-1, 0, 0)

type slot = {
  mutable sl_entries : slot_entry array;  (* by procedure position *)
  mutable sl_in : int array;  (* each entry's input fingerprint *)
  mutable sl_out : int array;
      (* each entry's output fingerprint: the procedure's after a splice *)
  mutable sl_run : int;  (* the last run that visited this position *)
  mutable sl_start : int;  (* program.next_var_id there, at pass start *)
  mutable sl_after : key;  (* the position executed just before, there *)
  mutable sl_claims : bool;  (* every entry carries a claims ledger *)
  mutable sl_totals : totals;
  mutable sl_engine : Engine.t option;
      (* the context's analysis engine frozen here (see [rerun]) *)
}

(* One run's walk over the procedures. Every procedure stands at the
   state its entry at [w_cur] recorded, or, with no such position yet
   (the run's start, or right after a whole-program pass), at its body. *)
type walk = {
  w_run : int;
  w_procs : Ir.Cfg.proc array;
  mutable w_fps : int array;  (* the bodies' fingerprints, while [w_cur] is [None] *)
  mutable w_cur : slot option;  (* the last per-procedure position *)
  w_made : slot_entry array;
      (* per procedure, the entry its body was last spliced from or
         recorded as, in run [w_made_run]; before that in this run, the
         body is as the run was handed it *)
  w_made_run : int array;
  w_tainted : int array;
      (* the last run that found the procedure contaminated: it runs
         live everywhere in that run *)
  mutable w_live : int array;  (* positions that ran live at [w_cur] *)
  mutable w_prev : key;  (* the position executed last *)
  mutable w_synced : bool;
      (* no whole-program pass since the last per-procedure position *)
  mutable w_reused : int;
  mutable w_reran : int;
}

(* Every procedure's fingerprint at the walk's current state. *)
let fps_now w = match w.w_cur with Some sl -> sl.sl_out | None -> w.w_fps

(* Bring procedure [i]'s body to the state the walk has it at. *)
let materialize w i =
  match w.w_cur with
  | Some sl ->
    let e = sl.sl_entries.(i) in
    if w.w_made_run.(i) <> w.w_run || w.w_made.(i) != e then begin
      splice w.w_procs.(i) e;
      w.w_made.(i) <- e;
      w.w_made_run.(i) <- w.w_run
    end
  | None -> ()

let materialize_all w =
  for i = 0 to Array.length w.w_procs - 1 do
    materialize w i
  done

(* Before the context's engine is brought to this position: the engine
   re-reads each procedure whose fingerprint moved since it last analyzed
   it, and every body when it builds a program from scratch or its
   mod-ref views afresh. *)
let analysis_at w (ctx : Pass.context) program =
  let n = Array.length w.w_procs in
  let fps = fps_now w in
  (match ctx.Pass.engine with
  | Some e when ctx.Pass.stale ->
    let seen = Engine.fingerprints e in
    if Array.length seen <> n then materialize_all w
    else
      for i = 0 to n - 1 do
        if seen.(i) <> fps.(i) then materialize w i
      done
  | Some _ -> ()
  | None -> materialize_all w);
  let e = Pass.analysis ~fingerprints:fps ctx program in
  if not (Engine.modref_built e (Pass.engine_kind ctx.Pass.oracle_kind)) then
    materialize_all w

(* Execute a per-procedure pass at position [k], reading and refreshing
   its memo [sl]. *)
let exec_memoized w sl k (ctx : Pass.context) program (p : Pass.t) =
  let procs = w.w_procs in
  let n = Array.length procs in
  let start = program.Ir.Cfg.next_var_id in
  let want_claims = ctx.Pass.claims <> None in
  let replayable =
    sl.sl_run = w.w_run - 1
    && Array.length sl.sl_entries = n
    && sl.sl_start = start
    && ((not want_claims) || sl.sl_claims)
  in
  let fps = fps_now w in
  let hit i = w.w_tainted.(i) <> w.w_run && sl.sl_in.(i) = fps.(i) in
  let in_step = replayable && w.w_synced && sl.sl_after = w.w_prev in
  let live =
    if not replayable then Array.init n Fun.id
    else
      let candidates = if in_step then w.w_live else Array.init n Fun.id in
      Array.of_list
        (Array.fold_right
           (fun i acc -> if hit i then acc else i :: acc)
           candidates [])
  in
  let nlive = Array.length live in
  let in_fps = Array.map (fun i -> fps.(i)) live in
  Array.iter (materialize w) live;
  let inputs =
    if nlive = 0 || not (Pass.reads_analysis p) then None
    else begin
      analysis_at w ctx program;
      live_inputs ctx program p
    end
  in
  let r = run_live ctx program p ~procs ~start ~inputs live in
  if Array.length sl.sl_entries <> n then begin
    sl.sl_entries <- Array.make n no_entry;
    sl.sl_in <- Array.make n 0;
    sl.sl_out <- Array.make n 0
  end;
  let old = if in_step then Array.map (fun i -> sl.sl_entries.(i)) live else [||] in
  let fresh =
    Array.mapi
      (fun j i ->
        let proc = procs.(i) in
        sl.sl_in.(i) <- in_fps.(j);
        (* [mutated = false] promises the fingerprint did not move. *)
        sl.sl_out.(i) <-
          (if r.lr_outcomes.(j).Pass.mutated then Ir.Fingerprint.proc proc
           else in_fps.(j));
        let e =
          { e_count = r.lr_counts.(j); e_entry = proc.Ir.Cfg.pr_entry;
            e_locals = proc.Ir.Cfg.pr_locals; e_blocks = snapshot_blocks proc;
            e_outcome = r.lr_outcomes.(j); e_counters = r.lr_counters.(j);
            e_claims = r.lr_ledgers.(j) }
        in
        sl.sl_entries.(i) <- e;
        w.w_made.(i) <- e;
        w.w_made_run.(i) <- w.w_run;
        e)
      live
  in
  if not (in_step && adjust sl.sl_totals sl.sl_entries ~old ~fresh) then
    sl.sl_totals <- totals_of sl.sl_entries;
  let t = sl.sl_totals in
  Ir.Cfg.set_next_var_id program (start + (t.t_kmax * n));
  Oracle_cache.add ~into:ctx.Pass.oracle_counters t.t_counters;
  (match ctx.Pass.claims with
  | Some dst ->
    Array.iter
      (fun e -> Option.iter (fun l -> Claims.absorb ~into:dst l) e.e_claims)
      sl.sl_entries
  | None -> ());
  sl.sl_claims <-
    (if replayable then sl.sl_claims && (want_claims || nlive = 0)
     else want_claims);
  sl.sl_run <- w.w_run;
  sl.sl_start <- start;
  sl.sl_after <- w.w_prev;
  w.w_cur <- Some sl;
  w.w_live <- live;
  w.w_synced <- true;
  w.w_prev <- k;
  w.w_reused <- w.w_reused + (n - nlive);
  w.w_reran <- w.w_reran + nlive;
  { Pass.stats = t.t_stats; changed = t.t_changed > 0; mutated = t.t_mutated > 0 }

type session = {
  s_ctx : Pass.context;
  s_slots : (key, slot) Hashtbl.t;
  mutable s_gate : Engine.t option;
  mutable s_index : int Ident.Tbl.t;
      (* procedure name -> position, over the list the memo holds *)
  mutable s_tainted : int array;  (* see [walk]; by position *)
  mutable s_made : slot_entry array;
  mutable s_made_run : int array;
  mutable s_runs : int;
  mutable s_reused : int;  (* last run: (pass execution, proc) splices *)
  mutable s_reran : int;  (* last run: (pass execution, proc) live runs *)
  mutable s_flushes : int;  (* full memo flushes (oracle/callgraph churn) *)
}

let session ctx =
  { s_ctx = ctx; s_slots = Hashtbl.create 16; s_gate = None;
    s_index = Ident.Tbl.create 1; s_tainted = [||]; s_made = [||];
    s_made_run = [||]; s_runs = 0; s_reused = 0; s_reran = 0;
    s_flushes = 0 }

(* Mark, as contaminated in [run], the positions of the procedures whose
   memoized pass results an edit may invalidate: the edited procedures
   plus everything that can reach them in the gate's call graph. Returns
   the marked positions, ascending. *)
let contaminate s gate ~dirty run =
  let marked = ref [] in
  let rec close = function
    | [] -> ()
    | nm :: rest -> (
      match Ident.Tbl.find_opt s.s_index nm with
      | Some i when s.s_tainted.(i) <> run ->
        s.s_tainted.(i) <- run;
        marked := i :: !marked;
        close (List.rev_append (Engine.callers gate nm) rest)
      | _ -> close rest)
  in
  close dirty;
  Array.of_list (List.sort compare !marked)

let rerun ?fingerprints s program items =
  s.s_runs <- s.s_runs + 1;
  let run = s.s_runs in
  let ctx = s.s_ctx in
  let gate, gate_report =
    match s.s_gate with
    | None ->
      ( Engine.create
          ~config:{ Engine.default_config with Engine.world = ctx.Pass.world }
          program,
        None )
    | Some e ->
      let e = Engine.update ?fingerprints e program in
      (e, Engine.last_update e)
  in
  s.s_gate <- Some gate;
  (* The gate has just read the program: its procedure array and
     fingerprints describe this version. *)
  let procs = Engine.procs gate in
  let n = Array.length procs in
  let fps =
    match fingerprints with
    | Some fps -> fps
    | None -> Array.copy (Engine.fingerprints gate)
  in
  (* The dependency gate for this run's memo lookups. *)
  let tainted =
    match gate_report with
    | Some r
      when (not r.Engine.ur_oracles_rebuilt)
           && not r.Engine.ur_callgraph_rebuilt ->
      contaminate s gate ~dirty:r.Engine.ur_recomputed run
    | _ ->
      (* First run, or the type-level facts (or the call graph) moved:
         every cached answer is suspect. Start over. *)
      s.s_flushes <- s.s_flushes + 1;
      let index = Ident.Tbl.create (max 16 n) in
      Array.iteri (fun i p -> Ident.Tbl.replace index p.Ir.Cfg.pr_name i) procs;
      s.s_index <- index;
      s.s_tainted <- Array.make n run;
      s.s_made <- Array.make n no_entry;
      s.s_made_run <- Array.make n 0;
      Array.init n Fun.id
  in
  let w =
    { w_run = run; w_procs = procs; w_fps = fps; w_cur = None;
      w_made = s.s_made; w_made_run = s.s_made_run; w_tainted = s.s_tainted;
      w_live = tainted; w_prev = run_start; w_synced = true; w_reused = 0;
      w_reran = 0 }
  in
  Pass.invalidate ctx;
  let run_one_slot ~slot:(item, member) ~round p =
    let k = (item, member, round) in
    let sl =
      match Hashtbl.find_opt s.s_slots k with
      | Some sl -> sl
      | None ->
        let sl =
          { sl_entries = [||]; sl_in = [||]; sl_out = [||]; sl_run = 0;
            sl_start = 0; sl_after = run_start;
            sl_claims = false; sl_totals = totals_of [||]; sl_engine = None }
        in
        Hashtbl.add s.s_slots k sl;
        sl
    in
    (* Install this slot's private analysis engine, so a mid-pipeline
       re-analysis diffs against the *same pipeline position* of the
       previous run — where only the edited procedures differ — rather
       than against whatever state the rolling engine last saw (where
       every spliced body looks like an edit and the whole program gets
       re-summarized at every pass). When the context's engine is still
       current (the previous pass changed nothing), keep it: it already
       describes the current program state, and the slot engine will
       simply absorb a slightly larger diff whenever it is next used. *)
    let analyzed = Pass.reads_analysis p in
    (match sl.sl_engine with
    | Some e when analyzed && ctx.Pass.stale -> ctx.Pass.engine <- Some e
    | _ -> ());
    let r =
      run_one ctx ~round p (fun () ->
          match p.Pass.scope with
          | Pass.Per_procedure _ | Pass.Analysis_free _ ->
            if n = 0 then Pass.unchanged []
            else exec_memoized w sl k ctx program p
          | Pass.Whole_program run ->
            (* A whole-program pass reads and rewrites any body, without
               maintaining the walk's fingerprints. *)
            materialize_all w;
            let outcome = run ctx program in
            w.w_fps <- Array.map Ir.Fingerprint.proc procs;
            w.w_cur <- None;
            w.w_synced <- false;
            w.w_prev <- k;
            outcome)
    in
    (* First visit of a slot: freeze a private copy of the engine at this
       position. (The rolling engine object itself keeps flowing to the
       next unseen slot, so copies never alias.) Later visits mutate the
       installed engine in place — it is already the stored one. An
       analysis-free slot neither installs nor freezes one: it never
       brings the engine to its position, so the rolling engine flows on
       to the next slot that does. *)
    if analyzed && Option.is_none sl.sl_engine then
      sl.sl_engine <- Option.map Engine.copy ctx.Pass.engine;
    r
  in
  let reports = walk run_one_slot items in
  materialize_all w;
  s.s_reused <- w.w_reused;
  s.s_reran <- w.w_reran;
  reports

let session_stats s =
  Json.Obj
    [ ("runs", Json.Int s.s_runs); ("reused", Json.Int s.s_reused);
      ("reran", Json.Int s.s_reran); ("flushes", Json.Int s.s_flushes) ]

let session_counts s = (s.s_reused, s.s_reran)

(* ------------------------------------------------------------------ *)
(* The standard schedule                                               *)
(* ------------------------------------------------------------------ *)

let schedule (c : Config.t) =
  let items = [] in
  let items =
    if c.Config.devirt_inline then
      Fixpoint { passes = [ Devirt.pass; Inline.pass ]; max_rounds = 3 }
      :: items
    else items
  in
  (* LICM first: hoisting while loop bodies still contain the original
     loads maximizes what the later intra-block clients see. *)
  let items = if c.Config.licm then Run Licm.pass :: items else items in
  let items = if c.Config.pre then Run Pre.pass :: items else items in
  (* SLF before RLE: forwarding the stored atom directly beats routing
     the value through an RLE home temporary. *)
  let items = if c.Config.slf then Run Slf.pass :: items else items in
  (* PRE inserts partially-redundant loads for RLE to harvest, and copy
     propagation unlocks further RLE matches: RLE runs once up front, then
     again inside a copyprop fixpoint when copy propagation is on. *)
  let items = if c.Config.rle then Run Rle.pass :: items else items in
  let items =
    if c.Config.copyprop then
      if c.Config.rle then
        Fixpoint { passes = [ Copyprop.pass; Rle.pass ]; max_rounds = 3 }
        :: items
      else Run Copyprop.pass :: items
    else items
  in
  (* DSE last: the load-removing clients above erase readers, so stores
     go dead only once they have run. *)
  let items = if c.Config.dse then Run Dse.pass :: items else items in
  let items = if c.Config.local_cse then Run Local_cse.pass :: items else items in
  List.rev items

(* ------------------------------------------------------------------ *)
(* Report aggregation                                                  *)
(* ------------------------------------------------------------------ *)

let reports_for name reports =
  List.filter (fun r -> r.Pass.r_pass = name) reports

let ran name reports = reports_for name reports <> []

let sum_stat name stat reports =
  List.fold_left
    (fun acc r -> acc + Pass.stat r stat)
    0 (reports_for name reports)

let first_stat name stat reports =
  match reports_for name reports with
  | [] -> 0
  | r :: _ -> Pass.stat r stat
