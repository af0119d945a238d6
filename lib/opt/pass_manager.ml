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

(* One memoized result of running one per-procedure pass execution (one
   schedule slot) over one procedure: the output body plus everything the
   merge consumed, keyed by the *input* fingerprint and the allocator
   state. A recorded entry replayed under identical conditions is
   byte-for-byte what the live run would produce, so [rerun] may splice
   it without re-running the pass. Entries are indexed by the procedure's
   position in [prog_procs] (its allocator lane); see [rerun] for why the
   position alone names the procedure. *)
type slot_entry = {
  e_in_fp : int;  (* Fingerprint.proc of the input body *)
  e_out_fp : int;  (* Fingerprint.proc of the output body (= of a splice) *)
  e_start : int;  (* program.next_var_id at pass start *)
  e_count : int;  (* temps this procedure allocated *)
  e_entry : int;
  e_locals : Ir.Reg.var list;
  e_blocks : (Ir.Instr.t list * Ir.Instr.terminator) array;  (* output *)
  e_outcome : Pass.outcome;
  e_counters : Oracle_cache.counters;
  e_claims : Claims.t option;  (* per-procedure ledger, if one was kept *)
}

(* What one [rerun] hands each per-procedure slot, all indexed by
   procedure position. *)
type memo = {
  m_entries : slot_entry option array;  (* this slot's recorded results *)
  m_valid : bool array;  (* dependency gate beyond the fingerprint *)
  m_fps : int array;
      (* each procedure's current fingerprint, carried across slots: a
         splice advances it to [e_out_fp], a live run to the fresh body's
         fingerprint, so no slot re-walks every body *)
  mutable m_reused : int;
  mutable m_reran : int;
}

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

(* Run a per-procedure pass over every procedure — the only whole-program
   run a per-procedure pass has.

   Determinism: procedures are independent (each [run_proc] reads only
   its own procedure plus shared read-only analysis state), so the merge
   in program order makes parallel execution byte-identical to
   sequential. The three shared-state hazards are each closed off:

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
   are not domain-safe. Observing a run therefore never changes what it emits.

   An analysis-free pass ({!Pass.Analysis_free}) gets no oracle, no
   mod-ref and no engine refresh. Fingerprints are read only by the memo
   (under [rerun]) and by an engine update; outside a memo the update
   computes them itself, and only when it runs. *)
let exec_per_procedure ?memo (ctx : Pass.context) program (p : Pass.t) =
  let procs = Array.of_list program.Ir.Cfg.prog_procs in
  let n = Array.length procs in
  (* [pc] is forced only by a pass that reads the analysis. *)
  let run_proc (pc : Pass.proc_context Lazy.t) proc =
    match p.Pass.scope with
    | Pass.Per_procedure f -> f (Lazy.force pc) proc
    | Pass.Analysis_free f -> f program proc
    | Pass.Whole_program _ -> invalid_arg "exec_per_procedure"
  in
  let reads_analysis = Pass.reads_analysis p in
  if n = 0 then Pass.unchanged []
  else begin
    let start = program.Ir.Cfg.next_var_id in
    let want_claims = ctx.Pass.claims <> None in
    (* Which procedures can replay a memoized result. *)
    let hits =
      match memo with
      | Some m ->
        Array.mapi
          (fun i -> function
            | Some e
              when e.e_in_fp = m.m_fps.(i) && e.e_start = start
                   && ((not want_claims) || e.e_claims <> None)
                   && m.m_valid.(i) ->
              Some e
            | _ -> None)
          m.m_entries
      | None -> Array.make n None
    in
    let live = ref [] in
    for i = n - 1 downto 0 do
      if hits.(i) = None then live := i :: !live
    done;
    let live = Array.of_list !live in
    let nlive = Array.length live in
    (* Shared read-only inputs, forced on the pre-pass program state
       (before any splice) and only when something that reads them
       actually runs. *)
    let inputs =
      if nlive = 0 || not reads_analysis then None
      else begin
        (* The memo's fingerprints describe exactly this program state, so
           a re-analysis need not hash every body again. [Pass.modref]
           builds the engine's merged-effects table now: that build
           mutates the engine, which must not happen concurrently. *)
        ignore
          (Pass.analysis
             ?fingerprints:(Option.map (fun m -> m.m_fps) memo)
             ctx program);
        Some (Pass.raw_oracle ctx program, Pass.modref ctx program)
      end
    in
    let dummy_counters = Oracle_cache.fresh_counters () in
    let counts = Array.make n 0 in
    let outcomes = Array.make n (Pass.unchanged []) in
    let counters = Array.make n dummy_counters in
    let ledgers = Array.make n None in
    Array.iteri
      (fun i h ->
        match h with
        | Some e ->
          splice procs.(i) e;
          Option.iter (fun m -> m.m_fps.(i) <- e.e_out_fp) memo;
          counts.(i) <- e.e_count;
          outcomes.(i) <- e.e_outcome;
          counters.(i) <- e.e_counters;
          ledgers.(i) <- e.e_claims
        | None -> ())
      hits;
    if nlive > 0 then begin
      let oname = Pass.oracle_name ctx.Pass.oracle_kind in
      let log = ctx.Pass.oracle_log in
      (* The flip counters and the log callback are not domain-safe. *)
      let domains =
        if
          ctx.Pass.jobs <= 1 || Option.is_some ctx.Pass.fault
          || Option.is_some log
        then 1
        else min ctx.Pass.jobs nlive
      in
      let run_live j =
        let i = live.(j) in
        let proc = procs.(i) in
        let fresh ~name ~ty ~kind =
          let k = counts.(i) in
          counts.(i) <- k + 1;
          { Ir.Reg.v_id = start + i + (k * n); v_name = Ident.intern name;
            v_ty = ty; v_kind = kind }
        in
        let claims =
          if want_claims then Some (Claims.create ~oracle:oname) else None
        in
        ledgers.(i) <- claims;
        let pc =
          lazy
            (let raw, modref = Option.get inputs in
             let c = Oracle_cache.fresh_counters () in
             counters.(i) <- c;
             { Pass.pc_program = program;
               pc_oracle = Oracle_cache.wrap ~counters:c ?log raw;
               pc_modref = modref;
               pc_claims = claims;
               pc_fresh = fresh })
        in
        outcomes.(i) <- run_proc pc proc
      in
      if domains > 1 then begin
        Ir.Apath.set_concurrent true;
        Fun.protect
          ~finally:(fun () -> Ir.Apath.set_concurrent false)
          (fun () -> Domain_pool.run ~domains nlive run_live)
      end
      else Domain_pool.run ~domains:1 nlive run_live
    end;
    (* Reserve the allocator lanes actually used: the highest id handed
       out is [start + (n-1) + (kmax-1)*n]. *)
    let kmax = Array.fold_left max 0 counts in
    Ir.Cfg.set_next_var_id program (start + (kmax * n));
    (* Deterministic merges, program order. *)
    Array.iter (Oracle_cache.add ~into:ctx.Pass.oracle_counters) counters;
    (match ctx.Pass.claims with
    | Some dst ->
      Array.iter
        (function Some l -> Claims.absorb ~into:dst l | None -> ())
        ledgers
    | None -> ());
    (match memo with
    | Some m ->
      m.m_reused <- m.m_reused + (n - nlive);
      m.m_reran <- m.m_reran + nlive;
      Array.iter
        (fun i ->
          let proc = procs.(i) in
          let out_fp = Ir.Fingerprint.proc proc in
          m.m_entries.(i) <-
            Some
              { e_in_fp = m.m_fps.(i); e_out_fp = out_fp; e_start = start;
                e_count = counts.(i); e_entry = proc.Ir.Cfg.pr_entry;
                e_locals = proc.Ir.Cfg.pr_locals;
                e_blocks = snapshot_blocks proc; e_outcome = outcomes.(i);
                e_counters = counters.(i); e_claims = ledgers.(i) };
          m.m_fps.(i) <- out_fp)
        live
    | None -> ());
    Pass.merge_outcomes outcomes
  end

let exec_pass ?memo ctx program (p : Pass.t) =
  match p.Pass.scope with
  | Pass.Whole_program run -> run ctx program
  | Pass.Per_procedure _ | Pass.Analysis_free _ ->
    exec_per_procedure ?memo ctx program p

(* ------------------------------------------------------------------ *)
(* Plain execution                                                     *)
(* ------------------------------------------------------------------ *)

let run_one ?memo ctx program ~round (p : Pass.t) : Pass.report =
  let oracle_before = Oracle_cache.snapshot ctx.Pass.oracle_counters in
  let dataflow_before = Ir.Dataflow.counters () in
  let analyses_before = ctx.Pass.analyses_run in
  let t0 = Support.Clock.now_ms () in
  let outcome = exec_pass ?memo ctx program p in
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
  walk (fun ~slot:_ -> run_one ctx program) items

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
    (match run_one ctx program ~round p with
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

   Validity of a memoized result for procedure P at a slot requires
   more than P's input fingerprint: P's transform also consulted the
   type-level oracle (a whole-program artifact) and its callees' merged
   mod-ref summaries. The gate engine's update report covers the former —
   if the oracles' canonical inputs changed at all, everything is
   flushed — and the reverse-call-graph closure of the procedures whose
   summaries it recomputed (every procedure whose fingerprint changed)
   covers the latter: summaries flow callee-to-caller, so only edited
   procedures and their (transitive) callers can observe an edit while
   the oracles stand. The gate diffs against the previous run only, so
   a position's entries are replayed only in the run right after the one
   that recorded them; a position an earlier run skipped (its fixpoint
   took fewer rounds) starts over. *)
type slot = {
  mutable sl_entries : slot_entry option array;  (* by procedure position *)
  mutable sl_run : int;  (* the last run that visited this position *)
  mutable sl_engine : Engine.t option;
      (* the context's analysis engine frozen here (see [rerun]) *)
}

type session = {
  s_ctx : Pass.context;
  s_slots : (int * int * int, slot) Hashtbl.t;
  mutable s_gate : Engine.t option;
  mutable s_runs : int;
  mutable s_reused : int;  (* last run: (pass execution, proc) splices *)
  mutable s_reran : int;  (* last run: (pass execution, proc) live runs *)
  mutable s_flushes : int;  (* full memo flushes (oracle/callgraph churn) *)
}

let session ctx =
  { s_ctx = ctx; s_slots = Hashtbl.create 16; s_gate = None; s_runs = 0;
    s_reused = 0; s_reran = 0; s_flushes = 0 }

(* The procedures whose memoized pass results an edit may invalidate:
   the edited procedures plus everything that can reach them in the call
   graph. *)
let contaminated_set program ~dirty =
  let tainted = Ident.Tbl.create 32 in
  List.iter (fun nm -> Ident.Tbl.replace tainted nm ()) dirty;
  (* callee -> callers, over the current program *)
  let callers = Ident.Tbl.create 64 in
  List.iter
    (fun p ->
      let caller = p.Ir.Cfg.pr_name in
      Ident.Set.iter
        (fun c ->
          Ident.Tbl.replace callers c
            (caller :: Option.value (Ident.Tbl.find_opt callers c) ~default:[]))
        (Ir.Callgraph.callees program p))
    program.Ir.Cfg.prog_procs;
  let rec close = function
    | [] -> ()
    | nm :: rest ->
      let callers_of =
        Option.value (Ident.Tbl.find_opt callers nm) ~default:[]
      in
      let fresh =
        List.filter (fun c -> not (Ident.Tbl.mem tainted c)) callers_of
      in
      List.iter (fun c -> Ident.Tbl.replace tainted c ()) fresh;
      close (List.rev_append fresh rest)
  in
  close dirty;
  tainted

let rerun s program items =
  s.s_runs <- s.s_runs + 1;
  s.s_reused <- 0;
  s.s_reran <- 0;
  let ctx = s.s_ctx in
  let procs = Array.of_list program.Ir.Cfg.prog_procs in
  let n = Array.length procs in
  (* Each procedure's current fingerprint (see [memo.m_fps]), seeded from
     exactly the program state the gate and the first slot see. *)
  let fps = Array.map Ir.Fingerprint.proc procs in
  let gate_report =
    match s.s_gate with
    | None ->
      s.s_gate <-
        Some
          (Engine.create
             ~config:{ Engine.default_config with Engine.world = ctx.Pass.world }
             program);
      None
    | Some e ->
      let e = Engine.update ~fingerprints:fps e program in
      s.s_gate <- Some e;
      Engine.last_update e
  in
  (* The dependency gate for this run's memo lookups. *)
  let valid =
    match gate_report with
    | Some r
      when (not r.Engine.ur_oracles_rebuilt)
           && not r.Engine.ur_callgraph_rebuilt ->
      let tainted = contaminated_set program ~dirty:r.Engine.ur_recomputed in
      Array.map (fun p -> not (Ident.Tbl.mem tainted p.Ir.Cfg.pr_name)) procs
    | _ ->
      (* First run, or the type-level facts (or the call graph) moved:
         every cached answer is suspect. Start over. *)
      s.s_flushes <- s.s_flushes + 1;
      Array.make n false
  in
  Pass.invalidate ctx;
  let run_one_slot ~slot:(item, member) ~round p =
    let k = (item, member, round) in
    let sl =
      match Hashtbl.find_opt s.s_slots k with
      | Some sl -> sl
      | None ->
        let sl = { sl_entries = [||]; sl_run = 0; sl_engine = None } in
        Hashtbl.add s.s_slots k sl;
        sl
    in
    let memo =
      match p.Pass.scope with
      | Pass.Per_procedure _ | Pass.Analysis_free _ ->
        if sl.sl_run <> s.s_runs - 1 || Array.length sl.sl_entries <> n then
          sl.sl_entries <- Array.make n None;
        sl.sl_run <- s.s_runs;
        Some
          { m_entries = sl.sl_entries; m_valid = valid; m_fps = fps;
            m_reused = 0; m_reran = 0 }
      | Pass.Whole_program _ -> None
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
    let r = run_one ?memo ctx program ~round p in
    (match memo with
    | Some m ->
      s.s_reused <- s.s_reused + m.m_reused;
      s.s_reran <- s.s_reran + m.m_reran
    | None ->
      (* A whole-program pass mutates procedures without maintaining the
         carried fingerprints. *)
      Array.iteri (fun i proc -> fps.(i) <- Ir.Fingerprint.proc proc) procs);
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
  walk run_one_slot items

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
