(* Per-document engines with crash isolation and graceful degradation. *)

open Support

type mode = Fresh | Stale | Conservative

let mode_name = function
  | Fresh -> "fresh"
  | Stale -> "stale"
  | Conservative -> "conservative"

type inject =
  | Flip of { seed : int; rate : float }
  | Crash of { seed : int; rate : float }
  | Slow of { ms : float }

exception Injected_fault of string

let () =
  Printexc.register_printer (function
    | Injected_fault msg -> Some ("Injected_fault: " ^ msg)
    | _ -> None)

(* Concurrency discipline: documents follow a reader/writer protocol.
   Queries ([may_alias]/[modref]/[path]/[health_json]) run under the
   document's shared lock, concurrently with each other; mutations
   ([open_or_update]/[change]/[close]) run under the exclusive lock.
   Locks live in a store-level table keyed by name (they must exist
   before the document does, and survive close/reopen); the table
   itself — like the docs table — is guarded by a store mutex held only
   for O(1) lookups, never across a build or a query.

   Under the shared lock, the remaining mutation is confined: query
   counters are [Atomic]s; quarantine writes immediate values
   ([dc_mode], [dc_last_error]) whose races are benign (single word
   writes, idempotent transition to Conservative); each alias request
   asks through its own handle over the engine's raw oracles, which are
   pure at query time (see [may_alias]); and the engine's lazily-built
   mod-ref state is serialized by [dc_omutex]. *)

type doc = {
  dc_name : string;
  mutable dc_source : string;  (* last-good source *)
  mutable dc_program : Ir.Cfg.program;  (* last-good lowered program *)
  mutable dc_engine : Tbaa.Engine.t;  (* last-good engine *)
  mutable dc_opt_session : Opt.Pass_manager.session option;
      (* incremental optimizer state, carried across revisions *)
  mutable dc_opt : Json.t option;  (* last optimizer run's stats *)
  mutable dc_paths : (Ident.t * Ir.Apath.t * bool) array;
  mutable dc_mode : mode;
  mutable dc_last_error : string option;
  mutable dc_inject : inject list;
  dc_omutex : Mutex.t;  (* guards the engine's lazy mod-ref state *)
  mutable dc_generation : int;  (* successful builds installed *)
  mutable dc_attempts : int;  (* build attempts, for seeded build crashes *)
  dc_queries : int Atomic.t;
  dc_degraded : int Atomic.t;  (* queries answered below Fresh *)
  mutable dc_failed_updates : int;
}

type t = {
  docs : (string, doc) Hashtbl.t;
  locks : (string, Rwlock.t) Hashtbl.t;
  st_mutex : Mutex.t;  (* guards [docs] and [locks] table operations *)
  st_max_docs : int;
  allow_inject : bool;
  st_optimize : bool;
}

let create ?(max_docs = 64) ?(optimize = false) ~allow_inject () =
  { docs = Hashtbl.create 16; locks = Hashtbl.create 16;
    st_mutex = Mutex.create (); st_max_docs = max_docs; allow_inject;
    st_optimize = optimize }

let lock_for t name =
  Mutex.protect t.st_mutex (fun () ->
      match Hashtbl.find_opt t.locks name with
      | Some l -> l
      | None ->
        let l = Rwlock.create () in
        Hashtbl.replace t.locks name l;
        l)

let with_doc_read t name f =
  Rwlock.read (lock_for t name) (fun () ->
      f (Mutex.protect t.st_mutex (fun () -> Hashtbl.find_opt t.docs name)))

let find t name =
  Mutex.protect t.st_mutex (fun () -> Hashtbl.find_opt t.docs name)

let count t = Mutex.protect t.st_mutex (fun () -> Hashtbl.length t.docs)
let max_docs t = t.st_max_docs

let close t name =
  (* The exclusive lock drains in-flight queries before the document
     disappears; the lock entry itself survives for a later reopen. *)
  Rwlock.write (lock_for t name) (fun () ->
      Mutex.protect t.st_mutex (fun () ->
          let existed = Hashtbl.mem t.docs name in
          Hashtbl.remove t.docs name;
          existed))

let names t =
  Mutex.protect t.st_mutex (fun () ->
      List.sort String.compare
        (Hashtbl.fold (fun name _ acc -> name :: acc) t.docs []))

(* ------------------------------------------------------------------ *)
(* Deterministic fault decisions                                       *)
(* ------------------------------------------------------------------ *)

(* A pure coin: same (seed, key) always lands the same side, so injected
   faults repeat across retries exactly like a real deterministic bug. *)
let chance ~seed ~rate key =
  rate > 0.0
  && float_of_int (Hashtbl.hash (seed, key) land 0xFFFF) /. 65536.0 < rate

(* Injected latency actually sleeps (the old implementation spun on
   [Unix.gettimeofday], pegging a core per delayed request) and is
   interruptible: the sleep is sliced so a flipped cancellation token
   stops the delay within a couple of milliseconds — the caller's next
   cancellation check then fields the token. Returning early (rather
   than raising) keeps the query path's never-raises contract. *)
let sleep_ms ?(cancelled = fun () -> false) ms =
  let slice = 2.0 (* ms *) in
  let deadline = Clock.now_ms () +. ms in
  let rec go () =
    let left = deadline -. Clock.now_ms () in
    if left > 0.0 && not (cancelled ()) then begin
      Unix.sleepf (Float.min left slice /. 1000.0);
      go ()
    end
  in
  go ()

(* [Slow] is handled in [may_alias] itself (it needs the per-request
   cancellation token, which oracle closures cannot see); this wrapper
   folds only the answer-level faults. *)
let wrap_inject inject (o : Tbaa.Oracle.t) =
  List.fold_left
    (fun (o : Tbaa.Oracle.t) inj ->
      match inj with
      | Flip { seed; rate } -> Tbaa.Oracle_fault.wrap ~seed ~rate o
      | Crash { seed; rate } ->
        (* Keyed by the unordered pair, like [Flip]: [(p, q)] and
           [(q, p)] crash together. *)
        { o with
          Tbaa.Oracle.may_alias =
            (fun p q ->
              let a = Ir.Apath.id p and b = Ir.Apath.id q in
              if chance ~seed ~rate ("alias", min a b, max a b)
              then raise (Injected_fault "oracle fault (injected)")
              else o.Tbaa.Oracle.may_alias p q) }
      | Slow _ -> o)
    o inject

let slow_ms_of inject =
  List.fold_left
    (fun acc -> function Slow { ms } -> acc +. ms | _ -> acc)
    0.0 inject

(* ------------------------------------------------------------------ *)
(* Building                                                            *)
(* ------------------------------------------------------------------ *)

type update_outcome =
  | Updated of doc
  | Rejected of doc option * Diag.t list
  | Crashed of doc option * string
  | Cancelled of doc option

exception Update_cancelled
(* Internal: raised by the [Engine.update] check hook; never escapes
   [open_or_update]. *)

let paths_of engine =
  let facts = Tbaa.Engine.facts engine in
  Array.of_list
    (List.map
       (fun (r : Tbaa.Facts.memref) ->
         (r.Tbaa.Facts.mr_proc, r.Tbaa.Facts.mr_path, r.Tbaa.Facts.mr_is_store))
       facts.Tbaa.Facts.memrefs)

let degrade_on_failure existing msg =
  match existing with
  | None -> ()
  | Some d ->
    d.dc_failed_updates <- d.dc_failed_updates + 1;
    d.dc_last_error <- Some msg;
    (* A quarantined engine stays quarantined — a failed rebuild cannot
       promote Conservative back to merely Stale. *)
    if d.dc_mode = Fresh then d.dc_mode <- Stale

(* ------------------------------------------------------------------ *)
(* Incremental re-optimization                                         *)
(* ------------------------------------------------------------------ *)

(* The daemon's pipeline: every per-procedure client, sequential. The
   alias queries it answers are over the *unoptimized* program (that is
   what the paths index), so each revision is optimized on the side —
   run over the fresh lowering, stats recorded, then the lowering is
   restored byte-for-byte. The session's per-(pass, procedure) memo and
   gate engine persist across revisions, so a body-local edit re-runs
   only the edited procedure and its transitive callers. *)
let optimizer_schedule =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.none with
      Opt.Pass_manager.Config.licm = true; pre = true; slf = true;
      rle = true; copyprop = true; dse = true }

let snapshot_program (p : Ir.Cfg.program) =
  ( p.Ir.Cfg.prog_procs, p.Ir.Cfg.next_var_id,
    List.map
      (fun (proc : Ir.Cfg.proc) ->
        ( proc, proc.Ir.Cfg.pr_entry, proc.Ir.Cfg.pr_locals,
          Array.init (Ir.Cfg.n_blocks proc) (fun i ->
              let b = Ir.Cfg.block proc i in
              (b.Ir.Cfg.b_instrs, b.Ir.Cfg.b_term)) ))
      p.Ir.Cfg.prog_procs )

let restore_program (p : Ir.Cfg.program) (procs, next_id, saved) =
  p.Ir.Cfg.prog_procs <- procs;
  List.iter
    (fun ((proc : Ir.Cfg.proc), entry, locals, blocks) ->
      let nb = Array.length blocks in
      while Ir.Cfg.n_blocks proc < nb do
        ignore (Ir.Cfg.new_block proc (Ir.Instr.Treturn None))
      done;
      if Ir.Cfg.n_blocks proc > nb then Vec.truncate proc.Ir.Cfg.pr_blocks nb;
      Array.iteri
        (fun i (instrs, term) ->
          let b = Ir.Cfg.block proc i in
          b.Ir.Cfg.b_instrs <- instrs;
          b.Ir.Cfg.b_term <- term)
        blocks;
      proc.Ir.Cfg.pr_entry <- entry;
      proc.Ir.Cfg.pr_locals <- locals)
    saved;
  p.Ir.Cfg.next_var_id <- next_id

let optimize_doc d program =
  let saved = snapshot_program program in
  match
    let s =
      match d.dc_opt_session with
      | Some s -> s
      | None ->
        let s = Opt.Pass_manager.session (Opt.Pass.create ()) in
        d.dc_opt_session <- Some s;
        s
    in
    let t0 = Clock.now_ms () in
    let reports = Opt.Pass_manager.rerun s program optimizer_schedule in
    let ms = Clock.now_ms () -. t0 in
    let changed =
      List.length (List.filter (fun r -> r.Opt.Pass.r_changed) reports)
    in
    let session_fields =
      match Opt.Pass_manager.session_stats s with
      | Json.Obj fields -> fields
      | j -> [ ("session", j) ]
    in
    Json.Obj
      (("time_ms", Json.Float ms)
      :: ("passes", Json.Int (List.length reports))
      :: ("passes_changed", Json.Int changed)
      :: session_fields)
  with
  | stats ->
    restore_program program saved;
    d.dc_opt <- Some stats
  | exception e ->
    (* The optimizer is advisory: a crash there must not degrade the
       query path. Restore the lowering, drop the (possibly corrupt)
       session, and surface the error in the stats instead. *)
    restore_program program saved;
    d.dc_opt_session <- None;
    d.dc_opt <- Some (Json.Obj [ ("error", Json.String (Printexc.to_string e)) ])

(* The body of [open_or_update], run under the document's exclusive
   lock (callers below take it). *)
let open_or_update_locked t ~name ~source ~inject ~cancelled =
  let inject = if t.allow_inject then inject else [] in
  let existing =
    Mutex.protect t.st_mutex (fun () -> Hashtbl.find_opt t.docs name)
  in
  if cancelled () then Cancelled existing
  else begin
    let attempts =
      match existing with Some d -> d.dc_attempts + 1 | None -> 1
    in
    (match existing with Some d -> d.dc_attempts <- attempts | None -> ());
    try
      (* Seeded build crashes fire before and independently of compilation,
         standing in for "the analysis crashed on this revision". *)
      List.iter
        (function
          | Crash { seed; rate }
            when chance ~seed ~rate ("build", name, attempts) ->
            raise (Injected_fault "build fault (injected)")
          | _ -> ())
        inject;
      match Minim3.Typecheck.check_string_all ~file:name source with
      | Error diags ->
        degrade_on_failure existing
          (match diags with
          | d :: _ -> Diag.to_string d
          | [] -> "compile error");
        Rejected (existing, diags)
      | Ok tast ->
        let program = Ir.Lower.lower_program tast in
        let check () = if cancelled () then raise Update_cancelled in
        let engine =
          match existing with
          | Some d -> Tbaa.Engine.update ~check d.dc_engine program
          | None ->
            check ();
            Tbaa.Engine.create program
        in
        let paths = paths_of engine in
        let doc =
          match existing with
          | Some d ->
            d.dc_source <- source;
            d.dc_program <- program;
            d.dc_engine <- engine;
            d.dc_paths <- paths;
            d.dc_mode <- Fresh;
            d.dc_last_error <- None;
            d.dc_inject <- inject;
            d.dc_generation <- d.dc_generation + 1;
            d
          | None ->
            let d =
              { dc_name = name; dc_source = source; dc_program = program;
                dc_engine = engine; dc_opt_session = None; dc_opt = None;
                dc_paths = paths; dc_mode = Fresh;
                dc_last_error = None; dc_inject = inject;
                dc_omutex = Mutex.create ();
                dc_generation = 1; dc_attempts = attempts;
                dc_queries = Atomic.make 0; dc_degraded = Atomic.make 0;
                dc_failed_updates = 0 }
            in
            Mutex.protect t.st_mutex (fun () ->
                Hashtbl.replace t.docs name d);
            d
        in
        if t.st_optimize then optimize_doc doc program;
        Updated doc
    with
    | Update_cancelled ->
      (* Engine.update aborted before committing anything: the existing
         document is untouched and still Fresh for its last-good source.
         Cancellation is client-initiated, not a failure — no
         degradation, no failed-update count. *)
      Cancelled existing
    | Diag.Compile_error d ->
      (* Lowering raised on a program the typechecker accepted — treat it
         like any other rejected revision. *)
      degrade_on_failure existing (Diag.to_string d);
      Rejected (existing, [ d ])
    | e ->
      (* Engine.update is exception-safe: the existing document still holds
         its fully usable last-good engine. Roll back and flag. *)
      let msg = Printexc.to_string e in
      degrade_on_failure existing msg;
      Crashed (existing, msg)
  end

let open_or_update ?(cancelled = fun () -> false) t ~name ~source ~inject =
  Rwlock.write (lock_for t name) (fun () ->
      open_or_update_locked t ~name ~source ~inject ~cancelled)

(* ------------------------------------------------------------------ *)
(* Partial edits                                                       *)
(* ------------------------------------------------------------------ *)

(* LSP-style sequential splice: each edit [(start, stop, text)] replaces
   the byte range [start, stop) of the *already-spliced* text — later
   edits see earlier edits' output, so offsets never need adjusting on
   the client side. *)
let splice ~source ~edits =
  let apply src (start, stop, text) =
    let len = String.length src in
    if start < 0 || start > stop || stop > len then
      Error
        (Printf.sprintf "edit range [%d, %d) out of bounds for length %d"
           start stop len)
    else
      Ok
        (String.concat ""
           [ String.sub src 0 start; text;
             String.sub src stop (len - stop) ])
  in
  List.fold_left
    (fun acc e -> Result.bind acc (fun src -> apply src e))
    (Ok source) edits

type change_outcome =
  | Changed of update_outcome
  | No_such_doc
  | Bad_edit of string

let change ?(cancelled = fun () -> false) t ~name ~edits =
  Rwlock.write (lock_for t name) (fun () ->
      match
        Mutex.protect t.st_mutex (fun () -> Hashtbl.find_opt t.docs name)
      with
      | None -> No_such_doc
      | Some d -> (
        (* Edits are relative to the document's last-good source (the
           one whose answers the client has been seeing — after a
           Rejected revision the failed source was never retained, so
           last-good is the only consistent base). *)
        match splice ~source:d.dc_source ~edits with
        | Error msg -> Bad_edit msg
        | Ok source ->
          Changed
            (open_or_update_locked t ~name ~source ~inject:d.dc_inject
               ~cancelled)))

(* ------------------------------------------------------------------ *)
(* Views                                                               *)
(* ------------------------------------------------------------------ *)

let name d = d.dc_name
let doc_mode d = d.dc_mode
let generation d = d.dc_generation
let queries d = Atomic.get d.dc_queries
let degraded_queries d = Atomic.get d.dc_degraded
let failed_updates d = d.dc_failed_updates
let last_error d = d.dc_last_error
let source d = d.dc_source
let engine d = d.dc_engine
let program d = d.dc_program
let opt_stats d = d.dc_opt

let n_paths d = Array.length d.dc_paths
let path d i = d.dc_paths.(i)

(* ------------------------------------------------------------------ *)
(* Queries                                                             *)
(* ------------------------------------------------------------------ *)

let quarantine d msg =
  d.dc_mode <- Conservative;
  d.dc_last_error <- Some msg

(* One handle per request: the engine's raw oracle, wrapped in the
   document's injections. The raw oracles fill their tables when the
   engine builds them and only read them at query time, so a handle is
   safe on any domain, and a memo in front of them would cost more than
   the table lookups it saves (every install would empty it). The caller
   holds the document's shared lock, so the engine cannot change under
   the handle; the mode is read per pair, so a quarantine mid-batch
   applies from the next pair. *)
let may_alias ?cancelled d kind =
  let oracle = wrap_inject d.dc_inject (Tbaa.Engine.oracle d.dc_engine kind) in
  let slow = slow_ms_of d.dc_inject in
  fun i j ->
    Atomic.incr d.dc_queries;
    match d.dc_mode with
    | Conservative ->
      (* The quarantined engine is not consulted at all; every memory
         reference pair gets the sound top answer. *)
      Atomic.incr d.dc_degraded;
      true
    | Fresh | Stale -> (
      if d.dc_mode = Stale then Atomic.incr d.dc_degraded;
      if slow > 0.0 then sleep_ms ?cancelled slow;
      let _, p, _ = d.dc_paths.(i) and _, q, _ = d.dc_paths.(j) in
      match oracle.Tbaa.Oracle.may_alias p q with
      | answer -> answer
      | exception e ->
        quarantine d (Printexc.to_string e);
        Atomic.incr d.dc_degraded;
        true)

let modref d kind proc =
  Atomic.incr d.dc_queries;
  match d.dc_mode with
  | Conservative ->
    Atomic.incr d.dc_degraded;
    None
  | Fresh | Stale ->
    if d.dc_mode = Stale then Atomic.incr d.dc_degraded;
    (* [modref_merged] builds the per-kind effects view lazily inside the
       engine on first use — serialize that mutation across readers. *)
    (match
       Mutex.protect d.dc_omutex (fun () ->
           Tbaa.Engine.modref_merged d.dc_engine kind proc)
     with
    | eff -> Some eff
    | exception e ->
      quarantine d (Printexc.to_string e);
      None)

let health_json d =
  Json.Obj
    [ ("doc", Json.String d.dc_name);
      ("mode", Json.String (mode_name d.dc_mode));
      ("generation", Json.Int d.dc_generation);
      ("procs", Json.Int (List.length d.dc_program.Ir.Cfg.prog_procs));
      ("memrefs", Json.Int (Array.length d.dc_paths));
      ("queries", Json.Int (Atomic.get d.dc_queries));
      ("degraded_queries", Json.Int (Atomic.get d.dc_degraded));
      ("failed_updates", Json.Int d.dc_failed_updates);
      ( "last_error",
        match d.dc_last_error with
        | Some e -> Json.String e
        | None -> Json.Null );
      ("optimizer", Option.value d.dc_opt ~default:Json.Null) ]
