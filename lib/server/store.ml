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

(* What the edit path re-reads one procedure against: the last full
   front-end run's results, kept current across fast edits. *)
type front = {
  fr_spans : Minim3.Parser.span array;
      (* the top-level procedure declarations; the [i]th lowers to the
         [i]th of [prog_procs] *)
  fr_context : Minim3.Typecheck.context;
  fr_layout : Ir.Lower.layout;
  fr_fingerprints : int array;  (* [Ir.Fingerprint.proc] of [prog_procs] *)
}

type doc = {
  dc_name : string;
  mutable dc_source : string;  (* last-good source *)
  mutable dc_program : Ir.Cfg.program;  (* last-good lowered program *)
  mutable dc_front : front;  (* for [dc_source] and [dc_program] *)
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
  mutable dc_edits_fast : int;  (* edits that re-read one procedure *)
  mutable dc_edits_full : int;  (* edits that needed the full front end *)
  mutable dc_last_fallback : string option;  (* why the last of those did *)
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
   only the edited procedure and its transitive callers, and the session
   reads the fingerprints the front end carries instead of hashing every
   body. *)
let optimizer_schedule =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.none with
      Opt.Pass_manager.Config.licm = true; pre = true; slf = true;
      rle = true; copyprop = true; dse = true }

let optimize_doc d program =
  let saved = Ir.Cfg.snapshot program in
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
    let reports =
      Opt.Pass_manager.rerun ~fingerprints:d.dc_front.fr_fingerprints s
        program optimizer_schedule
    in
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
    Ir.Cfg.restore program saved;
    d.dc_opt <- Some stats
  | exception e ->
    (* The optimizer is advisory: a crash there must not degrade the
       query path. Restore the lowering, drop the (possibly corrupt)
       session, and surface the error in the stats instead. *)
    Ir.Cfg.restore program saved;
    d.dc_opt_session <- None;
    d.dc_opt <- Some (Json.Obj [ ("error", Json.String (Printexc.to_string e)) ])

(* ------------------------------------------------------------------ *)
(* The front end                                                       *)
(* ------------------------------------------------------------------ *)

let changed_range a b =
  let la = String.length a and lb = String.length b in
  let n = min la lb in
  let p = ref 0 in
  while !p < n && String.unsafe_get a !p = String.unsafe_get b !p do
    incr p
  done;
  let s = ref 0 in
  while
    !s < n - !p
    && String.unsafe_get a (la - 1 - !s) = String.unsafe_get b (lb - 1 - !s)
  do
    incr s
  done;
  (!p, la - !s, lb - !s)

let fingerprints program =
  Array.of_list (List.map Ir.Fingerprint.proc program.Ir.Cfg.prog_procs)

(* Parse, check and lower the whole source; the diagnostics are
   [Typecheck.check_string_all]'s. *)
let read_full ~name ~source =
  match Minim3.Parser.parse_module_spans ~file:name source with
  | exception Diag.Compile_error d -> Error [ d ]
  | ast, spans -> (
    match Minim3.Typecheck.check_module_context ast with
    | Error diags -> Error diags
    | Ok (tast, context) ->
      let program, layout = Ir.Lower.lower_program_layout tast in
      Ok
        ( program,
          { fr_spans = spans; fr_context = context; fr_layout = layout;
            fr_fingerprints = fingerprints program } ))

(* The procedure whose declaration holds the changed bytes [start, stop)
   of the old source and keeps its own first and last byte. *)
let enclosing spans start stop =
  let k = ref (-1) in
  Array.iteri
    (fun i (sp : Minim3.Parser.span) -> if sp.sp_start < start then k := i)
    spans;
  if !k >= 0 && stop < spans.(!k).Minim3.Parser.sp_stop then Some !k else None

let count_newlines s start stop =
  let n = ref 0 in
  for i = start to stop - 1 do
    if String.unsafe_get s i = '\n' then incr n
  done;
  !n

(* The fast path: when the edit stays inside one procedure declaration,
   re-read only that declaration and lower it into a new program that
   shares every other procedure with the last-good one, which is not
   changed. [Error] says why the edit needs a full rebuild; under the
   conditions checked here the result equals a full rebuild's. *)
let reread d ~name ~source =
  let ( let* ) = Result.bind in
  let check ok reason = if ok then Ok () else Error reason in
  let old = d.dc_source and fr = d.dc_front in
  let procs = d.dc_program.Ir.Cfg.prog_procs in
  let start, old_stop, new_stop = changed_range old source in
  if old_stop = start && new_stop = start then Ok (d.dc_program, fr)
  else
    let* k =
      Option.to_result ~none:"the edit is not inside one procedure declaration"
        (enclosing fr.fr_spans start old_stop)
    in
    let (sp : Minim3.Parser.span) = fr.fr_spans.(k) in
    let delta = new_stop - old_stop in
    let* decl, stop =
      try
        Ok
          (Minim3.Parser.parse_proc_at ~file:name source ~pos:sp.sp_start
             ~line:sp.sp_line)
      with Diag.Compile_error e -> Error (Diag.to_string e)
    in
    let* () =
      check (stop = sp.sp_stop + delta)
        "the declaration no longer ends where it did"
    in
    let* () =
      check
        (Ident.equal decl.Minim3.Ast.pr_name (List.nth procs k).Ir.Cfg.pr_name)
        "the header changed"
    in
    let* tproc = Minim3.Typecheck.check_proc fr.fr_context decl in
    let* proc =
      match Ir.Lower.lower_proc d.dc_program fr.fr_layout tproc with
      | Some proc -> Ok proc
      | None -> Error "the procedure needs a different number of variables"
      | exception Diag.Compile_error e -> Error (Diag.to_string e)
    in
    let fps = Array.copy fr.fr_fingerprints in
    fps.(k) <- Ir.Fingerprint.proc proc;
    let lines =
      count_newlines source start new_stop - count_newlines old start old_stop
    in
    let shift i (sp : Minim3.Parser.span) =
      if i < k then sp
      else if i = k then { sp with sp_stop = sp.sp_stop + delta }
      else
        { sp_start = sp.sp_start + delta; sp_stop = sp.sp_stop + delta;
          sp_line = sp.sp_line + lines }
    in
    Ok
      ( (let p = d.dc_program in
         Ir.Cfg.make_program ~tenv:p.Ir.Cfg.tenv ~globals:p.Ir.Cfg.prog_globals
           ~main:p.Ir.Cfg.prog_main ~next_var_id:p.Ir.Cfg.next_var_id
           (List.mapi (fun i p -> if i = k then proc else p) procs)),
        { fr with
          fr_spans = Array.mapi shift fr.fr_spans;
          fr_fingerprints = fps } )

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
      (* [fallback] is [Some reason] when an open document needed the
         full rebuild. *)
      let read, fallback =
        match existing with
        | None -> (read_full ~name ~source, None)
        | Some d -> (
          match reread d ~name ~source with
          | Ok r -> (Ok r, None)
          | Error reason -> (read_full ~name ~source, Some reason))
      in
      let count_edit d =
        match fallback with
        | None -> d.dc_edits_fast <- d.dc_edits_fast + 1
        | Some _ ->
          d.dc_edits_full <- d.dc_edits_full + 1;
          d.dc_last_fallback <- fallback
      in
      match read with
      | Error diags ->
        Option.iter count_edit existing;
        degrade_on_failure existing
          (match diags with
          | d :: _ -> Diag.to_string d
          | [] -> "compile error");
        Rejected (existing, diags)
      | Ok (program, front) ->
        let check () = if cancelled () then raise Update_cancelled in
        let engine =
          match existing with
          | Some d ->
            Tbaa.Engine.update ~check ~fingerprints:front.fr_fingerprints
              d.dc_engine program
          | None ->
            check ();
            Tbaa.Engine.create program
        in
        let paths = paths_of engine in
        let doc =
          match existing with
          | Some d ->
            count_edit d;
            d.dc_source <- source;
            d.dc_program <- program;
            d.dc_front <- front;
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
                dc_front = front; dc_engine = engine; dc_opt_session = None;
                dc_opt = None;
                dc_paths = paths; dc_mode = Fresh;
                dc_last_error = None; dc_inject = inject;
                dc_omutex = Mutex.create ();
                dc_generation = 1; dc_attempts = attempts;
                dc_queries = Atomic.make 0; dc_degraded = Atomic.make 0;
                dc_failed_updates = 0; dc_edits_fast = 0; dc_edits_full = 0;
                dc_last_fallback = None }
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
let edits_fast d = d.dc_edits_fast
let edits_full d = d.dc_edits_full
let last_fallback d = d.dc_last_fallback
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
      ("edits_fast", Json.Int d.dc_edits_fast);
      ("edits_full", Json.Int d.dc_edits_full);
      ( "last_fallback",
        match d.dc_last_fallback with
        | Some r -> Json.String r
        | None -> Json.Null );
      ( "last_error",
        match d.dc_last_error with
        | Some e -> Json.String e
        | None -> Json.Null );
      ("optimizer", Option.value d.dc_opt ~default:Json.Null) ]
