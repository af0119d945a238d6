(* Transport-free JSON-RPC dispatch over the document store. *)

open Support

type config = {
  max_batch : int;
  max_pending : int;
  max_request_bytes : int;
  max_docs : int;
  default_deadline_ms : float;
  allow_inject : bool;
  optimize : bool;  (* incrementally re-optimize each installed revision *)
  workers : int;  (* worker domains for concurrent dispatch (0 = none) *)
}

let default_config =
  { max_batch = 4096; max_pending = 64; max_request_bytes = 8 * 1024 * 1024;
    max_docs = 64; default_deadline_ms = 2000.0; allow_inject = false;
    optimize = false; workers = 0 }

(* One queued request line, pre-parsed on the submitting thread. *)
type job = {
  jb_value : Json.t;
  jb_token : bool Atomic.t;  (* flipped by a matching [cancel] *)
  jb_ids : string list;  (* inflight-registry keys to clear when done *)
  jb_respond : string -> unit;
}

(* Per-client dispatch state: a FIFO of pending lines plus a "one actor
   at a time" flag. A client's lines are processed strictly in
   submission order by whichever worker runs its actor, so each client
   sees the same response stream as under serialized dispatch; only
   *across* clients do requests interleave. *)
type client = {
  cl_name : string;
  cl_q : job Queue.t;
  mutable cl_running : bool;
}

type t = {
  cfg : config;
  st : Store.t;
  shutdown : bool Atomic.t;
  sv_requests : int Atomic.t;
  sv_ok : int Atomic.t;
  sv_errors : int Atomic.t;
  sv_timeouts : int Atomic.t;
  sv_shed : int Atomic.t;
  sv_cancelled : int Atomic.t;
  sv_alias_answers : int Atomic.t;
  pool : Domain_pool.pool option;  (* Some iff cfg.workers > 0 *)
  dm : Mutex.t;  (* guards clients, inflight and every cl_q/cl_running *)
  dcond : Condition.t;  (* signalled whenever a client goes idle *)
  clients : (string, client) Hashtbl.t;
  inflight : (string * string, bool Atomic.t) Hashtbl.t;
      (* (client, request id) -> that line's cancellation token; entries
         live from submission to response, so queued work is cancellable
         before a worker ever picks it up *)
}

let create ?(config = default_config) () =
  { cfg = config;
    st = Store.create ~max_docs:config.max_docs ~optimize:config.optimize
           ~allow_inject:config.allow_inject ();
    shutdown = Atomic.make false;
    sv_requests = Atomic.make 0; sv_ok = Atomic.make 0;
    sv_errors = Atomic.make 0; sv_timeouts = Atomic.make 0;
    sv_shed = Atomic.make 0; sv_cancelled = Atomic.make 0;
    sv_alias_answers = Atomic.make 0;
    pool =
      (if config.workers > 0 then
         Some (Domain_pool.pool_create ~workers:config.workers ())
       else None);
    dm = Mutex.create (); dcond = Condition.create ();
    clients = Hashtbl.create 8; inflight = Hashtbl.create 16 }

let config t = t.cfg
let store t = t.st
let shutting_down t = Atomic.get t.shutdown
let workers t = match t.pool with Some p -> Domain_pool.pool_size p | None -> 0

(* The request context: which client a request arrived from (cancel
   scoping) and its line's cancellation token. *)
type ctx = { cx_client : string; cx_token : bool Atomic.t }

let ctx_for client = { cx_client = client; cx_token = Atomic.make false }
let sync_ctx () = ctx_for "_sync"

(* ------------------------------------------------------------------ *)
(* Param decoding beyond the generic Rpc accessors                     *)
(* ------------------------------------------------------------------ *)

let kind_of_name rq = function
  | "TypeDecl" | "type_decl" -> Tbaa.Engine.Type_decl
  | "FieldTypeDecl" | "field_type_decl" -> Tbaa.Engine.Field_type_decl
  | "SMFieldTypeRefs" | "sm_field_type_refs" -> Tbaa.Engine.Sm_field_type_refs
  | other ->
    Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params
      "unknown oracle %S (expected TypeDecl, FieldTypeDecl or \
       SMFieldTypeRefs)" other

let oracle_param rq =
  match Rpc.str_param_opt rq "oracle" with
  | None -> Tbaa.Engine.Sm_field_type_refs
  | Some name -> kind_of_name rq name

(* Run [f] on the named document under its shared (read) lock, so the
   whole request observes one consistent revision even while other
   clients' [open]/[change] requests are in flight. *)
let with_doc t rq f =
  let name = Rpc.str_param rq "doc" in
  Store.with_doc_read t.st name (function
    | Some d -> f name d
    | None ->
      Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params "unknown document %S"
        name)

let inject_param rq =
  match Rpc.list_param_opt rq "inject" with
  | None -> []
  | Some items ->
    List.map
      (fun item ->
        let sub = { rq with Rpc.rq_params = item } in
        let seed () =
          match Rpc.int_param_opt sub "seed" with Some s -> s | None -> 0
        in
        let rate () =
          match Rpc.float_param_opt sub "rate" with
          | Some r -> r
          | None -> 0.0
        in
        match Rpc.str_param sub "kind" with
        | "flip" -> Store.Flip { seed = seed (); rate = rate () }
        | "crash" -> Store.Crash { seed = seed (); rate = rate () }
        | "slow" ->
          let ms =
            match Rpc.float_param_opt sub "ms" with
            | Some ms -> ms
            | None -> 1.0
          in
          Store.Slow { ms }
        | other ->
          Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params
            "unknown inject kind %S" other)
      items

(* The per-request deadline (absolute, in clamped-monotonic ms — see
   Support.Clock; raw gettimeofday here would let an NTP step expire or
   immortalize every in-flight request at once): every batched query
   checks it, so one pathological request degrades into one structured
   Timeout response instead of stalling its worker forever. *)
let deadline_of rq default_ms =
  let ms =
    match Rpc.float_param_opt rq "deadline_ms" with
    | Some ms when ms > 0.0 -> ms
    | Some _ | None -> default_ms
  in
  Clock.now_ms () +. ms

(* The cooperative progress check, called before each query of a batch.
   Cancellation wins over timeout; both report how many answers were
   already computed. The cancel token is read every time. The clock,
   whose read costs more than a query, is read before the queries
   numbered 0, 1, 2, 4, 8, ... and every 64th ([completed] is the
   number), so a slow query still times out the batch one query later,
   and a long batch reads it once per 64. *)
let clock_due completed =
  completed land (completed - 1) = 0 || completed land 63 = 0

let check_progress t rq ~ctx ~deadline ~completed =
  if Atomic.get ctx.cx_token then begin
    Atomic.incr t.sv_cancelled;
    Rpc.reject ~id:rq.Rpc.rq_id
      ~data:[ ("completed", Json.Int completed) ]
      Rpc.Cancelled "request cancelled"
  end;
  if clock_due completed && Clock.now_ms () > deadline then begin
    Atomic.incr t.sv_timeouts;
    Rpc.reject ~id:rq.Rpc.rq_id
      ~data:[ ("completed", Json.Int completed) ]
      Rpc.Timeout "deadline expired"
  end

(* ------------------------------------------------------------------ *)
(* Method handlers (each returns the "result" payload)                 *)
(* ------------------------------------------------------------------ *)

let doc_summary name d =
  Json.Obj
    [ ("doc", Json.String name);
      ("mode", Json.String (Store.mode_name (Store.doc_mode d)));
      ("generation", Json.Int (Store.generation d));
      ("memrefs", Json.Int (Store.n_paths d)) ]

let mode_of_opt = function
  | Some d -> Store.mode_name (Store.doc_mode d)
  | None -> "closed"

let update_outcome_response t rq = function
  | Store.Updated d -> doc_summary (Rpc.str_param rq "name") d
  | Store.Rejected (doc, diags) ->
    Rpc.reject ~id:rq.Rpc.rq_id
      ~data:
        [ ("mode", Json.String (mode_of_opt doc));
          ( "diagnostics",
            Json.List
              (List.map (fun d -> Json.String (Diag.to_string d)) diags) ) ]
      Rpc.Document_error "source failed to compile"
  | Store.Crashed (doc, msg) ->
    Rpc.rejectf ~id:rq.Rpc.rq_id
      ~data:
        [ ("mode", Json.String (mode_of_opt doc));
          ("rolled_back", Json.Bool (doc <> None)) ]
      Rpc.Document_error "analysis crashed: %s" msg
  | Store.Cancelled doc ->
    Atomic.incr t.sv_cancelled;
    Rpc.reject ~id:rq.Rpc.rq_id
      ~data:
        [ ("completed", Json.Int 0);
          ("mode", Json.String (mode_of_opt doc)) ]
      Rpc.Cancelled "request cancelled"

let handle_open t ctx rq =
  let name = Rpc.str_param rq "name" in
  let source = Rpc.str_param rq "source" in
  let inject = inject_param rq in
  if Store.find t.st name = None && Store.count t.st >= Store.max_docs t.st
  then
    Rpc.rejectf ~id:rq.Rpc.rq_id
      ~data:[ ("max_docs", Json.Int (Store.max_docs t.st)) ]
      Rpc.Overloaded "document store full (%d documents)"
      (Store.count t.st);
  let cancelled () = Atomic.get ctx.cx_token in
  update_outcome_response t rq
    (Store.open_or_update ~cancelled t.st ~name ~source ~inject)

(* Incremental didChange: ranged partial edits over the document's
   last-good source, spliced LSP-style (each edit's offsets address the
   already-spliced text) and rebuilt through the fingerprint-keyed
   engine update. *)
let handle_change t ctx rq =
  let name = Rpc.str_param rq "name" in
  let edits =
    match Rpc.list_param_opt rq "edits" with
    | Some es -> es
    | None ->
      Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params "missing param \"edits\""
  in
  let edits =
    List.map
      (fun e ->
        let sub = { rq with Rpc.rq_params = e } in
        let int_field f =
          match Rpc.int_param_opt sub f with
          | Some v -> v
          | None ->
            Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params
              "each edit needs integer %S" f
        in
        let text =
          match Rpc.str_param_opt sub "text" with Some s -> s | None -> ""
        in
        (int_field "start", int_field "end", text))
      edits
  in
  let cancelled () = Atomic.get ctx.cx_token in
  match Store.change ~cancelled t.st ~name ~edits with
  | Store.No_such_doc ->
    Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params "unknown document %S" name
  | Store.Bad_edit msg ->
    Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params "bad edit: %s" msg
  | Store.Changed outcome -> update_outcome_response t rq outcome

let handle_alias t ctx rq =
  with_doc t rq (fun _ d ->
  let kind = oracle_param rq in
  let pairs =
    match Rpc.list_param_opt rq "pairs" with
    | Some ps -> ps
    | None ->
      Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params "missing param \"pairs\""
  in
  if List.length pairs > t.cfg.max_batch then begin
    Atomic.incr t.sv_shed;
    Rpc.rejectf ~id:rq.Rpc.rq_id
      ~data:[ ("max_batch", Json.Int t.cfg.max_batch) ]
      Rpc.Overloaded "batch of %d pairs exceeds max_batch %d"
      (List.length pairs) t.cfg.max_batch
  end;
  let n = Store.n_paths d in
  let deadline = deadline_of rq t.cfg.default_deadline_ms in
  let cancelled () = Atomic.get ctx.cx_token in
  let may_alias = Store.may_alias ~cancelled d kind in
  let completed = ref 0 in
  let answers =
    List.map
      (fun pair ->
        check_progress t rq ~ctx ~deadline ~completed:!completed;
        let i, j =
          match pair with
          | Json.List [ Json.Int i; Json.Int j ] -> (i, j)
          | _ ->
            Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params
              "each pair must be a two-int array"
        in
        if i < 0 || i >= n || j < 0 || j >= n then
          Rpc.rejectf ~id:rq.Rpc.rq_id
            ~data:[ ("memrefs", Json.Int n) ]
            Rpc.Invalid_params "pair [%d,%d] out of range (memrefs %d)" i j n;
        incr completed;
        Atomic.incr t.sv_alias_answers;
        (* constant constructors: an answer allocates nothing *)
        if may_alias i j then Json.Bool true else Json.Bool false)
      pairs
  in
  Json.Obj
    [ ("oracle", Json.String (Tbaa.Engine.kind_name kind));
      ("mode", Json.String (Store.mode_name (Store.doc_mode d)));
      ("answers", Json.List answers) ])

let handle_modref t rq =
  with_doc t rq (fun _ d ->
  let kind = oracle_param rq in
  let proc = Rpc.str_param rq "proc" in
  let program = Store.program d in
  let pr =
    List.find_opt
      (fun p -> Ident.name p.Ir.Cfg.pr_name = proc)
      program.Ir.Cfg.prog_procs
  in
  let pname =
    match pr with
    | Some p -> p.Ir.Cfg.pr_name
    | None ->
      Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params "unknown procedure %S"
        proc
  in
  let tenv = (Tbaa.Engine.program (Store.engine d)).Ir.Cfg.tenv in
  let aloc_list set =
    Json.List
      (List.map
         (fun a -> Json.String (Format.asprintf "%a" (Tbaa.Aloc.pp tenv) a))
         (Tbaa.Aloc.Set.elements set))
  in
  let mode = Json.String (Store.mode_name (Store.doc_mode d)) in
  match Store.modref d kind pname with
  | Some eff ->
    Json.Obj
      [ ("oracle", Json.String (Tbaa.Engine.kind_name kind));
        ("mode", mode);
        ("mods", aloc_list eff.Tbaa.Effects.e_mods);
        ("refs", aloc_list eff.Tbaa.Effects.e_refs) ]
  | None ->
    (* Conservative/quarantined: the sound "may mod and ref anything". *)
    Json.Obj
      [ ("oracle", Json.String (Tbaa.Engine.kind_name kind));
        ("mode", mode); ("top", Json.Bool true) ])

let handle_paths t rq =
  with_doc t rq (fun _ d ->
  let n = Store.n_paths d in
  let limit =
    match Rpc.int_param_opt rq "limit" with
    | Some l when l >= 0 -> min l n
    | Some _ | None -> n
  in
  let rows = ref [] in
  for i = limit - 1 downto 0 do
    let proc, path, is_store = Store.path d i in
    rows :=
      Json.Obj
        [ ("index", Json.Int i);
          ("proc", Json.String (Ident.name proc));
          ("path", Json.String (Ir.Apath.to_string path));
          ("is_store", Json.Bool is_store) ]
      :: !rows
  done;
  Json.Obj [ ("memrefs", Json.Int n); ("paths", Json.List !rows) ])

let handle_stats t rq =
  with_doc t rq (fun name d ->
  Json.envelope
    [ ("doc", Json.String name);
      ("mode", Json.String (Store.mode_name (Store.doc_mode d)));
      ("generation", Json.Int (Store.generation d));
      ("engine", Tbaa.Engine.stats (Store.engine d));
      ("optimizer", Option.value (Store.opt_stats d) ~default:Json.Null) ])

let server_counters t =
  Json.Obj
    [ ("requests", Json.Int (Atomic.get t.sv_requests));
      ("ok", Json.Int (Atomic.get t.sv_ok));
      ("errors", Json.Int (Atomic.get t.sv_errors));
      ("timeouts", Json.Int (Atomic.get t.sv_timeouts));
      ("shed", Json.Int (Atomic.get t.sv_shed));
      ("cancelled", Json.Int (Atomic.get t.sv_cancelled));
      ("alias_answers", Json.Int (Atomic.get t.sv_alias_answers)) ]

let health_json t =
  let docs =
    List.filter_map
      (fun name ->
        Store.with_doc_read t.st name (Option.map Store.health_json))
      (Store.names t.st)
  in
  Json.Obj
    [ ( "status",
        Json.String (if Atomic.get t.shutdown then "stopping" else "ok") );
      ("documents", Json.List docs);
      ("counters", server_counters t);
      ( "limits",
        Json.Obj
          [ ("max_batch", Json.Int t.cfg.max_batch);
            ("max_pending", Json.Int t.cfg.max_pending);
            ("max_request_bytes", Json.Int t.cfg.max_request_bytes);
            ("max_docs", Json.Int t.cfg.max_docs);
            ("default_deadline_ms", Json.Float t.cfg.default_deadline_ms);
            ("workers", Json.Int (workers t)) ] )
    ]

let handle_close t rq =
  let name = Rpc.str_param rq "name" in
  Json.Obj [ ("closed", Json.Bool (Store.close t.st name)) ]

(* Flip the token of a same-client in-flight (queued or running)
   request. Returns whether a matching request was found — false covers
   both "unknown id" and "already answered", which are indistinguishable
   to the client anyway (LSP gives cancellation the same best-effort
   semantics). *)
let do_cancel t ~client rq =
  let target =
    match Rpc.param rq "id" with
    | Some ((Json.Int _ | Json.String _) as id) -> Json.to_string id
    | Some _ | None ->
      Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Invalid_params
        "param \"id\" must be the id of the request to cancel"
  in
  let found =
    Mutex.protect t.dm (fun () ->
        match Hashtbl.find_opt t.inflight (client, target) with
        | Some token ->
          Atomic.set token true;
          true
        | None -> false)
  in
  Json.Obj [ ("cancelled", Json.Bool found) ]

let dispatch t ctx rq =
  match rq.Rpc.rq_method with
  | "open" | "update" -> handle_open t ctx rq
  | "change" -> handle_change t ctx rq
  | "alias" -> handle_alias t ctx rq
  | "modref" -> handle_modref t rq
  | "paths" -> handle_paths t rq
  | "stats" -> handle_stats t rq
  | "health" -> health_json t
  | "close" -> handle_close t rq
  | "cancel" -> do_cancel t ~client:ctx.cx_client rq
  | "ping" -> Json.Obj [ ("pong", Json.Bool true) ]
  | "shutdown" ->
    Atomic.set t.shutdown true;
    Json.Obj [ ("stopping", Json.Bool true) ]
  | m ->
    Rpc.rejectf ~id:rq.Rpc.rq_id Rpc.Method_not_found "unknown method %S" m

(* ------------------------------------------------------------------ *)
(* The never-raise boundary                                            *)
(* ------------------------------------------------------------------ *)

let handle_single t ctx j =
  Atomic.incr t.sv_requests;
  match
    let rq = Rpc.request_of_json j in
    (* A request cancelled while still queued never touches the store:
       answer the structured rejection with zero work completed. *)
    check_progress t rq ~ctx
      ~deadline:infinity ~completed:0;
    Rpc.response_ok rq.Rpc.rq_id (dispatch t ctx rq)
  with
  | resp ->
    Atomic.incr t.sv_ok;
    resp
  | exception Rpc.Reject (id, code, msg, data) ->
    Atomic.incr t.sv_errors;
    Rpc.response_error id code msg data
  | exception e ->
    (* The catch-all: nothing a request does may take the server down. *)
    Atomic.incr t.sv_errors;
    Rpc.response_error Json.Null Rpc.Internal_error (Printexc.to_string e) []

let handle_value_ctx t ctx j =
  match j with
  | Json.List [] ->
    Atomic.incr t.sv_requests;
    Atomic.incr t.sv_errors;
    Rpc.response_error Json.Null Rpc.Invalid_request "empty batch" []
  | Json.List items when List.length items > t.cfg.max_batch ->
    Atomic.incr t.sv_requests;
    Atomic.incr t.sv_errors;
    Atomic.incr t.sv_shed;
    Rpc.response_error Json.Null Rpc.Overloaded
      (Printf.sprintf "batch of %d requests exceeds max_batch %d"
         (List.length items) t.cfg.max_batch)
      [ ("max_batch", Json.Int t.cfg.max_batch) ]
  | Json.List items -> Json.List (List.map (handle_single t ctx) items)
  | _ -> handle_single t ctx j

let handle_value t j = handle_value_ctx t (sync_ctx ()) j

let shed_line t ~reason =
  Atomic.incr t.sv_requests;
  Atomic.incr t.sv_errors;
  Atomic.incr t.sv_shed;
  Json.to_string
    (Rpc.response_error Json.Null Rpc.Overloaded reason
       [ ("max_pending", Json.Int t.cfg.max_pending) ])

let parse_line t line =
  if String.length line > t.cfg.max_request_bytes then
    Error
      (shed_line t
         ~reason:
           (Printf.sprintf "request of %d bytes exceeds max_request_bytes %d"
              (String.length line) t.cfg.max_request_bytes))
  else
    match Json.parse line with
    | Error d ->
      Atomic.incr t.sv_requests;
      Atomic.incr t.sv_errors;
      Error
        (Json.to_string
           (Rpc.response_error Json.Null Rpc.Parse_error d.Diag.message []))
    | Ok v -> Ok v

let handle_line t line =
  match parse_line t line with
  | Error resp -> resp
  | Ok v -> Json.to_string (handle_value t v)

(* ------------------------------------------------------------------ *)
(* Concurrent submission (worker-pool dispatch)                        *)
(* ------------------------------------------------------------------ *)

(* Request ids appearing in a line (one for a single request, each
   element's for a batch) — the keys a [cancel] can target. *)
let ids_of_value v =
  let id_of = function
    | Json.Obj _ as o -> (
      match Json.member "id" o with
      | Some ((Json.Int _ | Json.String _) as id) -> Some (Json.to_string id)
      | _ -> None)
    | _ -> None
  in
  match v with
  | Json.List items -> List.filter_map id_of items
  | v -> Option.to_list (id_of v)

let client_state t name =
  match Hashtbl.find_opt t.clients name with
  | Some c -> c
  | None ->
    let c = { cl_name = name; cl_q = Queue.create (); cl_running = false } in
    Hashtbl.replace t.clients name c;
    c

let finish_job t cst job =
  Mutex.protect t.dm (fun () ->
      List.iter
        (fun id -> Hashtbl.remove t.inflight (cst.cl_name, id))
        job.jb_ids)

(* The per-client actor: process exactly one queued line, then hand the
   pool back (re-submitting itself if more lines are waiting) so a busy
   client cannot monopolize a worker. [cl_running] guarantees at most
   one actor per client, which is what keeps each client's response
   stream in submission order. *)
let rec actor t cst () =
  let job =
    Mutex.protect t.dm (fun () ->
        match Queue.take_opt cst.cl_q with
        | Some j -> Some j
        | None ->
          cst.cl_running <- false;
          Condition.broadcast t.dcond;
          None)
  in
  match job with
  | None -> ()
  | Some job ->
    let ctx = { cx_client = cst.cl_name; cx_token = job.jb_token } in
    let resp =
      try Json.to_string (handle_value_ctx t ctx job.jb_value)
      with e ->
        (* handle_value_ctx never raises; belt and braces. *)
        Json.to_string
          (Rpc.response_error Json.Null Rpc.Internal_error
             (Printexc.to_string e) [])
    in
    finish_job t cst job;
    (try job.jb_respond resp with _ -> ());
    (match t.pool with
    | Some pool -> Domain_pool.pool_submit pool (actor t cst)
    | None -> actor t cst ())

(* Is this line a lone [cancel] request? Those bypass the queue — a
   cancel must be able to overtake the very request it targets. (A
   cancel inside a batch takes the normal path and is only useful
   against other clients' or later work.) *)
let cancel_fast_path t ~client v =
  match v with
  | Json.Obj _ when Json.member "method" v = Some (Json.String "cancel") ->
    Some (Json.to_string (handle_single t (ctx_for client) v))
  | _ -> None

let submit t ~client line ~respond =
  match parse_line t line with
  | Error resp -> respond resp
  | Ok v -> (
    match cancel_fast_path t ~client v with
    | Some resp -> respond resp
    | None ->
      let token = Atomic.make false in
      let ids = ids_of_value v in
      let job =
        { jb_value = v; jb_token = token; jb_ids = ids; jb_respond = respond }
      in
      let enqueued =
        Mutex.protect t.dm (fun () ->
            let cst = client_state t client in
            if Queue.length cst.cl_q >= t.cfg.max_pending then None
            else begin
              Queue.push job cst.cl_q;
              List.iter
                (fun id -> Hashtbl.replace t.inflight (client, id) token)
                ids;
              if cst.cl_running then Some (cst, false)
              else begin
                cst.cl_running <- true;
                Some (cst, true)
              end
            end)
      in
      match enqueued with
      | None ->
        respond
          (shed_line t
             ~reason:
               (Printf.sprintf "client queue full (max_pending %d)"
                  t.cfg.max_pending))
      | Some (cst, start_actor) ->
        if start_actor then (
          match t.pool with
          | Some pool -> Domain_pool.pool_submit pool (actor t cst)
          | None -> actor t cst ()))

let client_idle t client =
  Mutex.protect t.dm (fun () ->
      match Hashtbl.find_opt t.clients client with
      | None -> true
      | Some cst -> Queue.is_empty cst.cl_q && not cst.cl_running)

let quiesce t =
  Mutex.protect t.dm (fun () ->
      let busy () =
        Hashtbl.fold
          (fun _ cst acc ->
            acc || cst.cl_running || not (Queue.is_empty cst.cl_q))
          t.clients false
      in
      while busy () do
        Condition.wait t.dcond t.dm
      done)

let stop t =
  quiesce t;
  match t.pool with Some pool -> Domain_pool.pool_shutdown pool | None -> ()
