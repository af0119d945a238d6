(* The daemon stack: JSON-RPC envelope, dispatch, the degradation
   ladder, deadlines and shedding, engine exception-safety, the chaos
   harness, and end-to-end sessions against the real binaries. *)

open Support
module Rpc = Server.Rpc
module Store = Server.Store
module Dispatch = Server.Dispatch
module Chaos = Server.Chaos

let small_source = (Gen.Generator.generate ~size:1 3).Gen.Generator.source

(* ------------------------------------------------------------------ *)
(* Driving an in-process server                                        *)
(* ------------------------------------------------------------------ *)

let send srv meth params =
  Json.of_string
    (Dispatch.handle_line srv
       (Json.to_string
          (Json.Obj
             [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int 1);
               ("method", Json.String meth); ("params", Json.Obj params) ])))

let result_of resp =
  match Json.member "result" resp with
  | Some r -> r
  | None -> Alcotest.failf "expected a result: %s" (Json.to_string resp)

let error_code resp =
  match Json.member "error" resp with
  | Some err -> (
    match Json.member "code" err with
    | Some (Json.Int c) -> c
    | _ -> Alcotest.failf "error without int code: %s" (Json.to_string resp))
  | None -> Alcotest.failf "expected an error: %s" (Json.to_string resp)

let check_code what k resp =
  Alcotest.(check int) what (Rpc.code_number k) (error_code resp)

let member_exn name v =
  match Json.member name v with
  | Some x -> x
  | None -> Alcotest.failf "missing member %S in %s" name (Json.to_string v)

let open_doc ?(inject = []) srv name source =
  let params =
    [ ("name", Json.String name); ("source", Json.String source) ]
    @ if inject = [] then [] else [ ("inject", Json.List inject) ]
  in
  send srv "open" params

let memrefs_of resp =
  match member_exn "memrefs" (result_of resp) with
  | Json.Int n -> n
  | _ -> Alcotest.fail "memrefs is not an int"

let alias ?(extra = []) srv doc pairs =
  send srv "alias"
    ([ ("doc", Json.String doc);
       ( "pairs",
         Json.List
           (List.map (fun (i, j) -> Json.List [ Json.Int i; Json.Int j ]) pairs)
       ) ]
    @ extra)

let answers_of resp =
  match member_exn "answers" (result_of resp) with
  | Json.List l ->
    List.map
      (function Json.Bool b -> b | _ -> Alcotest.fail "non-bool answer")
      l
  | _ -> Alcotest.fail "answers is not a list"

let mode_of resp =
  match member_exn "mode" (result_of resp) with
  | Json.String m -> m
  | _ -> Alcotest.fail "mode is not a string"

let all_pairs n cap =
  let out = ref [] in
  for i = 0 to min (n - 1) cap do
    for j = 0 to min (n - 1) cap do
      out := (i, j) :: !out
    done
  done;
  !out

(* ------------------------------------------------------------------ *)
(* Envelope                                                            *)
(* ------------------------------------------------------------------ *)

let test_rpc_envelope () =
  let rq =
    Rpc.request_of_json
      (Json.of_string
         "{\"jsonrpc\":\"2.0\",\"id\":7,\"method\":\"ping\",\"params\":{}}")
  in
  Alcotest.(check string) "method" "ping" rq.Rpc.rq_method;
  Alcotest.(check bool) "id" true (rq.Rpc.rq_id = Json.Int 7);
  let rejects j =
    match Rpc.request_of_json (Json.of_string j) with
    | exception Rpc.Reject (_, Rpc.Invalid_request, _, _) -> ()
    | exception e -> Alcotest.failf "%s: wrong exception %s" j (Printexc.to_string e)
    | _ -> Alcotest.failf "%s: accepted" j
  in
  rejects "{\"id\":1}";
  rejects "{\"id\":1,\"method\":7}";
  rejects "{\"id\":1,\"method\":\"x\",\"params\":[1]}";
  rejects "42"

let test_dispatch_basics () =
  let srv = Dispatch.create () in
  ignore (result_of (send srv "ping" []));
  let health = result_of (send srv "health" []) in
  Alcotest.(check bool) "status" true
    (member_exn "status" health = Json.String "ok");
  check_code "unknown method" Rpc.Method_not_found (send srv "nope" []);
  check_code "parse error" Rpc.Parse_error
    (Json.of_string (Dispatch.handle_line srv "this is not json"));
  check_code "depth bomb" Rpc.Parse_error
    (Json.of_string (Dispatch.handle_line srv (String.make 4000 '[')));
  check_code "empty batch" Rpc.Invalid_request
    (Json.of_string (Dispatch.handle_line srv "[]"));
  (match
     Json.of_string
       (Dispatch.handle_line srv
          "[{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"ping\"},{\"id\":2}]")
   with
  | Json.List [ a; b ] ->
    ignore (result_of a);
    check_code "bad element in batch" Rpc.Invalid_request b
  | other ->
    Alcotest.failf "batch answered %s" (Json.to_string other))

(* ------------------------------------------------------------------ *)
(* Lifecycle and the degradation ladder                                *)
(* ------------------------------------------------------------------ *)

let test_doc_lifecycle () =
  let srv = Dispatch.create () in
  let opened = open_doc srv "d" small_source in
  Alcotest.(check string) "fresh after open" "fresh" (mode_of opened);
  let n = memrefs_of opened in
  Alcotest.(check bool) "has memrefs" true (n > 0);
  let pairs = all_pairs n 10 in
  let got = answers_of (alias srv "d" pairs) in
  Alcotest.(check int) "one answer per pair" (List.length pairs)
    (List.length got);
  let paths = result_of (send srv "paths" [ ("doc", Json.String "d") ]) in
  (match member_exn "paths" paths with
  | Json.List rows ->
    Alcotest.(check int) "one row per memref" n (List.length rows)
  | _ -> Alcotest.fail "paths is not a list");
  ignore (result_of (send srv "stats" [ ("doc", Json.String "d") ]));
  let closed = result_of (send srv "close" [ ("name", Json.String "d") ]) in
  Alcotest.(check bool) "closed" true
    (member_exn "closed" closed = Json.Bool true);
  check_code "query after close" Rpc.Invalid_params (alias srv "d" [ (0, 0) ])

let test_stale_serves_last_good () =
  let srv = Dispatch.create () in
  let n = memrefs_of (open_doc srv "d" small_source) in
  let pairs = all_pairs n 10 in
  let before = answers_of (alias srv "d" pairs) in
  let broken = small_source ^ "\nPROCEDURE @@@ !!" in
  check_code "broken update rejected" Rpc.Document_error
    (open_doc srv "d" broken);
  let after = alias srv "d" pairs in
  Alcotest.(check string) "stale mode" "stale" (mode_of after);
  Alcotest.(check (list bool)) "stale answers = last good" before
    (answers_of after);
  (* A good rebuild restores fresh answers. *)
  ignore (open_doc srv "d" small_source);
  let recovered = alias srv "d" pairs in
  Alcotest.(check string) "fresh again" "fresh" (mode_of recovered);
  Alcotest.(check (list bool)) "recovered answers" before
    (answers_of recovered)

let crash_inject seed =
  [ Json.Obj
      [ ("kind", Json.String "crash"); ("seed", Json.Int seed);
        ("rate", Json.Float 0.9) ] ]

let test_quarantine_conservative () =
  let config = { Dispatch.default_config with Dispatch.allow_inject = true } in
  let srv = Dispatch.create ~config () in
  let control = Dispatch.create () in
  (* Rate-0.9 crash injection also fires on rebuilds (deterministically
     per seed), so scan for a seed whose build coin happens to pass. *)
  let n =
    let rec try_seed seed =
      if seed > 200 then Alcotest.fail "no crash seed with a passing build"
      else
        let resp = open_doc ~inject:(crash_inject seed) srv "d" small_source in
        if Json.member "result" resp <> None then memrefs_of resp
        else try_seed (seed + 1)
    in
    try_seed 1
  in
  ignore (open_doc control "d2" small_source);
  let want = answers_of (alias control "d2" (all_pairs n 10)) in
  (* The first batch takes the crash (~100 queries at rate 0.9): some
     query raises, quarantining the document. *)
  ignore (answers_of (alias srv "d" (all_pairs n 10)));
  (* From then on every answer is the sound MayAlias top, with the
     engine never consulted. *)
  let resp = alias srv "d" (all_pairs n 10) in
  Alcotest.(check string) "conservative mode" "conservative" (mode_of resp);
  Alcotest.(check (list bool)) "conservative = all MayAlias"
    (List.map (fun _ -> true) (all_pairs n 10))
    (answers_of resp);
  let health = result_of (send srv "health" []) in
  (match member_exn "documents" health with
  | Json.List [ row ] ->
    Alcotest.(check bool) "quarantined in health" true
      (member_exn "mode" row = Json.String "conservative")
  | _ -> Alcotest.fail "expected one health row");
  (* modref degrades to explicit top. *)
  let procs = (Tbaa.Engine.program (Store.engine (Option.get (Store.find (Dispatch.store srv) "d")))).Ir.Cfg.prog_procs in
  let any_proc = Ident.name (List.hd procs).Ir.Cfg.pr_name in
  let mr = result_of
    (send srv "modref" [ ("doc", Json.String "d"); ("proc", Json.String any_proc) ]) in
  Alcotest.(check bool) "modref top" true (member_exn "top" mr = Json.Bool true);
  (* A clean rebuild recovers byte-identical answers. *)
  ignore (open_doc srv "d" small_source);
  let recovered = alias srv "d" (all_pairs n 10) in
  Alcotest.(check string) "fresh after rebuild" "fresh" (mode_of recovered);
  Alcotest.(check (list bool)) "recovered = fresh reference" want
    (answers_of recovered)

(* A crash-injected document crashes on a pair whatever its order: the
   batch of pairs [i,j] and the batch of the same pairs as [j,i] quarantine
   at the same pair and give the same verdicts. *)
let test_crash_order_independent () =
  let config = { Dispatch.default_config with Dispatch.allow_inject = true } in
  let inject seed =
    [ Json.Obj
        [ ("kind", Json.String "crash"); ("seed", Json.Int seed);
          ("rate", Json.Float 0.02) ] ]
  in
  let quarantined = ref 0 in
  for seed = 1 to 12 do
    let a = Dispatch.create ~config () and b = Dispatch.create ~config () in
    let ra = open_doc ~inject:(inject seed) a "d" small_source in
    let rb = open_doc ~inject:(inject seed) b "d" small_source in
    if Json.member "result" ra <> None && Json.member "result" rb <> None then begin
      let pairs = List.filter (fun (i, j) -> i < j) (all_pairs (memrefs_of ra) 40) in
      let fwd = alias a "d" pairs in
      let bwd = alias b "d" (List.map (fun (i, j) -> (j, i)) pairs) in
      Alcotest.(check string) "same mode" (mode_of fwd) (mode_of bwd);
      Alcotest.(check (list bool)) "same verdicts" (answers_of fwd) (answers_of bwd);
      if mode_of fwd = "conservative" then incr quarantined
    end
  done;
  Alcotest.(check bool) "some batch crashed" true (!quarantined > 0)

let test_deadline_timeout () =
  let config = { Dispatch.default_config with Dispatch.allow_inject = true } in
  let srv = Dispatch.create ~config () in
  let slow =
    [ Json.Obj [ ("kind", Json.String "slow"); ("ms", Json.Float 5.0) ] ]
  in
  let n = memrefs_of (open_doc ~inject:slow srv "d" small_source) in
  let pairs = List.init 16 (fun _ -> (0, min 1 (n - 1))) in
  let resp =
    alias ~extra:[ ("deadline_ms", Json.Float 1.0) ] srv "d" pairs
  in
  check_code "deadline" Rpc.Timeout resp;
  (match Json.member "error" resp with
  | Some err -> (
    match Json.member "data" err with
    | Some data -> (
      match member_exn "completed" data with
      | Json.Int k ->
        Alcotest.(check bool) "partial progress reported" true
          (k >= 0 && k < List.length pairs)
      | _ -> Alcotest.fail "completed is not an int")
    | None -> Alcotest.fail "timeout without data")
  | None -> assert false)

(* The deadline is read before the first query of a batch: a batch whose
   deadline has passed by then answers nothing. The raw clock advances a
   millisecond per read, so the deadline (1 µs after the read that sets
   it) has passed at the next read. *)
let test_deadline_expired_batch () =
  let srv = Dispatch.create () in
  let n = memrefs_of (open_doc srv "d" small_source) in
  let pairs = List.init 200 (fun k -> (k mod n, (k * 7) mod n)) in
  let ticks = ref 0.0 in
  let resp =
    Clock.with_raw
      (fun () ->
        ticks := !ticks +. 1.0;
        !ticks)
      (fun () -> alias ~extra:[ ("deadline_ms", Json.Float 0.001) ] srv "d" pairs)
  in
  check_code "expired deadline" Rpc.Timeout resp;
  match Json.member "error" resp with
  | Some err ->
    Alcotest.(check int) "nothing was answered" 0
      (match member_exn "completed" (member_exn "data" err) with
      | Json.Int k -> k
      | _ -> Alcotest.fail "completed is not an int")
  | None -> Alcotest.fail "no error"

let test_shedding () =
  let config =
    { Dispatch.default_config with Dispatch.max_batch = 4; max_docs = 1 }
  in
  let srv = Dispatch.create ~config () in
  let n = memrefs_of (open_doc srv "d" small_source) in
  ignore n;
  check_code "oversized pair batch" Rpc.Overloaded
    (alias srv "d" (List.init 5 (fun _ -> (0, 0))));
  check_code "store full" Rpc.Overloaded (open_doc srv "d2" small_source);
  let tiny =
    { Dispatch.default_config with Dispatch.max_request_bytes = 64 }
  in
  let srv2 = Dispatch.create ~config:tiny () in
  check_code "oversized line" Rpc.Overloaded
    (Json.of_string (Dispatch.handle_line srv2 (String.make 100 ' ')))

let test_chaos_smoke () =
  let report = Chaos.run ~seed:11 ~ops:150 () in
  Alcotest.(check (list string)) "no violations" [] report.Chaos.violations;
  Alcotest.(check bool) "answers were checked" true
    (report.Chaos.checked_answers > 0)

(* ------------------------------------------------------------------ *)
(* The monotonic-clamped clock                                         *)
(* ------------------------------------------------------------------ *)

let test_clock_monotonic () =
  let last = ref (Clock.now_ms ()) in
  for _ = 1 to 1000 do
    let t = Clock.now_ms () in
    if t < !last then Alcotest.failf "clock went backwards: %f < %f" t !last;
    last := t
  done;
  (* Regression: a raw clock that steps backwards (NTP slew) must be
     clamped to the high-water mark, never handed to deadline math. *)
  let script = ref [ 100.0; 105.0; 103.0; 101.0; 110.0; 90.0; 120.0 ] in
  Clock.with_raw
    (fun () ->
      match !script with
      | [ final ] -> final
      | r :: rest ->
        script := rest;
        r
      | [] -> assert false)
    (fun () ->
      let seen = List.init 7 (fun _ -> Clock.now_ms ()) in
      Alcotest.(check (list (float 0.0)))
        "backward steps clamped"
        [ 100.0; 105.0; 105.0; 105.0; 110.0; 110.0; 120.0 ]
        seen)

(* ------------------------------------------------------------------ *)
(* Partial-edit splicing and incremental didChange                     *)
(* ------------------------------------------------------------------ *)

let test_splice () =
  let ok source edits want =
    match Store.splice ~source ~edits with
    | Ok got -> Alcotest.(check string) "splice result" want got
    | Error e -> Alcotest.failf "splice rejected %S: %s" source e
  in
  ok "hello world" [ (0, 5, "goodbye") ] "goodbye world";
  ok "hello" [] "hello";
  ok "abcdef" [ (2, 4, "") ] "abef";
  ok "abc" [ (3, 3, "def") ] "abcdef";
  ok "" [ (0, 0, "x") ] "x";
  (* Sequential LSP semantics: the second edit addresses the text the
     first one produced ("abcdef" -> "Xdef" -> "XY"). *)
  ok "abcdef" [ (0, 3, "X"); (1, 4, "Y") ] "XY";
  let err what source edits =
    match Store.splice ~source ~edits with
    | Ok got -> Alcotest.failf "%s: accepted, produced %S" what got
    | Error _ -> ()
  in
  err "stop past end" "abc" [ (0, 4, "x") ];
  err "inverted range" "abc" [ (2, 1, "x") ];
  err "negative start" "abc" [ (-1, 1, "x") ];
  err "second edit out of bounds after first" "abc"
    [ (0, 3, "x"); (2, 3, "y") ]

(* One ranged edit turning [old_s] into [new_s]: trim the common prefix
   and suffix, replace the middle. *)
let diff_edit old_s new_s =
  let ol = String.length old_s and nl = String.length new_s in
  let p = ref 0 in
  while !p < ol && !p < nl && old_s.[!p] = new_s.[!p] do
    incr p
  done;
  let s = ref 0 in
  while
    !s < ol - !p && !s < nl - !p && old_s.[ol - 1 - !s] = new_s.[nl - 1 - !s]
  do
    incr s
  done;
  (!p, ol - !s, String.sub new_s !p (nl - !p - !s))

let change_req srv name edits =
  send srv "change"
    [ ("name", Json.String name);
      ( "edits",
        Json.List
          (List.map
             (fun (start, stop, text) ->
               Json.Obj
                 [ ("start", Json.Int start); ("end", Json.Int stop);
                   ("text", Json.String text) ])
             edits) ) ]

let test_didchange_equiv_fuzz () =
  (* didChange with a ranged edit must leave the document answering
     byte-identically to opening the edited source whole. *)
  for seed = 1 to 10 do
    let a = (Gen.Generator.generate ~size:1 seed).Gen.Generator.source in
    let b =
      (Gen.Generator.generate ~size:1 (seed + 40)).Gen.Generator.source
    in
    let srv = Dispatch.create () in
    let reference = Dispatch.create () in
    ignore (open_doc srv "d" a);
    let changed = change_req srv "d" [ diff_edit a b ] in
    Alcotest.(check string)
      (Printf.sprintf "seed %d: fresh after change" seed)
      "fresh" (mode_of changed);
    let n = memrefs_of changed in
    let n' = memrefs_of (open_doc reference "d" b) in
    Alcotest.(check int) (Printf.sprintf "seed %d: memrefs agree" seed) n' n;
    let pairs = all_pairs n 12 in
    Alcotest.(check (list bool))
      (Printf.sprintf "seed %d: answers agree" seed)
      (answers_of (alias reference "d" pairs))
      (answers_of (alias srv "d" pairs))
  done

let test_didchange_errors () =
  let srv = Dispatch.create () in
  ignore (open_doc srv "d" small_source);
  check_code "change on unopened doc" Rpc.Invalid_params
    (change_req srv "nope" [ (0, 0, "x") ]);
  check_code "out-of-bounds edit" Rpc.Invalid_params
    (change_req srv "d" [ (0, String.length small_source + 99, "x") ]);
  (* A rejected edit must not have touched the document. *)
  Alcotest.(check string) "doc still fresh" "fresh"
    (mode_of (alias srv "d" [ (0, 0) ]))

(* ------------------------------------------------------------------ *)
(* Concurrent dispatch: determinism, cancellation, teardown            *)
(* ------------------------------------------------------------------ *)

let rpc_line id meth params =
  Json.to_string
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int id);
         ("method", Json.String meth); ("params", Json.Obj params) ])

(* Collect submit responses behind a mutex+condition so tests can block
   on arrival without polling. *)
type collector = {
  co_m : Mutex.t;
  co_c : Condition.t;
  mutable co_got : string list;  (* newest first *)
}

let collector () =
  { co_m = Mutex.create (); co_c = Condition.create (); co_got = [] }

let respond_to co line =
  Mutex.protect co.co_m (fun () ->
      co.co_got <- line :: co.co_got;
      Condition.broadcast co.co_c)

let wait_for co n =
  Mutex.protect co.co_m (fun () ->
      while List.length co.co_got < n do
        Condition.wait co.co_c co.co_m
      done;
      List.rev co.co_got)

let find_response responses id =
  match
    List.find_opt
      (fun l -> Json.member "id" (Json.of_string l) = Some (Json.Int id))
      responses
  with
  | Some l -> Json.of_string l
  | None -> Alcotest.failf "no response with id %d" id

let test_dispatch_determinism () =
  (* The same per-client request streams must produce byte-identical
     response streams whatever the worker count: per-client FIFO order
     is part of the dispatch contract, not a scheduling accident. *)
  let client_sources =
    List.map
      (fun (cl, seed) ->
        ( cl,
          (Gen.Generator.generate ~size:1 seed).Gen.Generator.source,
          (Gen.Generator.generate ~size:1 (seed + 20)).Gen.Generator.source ))
      [ ("a", 3); ("b", 5); ("c", 7) ]
  in
  let lines_for cl source source' =
    let edited = [ diff_edit source source' ] in
    [ rpc_line 1 "open"
        [ ("name", Json.String cl); ("source", Json.String source) ];
      rpc_line 2 "alias"
        [ ("doc", Json.String cl);
          ( "pairs",
            Json.List
              (List.init 9 (fun k ->
                   Json.List [ Json.Int (k / 3); Json.Int (k mod 3) ])) ) ];
      rpc_line 3 "change"
        [ ("name", Json.String cl);
          ( "edits",
            Json.List
              (List.map
                 (fun (s, e, t) ->
                   Json.Obj
                     [ ("start", Json.Int s); ("end", Json.Int e);
                       ("text", Json.String t) ])
                 edited) ) ];
      rpc_line 4 "paths" [ ("doc", Json.String cl) ];
      rpc_line 5 "close" [ ("name", Json.String cl) ] ]
  in
  let run workers =
    let config = { Dispatch.default_config with Dispatch.workers } in
    let srv = Dispatch.create ~config () in
    let per_client =
      List.map
        (fun (cl, src, src') -> (cl, collector (), lines_for cl src src'))
        client_sources
    in
    (* Interleave submissions round-robin across clients. *)
    let rec go streams =
      let advanced =
        List.filter_map
          (fun (cl, co, ls) ->
            match ls with
            | [] -> None
            | l :: rest ->
              Dispatch.submit srv ~client:cl l ~respond:(respond_to co);
              Some (cl, co, rest))
          streams
      in
      if advanced <> [] then go advanced
    in
    go per_client;
    Dispatch.stop srv;
    List.map
      (fun (cl, co, _) -> (cl, wait_for co 5))
      per_client
  in
  let show streams =
    String.concat "\n"
      (List.concat_map (fun (cl, rs) -> List.map (fun r -> cl ^ " " ^ r) rs)
         streams)
  in
  let base = run 0 in
  List.iter
    (fun w ->
      Alcotest.(check string)
        (Printf.sprintf "workers=%d matches serialized" w)
        (show base) (show (run w)))
    [ 1; 2; 4 ]

let slow_inject ms =
  [ Json.Obj [ ("kind", Json.String "slow"); ("ms", Json.Float ms) ] ]

let cancel_line id target =
  rpc_line id "cancel" [ ("id", Json.Int target) ]

let test_cancel_inflight () =
  let config =
    { Dispatch.default_config with
      Dispatch.allow_inject = true; workers = 1;
      default_deadline_ms = 60_000.0 }
  in
  let srv = Dispatch.create ~config () in
  let n = memrefs_of (open_doc ~inject:(slow_inject 25.0) srv "d" small_source) in
  ignore n;
  let co = collector () in
  let pairs =
    Json.List (List.init 16 (fun _ -> Json.List [ Json.Int 0; Json.Int 0 ]))
  in
  Dispatch.submit srv ~client:"c"
    (rpc_line 42 "alias" [ ("doc", Json.String "d"); ("pairs", pairs) ])
    ~respond:(respond_to co);
  (* Give the worker time to be genuinely in-flight (16 pairs x 25 ms
     leaves ~400 ms of runway), then cancel from the same client. The
     cancel must overtake the queued/running alias. *)
  Unix.sleepf 0.05;
  Dispatch.submit srv ~client:"c" (cancel_line 99 42) ~respond:(respond_to co);
  let responses = wait_for co 2 in
  let cancel_resp = find_response responses 99 in
  Alcotest.(check bool) "cancel acknowledged" true
    (member_exn "cancelled" (result_of cancel_resp) = Json.Bool true);
  let alias_resp = find_response responses 42 in
  check_code "alias cancelled" Rpc.Cancelled alias_resp;
  (match Json.member "data" (member_exn "error" alias_resp) with
  | Some data -> (
    match member_exn "completed" data with
    | Json.Int k ->
      Alcotest.(check bool) "partial completed count" true (k >= 0 && k < 16)
    | _ -> Alcotest.fail "completed is not an int")
  | None -> Alcotest.fail "cancelled without data");
  Dispatch.quiesce srv;
  (* Cancellation is not a failure: the document must still answer, at
     full freshness, through the serialized path. *)
  let after = alias srv "d" [ (0, 0) ] in
  Alcotest.(check string) "doc still fresh" "fresh" (mode_of after);
  Alcotest.(check int) "doc still answers" 1
    (List.length (answers_of after));
  Dispatch.stop srv

let test_cancel_queued () =
  let config =
    { Dispatch.default_config with
      Dispatch.allow_inject = true; workers = 1;
      default_deadline_ms = 60_000.0 }
  in
  let srv = Dispatch.create ~config () in
  ignore (memrefs_of (open_doc ~inject:(slow_inject 10.0) srv "d" small_source));
  let co = collector () in
  let pairs k =
    Json.List (List.init k (fun _ -> Json.List [ Json.Int 0; Json.Int 0 ]))
  in
  (* One slow alias occupies the single worker; a second one queues
     behind it on the same client's FIFO; the cancel targets the queued
     one, which must come back Cancelled with zero progress. *)
  Dispatch.submit srv ~client:"c"
    (rpc_line 1 "alias" [ ("doc", Json.String "d"); ("pairs", pairs 12) ])
    ~respond:(respond_to co);
  Dispatch.submit srv ~client:"c"
    (rpc_line 2 "alias" [ ("doc", Json.String "d"); ("pairs", pairs 12) ])
    ~respond:(respond_to co);
  Dispatch.submit srv ~client:"c" (cancel_line 3 2) ~respond:(respond_to co);
  let responses = wait_for co 3 in
  ignore (result_of (find_response responses 1));
  let queued = find_response responses 2 in
  check_code "queued request cancelled" Rpc.Cancelled queued;
  (match Json.member "data" (member_exn "error" queued) with
  | Some data ->
    Alcotest.(check bool) "no progress before start" true
      (member_exn "completed" data = Json.Int 0)
  | None -> Alcotest.fail "cancelled without data");
  Dispatch.stop srv

let test_cancel_unknown_target () =
  let config = { Dispatch.default_config with Dispatch.workers = 1 } in
  let srv = Dispatch.create ~config () in
  let co = collector () in
  Dispatch.submit srv ~client:"c" (cancel_line 1 777) ~respond:(respond_to co);
  let responses = wait_for co 1 in
  Alcotest.(check bool) "unknown target reported un-cancelled" true
    (member_exn "cancelled" (result_of (find_response responses 1))
    = Json.Bool false);
  Dispatch.stop srv

(* ------------------------------------------------------------------ *)
(* Engine.update exception-safety (the contract the store's rollback    *)
(* rests on)                                                            *)
(* ------------------------------------------------------------------ *)

let snapshot engine =
  let facts = Tbaa.Engine.facts engine in
  let paths =
    Array.of_list
      (List.map
         (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
         facts.Tbaa.Facts.memrefs)
  in
  let kinds =
    [ Tbaa.Engine.Type_decl; Tbaa.Engine.Field_type_decl;
      Tbaa.Engine.Sm_field_type_refs ]
  in
  let alias_bits =
    List.concat_map
      (fun k ->
        let o = Tbaa.Engine.oracle engine k in
        let n = min (Array.length paths) 12 in
        List.init (n * n) (fun ij ->
            o.Tbaa.Oracle.may_alias paths.(ij / n) paths.(ij mod n)))
      kinds
  in
  let effects =
    List.concat_map
      (fun k ->
        List.map
          (fun p -> Tbaa.Engine.modref_merged engine k p.Ir.Cfg.pr_name)
          (Tbaa.Engine.program engine).Ir.Cfg.prog_procs)
      kinds
  in
  (alias_bits, effects)

let test_engine_update_exception_safety () =
  let program = Ir.Lower.lower_string ~file:"srv" small_source in
  let engine = Tbaa.Engine.create program in
  let before_alias, before_eff = snapshot engine in
  (* Corrupt one procedure with an allocation of a type id far outside
     the type environment: re-summarizing it must raise. The assigned
     variable must be pointer-typed so fact collection actually looks
     the bogus source type up. *)
  let tenv = program.Ir.Cfg.tenv in
  let proc, victim =
    match
      List.find_map
        (fun p ->
          Option.map
            (fun v -> (p, v))
            (List.find_opt
               (fun v -> Minim3.Types.is_pointer tenv v.Ir.Reg.v_ty)
               (p.Ir.Cfg.pr_locals @ p.Ir.Cfg.pr_params)))
        program.Ir.Cfg.prog_procs
    with
    | Some pv -> pv
    | None -> Alcotest.fail "no pointer-typed variable to corrupt"
  in
  let block = Ir.Cfg.block proc proc.Ir.Cfg.pr_entry in
  let saved = block.Ir.Cfg.b_instrs in
  block.Ir.Cfg.b_instrs <-
    saved @ [ Ir.Instr.Inew (victim, 999_999, None) ];
  (match Tbaa.Engine.update engine program with
  | _ -> Alcotest.fail "update on a corrupt procedure did not raise"
  | exception _ -> ());
  (* The failed update must leave the engine fully usable, answering
     exactly as before. *)
  let after_alias, after_eff = snapshot engine in
  Alcotest.(check (list bool)) "alias answers survive failed update"
    before_alias after_alias;
  Alcotest.(check bool) "effects survive failed update" true
    (List.for_all2 Tbaa.Effects.equal before_eff after_eff);
  (* And a later update on the healed program succeeds and agrees. *)
  block.Ir.Cfg.b_instrs <- saved;
  let engine = Tbaa.Engine.update engine program in
  let healed_alias, healed_eff = snapshot engine in
  Alcotest.(check (list bool)) "healed update answers" before_alias
    healed_alias;
  Alcotest.(check bool) "healed update effects" true
    (List.for_all2 Tbaa.Effects.equal before_eff healed_eff)

(* ------------------------------------------------------------------ *)
(* The real binaries (cwd is _build/default/test)                      *)
(* ------------------------------------------------------------------ *)

(* Under `dune runtest` the cwd is _build/default/test; under
   `dune exec test/test_server.exe` it is the project root. *)
let find_exe name =
  match
    List.find_opt Sys.file_exists
      [ "../bin/" ^ name; "_build/default/bin/" ^ name; "bin/" ^ name ]
  with
  | Some exe -> exe
  | None -> Alcotest.failf "%s not found (run dune build bin)" name

let tbaac = find_exe "tbaac.exe"
let tbaad = find_exe "tbaad.exe"

let run_capturing cmd =
  let err = Filename.temp_file "tbaa_test" ".err" in
  let code = Sys.command (Printf.sprintf "%s 2>%s" cmd (Filename.quote err)) in
  let ic = open_in err in
  let len = in_channel_length ic in
  let text = really_input_string ic len in
  close_in ic;
  Sys.remove err;
  (code, text)

let test_tbaac_usage_errors () =
  List.iter
    (fun args ->
      let code, err = run_capturing (tbaac ^ " " ^ args) in
      Alcotest.(check int) (args ^ ": exit code") 2 code;
      let lines =
        List.filter (fun l -> String.trim l <> "")
          (String.split_on_char '\n' err)
      in
      Alcotest.(check int) (args ^ ": one diagnostic line") 1
        (List.length lines);
      let line = List.hd lines in
      Alcotest.(check bool)
        (args ^ ": structured prefix in " ^ line)
        true
        (String.length line > 19
        && String.sub line 0 19 = "tbaac: usage error:"))
    [ "definitely-not-a-subcommand"; "aliases --no-such-flag";
      "check --world=neither" ]

let test_tbaad_usage_errors () =
  let code, err = run_capturing (tbaad ^ " --no-such-flag") in
  Alcotest.(check int) "exit code" 2 code;
  Alcotest.(check bool) ("prefix in " ^ err) true
    (String.length err > 19 && String.sub err 0 19 = "tbaad: usage error:")

let test_tbaad_stdio_session () =
  let inp = Filename.temp_file "tbaad_in" ".jsonl" in
  let out = Filename.temp_file "tbaad_out" ".jsonl" in
  let oc = open_out inp in
  let line v = output_string oc (Json.to_string v ^ "\n") in
  line
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int 1);
         ("method", Json.String "open");
         ( "params",
           Json.Obj
             [ ("name", Json.String "d");
               ("source", Json.String small_source) ] ) ]);
  line
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int 2);
         ("method", Json.String "alias");
         ( "params",
           Json.Obj
             [ ("doc", Json.String "d");
               ("pairs", Json.List [ Json.List [ Json.Int 0; Json.Int 0 ] ])
             ] ) ]);
  output_string oc "garbage line\n";
  line
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int 3);
         ("method", Json.String "shutdown") ]);
  close_out oc;
  let code =
    Sys.command
      (Printf.sprintf "%s <%s >%s 2>/dev/null" tbaad (Filename.quote inp)
         (Filename.quote out))
  in
  Alcotest.(check int) "daemon exit" 0 code;
  let ic = open_in out in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove inp;
  Sys.remove out;
  match List.rev_map Json.of_string !lines with
  | [ opened; aliased; garbage; stopped ] ->
    Alcotest.(check string) "open ok" "fresh" (mode_of opened);
    Alcotest.(check int) "alias answered" 1
      (List.length (answers_of aliased));
    check_code "garbage line" Rpc.Parse_error garbage;
    ignore (result_of stopped)
  | other ->
    Alcotest.failf "expected 4 response lines, got %d" (List.length other)

(* A client that dies mid-batch (socket torn down with responses still
   owed) must cost the server nothing but that client: workers hit
   EPIPE/ECONNRESET writing to it, tear the one client down, and keep
   serving everyone else. *)
let test_socket_kill_client_mid_batch () =
  let dir = Filename.temp_file "tbaad_sock" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  let path = Filename.concat dir "d.sock" in
  let devnull_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let devnull_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process tbaad
      [| tbaad; "--socket"; path; "--workers"; "2" |]
      devnull_in devnull_out Unix.stderr
  in
  Unix.close devnull_in;
  Unix.close devnull_out;
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    try
      Unix.connect fd (Unix.ADDR_UNIX path);
      fd
    with Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.05;
      connect ()
  in
  let send_line fd line =
    let bytes = Bytes.of_string (line ^ "\n") in
    ignore (Unix.write fd bytes 0 (Bytes.length bytes))
  in
  let recv_line fd =
    let buf = Buffer.create 256 in
    let one = Bytes.create 1 in
    let rec go () =
      match Unix.read fd one 0 1 with
      | 0 -> Alcotest.fail "daemon closed the connection unexpectedly"
      | _ ->
        if Bytes.get one 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get one 0);
          go ()
        end
    in
    go ()
  in
  (* Victim: open a document and fire a batch of requests, then die
     without reading a single response. *)
  let victim = connect () in
  send_line victim
    (rpc_line 1 "open"
       [ ("name", Json.String "v"); ("source", Json.String small_source) ]);
  for i = 2 to 9 do
    send_line victim (rpc_line i "ping" [])
  done;
  Unix.close victim;
  (* Survivor: the server must still be there and fully functional. *)
  let survivor = connect () in
  send_line survivor
    (rpc_line 1 "open"
       [ ("name", Json.String "s"); ("source", Json.String small_source) ]);
  let opened = Json.of_string (recv_line survivor) in
  Alcotest.(check string) "survivor opens fresh" "fresh" (mode_of opened);
  send_line survivor
    (rpc_line 2 "alias"
       [ ("doc", Json.String "s");
         ("pairs", Json.List [ Json.List [ Json.Int 0; Json.Int 0 ] ]) ]);
  Alcotest.(check int) "survivor queries" 1
    (List.length (answers_of (Json.of_string (recv_line survivor))));
  send_line survivor (rpc_line 3 "shutdown" []);
  ignore (result_of (Json.of_string (recv_line survivor)));
  Unix.close survivor;
  let _, status = Unix.waitpid [] pid in
  Alcotest.(check bool) "daemon exited cleanly" true
    (status = Unix.WEXITED 0);
  (try Sys.remove path with Sys_error _ -> ());
  (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let () =
  Alcotest.run "server"
    [ ( "rpc",
        [ Alcotest.test_case "envelope" `Quick test_rpc_envelope;
          Alcotest.test_case "dispatch basics" `Quick test_dispatch_basics ]
      );
      ( "degradation",
        [ Alcotest.test_case "lifecycle" `Quick test_doc_lifecycle;
          Alcotest.test_case "stale serves last good" `Quick
            test_stale_serves_last_good;
          Alcotest.test_case "quarantine to conservative" `Quick
            test_quarantine_conservative;
          Alcotest.test_case "crash injection ignores pair order" `Quick
            test_crash_order_independent;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
          Alcotest.test_case "expired deadline answers nothing" `Quick
            test_deadline_expired_batch;
          Alcotest.test_case "shedding" `Quick test_shedding ] );
      ( "clock",
        [ Alcotest.test_case "monotonic clamp" `Quick test_clock_monotonic ]
      );
      ( "didchange",
        [ Alcotest.test_case "splice" `Quick test_splice;
          Alcotest.test_case "equivalent to whole-source (fuzz)" `Quick
            test_didchange_equiv_fuzz;
          Alcotest.test_case "errors leave doc untouched" `Quick
            test_didchange_errors ] );
      ( "concurrent",
        [ Alcotest.test_case "deterministic across worker counts" `Quick
            test_dispatch_determinism;
          Alcotest.test_case "cancel in-flight request" `Quick
            test_cancel_inflight;
          Alcotest.test_case "cancel queued request" `Quick
            test_cancel_queued;
          Alcotest.test_case "cancel unknown target" `Quick
            test_cancel_unknown_target ] );
      ( "engine",
        [ Alcotest.test_case "update exception-safety" `Quick
            test_engine_update_exception_safety ] );
      ( "chaos",
        [ Alcotest.test_case "smoke storm" `Quick test_chaos_smoke ] );
      ( "binaries",
        [ Alcotest.test_case "tbaac usage errors" `Quick
            test_tbaac_usage_errors;
          Alcotest.test_case "tbaad usage errors" `Quick
            test_tbaad_usage_errors;
          Alcotest.test_case "tbaad stdio session" `Quick
            test_tbaad_stdio_session;
          Alcotest.test_case "socket kill client mid-batch" `Quick
            test_socket_kill_client_mid_batch ] ) ]
