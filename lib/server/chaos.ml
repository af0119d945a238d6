(* Seeded hostile-traffic storm + invariant checks over a live server. *)

open Support

type report = {
  ops : int;
  oks : int;
  errors : int;
  by_code : (string * int) list;
  checked_answers : int;
  recovered_docs : int;
  workers : int;
  cancelled : int;
  partial_edits : int;
  body_edits : int;
  fast_edits : int;
  violations : string list;
}

let report_json r =
  Json.Obj
    [ ("ops", Json.Int r.ops);
      ("oks", Json.Int r.oks);
      ("errors", Json.Int r.errors);
      ( "by_code",
        Json.Obj (List.map (fun (k, n) -> (k, Json.Int n)) r.by_code) );
      ("checked_answers", Json.Int r.checked_answers);
      ("recovered_docs", Json.Int r.recovered_docs);
      ("workers", Json.Int r.workers);
      ("cancelled", Json.Int r.cancelled);
      ("partial_edits", Json.Int r.partial_edits);
      ("body_edits", Json.Int r.body_edits);
      ("fast_edits", Json.Int r.fast_edits);
      ( "violations",
        Json.List (List.map (fun v -> Json.String v) r.violations) ) ]

let all_codes =
  [ Rpc.Parse_error; Rpc.Invalid_request; Rpc.Method_not_found;
    Rpc.Invalid_params; Rpc.Timeout; Rpc.Overloaded; Rpc.Document_error;
    Rpc.Quarantined; Rpc.Internal_error; Rpc.Cancelled ]

(* What the storm remembers about each document it managed to build. *)
type model = {
  mutable md_good_source : string;  (* last source the server accepted *)
  mutable md_injected : bool;  (* any fault injection active right now *)
  mutable md_memrefs : int;  (* memref count of the last accepted build *)
}

type state = {
  srv : Dispatch.t;
  rng : Prng.t;
  docs : (string, model) Hashtbl.t;
  refs : (string, (Tbaa.Engine.kind * Tbaa.Oracle.t) list ref * int) Hashtbl.t;
      (* per-source fresh reference oracles (lazy per kind) + memref count *)
  ref_paths : (string, Ir.Apath.t array) Hashtbl.t;
  mutable n_ops : int;
  mutable n_ok : int;
  mutable n_err : int;
  code_counts : (string, int) Hashtbl.t;
  mutable n_checked : int;
  mutable n_recovered : int;
  mutable n_edits : int;  (* successful partial-edit rebuilds *)
  mutable n_body_edits : int;  (* of those, body-local digit edits *)
  mutable n_fast : int;  (* of those, the ones the store re-read alone *)
  mutable viol : string list;
}

let violate st fmt =
  Printf.ksprintf
    (fun msg -> st.viol <- Printf.sprintf "op %d: %s" st.n_ops msg :: st.viol)
    fmt

(* ------------------------------------------------------------------ *)
(* Fresh-engine reference answers                                      *)
(* ------------------------------------------------------------------ *)

(* The oracle the storm checks degraded answers against: a from-scratch
   engine on the same source, its memrefs in the same deterministic
   order the store exposes them. *)
let reference st source =
  match Hashtbl.find_opt st.refs source with
  | Some (oracles, n) -> Some (oracles, n)
  | None ->
    (match Minim3.Typecheck.check_string_all ~file:"ref" source with
    | Error _ -> None
    | Ok tast ->
      let program = Ir.Lower.lower_program tast in
      let engine = Tbaa.Engine.create program in
      let facts = Tbaa.Engine.facts engine in
      let paths =
        Array.of_list
          (List.map
             (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
             facts.Tbaa.Facts.memrefs)
      in
      let oracles =
        ref
          (List.map
             (fun k -> (k, Tbaa.Engine.oracle engine k))
             [ Tbaa.Engine.Type_decl; Tbaa.Engine.Field_type_decl;
               Tbaa.Engine.Sm_field_type_refs ])
      in
      let entry = (oracles, Array.length paths) in
      Hashtbl.replace st.refs source entry;
      Hashtbl.replace st.ref_paths source paths;
      Some entry)

let reference_answer st source kind i j =
  match reference st source with
  | None -> None
  | Some (oracles, n) ->
    if i >= n || j >= n then None
    else
      let paths = Hashtbl.find st.ref_paths source in
      let o = List.assoc kind !oracles in
      Some (o.Tbaa.Oracle.may_alias paths.(i) paths.(j))

(* ------------------------------------------------------------------ *)
(* Sending and classifying                                             *)
(* ------------------------------------------------------------------ *)

let classify_one st resp =
  match (Json.member "result" resp, Json.member "error" resp) with
  | Some _, None -> st.n_ok <- st.n_ok + 1
  | None, Some err ->
    st.n_err <- st.n_err + 1;
    (match Json.member "code" err with
    | Some (Json.Int c) ->
      (match
         List.find_opt (fun k -> Rpc.code_number k = c) all_codes
       with
      | Some k ->
        let name = Rpc.code_name k in
        Hashtbl.replace st.code_counts name
          (1 + Option.value ~default:0 (Hashtbl.find_opt st.code_counts name))
      | None -> violate st "error response with unknown code %d" c)
    | _ -> violate st "error response without an integer code")
  | _ -> violate st "response is neither a result nor an error"

(* Every line in yields exactly one parseable structured line out; a
   raise here is the crash the whole harness exists to rule out. *)
let send st line =
  st.n_ops <- st.n_ops + 1;
  match Dispatch.handle_line st.srv line with
  | exception e ->
    violate st "handle_line raised %s" (Printexc.to_string e);
    Json.Null
  | out ->
    (match Json.parse out with
    | Error d ->
      violate st "unparseable response (%s): %s" d.Diag.message out;
      Json.Null
    | Ok (Json.List items as batch) ->
      List.iter (classify_one st) items;
      batch
    | Ok resp ->
      classify_one st resp;
      resp)

let req st meth params =
  Json.to_string
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0");
         ("id", Json.Int st.n_ops);
         ("method", Json.String meth);
         ("params", Json.Obj params) ])

(* --- Concurrent submission ----------------------------------------- *)

(* A one-shot ivar filled by [Dispatch.submit]'s respond callback
   (possibly from a worker domain). The storm thread is the only party
   that parses, classifies or checks — the callback just stores bytes —
   so all harness state stays single-threaded. *)
type future = { fm : Mutex.t; fc : Condition.t; mutable fv : string option }

let send_async st ~client line =
  st.n_ops <- st.n_ops + 1;
  let fut = { fm = Mutex.create (); fc = Condition.create (); fv = None } in
  let respond resp =
    Mutex.protect fut.fm (fun () ->
        fut.fv <- Some resp;
        Condition.broadcast fut.fc)
  in
  (match Dispatch.submit st.srv ~client line ~respond with
  | () -> ()
  | exception e ->
    violate st "submit raised %s" (Printexc.to_string e);
    respond "null");
  fut

let await st fut =
  let out =
    Mutex.protect fut.fm (fun () ->
        while fut.fv = None do
          Condition.wait fut.fc fut.fm
        done;
        Option.get fut.fv)
  in
  match Json.parse out with
  | Error d ->
    violate st "unparseable async response (%s): %s" d.Diag.message out;
    Json.Null
  | Ok (Json.List items as batch) ->
    List.iter (classify_one st) items;
    batch
  | Ok Json.Null -> Json.Null (* submit itself raised; already violated *)
  | Ok resp ->
    classify_one st resp;
    resp

let result_member resp name =
  match Json.member "result" resp with
  | Some r -> Json.member name r
  | None -> None

let is_error_code resp k =
  match Json.member "error" resp with
  | Some err -> Json.member "code" err = Some (Json.Int (Rpc.code_number k))
  | None -> false

(* ------------------------------------------------------------------ *)
(* The op mix                                                          *)
(* ------------------------------------------------------------------ *)

let doc_pool = [ "alpha"; "beta"; "gamma"; "delta"; "epsilon" ]

let source_for st = (Gen.Generator.generate ~size:1 (Prng.int st.rng 6)).source

let random_inject st =
  match Prng.int st.rng 10 with
  | 0 | 1 -> [ Store.Flip { seed = Prng.int st.rng 1000; rate = 0.25 } ]
  | 2 | 3 -> [ Store.Crash { seed = Prng.int st.rng 1000; rate = 0.3 } ]
  | 4 -> [ Store.Slow { ms = 2.0 } ]
  | _ -> []

let inject_json inj =
  Json.List
    (List.map
       (function
         | Store.Flip { seed; rate } ->
           Json.Obj
             [ ("kind", Json.String "flip"); ("seed", Json.Int seed);
               ("rate", Json.Float rate) ]
         | Store.Crash { seed; rate } ->
           Json.Obj
             [ ("kind", Json.String "crash"); ("seed", Json.Int seed);
               ("rate", Json.Float rate) ]
         | Store.Slow { ms } ->
           Json.Obj [ ("kind", Json.String "slow"); ("ms", Json.Float ms) ])
       inj)

let model_for st name =
  match Hashtbl.find_opt st.docs name with
  | Some m -> Some m
  | None -> None

let record_ok_build st name source inject resp =
  match result_member resp "memrefs" with
  | Some (Json.Int n) ->
    let m =
      match Hashtbl.find_opt st.docs name with
      | Some m -> m
      | None ->
        let m = { md_good_source = source; md_injected = false; md_memrefs = n }
        in
        Hashtbl.replace st.docs name m;
        m
    in
    m.md_good_source <- source;
    m.md_injected <- inject <> [];
    m.md_memrefs <- n
  | _ -> violate st "ok update response without memref count"

let op_good_update st =
  let name = Prng.pick st.rng doc_pool in
  let source = source_for st in
  let inject = random_inject st in
  let params =
    [ ("name", Json.String name); ("source", Json.String source) ]
    @ if inject = [] then [] else [ ("inject", inject_json inject) ]
  in
  let resp = send st (req st "open" params) in
  if Json.member "result" resp <> None then
    record_ok_build st name source inject resp

let op_bad_source st =
  let name = Prng.pick st.rng doc_pool in
  let source = source_for st ^ "\nPROCEDURE @@@ syntax error !!" in
  let resp =
    send st
      (req st "update"
         [ ("name", Json.String name); ("source", Json.String source) ])
  in
  (* Overloaded is the one other legitimate reply: capacity shedding on
     a full store fires before compilation when [name] is not open. *)
  if
    not
      (is_error_code resp Rpc.Document_error
      || is_error_code resp Rpc.Overloaded)
  then
    violate st "ill-typed source for %S not answered with document_error"
      name

let op_malformed st =
  let line =
    Prng.pick st.rng
      [ "{"; "[1, 2"; "nonsense"; "{\"method\": }"; "\"unterminated";
        String.make 2000 '[' ^ "1"; "{\"a\": 99999999999999999999999}" ]
  in
  let resp = send st line in
  if not (is_error_code resp Rpc.Parse_error) then
    violate st "malformed line %S not answered with parse_error"
      (String.sub line 0 (min 20 (String.length line)))

let op_bad_envelope st =
  let line =
    Prng.pick st.rng
      [ Json.to_string (Json.Obj [ ("id", Json.Int 1) ]);
        Json.to_string
          (Json.Obj [ ("id", Json.Int 1); ("method", Json.Int 7) ]);
        Json.to_string
          (Json.Obj
             [ ("id", Json.Int 1); ("method", Json.String "health");
               ("params", Json.List []) ]);
        Json.to_string (Json.Int 42) ]
  in
  let resp = send st line in
  if not (is_error_code resp Rpc.Invalid_request) then
    violate st "broken envelope not answered with invalid_request"

let op_unknown_method st =
  let resp = send st (req st "frobnicate" []) in
  if not (is_error_code resp Rpc.Method_not_found) then
    violate st "unknown method not answered with method_not_found"

let random_pairs st n count =
  if n = 0 then []
  else
    List.init count (fun _ ->
        Json.List [ Json.Int (Prng.int st.rng n); Json.Int (Prng.int st.rng n) ])

let kind_pick st =
  Prng.pick st.rng
    [ Tbaa.Engine.Type_decl; Tbaa.Engine.Field_type_decl;
      Tbaa.Engine.Sm_field_type_refs ]

let op_alias_check st =
  let name = Prng.pick st.rng doc_pool in
  match model_for st name with
  | None -> ()
  | Some m ->
    let kind = kind_pick st in
    let pairs = random_pairs st m.md_memrefs (1 + Prng.int st.rng 12) in
    let resp =
      send st
        (req st "alias"
           [ ("doc", Json.String name);
             ("oracle", Json.String (Tbaa.Engine.kind_name kind));
             ("pairs", Json.List pairs) ])
    in
    (* The doc may have been closed, quarantined or shrunk by a
       concurrent op since the model last saw it — any structured
       error is acceptable then; only result payloads are checked. *)
    match (result_member resp "answers", result_member resp "mode") with
    | Some (Json.List answers), Some (Json.String mode) ->
      if List.length answers <> List.length pairs then
        violate st "alias on %S: %d answers to %d pairs" name
          (List.length answers) (List.length pairs);
      if not m.md_injected then begin
        (* Uninjected engines never crash, so quarantine here is a bug. *)
        if mode = "conservative" then
          violate st "uninjected doc %S reported conservative mode" name;
        List.iteri
          (fun idx (pair, answer) ->
            match (pair, answer) with
            | Json.List [ Json.Int i; Json.Int j ], Json.Bool got -> (
              match reference_answer st m.md_good_source kind i j with
              | Some want when want <> got ->
                violate st
                  "alias on %S (%s, pair %d [%d,%d]): got %b, fresh \
                   reference says %b"
                  name (Tbaa.Engine.kind_name kind) idx i j got want
              | Some _ -> st.n_checked <- st.n_checked + 1
              | None -> ())
            | _ -> violate st "alias answer %d is not a boolean" idx)
          (List.combine pairs answers)
      end
    | _ -> ()

let op_alias_oob st =
  let name = Prng.pick st.rng doc_pool in
  match model_for st name with
  | None -> ()
  | Some m ->
    let resp =
      send st
        (req st "alias"
           [ ("doc", Json.String name);
             ( "pairs",
               Json.List
                 [ Json.List
                     [ Json.Int (m.md_memrefs + 5); Json.Int 0 ] ] ) ])
    in
    if Json.member "error" resp = None then
      violate st "out-of-range pair on %S accepted" name

let op_oversized st =
  let name = Prng.pick st.rng doc_pool in
  let cfg = Dispatch.config st.srv in
  let pairs =
    List.init (cfg.Dispatch.max_batch + 1) (fun _ ->
        Json.List [ Json.Int 0; Json.Int 0 ])
  in
  let resp =
    send st
      (req st "alias"
         [ ("doc", Json.String name); ("pairs", Json.List pairs) ])
  in
  if
    not
      (is_error_code resp Rpc.Overloaded
      || is_error_code resp Rpc.Invalid_params (* doc never opened *))
  then violate st "oversized batch on %S not shed" name

let op_deadline st =
  let name = "slowpoke" in
  let source = source_for st in
  let resp =
    send st
      (req st "open"
         [ ("name", Json.String name); ("source", Json.String source);
           ("inject", inject_json [ Store.Slow { ms = 5.0 } ]) ])
  in
  match result_member resp "memrefs" with
  | Some (Json.Int n) when n > 0 ->
    let resp =
      send st
        (req st "alias"
           [ ("doc", Json.String name);
             ("deadline_ms", Json.Float 1.0);
             ("pairs", Json.List (random_pairs st n 16)) ])
    in
    if not (is_error_code resp Rpc.Timeout) then
      violate st "busy-waiting query batch did not hit its 1ms deadline";
    ignore (send st (req st "close" [ ("name", Json.String name) ]))
  | _ -> ()

let op_modref st =
  let name = Prng.pick st.rng doc_pool in
  if model_for st name = None then ()
  else begin
    let resp =
      send st
        (req st "paths"
           [ ("doc", Json.String name); ("limit", Json.Int 1) ])
    in
    match result_member resp "paths" with
    | Some (Json.List (row :: _)) -> (
      match Json.member "proc" row with
      | Some (Json.String proc) ->
        let resp =
          send st
            (req st "modref"
               [ ("doc", Json.String name); ("proc", Json.String proc) ])
        in
        if
          Json.member "result" resp = None
          && Json.member "error" resp = None
        then violate st "modref on %S/%s yielded no structured reply" name proc
      | _ -> ())
    | _ -> ()
  end

let op_health st =
  let resp = send st (req st "health" []) in
  match
    (result_member resp "status", result_member resp "documents",
     result_member resp "counters")
  with
  | Some (Json.String _), Some (Json.List _), Some (Json.Obj _) -> ()
  | _ -> violate st "health response missing status/documents/counters"

let op_batch st =
  let one meth =
    Json.Obj
      [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int st.n_ops);
        ("method", Json.String meth) ]
  in
  let resp = send st (Json.to_string (Json.List [ one "ping"; one "health" ]))
  in
  match resp with
  | Json.List [ _; _ ] -> ()
  | _ -> violate st "2-element batch did not yield 2 responses"

let op_close st =
  let name = Prng.pick st.rng doc_pool in
  ignore (send st (req st "close" [ ("name", Json.String name) ]))

(* ------------------------------------------------------------------ *)
(* Partial edits, cancellation, interleaving                           *)
(* ------------------------------------------------------------------ *)

(* Ranged edits that rewrite [old_s] into [new_s]: trim the common
   prefix/suffix, replace the differing middle — sometimes split into
   two sequential edits to exercise LSP splice semantics (the second
   edit's offsets address the text the first already produced). *)
let edits_for st old_s new_s =
  let start, stop, new_stop = Store.changed_range old_s new_s in
  let text = String.sub new_s start (new_stop - start) in
  if String.length text > 1 && Prng.int st.rng 10 < 3 then begin
    let k = String.length text / 2 in
    [ (start, stop, String.sub text 0 k);
      (start + k, start + k, String.sub text k (String.length text - k)) ]
  end
  else [ (start, stop, text) ]

let edits_json edits =
  Json.List
    (List.map
       (fun (start, stop, text) ->
         Json.Obj
           [ ("start", Json.Int start); ("end", Json.Int stop);
             ("text", Json.String text) ])
       edits)

let change_req st name edits =
  req st "change"
    [ ("name", Json.String name); ("edits", edits_json edits) ]

(* On an accepted change, the server's new source is the splice result;
   mirror it into the model so the fresh-reference checks keep pinning
   the server's answers against the *edited* source. *)
let record_change st m expected resp =
  match result_member resp "memrefs" with
  | Some (Json.Int n) ->
    m.md_good_source <- expected;
    m.md_memrefs <- n;
    st.n_edits <- st.n_edits + 1
  | _ -> ()

let op_partial_edit st =
  let name = Prng.pick st.rng doc_pool in
  match model_for st name with
  | None -> ()
  | Some m ->
    let target = source_for st in
    let edits = edits_for st m.md_good_source target in
    (match Store.splice ~source:m.md_good_source ~edits with
    | Ok spliced when spliced = target -> ()
    | Ok _ -> violate st "edit construction for %S does not splice back" name
    | Error e -> violate st "edit construction for %S is out of bounds: %s" name e);
    let resp = send st (change_req st name edits) in
    (* The doc may have been closed since the model last saw it
       (invalid_params), the build crash-injected (document_error), or
       accepted — only the accepted case advances the model. *)
    record_change st m target resp

(* The offset of a random digit of an integer literal inside a procedure
   body (between its BEGIN and its closing ';') of [source], if any. *)
let body_digit st source =
  match Minim3.Parser.parse_module_spans ~file:"chaos" source with
  | exception Diag.Compile_error _ -> None
  | _, spans ->
    let word c =
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
      | _ -> false
    in
    let digit c = c >= '0' && c <= '9' in
    let found = ref [] in
    Array.iter
      (fun (sp : Minim3.Parser.span) ->
        let body = ref sp.sp_start in
        while
          !body + 5 <= sp.sp_stop && String.sub source !body 5 <> "BEGIN"
        do
          incr body
        done;
        for i = !body to sp.sp_stop - 1 do
          if digit source.[i] && not (word source.[i - 1]) then
            found := i :: !found
        done)
      spans;
    if !found = [] then None else Some (Prng.pick st.rng !found)

let fast_edits st name =
  Store.with_doc_read (Dispatch.store st.srv) name (function
    | Some d -> Store.edits_fast d
    | None -> 0)

(* A body-local edit: one digit of a literal inside a procedure body,
   which the store should re-read alone. A third of them go through the
   worker pool and are cancelled at once, so the fast path also runs
   under cancellation; the fresh-reference checks then pin whichever
   source won. *)
let op_body_edit st =
  let name = Prng.pick st.rng doc_pool in
  match model_for st name with
  | None -> ()
  | Some m -> (
    let source = m.md_good_source in
    match body_digit st source with
    | None -> ()
    | Some at ->
      let d =
        (Char.code source.[at] - Char.code '0' + 1 + Prng.int st.rng 9) mod 10
      in
      let edits = [ (at, at + 1, string_of_int d) ] in
      let target = Result.get_ok (Store.splice ~source ~edits) in
      let before = fast_edits st name in
      let resp =
        if Prng.int st.rng 3 = 0 then begin
          let id = st.n_ops in
          let fut = send_async st ~client:"bx" (change_req st name edits) in
          let cfut =
            send_async st ~client:"bx" (req st "cancel" [ ("id", Json.Int id) ])
          in
          ignore (await st cfut);
          await st fut
        end
        else send st (change_req st name edits)
      in
      if result_member resp "memrefs" <> None then begin
        record_change st m target resp;
        st.n_body_edits <- st.n_body_edits + 1;
        st.n_fast <- st.n_fast + (fast_edits st name - before)
      end)

(* Fire a long slow-injected alias batch on its own client, then cancel
   it by id. Either the cancel wins (structured Cancelled rejection with
   a partial completed count) or the batch finished first (full answer
   set) — both legal; anything else is a violation. Afterwards the
   document must still answer, pinning that cancellation never corrupts
   an engine. *)
let op_cancel_storm st =
  let name = "cancelme" in
  let source = source_for st in
  let resp =
    send st
      (req st "open"
         [ ("name", Json.String name); ("source", Json.String source);
           ("inject", inject_json [ Store.Slow { ms = 5.0 } ]) ])
  in
  match result_member resp "memrefs" with
  | Some (Json.Int n) when n > 0 ->
    let pairs = random_pairs st n 16 in
    let alias_id = st.n_ops in
    let fut =
      send_async st ~client:"cx"
        (req st "alias"
           [ ("doc", Json.String name);
             ("deadline_ms", Json.Float 30_000.0);
             ("pairs", Json.List pairs) ])
    in
    (* Give a worker a moment to pick the batch up, then cancel. On a
       serialized dispatcher the batch already completed inline and the
       cancel simply finds nothing — also a legal outcome. *)
    Unix.sleepf 0.01;
    let cfut =
      send_async st ~client:"cx"
        (req st "cancel" [ ("id", Json.Int alias_id) ])
    in
    ignore (await st cfut);
    let resp = await st fut in
    (match (result_member resp "answers", Json.member "error" resp) with
    | Some (Json.List answers), None ->
      if List.length answers <> List.length pairs then
        violate st "uncancelled alias batch returned %d/%d answers"
          (List.length answers) (List.length pairs)
    | None, Some err when is_error_code resp Rpc.Cancelled -> (
      match Json.member "data" err with
      | Some data -> (
        match Json.member "completed" data with
        | Some (Json.Int k) when k >= 0 && k < List.length pairs -> ()
        | Some (Json.Int k) ->
          violate st "cancelled batch reports %d completed of %d" k
            (List.length pairs)
        | _ -> violate st "cancelled batch without a completed count")
      | None -> violate st "cancelled batch without a completed count")
    | _ ->
      violate st "cancelled alias batch yielded neither answers nor \
                  a Cancelled rejection");
    (* The engine must be fully usable after a cancellation. *)
    let resp =
      send st
        (req st "alias"
           [ ("doc", Json.String name);
             ("deadline_ms", Json.Float 30_000.0);
             ("pairs", Json.List (random_pairs st n 4)) ])
    in
    if result_member resp "answers" = None then
      violate st "document %S stopped answering after a cancellation" name;
    ignore (send st (req st "close" [ ("name", Json.String name) ]))
  | _ -> ()

(* A partial edit on one document interleaved with alias traffic on
   another, each on its own client — with workers these genuinely
   overlap, exercising the exclusive-vs-shared lock split. *)
let op_interleaved st =
  let with_models =
    List.filter (fun n -> model_for st n <> None) doc_pool
  in
  match with_models with
  | a :: b :: _ ->
    let ma = Option.get (model_for st a) in
    let mb = Option.get (model_for st b) in
    let target = source_for st in
    let edits = edits_for st ma.md_good_source target in
    let f1 = send_async st ~client:"e1" (change_req st a edits) in
    let f2 =
      send_async st ~client:"e2"
        (req st "alias"
           [ ("doc", Json.String b);
             ("deadline_ms", Json.Float 30_000.0);
             ("pairs", Json.List (random_pairs st mb.md_memrefs 6)) ])
    in
    let r1 = await st f1 in
    ignore (await st f2);
    record_change st ma target r1
  | _ -> ()

(* Injected latency must sleep, not spin: across a batch with ~240ms of
   injected delay the process may burn only a fraction of that as CPU
   time. The old busy-wait implementation pegged a core and fails this
   immediately. *)
let cpu_burn_check st =
  let name = "sleepy" in
  let source = source_for st in
  let resp =
    send st
      (req st "open"
         [ ("name", Json.String name); ("source", Json.String source);
           ("inject", inject_json [ Store.Slow { ms = 30.0 } ]) ])
  in
  (match result_member resp "memrefs" with
  | Some (Json.Int n) when n > 0 ->
    let pairs = random_pairs st n 8 in
    let cpu0 = Sys.time () in
    let wall0 = Unix.gettimeofday () in
    let resp =
      send st
        (req st "alias"
           [ ("doc", Json.String name);
             ("deadline_ms", Json.Float 30_000.0);
             ("pairs", Json.List pairs) ])
    in
    let cpu = Sys.time () -. cpu0 in
    let wall = Unix.gettimeofday () -. wall0 in
    if result_member resp "answers" = None then
      violate st "slow-injected alias batch failed during the burn check"
    else if wall > 0.1 && cpu > 0.6 *. wall then
      violate st
        "injected latency burned %.0fms CPU over %.0fms wall — busy-wait \
         regression"
        (cpu *. 1000.0) (wall *. 1000.0)
  | _ -> ());
  ignore (send st (req st "close" [ ("name", Json.String name) ]))

(* ------------------------------------------------------------------ *)
(* Recovery sweep                                                      *)
(* ------------------------------------------------------------------ *)

(* One clean rebuild must bring every surviving document — including the
   ones that spent the storm lying, crashing or quarantined — back to
   Fresh with answers byte-identical to a from-scratch engine. *)
let recovery_sweep st =
  (* Empty the store first: the model can hold more documents than the
     deliberately small store capacity, so recovery checks them one at a
     time, closing each when done. *)
  List.iter
    (fun name ->
      ignore (send st (req st "close" [ ("name", Json.String name) ])))
    ("slowpoke" :: "cancelme" :: "sleepy" :: doc_pool);
  Hashtbl.iter
    (fun name m ->
      let resp =
        send st
          (req st "open"
             [ ("name", Json.String name);
               ("source", Json.String m.md_good_source) ])
      in
      (match result_member resp "mode" with
      | Some (Json.String "fresh") -> ()
      | _ -> violate st "recovery rebuild of %S did not restore fresh mode" name);
      m.md_injected <- false;
      (match result_member resp "memrefs" with
      | Some (Json.Int n) -> m.md_memrefs <- n
      | _ -> ());
      let kind = kind_pick st in
      let pairs = random_pairs st m.md_memrefs (min m.md_memrefs 8) in
      let resp =
        send st
          (req st "alias"
             [ ("doc", Json.String name);
               ("oracle", Json.String (Tbaa.Engine.kind_name kind));
               ("pairs", Json.List pairs) ])
      in
      (match result_member resp "answers" with
      | Some (Json.List answers) ->
        let clean = ref true in
        List.iteri
          (fun idx (pair, answer) ->
            match (pair, answer) with
            | Json.List [ Json.Int i; Json.Int j ], Json.Bool got -> (
              match reference_answer st m.md_good_source kind i j with
              | Some want when want <> got ->
                clean := false;
                violate st
                  "post-recovery alias on %S (pair %d) disagrees with a \
                   fresh engine"
                  name idx
              | Some _ -> st.n_checked <- st.n_checked + 1
              | None -> ())
            | _ -> clean := false)
          (List.combine pairs answers);
        if !clean then st.n_recovered <- st.n_recovered + 1
      | _ -> violate st "recovery alias batch on %S failed" name);
      ignore (send st (req st "close" [ ("name", Json.String name) ])))
    st.docs

(* ------------------------------------------------------------------ *)

let run ?(workers = 0) ~seed ~ops () =
  let config =
    { Dispatch.default_config with
      Dispatch.max_batch = 32; max_docs = 4; default_deadline_ms = 500.0;
      max_request_bytes = 64 * 1024; allow_inject = true; workers }
  in
  let st =
    { srv = Dispatch.create ~config ();
      rng = Prng.create (Int64.of_int (0x5eed + seed));
      docs = Hashtbl.create 8; refs = Hashtbl.create 8;
      ref_paths = Hashtbl.create 8; n_ops = 0; n_ok = 0; n_err = 0;
      code_counts = Hashtbl.create 8; n_checked = 0; n_recovered = 0;
      n_edits = 0; n_body_edits = 0; n_fast = 0; viol = [] }
  in
  (* Seed one document so query ops have a target from the start. *)
  op_good_update st;
  let weighted =
    [ (6, op_good_update); (3, op_bad_source); (3, op_malformed);
      (2, op_bad_envelope); (1, op_unknown_method); (10, op_alias_check);
      (2, op_alias_oob); (1, op_oversized); (1, op_deadline);
      (2, op_modref); (2, op_health); (1, op_batch); (1, op_close);
      (3, op_partial_edit); (3, op_body_edit); (1, op_cancel_storm);
      (1, op_interleaved) ]
  in
  let total = List.fold_left (fun a (w, _) -> a + w) 0 weighted in
  let pick_op n =
    let rec go n = function
      | (w, op) :: rest -> if n < w then op else go (n - w) rest
      | [] -> assert false
    in
    go n weighted
  in
  while st.n_ops < ops do
    (pick_op (Prng.int st.rng total)) st
  done;
  (* Free store capacity (max_docs is deliberately tiny), then pin the
     sleeps-not-spins property before the recovery sweep. *)
  List.iter
    (fun name ->
      ignore (send st (req st "close" [ ("name", Json.String name) ])))
    ("slowpoke" :: "cancelme" :: doc_pool);
  cpu_burn_check st;
  recovery_sweep st;
  if st.n_body_edits > 0 && st.n_fast = 0 then
    violate st "%d body-local edits, none re-read alone" st.n_body_edits;
  let pool_workers = Dispatch.workers st.srv in
  Dispatch.stop st.srv;
  { ops = st.n_ops; oks = st.n_ok; errors = st.n_err;
    by_code =
      List.sort compare
        (Hashtbl.fold (fun k v acc -> (k, v) :: acc) st.code_counts []);
    checked_answers = st.n_checked; recovered_docs = st.n_recovered;
    workers = pool_workers;
    cancelled =
      Option.value ~default:0
        (Hashtbl.find_opt st.code_counts (Rpc.code_name Rpc.Cancelled));
    partial_edits = st.n_edits; body_edits = st.n_body_edits;
    fast_edits = st.n_fast;
    violations = List.rev st.viol }
