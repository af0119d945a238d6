(* The daemon throughput benchmark, its load generator, and the
   regression gate behind `make bench-smoke`.

   Two ways of answering the same batched may-alias queries over the
   scaleN corpus, both through the real tbaad binary over pipes so they
   share every byte of the protocol path:

   - fork-per-batch: every batch pays a fresh process — spawn tbaad,
     open the document (parse + typecheck + lower + engine build),
     answer one batch, shut down. The pre-daemon workflow.
   - warm: one long-lived daemon, the document opened once, then many
     batches against the persistent engine.

   Gate (a ratio, so it is meaningful across machines): the warm daemon
   must answer >= 5x more queries per second than fork-per-batch, and
   stay within 20% of the speedup recorded in BENCH_server.json.

   The client half doubles as the load generator: every request goes
   through [call], which retries Overloaded responses with exponential
   backoff plus deterministic jitter. A burst leg fires more
   concurrent-in-flight requests than the daemon's pending queue allows,
   asserts the overflow was shed with structured responses (not stalls,
   not crashes), and that retries eventually land every request.

   Modes:
     (none)    run and print the table
     --write   also snapshot BENCH_server.json
     --check   the `make bench-smoke` gate *)

open Support

let snapshot_file = "BENCH_server.json"
let required_speedup = 5.0
let regression_slack = 0.8 (* accept >= 80% of the recorded speedup *)
let procs = 120
let batch_pairs = 500
let warm_batches = 20
let fork_trials = 3

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Daemon over pipes                                                   *)
(* ------------------------------------------------------------------ *)

let daemon_exe =
  let candidates =
    [ "../bin/tbaad.exe"; "_build/default/bin/tbaad.exe"; "bin/tbaad.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some exe -> exe
  | None -> failwith "bench_server: tbaad.exe not found (run dune build bin)"

type daemon = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  rng : Prng.t;
  mutable shed_seen : int;
  mutable retries : int;
}

let spawn ?(args = []) () =
  let child_in_r, child_in_w = Unix.pipe ~cloexec:false () in
  let child_out_r, child_out_w = Unix.pipe ~cloexec:false () in
  let pid =
    Unix.create_process daemon_exe
      (Array.of_list (daemon_exe :: args))
      child_in_r child_out_w Unix.stderr
  in
  Unix.close child_in_r;
  Unix.close child_out_w;
  { pid;
    ic = Unix.in_channel_of_descr child_out_r;
    oc = Unix.out_channel_of_descr child_in_w;
    rng = Prng.create 0xb0ffL;
    shed_seen = 0;
    retries = 0 }

let send d line =
  output_string d.oc line;
  output_char d.oc '\n';
  flush d.oc

let recv d = Json.of_string (input_line d.ic)

let stop d =
  send d "{\"jsonrpc\":\"2.0\",\"id\":0,\"method\":\"shutdown\"}";
  ignore (recv d);
  close_out_noerr d.oc;
  close_in_noerr d.ic;
  ignore (Unix.waitpid [] d.pid)

let is_overloaded resp =
  match Json.member "error" resp with
  | Some err -> Json.member "code" err = Some (Json.Int (-32001))
  | None -> false

(* The load generator's one verb: send, and on an Overloaded shed retry
   with exponential backoff and jitter so synchronized clients spread
   out instead of stampeding back in step. *)
let call ?(max_tries = 8) d line =
  let rec go tries delay =
    send d line;
    let resp = recv d in
    if is_overloaded resp && tries < max_tries then begin
      d.retries <- d.retries + 1;
      let jitter =
        delay *. 0.5 *. (float_of_int (Prng.int d.rng 1000) /. 1000.0)
      in
      Unix.sleepf (delay +. jitter);
      go (tries + 1) (delay *. 2.0)
    end
    else resp
  in
  go 1 0.001

let expect_result what resp =
  match Json.member "result" resp with
  | Some r -> r
  | None ->
    failwith
      (Printf.sprintf "bench_server: %s failed: %s" what
         (Json.to_string resp))

(* ------------------------------------------------------------------ *)
(* Requests                                                            *)
(* ------------------------------------------------------------------ *)

let source = lazy (Gen.Scale.source procs)

let open_req =
  lazy
    (Json.to_string
       (Json.Obj
          [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int 1);
            ("method", Json.String "open");
            ( "params",
              Json.Obj
                [ ("name", Json.String "scale");
                  ("source", Json.String (Lazy.force source)) ] ) ]))

let open_doc d =
  let result = expect_result "open" (call d (Lazy.force open_req)) in
  match Json.member "memrefs" result with
  | Some (Json.Int n) when n > 0 -> n
  | _ -> failwith "bench_server: open returned no memrefs"

let alias_req rng n =
  let pairs =
    List.init batch_pairs (fun _ ->
        Json.List [ Json.Int (Prng.int rng n); Json.Int (Prng.int rng n) ])
  in
  Json.to_string
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int 2);
         ("method", Json.String "alias");
         ( "params",
           Json.Obj
             [ ("doc", Json.String "scale"); ("pairs", Json.List pairs) ] )
       ])

let run_batch d req =
  let result = expect_result "alias" (call d req) in
  match Json.member "answers" result with
  | Some (Json.List answers) -> List.length answers
  | _ -> failwith "bench_server: alias returned no answers"

(* ------------------------------------------------------------------ *)
(* Legs                                                                *)
(* ------------------------------------------------------------------ *)

let fork_leg () =
  let rng = Prng.create 0xf02cL in
  let best = ref infinity in
  let answered = ref 0 in
  for _ = 1 to fork_trials do
    let t0 = now () in
    let d = spawn () in
    let n = open_doc d in
    answered := run_batch d (alias_req rng n);
    stop d;
    let dt = now () -. t0 in
    if dt < !best then best := dt
  done;
  float_of_int !answered /. !best

let warm_leg () =
  let rng = Prng.create 0x3a3aL in
  let d = spawn () in
  let n = open_doc d in
  (* One untimed batch to warm the daemon before timing. *)
  ignore (run_batch d (alias_req rng n));
  let answered = ref 0 in
  let t0 = now () in
  for _ = 1 to warm_batches do
    answered := !answered + run_batch d (alias_req rng n)
  done;
  let dt = now () -. t0 in
  stop d;
  float_of_int !answered /. dt

(* Overrun the pending queue on purpose; every overflow must come back
   as a structured shed, and backoff retries must land all of them. *)
let burst_leg () =
  let max_pending = 8 in
  let d = spawn ~args:[ "--max-pending"; string_of_int max_pending ] () in
  let burst = (3 * max_pending) + 4 in
  for i = 1 to burst do
    send d
      (Printf.sprintf "{\"jsonrpc\":\"2.0\",\"id\":%d,\"method\":\"ping\"}" i)
  done;
  let served = ref 0 in
  for _ = 1 to burst do
    let resp = recv d in
    if is_overloaded resp then d.shed_seen <- d.shed_seen + 1
    else begin
      ignore (expect_result "ping" resp);
      incr served
    end
  done;
  (* Retry exactly the shed requests through the backoff path. *)
  for i = 1 to d.shed_seen do
    ignore
      (expect_result "ping retry"
         (call d
            (Printf.sprintf
               "{\"jsonrpc\":\"2.0\",\"id\":%d,\"method\":\"ping\"}" (-i))));
    incr served
  done;
  stop d;
  if d.shed_seen = 0 then
    failwith "bench_server: burst never overran the pending queue";
  if !served <> burst then
    failwith
      (Printf.sprintf "bench_server: burst lost requests (%d of %d served)"
         !served burst);
  (burst, d.shed_seen)

(* Multi-client leg: the same daemon binary on a unix socket with a
   worker pool, stormed by [mc_clients] concurrent clients. The gate is
   a throughput ratio against the same clients taking turns on one
   connection, so it only measures dispatch concurrency — protocol cost
   and engine cost cancel out. Needs real parallelism to mean anything:
   on fewer than [mc_clients] cores the leg skips with a notice instead
   of recording noise (TBAAD_BENCH_FORCE_MULTI=1 overrides the skip to
   exercise the plumbing; the ratio gate still applies under --check). *)

let mc_clients = 4
let mc_batches = 6
let mc_required = 2.0

type sclient = { sc_fd : Unix.file_descr; sc_ic : in_channel;
                 sc_oc : out_channel }

let sc_connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  { sc_fd = fd;
    sc_ic = Unix.in_channel_of_descr fd;
    sc_oc = Unix.out_channel_of_descr fd }

let sc_call c line =
  output_string c.sc_oc line;
  output_char c.sc_oc '\n';
  flush c.sc_oc;
  Json.of_string (input_line c.sc_ic)

let sc_close c = try Unix.close c.sc_fd with Unix.Unix_error _ -> ()

let sc_batch c req =
  match Json.member "answers" (expect_result "alias" (sc_call c req)) with
  | Some (Json.List answers) -> List.length answers
  | _ -> failwith "bench_server: alias returned no answers"

let multi_client_leg () =
  let cores = Domain_pool.available () in
  if cores < mc_clients && Sys.getenv_opt "TBAAD_BENCH_FORCE_MULTI" = None then None
  else begin
    let path = Filename.temp_file "tbaad-bench" ".sock" in
    Sys.remove path;
    let d =
      spawn
        ~args:
          [ "--socket"; path; "--workers"; string_of_int mc_clients;
            "--deadline-ms"; "30000" ]
        ()
    in
    let deadline = now () +. 10.0 in
    let rec connect_retry () =
      try sc_connect path
      with Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
        when now () < deadline ->
        Unix.sleepf 0.05;
        connect_retry ()
    in
    let c0 = connect_retry () in
    let n =
      match
        Json.member "memrefs"
          (expect_result "open" (sc_call c0 (Lazy.force open_req)))
      with
      | Some (Json.Int n) when n > 0 -> n
      | _ -> failwith "bench_server: open returned no memrefs"
    in
    (* Warm the workers before timing anything. *)
    ignore (sc_batch c0 (alias_req (Prng.create 0x7a22L) n));
    (* Serialized baseline: one connection answers every batch in turn. *)
    let serial_rng = Prng.create 0x5e41L in
    let answered = ref 0 in
    let t0 = now () in
    for _ = 1 to mc_clients * mc_batches do
      answered := !answered + sc_batch c0 (alias_req serial_rng n)
    done;
    let serial_qps = float_of_int !answered /. (now () -. t0) in
    (* Concurrent: one connection per client, all storming at once. *)
    let clients =
      Array.init mc_clients (fun _ -> connect_retry ())
    in
    let t0 = now () in
    let doms =
      Array.mapi
        (fun i c ->
          Domain.spawn (fun () ->
              let rng = Prng.create (Int64.of_int (0xc11e47 + i)) in
              let got = ref 0 in
              for _ = 1 to mc_batches do
                got := !got + sc_batch c (alias_req rng n)
              done;
              !got))
        clients
    in
    let conc_answered = Array.fold_left (fun a d -> a + Domain.join d) 0 doms in
    let conc_qps = float_of_int conc_answered /. (now () -. t0) in
    Array.iter sc_close clients;
    ignore (sc_call c0 "{\"jsonrpc\":\"2.0\",\"id\":0,\"method\":\"shutdown\"}");
    sc_close c0;
    ignore (Unix.waitpid [] d.pid);
    close_out_noerr d.oc;
    close_in_noerr d.ic;
    (try Sys.remove path with Sys_error _ -> ());
    Some (serial_qps, conc_qps)
  end

(* ------------------------------------------------------------------ *)
(* Reporting, snapshotting, gating                                     *)
(* ------------------------------------------------------------------ *)

let json_of_run ~fork_qps ~warm_qps ~burst ~shed ~multi =
  let multi_leg =
    match multi with
    | None ->
      Json.Obj
        [ ("name", Json.String "multi-client");
          ("skipped", Json.Bool true);
          ( "reason",
            Json.String
              (Printf.sprintf "needs >= %d cores, have %d" mc_clients
                 (Domain_pool.available ())) ) ]
    | Some (serial_qps, conc_qps) ->
      Json.Obj
        [ ("name", Json.String "multi-client");
          ("clients", Json.Int mc_clients);
          ("serial_qps", Json.Float serial_qps);
          ("concurrent_qps", Json.Float conc_qps);
          ("required", Json.Float mc_required);
          ("ratio", Json.Float (conc_qps /. serial_qps)) ]
  in
  Json.envelope
    [ ("microbench", Json.String "server");
      ("procs", Json.Int procs);
      ("batch_pairs", Json.Int batch_pairs);
      ( "legs",
        Json.List
          [ Json.Obj
              [ ("name", Json.String "warm-vs-fork");
                ("fork_qps", Json.Float fork_qps);
                ("warm_qps", Json.Float warm_qps);
                ("required", Json.Float required_speedup);
                ("speedup", Json.Float (warm_qps /. fork_qps)) ];
            multi_leg ] );
      ( "burst",
        Json.Obj [ ("requests", Json.Int burst); ("shed", Json.Int shed) ]
      ) ]

let recorded_speedup () =
  if not (Sys.file_exists snapshot_file) then None
  else
    let ic = open_in snapshot_file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    match Json.member "legs" (Json.of_string text) with
    | Some (Json.List (leg :: _)) -> (
      match Json.member "speedup" leg with
      | Some v -> Json.to_float v
      | None -> None)
    | _ -> None

let () =
  let mode = if Array.length Sys.argv > 1 then Sys.argv.(1) else "" in
  let fork_qps = fork_leg () in
  let warm_qps = warm_leg () in
  let burst, shed = burst_leg () in
  let multi = multi_client_leg () in
  let speedup = warm_qps /. fork_qps in
  Printf.printf "%-16s %14s %14s %10s %10s\n" "leg" "fork qps" "warm qps"
    "speedup" "required";
  Printf.printf "%-16s %14.0f %14.0f %9.1fx %9.1fx\n" "warm-vs-fork"
    fork_qps warm_qps speedup required_speedup;
  Printf.printf "burst: %d requests against max-pending 8, %d shed, all \
                 served after backoff\n"
    burst shed;
  (match multi with
  | None ->
    Printf.printf
      "multi-client: SKIPPED (needs >= %d cores, have %d)\n" mc_clients
      (Domain_pool.available ())
  | Some (serial_qps, conc_qps) ->
    Printf.printf
      "multi-client: %d clients, serial %.0f qps, concurrent %.0f qps, \
       ratio %.1fx (required %.1fx)\n"
      mc_clients serial_qps conc_qps (conc_qps /. serial_qps) mc_required);
  let run_json = json_of_run ~fork_qps ~warm_qps ~burst ~shed ~multi in
  (match mode with
  | "--write" ->
    let oc = open_out snapshot_file in
    output_string oc (Json.to_string run_json);
    output_char oc '\n';
    close_out oc;
    Printf.printf "wrote %s\n" snapshot_file
  | "--check" ->
    let failures = ref [] in
    let fail fmt =
      Printf.ksprintf (fun m -> failures := m :: !failures) fmt
    in
    if speedup < required_speedup then
      fail "warm-vs-fork: speedup %.1fx below required %.1fx" speedup
        required_speedup;
    (match multi with
    | None -> ()
    | Some (serial_qps, conc_qps) ->
      if conc_qps < serial_qps *. mc_required then
        fail "multi-client: ratio %.1fx below required %.1fx"
          (conc_qps /. serial_qps) mc_required);
    (match recorded_speedup () with
    | None ->
      print_endline
        "(no BENCH_server.json snapshot; gating on the required floor only)"
    | Some recorded ->
      if speedup < recorded *. regression_slack then
        fail "warm-vs-fork: speedup %.1fx regressed below %.0f%% of \
              recorded %.1fx"
          speedup
          (regression_slack *. 100.0)
          recorded);
    if !failures <> [] then begin
      List.iter (fun m -> Printf.printf "FAIL %s\n" m) !failures;
      exit 1
    end;
    print_endline "bench-server gate: OK"
  | _ -> ())
