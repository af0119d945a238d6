(* The bench-smoke legs (`make bench-smoke`), timed and gated by Gate.
   This is the repository's one timing harness for the machinery behind
   the paper's evaluation; `tbaac experiment all` prints the tables and
   figures themselves (Tables 4-6, Figures 8-12, the ablations).

   Every timed leg runs a production path on a fixed subject:

   - alias: the per-query compatibility cores — the interval tests on the
     inheritance forest (TypeDecl/FieldTypeDecl) and on SMTypeRefs' merged
     forest — swept over every type pair of Gen.Scale 200 (a 200-deep
     inheritance chain, where a chain walk or a per-query intersection
     would cost the most) and of m3cg, the suite's largest program; and
     SMFieldTypeRefs' may_alias over every pair of m3cg's heap references
     (the sweep behind Table 5's alias pairs).
   - abl1: SMTypeRefs built over the ten workloads' facts, once grouped
     (the paper's Figure 2) and once per type (footnote 2; ABL1).
   - sim: the compiled simulator on slisp untraced (Table 4's
     instruction-count run), on write_pickle under the redundant-load
     tracer (Figure 9's limit study), and over bench/e2e's generated-mix
     pool untraced, where compiling the procedures is most of a run.
   - incr: a full analysis of Gen.Scale 1200 from scratch, and after a
     one-procedure edit through Engine.update.
   - pipeline: the full per-procedure client set (LICM, PRE, SLF, RLE,
     copy propagation, DSE; Table 6 and Figure 8) over Gen.Scale 1200
     from scratch, the devirtualization/inlining fixpoint alone (Figure
     11) on the same corpus, and a one-procedure edit re-optimized
     through an incremental session.
   - server: batched alias queries through the real tbaad binary over
     pipes, one fresh daemon per batch and one warm daemon for all.

   scaling gates the paper's cost claim (§2.5): parse, typecheck and
   Engine.create each grow at most as n^1.2 from Gen.Scale 400 to 3200,
   and Engine.create does in both worlds on the type axis
   (Gen.Scale.type_chain, 400 to 3200 types deep; ABL4 and Figure 12's
   open world). A warm session's
   re-optimization after a one-procedure edit grows at most as n^0.85
   over the same corpora: it re-runs only what the edit contaminated.
   On four or more cores, the parallel engine build, parallel optimizer
   and multi-client daemon are gated on their speedup.

   Untimed checks run once, after the samples (Gate.check): a simulated
   run of the generated pool allocates at most 30 minor words per
   compiled instruction, the updated engine agrees with a fresh one, the incremental
   optimization is byte-identical to a from-scratch one, and the daemon
   sheds a burst with structured responses that backoff retries all
   land. The two
   simulator engines' agreement is test_sim_equiv's. *)

open Support

(* Query results are folded in here so no sweep can be optimized away. *)
let sink = ref 0

let workload name = Workloads.Workload.lower (Workloads.Suite.find name)
let scale n = Ir.Lower.lower_string ~file:"scale" (Gen.Scale.source n)

(* ------------------------------------------------------------------ *)
(* alias                                                               *)
(* ------------------------------------------------------------------ *)

let sweep_pairs n fn () () =
  for t1 = 0 to n - 1 do
    for t2 = 0 to n - 1 do
      if fn t1 t2 then incr sink
    done
  done

let compat_legs label program =
  let facts = Tbaa.Engine.facts (Tbaa.Engine.create program) in
  let tenv = facts.Tbaa.Facts.tenv in
  let n = Minim3.Types.count tenv in
  let subtype = Tbaa.Compat.fn (Tbaa.Compat.subtyping tenv) in
  Gate.time ("alias/subtype-compat/" ^ label) ~sample_ms:40.0
    (sweep_pairs n subtype);
  let sm = Tbaa.Sm_type_refs.build ~facts ~world:Tbaa.World.Closed () in
  let typerefs = Tbaa.Compat.fn (Tbaa.Sm_type_refs.compat sm) in
  Gate.time ("alias/typerefs-compat/" ^ label) ~sample_ms:40.0
    (sweep_pairs n typerefs)

let may_alias_leg label program =
  let engine = Tbaa.Engine.create program in
  let refs =
    Array.of_list
      (List.map
         (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
         (Tbaa.Engine.facts engine).Tbaa.Facts.memrefs)
  in
  let o = Tbaa.Engine.oracle engine Tbaa.Engine.Sm_field_type_refs in
  let n = Array.length refs in
  Gate.time ("alias/may-alias/" ^ label) ~sample_ms:40.0 (fun () () ->
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if o.Tbaa.Oracle.may_alias refs.(i) refs.(j) then incr sink
        done
      done)

let alias () =
  let m3cg = workload "m3cg" in
  compat_legs "scale200" (scale 200);
  compat_legs "m3cg" m3cg;
  may_alias_leg "m3cg" m3cg

(* ------------------------------------------------------------------ *)
(* abl1: the two selective-merging formulations (paper footnote 2)     *)
(* ------------------------------------------------------------------ *)

(* One operation builds SMTypeRefs over each of the ten workloads'
   facts: one program's build is too short to time on its own. *)
let abl1 () =
  let facts =
    List.map
      (fun w ->
        Tbaa.Engine.facts (Tbaa.Engine.create (Workloads.Workload.lower w)))
      Workloads.Suite.all
  in
  List.iter
    (fun (name, variant) ->
      Gate.time ("abl1/merge-" ^ name) ~sample_ms:40.0 (fun () () ->
          List.iter
            (fun facts ->
              ignore
                (Tbaa.Sm_type_refs.build ~variant ~facts
                   ~world:Tbaa.World.Closed ()))
            facts))
    [ ("grouped", Tbaa.Sm_type_refs.Grouped);
      ("per-type", Tbaa.Sm_type_refs.Per_type) ]

(* ------------------------------------------------------------------ *)
(* sim                                                                 *)
(* ------------------------------------------------------------------ *)

(* The observables folded into the sink. *)
let fingerprint (o : Sim.Interp.outcome) =
  Hashtbl.hash
    ( o.Sim.Interp.output,
      o.Sim.Interp.counters.Sim.Interp.instrs,
      o.Sim.Interp.counters.Sim.Interp.heap_loads,
      o.Sim.Interp.cycles,
      o.Sim.Interp.soft_faults,
      o.Sim.Interp.cache_misses )

let untraced program = fingerprint (Sim.Interp.run program)

(* The tracer's total joins the fingerprint: the leg must run the real
   hook. *)
let traced program =
  let t = Sim.Limit.create () in
  let o = Sim.Interp.run ~on_load:(Sim.Limit.on_load t) program in
  Hashtbl.hash (fingerprint o, Sim.Limit.total_redundant t)

(* bench/e2e's generated-mix pool: seeds 10-109 of the size-3 generator,
   each through the whole schedule (every pass, SMFieldTypeRefs, closed
   world). A run of one executes a few thousand instructions, so most of
   it is compiling the procedures it calls. *)
let generated_pool () =
  let schedule =
    Opt.Pass_manager.schedule
      { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
        slf = true; rle = true; copyprop = true; dse = true; local_cse = true }
  in
  Array.init 100 (fun i ->
      let g = Gen.Generator.generate ~size:3 (10 + i) in
      let p =
        Ir.Lower.lower_string ~file:g.Gen.Generator.module_name g.source
      in
      let ctx =
        Opt.Pass.create ~world:Tbaa.World.Closed
          ~oracle_kind:Opt.Pass.Osm_field_type_refs ~jobs:1 ()
      in
      ignore (Opt.Pass_manager.run ctx p schedule);
      p)

(* The compile's allocation, which the collector pays for at about 2 ns
   a word: a pool run compiles about 458 instructions, and allocated
   44,300 minor words (97 a compiled instruction) when each access, NEW
   and call site built its own tables. The limit is 30 words a compiled
   instruction, counted over the whole run (set-up and execution too),
   so the compile alone is held tighter still. Arrays above 256 words go
   straight to the major heap and are not counted. The count is
   deterministic. *)
let compile_alloc_limit = 30.0 *. 458.0

let compile_alloc pool () =
  let pool = Lazy.force pool in
  let w0 = Gc.minor_words () in
  Array.iter (fun p -> ignore (Sim.Interp.run p)) pool;
  let per_run =
    (Gc.minor_words () -. w0) /. float_of_int (Array.length pool)
  in
  Printf.printf "(compile-alloc: %.0f minor words per pool run, at most %.0f)\n"
    per_run compile_alloc_limit;
  if per_run > compile_alloc_limit then
    failwith
      (Printf.sprintf "%.0f minor words per pool run, over %.0f" per_run
         compile_alloc_limit)

let sim () =
  List.iter
    (fun (name, program, run) ->
      Gate.time ("sim/" ^ name) ~sample_ms:100.0 (fun () () ->
          sink := !sink lxor run program))
    [ ("table4:simulate-slisp", workload "slisp", untraced);
      ("fig9:traced-run-write_pickle", workload "write_pickle", traced) ]

(* The pool is built when its phase's sampling begins, and kept to the
   end for the check. *)
let sim_pool () =
  let pool = lazy (generated_pool ()) in
  Gate.time "sim/generated-pool" ~sample_ms:100.0 (fun () ->
      let pool = Lazy.force pool in
      fun () -> Array.iter (fun p -> sink := !sink lxor untraced p) pool);
  Gate.check "sim/compile-alloc" (compile_alloc pool)

(* ------------------------------------------------------------------ *)
(* incr and pipeline: Gen.Scale 1200 and a one-procedure edit          *)
(* ------------------------------------------------------------------ *)

let procs = 1200

(* Add [delta] to the first integer constant of an ALU assignment in
   one mid-corpus procedure (worker [worker], by default the middle one
   of Gen.Scale [procs]): the canonical "edit one procedure" probe. *)
let edit ?(worker = procs / 2) ~delta program =
  let proc =
    match
      Ir.Cfg.find_proc_opt program
        (Ident.intern (Printf.sprintf "P%d" worker))
    with
    | Some p -> p
    | None -> failwith "edited procedure not found"
  in
  let edited = ref false in
  Vec.iter
    (fun b ->
      if not !edited then
        b.Ir.Cfg.b_instrs <-
          List.map
            (function
              | Ir.Instr.Iassign (v, Ir.Instr.Rbinop (op, a, Ir.Reg.Aint k))
                when not !edited ->
                edited := true;
                Ir.Instr.Iassign
                  (v, Ir.Instr.Rbinop (op, a, Ir.Reg.Aint (k + delta)))
              | i -> i)
            b.Ir.Cfg.b_instrs)
    proc.Ir.Cfg.pr_blocks;
  if not !edited then failwith "no constant to edit"

let sm = Tbaa.Engine.Sm_field_type_refs

(* Pull every lazily built piece a client could ask for, so each leg
   covers the same total work. *)
let force engine =
  List.iter
    (fun p -> ignore (Tbaa.Engine.modref_merged engine sm p.Ir.Cfg.pr_name))
    (Tbaa.Engine.program engine).Ir.Cfg.prog_procs

let incremental () =
  let program = scale procs in
  let create domains () () = force (Tbaa.Engine.create ~domains program) in
  Gate.time "incr/cold" ~sample_ms:200.0 (create 1);
  let engine = Tbaa.Engine.create ~domains:1 program in
  force engine;
  Gate.time "incr/warm-edit-one-proc" ~sample_ms:40.0 (fun () ->
      edit ~delta:1 program;
      fun () -> force (Tbaa.Engine.update engine program));
  (* The updated engine agrees with a from-scratch analysis of the edited
     program. *)
  Gate.check "incr/update = fresh engine" (fun () ->
      let fresh = Tbaa.Engine.create ~domains:1 program in
      force fresh;
      let facts_u = Tbaa.Engine.facts engine
      and facts_f = Tbaa.Engine.facts fresh in
      assert (
        List.length facts_u.Tbaa.Facts.assignments
        = List.length facts_f.Tbaa.Facts.assignments);
      assert (
        List.length facts_u.Tbaa.Facts.memrefs
        = List.length facts_f.Tbaa.Facts.memrefs);
      List.iter
        (fun p ->
          let name = p.Ir.Cfg.pr_name in
          assert (
            Tbaa.Effects.equal
              (Tbaa.Engine.modref_merged engine sm name)
              (Tbaa.Engine.modref_merged fresh sm name)))
        program.Ir.Cfg.prog_procs;
      match Tbaa.Engine.last_update engine with
      | Some r ->
        assert (not r.Tbaa.Engine.ur_oracles_rebuilt);
        assert (List.length r.Tbaa.Engine.ur_recomputed = 1)
      | None -> assert false);
  Gate.speedup "incr/parallel-cold" ~at_least:2.0 ~sample_ms:100.0 (fun () ->
      (create 1, create (Domain_pool.available ()), ignore))

let schedule =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.none with
      Opt.Pass_manager.Config.licm = true; pre = true; slf = true;
      rle = true; copyprop = true; dse = true }

let optimize ~jobs program =
  ignore (Opt.Pass_manager.run (Opt.Pass.create ~jobs ()) program schedule)

(* The passes mutate their program: each operation optimizes a fresh
   lowering, made off the clock. *)
let pipeline () =
  let fresh jobs () =
    let p = scale procs in
    fun () -> optimize ~jobs p
  in
  Gate.time "pipeline/cold" ~sample_ms:400.0 (fresh 1);
  (* Figure 11's Minv+Inlining: the devirtualization/inlining fixpoint
     alone. *)
  let devirt_inline =
    Opt.Pass_manager.schedule
      { Opt.Pass_manager.Config.none with
        Opt.Pass_manager.Config.devirt_inline = true }
  in
  Gate.time "pipeline/devirt-inline-cold" ~sample_ms:200.0 (fun () ->
      let p = scale procs in
      fun () ->
        ignore (Opt.Pass_manager.run (Opt.Pass.create ()) p devirt_inline));
  let s = Opt.Pass_manager.session (Opt.Pass.create ()) in
  ignore (Opt.Pass_manager.rerun s (scale procs) schedule);
  (* A distinct delta per operation keeps every rerun a genuine edit of
     the previous one. *)
  let delta = ref 0 in
  Gate.time "pipeline/warm-edit-one-proc" ~sample_ms:200.0 (fun () ->
      incr delta;
      let p = scale procs in
      edit ~delta:!delta p;
      fun () -> ignore (Opt.Pass_manager.rerun s p schedule));
  Gate.check "pipeline/incremental = from scratch" (fun () ->
      let reused, reran = Opt.Pass_manager.session_counts s in
      if reused = 0 || reran = 0 then
        failwith "pipeline: the warm rerun reused nothing or re-ran nothing";
      (* The incremental result is byte-identical to a from-scratch
         optimization of the same edited program. *)
      let edited () =
        let p = scale procs in
        edit ~delta:(-1) p;
        p
      in
      let incr_p = edited () and scratch_p = edited () in
      ignore (Opt.Pass_manager.rerun s incr_p schedule);
      optimize ~jobs:1 scratch_p;
      let pp p = Format.asprintf "%a" Ir.Cfg.pp_program p in
      if pp incr_p <> pp scratch_p then
        failwith
          "pipeline: the incremental result differs from a from-scratch one");
  Gate.speedup "pipeline/parallel-cold" ~at_least:1.5 ~sample_ms:200.0
    (fun () -> (fresh 1, fresh (Domain_pool.available ()), ignore))

(* ------------------------------------------------------------------ *)
(* server: tbaad over pipes                                            *)
(* ------------------------------------------------------------------ *)

let server_procs = 120
let batch_pairs = 500

let daemon_exe =
  match
    List.find_opt Sys.file_exists
      [ "../bin/tbaad.exe"; "_build/default/bin/tbaad.exe"; "bin/tbaad.exe" ]
  with
  | Some exe -> exe
  | None -> failwith "tbaad.exe not found (run dune build bin)"

type daemon = {
  pid : int;
  ic : in_channel;
  oc : out_channel;
  rng : Prng.t;
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
    rng = Prng.create 0xb0ffL }

let send oc line =
  output_string oc line;
  output_char oc '\n';
  flush oc

let recv ic = Json.of_string (input_line ic)
let shutdown_req = "{\"jsonrpc\":\"2.0\",\"id\":0,\"method\":\"shutdown\"}"

let stop d =
  send d.oc shutdown_req;
  ignore (recv d.ic);
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
    send d.oc line;
    let resp = recv d.ic in
    if is_overloaded resp && tries < max_tries then begin
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
    failwith (Printf.sprintf "%s failed: %s" what (Json.to_string resp))

let open_req =
  lazy
    (Json.to_string
       (Json.Obj
          [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int 1);
            ("method", Json.String "open");
            ( "params",
              Json.Obj
                [ ("name", Json.String "scale");
                  ("source", Json.String (Gen.Scale.source server_procs)) ] )
          ]))

let memrefs result =
  match Json.member "memrefs" result with
  | Some (Json.Int n) when n > 0 -> n
  | _ -> failwith "open returned no memrefs"

let answers result =
  match Json.member "answers" result with
  | Some (Json.List answers) -> sink := !sink + List.length answers
  | _ -> failwith "alias returned no answers"

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

let open_doc d = memrefs (expect_result "open" (call d (Lazy.force open_req)))
let run_batch d req = answers (expect_result "alias" (call d req))

(* Overrun the pending queue on purpose; every overflow must come back
   as a structured shed, and backoff retries must land all of them. *)
let burst_check () =
  let max_pending = 8 in
  let d = spawn ~args:[ "--max-pending"; string_of_int max_pending ] () in
  let burst = (3 * max_pending) + 4 in
  let ping id =
    Printf.sprintf "{\"jsonrpc\":\"2.0\",\"id\":%d,\"method\":\"ping\"}" id
  in
  for i = 1 to burst do
    send d.oc (ping i)
  done;
  let shed = ref 0 in
  for _ = 1 to burst do
    let resp = recv d.ic in
    if is_overloaded resp then incr shed
    else ignore (expect_result "ping" resp)
  done;
  (* Retry exactly the shed requests through the backoff path. *)
  for i = 1 to !shed do
    ignore (expect_result "ping retry" (call d (ping (-i))))
  done;
  stop d;
  if !shed = 0 then failwith "burst: the pending queue never overran";
  Printf.printf
    "(burst: %d requests against max-pending %d, %d shed, all served after \
     backoff)\n"
    burst max_pending !shed

(* The same daemon on a unix socket with a worker pool, stormed by
   [mc_clients] concurrent clients, against the same batches taken in
   turn on one connection: protocol and engine cost cancel out, so the
   ratio measures dispatch concurrency. *)
let mc_clients = 4
let mc_batches = 6

let connect path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)
    | exception Unix.Unix_error ((ECONNREFUSED | ENOENT), _, _)
      when Unix.gettimeofday () < deadline ->
      Unix.close fd;
      Unix.sleepf 0.05;
      go ()
  in
  go ()

let sc_call (ic, oc) line =
  send oc line;
  recv ic

let multi_client () =
  let path = Filename.temp_file "tbaad-bench" ".sock" in
  Sys.remove path;
  let d =
    spawn
      ~args:
        [ "--socket"; path; "--workers"; string_of_int mc_clients;
          "--deadline-ms"; "30000" ]
      ()
  in
  let c0 = connect path in
  let n = memrefs (expect_result "open" (sc_call c0 (Lazy.force open_req))) in
  let batch c rng = answers (expect_result "alias" (sc_call c (alias_req rng n))) in
  let clients = Array.init mc_clients (fun _ -> connect path) in
  let serial () =
    let rng = Prng.create 0x5e41L in
    fun () ->
      for _ = 1 to mc_clients * mc_batches do
        batch c0 rng
      done
  in
  let concurrent () () =
    Array.iter Domain.join
      (Array.mapi
         (fun i c ->
           Domain.spawn (fun () ->
               let rng = Prng.create (Int64.of_int (0xc11e47 + i)) in
               for _ = 1 to mc_batches do
                 batch c rng
               done))
         clients)
  in
  let teardown () =
    Array.iter (fun (ic, _) -> close_in_noerr ic) clients;
    ignore (sc_call c0 shutdown_req);
    close_in_noerr (fst c0);
    ignore (Unix.waitpid [] d.pid);
    close_out_noerr d.oc;
    close_in_noerr d.ic;
    try Sys.remove path with Sys_error _ -> ()
  in
  (serial, concurrent, teardown)

let server () =
  let rng = Prng.create 0xf02cL in
  Gate.time "server/fork-per-batch" ~sample_ms:100.0 (fun () () ->
      let d = spawn () in
      let n = open_doc d in
      run_batch d (alias_req rng n);
      stop d);
  let d = spawn () in
  let n = open_doc d in
  let rng = Prng.create 0x3a3aL in
  Gate.time "server/warm-batch" ~sample_ms:20.0 (fun () () ->
      run_batch d (alias_req rng n));
  Gate.check "server/stop-warm-daemon" (fun () -> stop d);
  Gate.check "server/burst-shed-retry" burst_check;
  Gate.speedup "server/multi-client" ~at_least:2.0 ~sample_ms:100.0
    multi_client

(* ------------------------------------------------------------------ *)
(* scaling                                                             *)
(* ------------------------------------------------------------------ *)

let scaling () =
  let layer name next =
    Gate.slope ("scaling/" ^ name) ~at_most:1.2 ~sample_ms:30.0 (400, 3200)
      next
  in
  let parse n = Minim3.Parser.parse_module ~file:"scale" (Gen.Scale.source n) in
  layer "parse" (fun n ->
      let source = Gen.Scale.source n in
      fun () () -> ignore (Minim3.Parser.parse_module ~file:"scale" source));
  layer "typecheck" (fun n ->
      let ast = parse n in
      fun () () -> ignore (Minim3.Typecheck.check_module ast));
  layer "engine" (fun n ->
      let program = scale n in
      fun () () -> ignore (Tbaa.Engine.create program));
  (* The type axis; typecheck is not gated here, its depth term is still
     quadratic. *)
  let types world n =
    let program =
      Ir.Lower.lower_string ~file:"types" (Gen.Scale.type_chain n)
    in
    let config = { Tbaa.Engine.default_config with Tbaa.Engine.world } in
    fun () () -> ignore (Tbaa.Engine.create ~config program)
  in
  layer "engine-types" (types Tbaa.World.Closed);
  layer "engine-types-open" (types Tbaa.World.Open);
  (* The daemon's re-optimization after a one-procedure edit, past the
     front end: the edited worker's constant toggled in the unoptimized
     program, its fingerprints carried as the store carries them, then a
     rerun through a warm session. It pays for the contaminated
     procedures, a fingerprint scan per analysis refresh and one splice
     per procedure, not for every (pass, procedure) slot, which grew the
     time as n: on a 2-core box the slope read 0.97 for a walk that
     visited every slot and 0.69 for this one. *)
  Gate.slope "scaling/session-edit" ~at_most:0.85 ~sample_ms:30.0 (400, 3200)
    (fun n ->
      let program = scale n in
      let unoptimized = Ir.Cfg.snapshot program in
      let s = Opt.Pass_manager.session (Opt.Pass.create ()) in
      ignore (Opt.Pass_manager.rerun s program schedule);
      let delta = ref 1 in
      fun () ->
        Ir.Cfg.restore program unoptimized;
        delta := 3 - !delta;
        edit ~worker:(n / 2) ~delta:!delta program;
        let fingerprints =
          Array.of_list
            (List.map Ir.Fingerprint.proc program.Ir.Cfg.prog_procs)
        in
        fun () ->
          ignore (Opt.Pass_manager.rerun ~fingerprints s program schedule))

let () =
  alias ();
  abl1 ();
  sim ();
  incremental ();
  pipeline ();
  server ();
  (* The slopes' subjects (two warm sessions over Gen.Scale 3200 among
     them) would otherwise stay live through the other legs' samples. *)
  Gate.next_phase ();
  scaling ();
  (* Likewise the generated pool's hundred optimized programs, which the
     compile-alloc check keeps until the end: the last phase. *)
  Gate.next_phase ();
  sim_pool ();
  Gate.run ();
  if !sink = max_int then print_newline ()
