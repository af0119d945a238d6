(* tbaabench — the repository's end-to-end benchmark.

   Run from the repository root (bench/e2e/run.sh builds first):

     tbaabench --workload W --seed N --seconds S --trace 0|1 [--trace-file F]
     tbaabench                  every workload, each in its own process
     tbaabench --smoke          every workload for about 2 s, both variants
     tbaabench --compare A B    compare two files of saved runs

   Workloads and metrics are defined in spec.ml and documented in
   README.md. One run measures one workload for S seconds through the
   public functions of each layer and checks every output: simulated
   outputs against the reference interpreter, the per-item optimizer
   schedule against a whole-schedule run, and the daemon's final answers
   against a from-scratch dispatcher. With --trace 0 it prints the
   end-to-end metrics; with --trace 1 it records spans around the calls
   into each layer and prints the per-layer metrics. The last line of
   output is one JSON object: correct, attempted, failed, metrics. *)

open Support
open E2e

(* ------------------------------------------------------------------ *)
(* Options                                                             *)
(* ------------------------------------------------------------------ *)

let workload = ref "all"
let seed = ref 1
let seconds = ref 20.0
let trace = ref 0
let trace_file = ref ""
let smoke = ref false
let compare_files = ref None

let tracing () = !trace = 1
let rng_for salt = Prng.create (Int64.of_int ((!seed * 1_000_003) + salt))
let seconds_ns () = int_of_float (!seconds *. 1e9)

(* Set-up is measured in this many fresh processes, forked before the
   parent does any compiler work; setup_s is their median. *)
let setup_probes = 7

(* ------------------------------------------------------------------ *)
(* Run accounting                                                      *)
(* ------------------------------------------------------------------ *)

type run = {
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** the first few, newest first *)
  builds : float Vec.t;  (** build-op latencies, ms *)
  answers : float Vec.t;  (** answer-op latencies, ms *)
  cycle_ratios : float Vec.t;  (** per program: optimized / reference *)
  load_ratios : float Vec.t;  (** per program, heap loads *)
  mutable setup_s : float;
  mutable peak_rss_mb : float;  (** read when the measured work ends *)
  tally : (string, float) Hashtbl.t;  (** per-layer counters, traced ops *)
  overhead : (string, float array) Hashtbl.t;
      (** per program: traced ms, traced ops, untraced ms, untraced ops *)
  notes : string Vec.t;  (** extra report lines *)
}

let new_run () =
  { attempted = 0; failed = 0; failures = []; builds = Vec.create ();
    answers = Vec.create (); cycle_ratios = Vec.create ();
    load_ratios = Vec.create ();
    setup_s = nan; peak_rss_mb = nan; tally = Hashtbl.create 32; overhead = Hashtbl.create 16;
    notes = Vec.create () }

let fail r fmt =
  Printf.ksprintf
    (fun msg ->
      r.failed <- r.failed + 1;
      if List.length r.failures < 10 then r.failures <- msg :: r.failures)
    fmt

let tally r k v =
  Hashtbl.replace r.tally k
    (v +. Option.value (Hashtbl.find_opt r.tally k) ~default:0.0)

let get r k = Option.value (Hashtbl.find_opt r.tally k) ~default:0.0
let note r fmt = Printf.ksprintf (fun s -> ignore (Vec.push r.notes s)) fmt

(* Times of traced and untraced ops on the same program, for the
   tracing overhead: programs differ too much in size to pool. *)
let tally_overhead r ~key ~traced ms =
  let a =
    match Hashtbl.find_opt r.overhead key with
    | Some a -> a
    | None ->
      let a = Array.make 4 0.0 in
      Hashtbl.add r.overhead key a;
      a
  in
  let i = if traced then 0 else 2 in
  a.(i) <- a.(i) +. ms;
  a.(i + 1) <- a.(i + 1) +. 1.0

let alloc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let tally_gc r (g0 : Gc.stat) (g1 : Gc.stat) =
  tally r "build.alloc_mb" ((alloc_words g1 -. alloc_words g0) *. 8.0 /. 1e6);
  tally r "build.major_gcs"
    (float_of_int (g1.major_collections - g0.major_collections))

(* ------------------------------------------------------------------ *)
(* The compile operation                                               *)
(* ------------------------------------------------------------------ *)

(* Every pass on, SMFieldTypeRefs, closed world, one job: the parallel
   path is slower and noisier than the sequential one on 2 cores. *)
let full_config =
  { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
    slf = true; rle = true; copyprop = true; dse = true; local_cse = true }

let new_context () =
  Opt.Pass.create ~world:Tbaa.World.Closed
    ~oracle_kind:Opt.Pass.Osm_field_type_refs ~jobs:1 ()

let item_label = function
  | Opt.Pass_manager.Run p -> p.Opt.Pass.name
  | Opt.Pass_manager.Fixpoint { passes; _ } ->
    String.concat "_" (List.map (fun p -> p.Opt.Pass.name) passes)

let schedule =
  List.map
    (fun item ->
      (String.map (fun c -> if c = '-' then '_' else c) (item_label item), item))
    (Opt.Pass_manager.schedule full_config)

(* One compile: parse, check, lower, build the engine the passes reuse,
   then run the schedule one item at a time — the same fold
   Pass_manager.run performs over the whole list, split so each item is
   timed on its own. *)
let compile ~name source =
  let ast = Span.run "parse" (fun () -> Minim3.Parser.parse_module ~file:name source) in
  let tast = Span.run "typecheck" (fun () -> Minim3.Typecheck.check_module ast) in
  let program = Span.run "lower" (fun () -> Ir.Lower.lower_program tast) in
  let ctx = new_context () in
  Span.run "engine" (fun () -> ignore (Opt.Pass.analysis ctx program));
  let reports =
    List.concat_map
      (fun (label, item) ->
        Span.run ("opt." ^ label) (fun () ->
            Opt.Pass_manager.run ctx program [ item ]))
      schedule
  in
  (program, reports)

let ir_size (p : Ir.Cfg.program) =
  List.fold_left (fun n pr -> n + Ir.Cfg.instr_count pr) 0 p.Ir.Cfg.prog_procs

(* The optimized program and every report but its time and analysis
   count: priming the engine moves one analysis out of the first pass. *)
let digest program reports =
  let report (r : Opt.Pass.report) =
    let o = r.r_oracle in
    Printf.sprintf "%s/%d %b %s oracle=%d,%d,%d,%d,%d,%d,%d,%d dataflow=%d,%d"
      r.r_pass r.r_round r.r_changed
      (String.concat ","
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.r_stats))
      o.compat_queries o.compat_misses o.alias_queries o.alias_misses
      o.class_queries o.class_misses o.store_queries o.store_misses
      r.r_dataflow.solves r.r_dataflow.iterations
  in
  String.concat "\n"
    (Format.asprintf "%a" Ir.Cfg.pp_program program :: List.map report reports)

let tally_build r ~source ~lowered program reports =
  let sum f = List.fold_left (fun n rp -> n + f rp) 0 reports in
  let o f = sum (fun (rp : Opt.Pass.report) -> f rp.r_oracle) in
  tally r "build.n" 1.0;
  tally r "parse.bytes" (float_of_int (String.length source));
  tally r "lower.ir_instrs" (float_of_int lowered);
  (match program with
  | Some p -> tally r "opt.ir_instrs" (float_of_int (ir_size p))
  | None -> ());
  tally r "engine.reanalyses"
    (float_of_int (sum (fun (rp : Opt.Pass.report) -> rp.r_analyses)));
  tally r "oracle.queries"
    (float_of_int (o (fun c -> c.Tbaa.Oracle_cache.alias_queries)));
  tally r "oracle.misses"
    (float_of_int (o (fun c -> c.Tbaa.Oracle_cache.alias_misses)));
  tally r "dataflow.iterations"
    (float_of_int
       (sum (fun (rp : Opt.Pass.report) -> rp.r_dataflow.Ir.Dataflow.iterations)));
  List.iter
    (fun (metric, pass, stat) ->
      tally r metric (float_of_int (Opt.Pass_manager.sum_stat pass stat reports)))
    Spec.pass_counters

(* ------------------------------------------------------------------ *)
(* Programs of the compile workloads                                   *)
(* ------------------------------------------------------------------ *)

type prog = {
  name : string;
  source : string;
  reference : Sim.Interp.outcome option;
      (** the reference interpreter on the unoptimized lowering; [None]
          for programs that are compiled but never run *)
  optimized : Sim.Interp.outcome option;
      (** the whole-schedule optimized program, run *)
  whole : string;  (** {!digest} of the whole-schedule run *)
  lowered : int;  (** IR instructions after lowering *)
  long_run : bool;
      (** the optimized program runs at least [long_run_instrs]
          instructions *)
  mutable checked : bool;  (** a timed compile was compared with [whole] *)
}

let same_behaviour (a : Sim.Interp.outcome) (b : Sim.Interp.outcome) =
  a.output = b.output && a.halted = b.halted

(* A simulated run this long (about 2 ms) gets its own speed kernel
   between it and its compile: the paper's programs run about a million
   instructions, the generated ones and the scale document a few
   thousand or fewer, where a kernel would cost many times the run. *)
let long_run_instrs = 100_000

(* The benchmark's own reference work, untimed: the reference run of the
   unoptimized lowering, and a whole-schedule optimization to compare the
   per-item schedule and the simulated output against. *)
let prepare ~dynamic name source =
  let program = Ir.Lower.lower_string ~file:name source in
  let lowered = ir_size program in
  let reference =
    if dynamic then Some (Sim.Interp.run_reference program) else None
  in
  let reports =
    Opt.Pass_manager.run (new_context ()) program (List.map snd schedule)
  in
  let optimized = Option.map (fun _ -> Sim.Interp.run program) reference in
  let long_run =
    match optimized with
    | Some (out : Sim.Interp.outcome) -> out.counters.instrs >= long_run_instrs
    | None -> false
  in
  { name; source; reference; optimized; whole = digest program reports;
    lowered; long_run; checked = false }

let miscompiled p =
  match (p.reference, p.optimized) with
  | Some reference, Some out -> not (same_behaviour out reference)
  | _ -> false

(* The optimizer's payoff on one program, as the paper reports it: its
   simulated cycles and heap loads relative to the unoptimized program. A
   program with no heap loads has nothing to remove (ratio 1). *)
let add_payoff r p =
  match (p.reference, p.optimized) with
  | Some reference, Some out ->
    let ratio a b = if b = 0 then 1.0 else float_of_int a /. float_of_int b in
    ignore (Vec.push r.cycle_ratios (ratio out.cycles reference.cycles));
    ignore
      (Vec.push r.load_ratios
         (ratio out.counters.heap_loads reference.counters.heap_loads))
  | _ -> ()

let ms_since t0 = Span.ms_of_ns (Span.now () - t0)

(* One program: a build op (compile) and, for programs that run, an
   answer op (simulate the optimized program), with [between ()] run
   between the two. Returns their times, or [None] for an op that did
   not happen or failed. [traced] ops record spans and per-layer
   counters. *)
let program_op r ~traced ~between p =
  Span.enabled := traced;
  let g0 = Gc.quick_stat () in
  r.attempted <- r.attempted + 1;
  let t0 = Span.now () in
  let built =
    match Span.op "build" (fun () -> compile ~name:p.name p.source) with
    | built -> Some built
    | exception e ->
      fail r "%s: compile raised %s" p.name (Printexc.to_string e);
      None
  in
  let build_ms = ms_since t0 in
  let g1 = Gc.quick_stat () in
  let answer_ms =
    match (built, p.reference) with
    | Some (program, _), Some reference -> (
      r.attempted <- r.attempted + 1;
      between ();
      let t1 = Span.now () in
      match Span.op "answer" (fun () -> Sim.Interp.run program) with
      | out ->
        let ms = ms_since t1 in
        if not (same_behaviour out reference) then
          fail r "%s: simulated output differs from the reference" p.name;
        if traced then begin
          tally r "answer.n" 1.0;
          tally r "answer.service_ms" ms;
          tally r "sim.instrs" (float_of_int out.counters.instrs);
          tally r "sim.ms" ms
        end;
        Some ms
      | exception e ->
        fail r "%s: simulation raised %s" p.name (Printexc.to_string e);
        None)
    | _ -> None
  in
  Span.enabled := false;
  match built with
  | None -> (None, None)
  | Some (program, reports) ->
    if not p.checked then begin
      p.checked <- true;
      if digest program reports <> p.whole then
        fail r "%s: the per-item schedule differs from the whole schedule"
          p.name
    end;
    if tracing () then
      tally_overhead r ~key:p.name ~traced
        (build_ms +. Option.value answer_ms ~default:0.0);
    if traced then begin
      tally_build r ~source:p.source ~lowered:p.lowered (Some program) reports;
      tally_gc r g0 g1
    end;
    (Some build_ms, answer_ms)

(* [setup] in [setup_probes] fresh forked processes, one at a time, each
   time scaled by the speed kernel run just before and after it in the
   same process; returns the median seconds. The first kernel run only
   grows the fresh process's heap. The parent has spawned no domain
   yet. *)
let setup_probe setup =
  let once () =
    let rd, wr = Unix.pipe ~cloexec:true () in
    match Unix.fork () with
    | 0 ->
      let code =
        try
          ignore (Calib.collected ());
          let before = Calib.collected () in
          let t0 = Span.now () in
          setup ();
          let ms = ms_since t0 in
          let ms = Calib.between before (Calib.collected ()) ms in
          let s = Printf.sprintf "%.17g" (ms /. 1e3) in
          ignore (Unix.write_substring wr s 0 (String.length s));
          0
        with _ -> 3
      in
      Unix._exit code
    | pid -> (
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let text = In_channel.input_all ic in
      close_in ic;
      match Unix.waitpid [] pid with
      | _, Unix.WEXITED 0 -> float_of_string text
      | _ -> failwith "a set-up probe process failed")
  in
  Stats.median (Array.init setup_probes (fun _ -> once ()))

let warm_up progs =
  List.iter
    (fun (name, source, dynamic) ->
      let program, _ = compile ~name source in
      if dynamic then ignore (Sim.Interp.run program))
    progs

let push v = Option.iter (fun x -> ignore (Vec.push v x))
let to_array v = Array.of_list (Vec.to_list v)

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec go () =
        match In_channel.input_line ic with
        | None -> nan
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> go ()
      in
      go ())

(* Every program of a workload must compile correctly; its payoff
   counts. *)
let qualify r p =
  r.attempted <- r.attempted + 1;
  if miscompiled p then fail r "%s: the optimizer miscompiles it" p.name
  else add_payoff r p

let note_kernels r kernels =
  note r "speed kernel: median %.3f ms, range %.3f to %.3f ms over %d runs \
          (times are scaled to %g ms)"
    (Stats.median kernels) (Stats.percentile kernels 0.0)
    (Stats.percentile kernels 100.0) (Array.length kernels) Calib.reference_ms

type op = {
  prog : int;
  before : float;  (** kernel ms before the build *)
  mid : float option;  (** kernel ms between the build and the answer *)
  build_ms : float option;
  answer_ms : float option;
}

(* Timed passes over [progs], each in an order drawn from [rng], until
   the clock runs out, with the speed kernel run before each build,
   between a build and a long run, and after the last op. So every build
   starts just after a full major collection, as a compile in a fresh
   process starts on an empty heap; so does every run, since a short one
   gets a collection of its own: without it, one short run in ten met the
   collector's work on its compile's garbage and took twice as long, so
   the p90 read one side of that split or the other. Returns each
   program's build and answer samples, scaled by the kernel, in [progs]
   order. In the traced run, ops alternate between traced and
   untraced. *)
let measure r rng progs =
  let ops = Vec.create () in
  let deadline = Span.now () + seconds_ns () in
  let running () = Vec.length ops = 0 || Span.now () < deadline in
  while running () do
    let order = Array.init (Array.length progs) Fun.id in
    Prng.shuffle rng order;
    Array.iter
      (fun prog ->
        if running () then begin
          let before = Calib.collected () and mid = ref None in
          let between () =
            if progs.(prog).long_run then mid := Some (Calib.collected ())
            else Gc.full_major ()
          in
          let traced = tracing () && Vec.length ops mod 2 = 1 in
          let build_ms, answer_ms = program_op r ~traced ~between progs.(prog) in
          ignore (Vec.push ops { prog; before; mid = !mid; build_ms; answer_ms })
        end)
      order
  done;
  r.peak_rss_mb <- peak_rss_mb ();
  let last = Calib.collected () in
  note r "ops: %d over %d programs" (Vec.length ops) (Array.length progs);
  note_kernels r
    (Array.of_list
       (last :: List.concat_map (fun o -> o.before :: Option.to_list o.mid) (Vec.to_list ops)));
  let samples = Array.map (fun _ -> (Vec.create (), Vec.create ())) progs in
  Vec.iteri
    (fun k o ->
      let after = if k + 1 < Vec.length ops then (Vec.get ops (k + 1)).before else last in
      let mid = Option.value o.mid ~default:after in
      push (fst samples.(o.prog)) (Option.map (Calib.between o.before mid) o.build_ms);
      push (snd samples.(o.prog)) (Option.map (Calib.between mid after) o.answer_ms))
    ops;
  samples

let pool_samples r samples =
  Array.iter
    (fun (b, a) ->
      Vec.iter (fun x -> ignore (Vec.push r.builds x)) b;
      Vec.iter (fun x -> ignore (Vec.push r.answers x)) a)
    samples

let pool_as_passes r samples =
  let builds, answers = List.split (Array.to_list samples) in
  let add into per_prog =
    Vec.append_array into (Stats.as_passes (List.map to_array per_prog))
  in
  add r.builds builds;
  add r.answers answers

(* The paper's ten programs, each pass compiling all ten in a seeded
   order and running the eight dynamic ones. *)
let paper_suite r =
  let inputs =
    List.map
      (fun (w : Workloads.Workload.t) -> (w.name, w.source, w.dynamic))
      Workloads.Suite.all
  in
  r.setup_s <- setup_probe (fun () -> warm_up inputs);
  let progs = Array.of_list (List.map (fun (n, s, d) -> prepare ~dynamic:d n s) inputs) in
  Array.iter (qualify r) progs;
  warm_up inputs;
  pool_as_passes r (measure r (rng_for 1) progs)

(* The Gen.Scale document of scale-compile and ide-session: 200 workers,
   43 KB. Small enough that a compile (about 95 ms) and an edit (about
   20 ms) give over 100 samples in a 20 s run even when the box runs 1.8
   times slower. *)
let scale_workers = 200

(* One large program; the seed does not change it. *)
let scale_compile r =
  let source = Gen.Scale.source scale_workers in
  r.setup_s <- setup_probe (fun () -> warm_up [ ("scale", source, true) ]);
  let p = prepare ~dynamic:true "scale" source in
  qualify r p;
  warm_up [ ("scale", source, true) ];
  pool_samples r (measure r (rng_for 1) [| p |])

(* A fixed pool of generated programs, [Gen.Generator.generate ~size:3]
   of seeds [pool_warm] to [pool_warm + pool_size - 1]; seeds 0 to
   [pool_warm - 1] are the warm-up. The pool does not depend on the
   benchmark's seed, which orders each pass, so runs with different seeds
   time the same programs. None of these programs is miscompiled (seeds
   0 to 399 were checked): one that is, fails the run. *)
let pool_size = 100
let pool_warm = 10

let generated_mix r =
  let program i =
    let g = Gen.Generator.generate ~size:3 i in
    (g.Gen.Generator.module_name, g.source, true)
  in
  let warm = List.init pool_warm program in
  r.setup_s <- setup_probe (fun () -> warm_up warm);
  let pool =
    Array.init pool_size (fun i ->
        let name, source, dynamic = program (pool_warm + i) in
        prepare ~dynamic name source)
  in
  Array.iter (qualify r) pool;
  warm_up warm;
  pool_samples r (measure r (rng_for 1) pool)

(* ------------------------------------------------------------------ *)
(* ide-session                                                         *)
(* ------------------------------------------------------------------ *)

(* The daemon's request handler in a closed loop on one thread, and the
   latencies open-loop traffic would see through its one worker. Every
   request is served by [Dispatch.handle_line] on the calling thread,
   which is what the worker runs for it, and its service time is measured
   on its own. The latencies follow from those service times and a seeded
   arrival schedule, as a worker that serves requests one at a time in
   the order they are due gives them. A live open loop, with the load
   generator and the worker on two threads of a 2-core box, timed the
   scheduler as much as the daemon: the query p90 of runs of the same
   code spread by a third.

   The traffic is not taken from a recorded editor session. These are
   its chosen properties; README.md lists the ones it leaves out.
   - Edits keep the worker busy [edit_load] of the time: the edit period
     is the run's median edit service time over [edit_load], so the load
     is the same on a faster or a slower machine. Most queries run at
     once and the query p90 waits behind an edit. Near half, the query
     median would jump between the two from run to run; near a tenth, so
     would the p90.
   - The analyzer sends [queries_per_edit] queries per edit period: four
     alias batches of [alias_pairs] memref pairs to one modref.
   - Arrivals are jittered, not Poisson ({!period_requests}). *)
let edit_load = 0.3
let queries_per_edit = 10
let warm_edits = 10
let alias_pairs = 500
let final_pairs = 2000
let warm_queries = 20
let doc = "scale"

let server_config =
  { Server.Dispatch.default_config with workers = 0; optimize = true }

(* The daemon's own pipeline: every per-procedure client, sequential. *)
let daemon_schedule =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.none with
      licm = true; pre = true; slf = true; rle = true; copyprop = true;
      dse = true }

let rpc id meth params =
  Json.to_string
    (Json.Obj
       [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int id);
         ("method", Json.String meth); ("params", Json.Obj params) ])

let open_line source =
  rpc 0 "open" [ ("name", Json.String doc); ("source", Json.String source) ]

let alias_line ~id pairs =
  rpc id "alias"
    [ ("doc", Json.String doc);
      ( "pairs",
        Json.List
          (Array.to_list
             (Array.map (fun (i, j) -> Json.List [ Json.Int i; Json.Int j ]) pairs))
      ) ]

let random_pairs rng ~n count =
  Array.init count (fun _ -> (Prng.int rng n, Prng.int rng n))

(* Every fifth query is a modref, the others alias batches. *)
let query_line rng ~id ~n k =
  if k mod 5 <> 4 then alias_line ~id (random_pairs rng ~n alias_pairs)
  else
    let j = Prng.int rng (scale_workers + Gen.Scale.lib_procs) in
    let proc =
      if j < scale_workers then Printf.sprintf "P%d" j
      else Printf.sprintf "L%d" (j - scale_workers)
    in
    rpc id "modref" [ ("doc", Json.String doc); ("proc", Json.String proc) ]

let change_line ~id (e : Edits.t) =
  rpc id "change"
    [ ("name", Json.String doc);
      ( "edits",
        Json.List
          [ Json.Obj
              [ ("start", Json.Int e.start); ("end", Json.Int e.stop);
                ("text", Json.String e.text) ] ] ) ]

let result_of line =
  match Json.member "result" (Json.of_string line) with
  | Some r -> r
  | None -> failwith ("error response: " ^ line)

let fresh res = Json.member "mode" res = Some (Json.String "fresh")

type daemon = {
  d : Server.Dispatch.t;
  memrefs : int;
  warm : Edits.t array;  (** the warm-up edits, applied *)
  text : string;  (** the document after them *)
}

(* The daemon's set-up: create it, open the document cold, answer a few
   warm-up queries and apply [warm_edits] edits drawn from [edits], one
   at a time. *)
let ide_setup source edits =
  let d = Server.Dispatch.create ~config:server_config () in
  let serve line = result_of (Server.Dispatch.handle_line d line) in
  let memrefs =
    match Json.member "memrefs" (serve (open_line source)) with
    | Some (Json.Int n) when n > 0 -> n
    | _ -> failwith "open returned no memrefs"
  in
  let rng = rng_for 2 in
  for i = 1 to warm_queries do
    ignore (serve (query_line rng ~id:(-i) ~n:memrefs i))
  done;
  let text = ref source in
  let warm =
    Array.init warm_edits (fun k ->
        let e = Edits.next edits ~workers:scale_workers k !text in
        text := Edits.apply !text e;
        if not (fresh (serve (change_line ~id:(-100 - k) e))) then
          failwith "a warm-up edit left the document not fresh";
        e)
  in
  { d; memrefs; warm; text = !text }

(* A request the session served. *)
type served = {
  edit : bool;
  due : float;  (** in edit periods after the session starts *)
  round : int;  (** the edit period it is due in *)
  start : int;  (** ns, when [handle_line] was called *)
  stop : int;  (** ns, when it returned *)
}

(* The requests due in edit period [k], in due order: the kth edit
   (applied to [text]) and the [queries_per_edit] queries of the same
   period. The ith request of a client is due at a seeded point in the
   middle half of its ith period. Unlike Poisson arrivals, two edits
   never land close enough to queue behind each other, so a run's tail
   does not hinge on how many such collisions its seed happens to draw.
   Returns the edit and the (due, is an edit, line) triples. *)
let period_requests rng ~memrefs k text =
  let slot i = float_of_int i +. 0.25 +. (0.5 *. float_of_int (Prng.int rng 1_000_000) /. 1e6) in
  let first_id = (k * (queries_per_edit + 1)) + 1 in
  let e = Edits.next rng ~workers:scale_workers (warm_edits + k) text in
  let queries =
    List.init queries_per_edit (fun i ->
        let q = (k * queries_per_edit) + i in
        ( slot q /. float_of_int queries_per_edit, false,
          query_line rng ~id:(first_id + 1 + i) ~n:memrefs q ))
  in
  (e, List.sort compare ((slot k, true, change_line ~id:first_id e) :: queries))

(* The replay: the recorded edits re-applied serially through the public
   functions the store composes, traced every other edit. Returns the
   replayed engine. *)
let replay r ~source edits =
  let front text =
    let ast = Span.run "parse" (fun () -> Minim3.Parser.parse_module ~file:doc text) in
    match Span.run "typecheck" (fun () -> Minim3.Typecheck.check_module_all ast) with
    | Ok tast -> Span.run "lower" (fun () -> Ir.Lower.lower_program tast)
    | Error _ -> failwith "an edited document failed to typecheck"
  in
  let session = Opt.Pass_manager.session (new_context ()) in
  (* Like the store: optimize on the side, then restore the lowering the
     queries index. *)
  let optimize program =
    let saved = Ir.Cfg.snapshot program in
    let reports = Opt.Pass_manager.rerun session program daemon_schedule in
    Ir.Cfg.restore program saved;
    reports
  in
  let program = front source in
  let engine = ref (Tbaa.Engine.create program) in
  ignore (optimize program);
  let text = ref source in
  Array.iteri
    (fun k e ->
      let traced = k mod 2 = 1 in
      Span.enabled := traced;
      let g0 = Gc.quick_stat () in
      let t0 = Span.now () in
      let result =
        Span.op "build" (fun () ->
            text := Edits.apply !text e;
            let program = front !text in
            engine := Span.run "engine" (fun () -> Tbaa.Engine.update !engine program);
            let reports = Span.run "opt.session" (fun () -> optimize program) in
            (program, reports))
      in
      let ms = ms_since t0 in
      let g1 = Gc.quick_stat () in
      Span.enabled := false;
      tally r "replay.ms" ms;
      tally r "replay.n" 1.0;
      tally_overhead r ~key:"edit" ~traced ms;
      if traced then begin
        let program, reports = result in
        tally_build r ~source:!text ~lowered:(ir_size program) None reports;
        tally_gc r g0 g1;
        (match Tbaa.Engine.last_update !engine with
        | Some u ->
          tally r "engine.recomputed_procs"
            (float_of_int (List.length u.Tbaa.Engine.ur_recomputed))
        | None -> ());
        let reused, reran = Opt.Pass_manager.session_counts session in
        tally r "session.reused" (float_of_int reused);
        tally r "session.reran" (float_of_int reran)
      end)
    edits;
  !engine

(* Serve edit periods, one after another, until the clock runs out, with
   the speed kernel run before the first and after each. The kernel runs
   without a full collection first, so the daemon's heap stays as a
   long-running daemon's: with one, the edits no longer paid for the
   collector's work on their garbage and peak memory fell by a third. A
   request's line is built, and the edit tracked, before its period
   starts; its response is checked after the period ends. In the traced
   run the JSON layer of each query (decoding its line, encoding its
   response) is timed after the kernel. Returns the served requests, the
   edits, the final text and the kernel times. *)
let run_session r d rng ~memrefs text =
  let served = Vec.create () and edits = Vec.create () and kernels = Vec.create () in
  let text = ref text in
  let deadline = Span.now () + seconds_ns () in
  ignore (Vec.push kernels (Calib.time ()));
  while Vec.length edits = 0 || Span.now () < deadline do
    let k = Vec.length edits in
    let e, reqs = period_requests rng ~memrefs k !text in
    text := Edits.apply !text e;
    ignore (Vec.push edits e);
    let timed =
      List.map
        (fun (due, edit, line) ->
          let start = Span.now () in
          let response = Server.Dispatch.handle_line d line in
          ({ edit; due; round = k; start; stop = Span.now () }, line, response))
        reqs
    in
    ignore (Vec.push kernels (Calib.time ()));
    List.iter
      (fun (s, line, response) ->
        r.attempted <- r.attempted + 1;
        match result_of response with
        | res when fresh res ->
          ignore (Vec.push served s);
          if tracing () && not s.edit then begin
            let parsed = Json.of_string response in
            let t0 = Span.now () in
            ignore (Json.of_string line);
            ignore (Json.to_string parsed);
            tally r "json.ms" (ms_since t0)
          end
        | _ -> fail r "edit period %d: a response from a document that is not fresh" k
        | exception ex -> fail r "edit period %d: %s" k (Printexc.to_string ex))
      timed
  done;
  (* Before the checks below, which hold a second document. *)
  r.peak_rss_mb <- peak_rss_mb ();
  (to_array served, to_array edits, !text, to_array kernels)

(* The daemon holds the tracked source and answers [line] byte for byte
   like a dispatcher that opens that source from scratch. Returns the
   daemon's response. *)
let check_final_state r d ~source line =
  r.attempted <- r.attempted + 1;
  let response = Server.Dispatch.handle_line d line in
  let same_source =
    Server.Store.with_doc_read (Server.Dispatch.store d) doc (function
      | Some dc -> Server.Store.source dc = source
      | None -> false)
  in
  let scratch = Server.Dispatch.create () in
  ignore (result_of (Server.Dispatch.handle_line scratch (open_line source)));
  if not (same_source && Server.Dispatch.handle_line scratch line = response) then
    fail r "final state differs from a from-scratch dispatcher";
  response

(* A span per request's service, and the request-side per-layer
   counters: service times as measured, waits from the queue. *)
let trace_requests r served waits latencies =
  Array.iteri
    (fun i s ->
      let service = Span.ms_of_ns (s.stop - s.start) in
      (* Service intervals never overlap, so they nest in one track. *)
      ignore
        (Span.add ~name:(if s.edit then "change" else "query") ~parent:(-1)
           ~op:(-2 - i) ~start:s.start ~stop:s.stop);
      if s.edit then begin
        tally r "change.n" 1.0;
        tally r "change.service_ms" service
      end
      else begin
        tally r "answer.n" 1.0;
        tally r "answer.service_ms" service;
        tally r "answer.wait_ms" waits.(i);
        tally r "answer.latency_ms" latencies.(i)
      end)
    served

let ide_session r =
  let source = Gen.Scale.source scale_workers in
  r.setup_s <- setup_probe (fun () -> ignore (ide_setup source (rng_for 3)));
  let rng = rng_for 3 in
  let dm = ide_setup source rng in
  let served, edits, final_source, kernels =
    run_session r dm.d rng ~memrefs:dm.memrefs dm.text
  in
  (* Each service time scaled by the kernels around its edit period; the
     edit period set so that edits keep the worker [edit_load] busy. *)
  let service =
    Array.map
      (fun s ->
        Calib.between kernels.(s.round) kernels.(s.round + 1)
          (Span.ms_of_ns (s.stop - s.start)))
      served
  in
  let edit_ms =
    Stats.median
      (Array.of_list
         (List.filteri (fun i _ -> served.(i).edit) (Array.to_list service)))
  in
  let period = edit_ms /. edit_load in
  let waits =
    Span.single_worker (Array.mapi (fun i s -> (s.due *. period, service.(i))) served)
  in
  let latencies = Array.mapi (fun i w -> w +. service.(i)) waits in
  Array.iteri
    (fun i s -> ignore (Vec.push (if s.edit then r.builds else r.answers) latencies.(i)))
    served;
  note r "%d edit periods of %.3f ms (median edit service %.3f ms), %d requests served"
    (Array.length edits) period edit_ms (Array.length served);
  note_kernels r kernels;
  let pairs = random_pairs rng ~n:dm.memrefs final_pairs in
  let response = check_final_state r dm.d ~source:final_source (alias_line ~id:0 pairs) in
  (* The payoff on the opening document, which the seed does not change. *)
  qualify r (prepare ~dynamic:true "scale" source);
  if tracing () then begin
    trace_requests r served waits latencies;
    let engine = replay r ~source (Array.append dm.warm edits) in
    r.attempted <- r.attempted + 1;
    let paths =
      Array.of_list
        (List.map
           (fun (m : Tbaa.Facts.memref) -> m.mr_path)
           (Tbaa.Engine.facts engine).memrefs)
    in
    let oracle = Tbaa.Engine.cached engine Tbaa.Engine.Sm_field_type_refs in
    let replayed =
      Array.map
        (fun (i, j) -> Json.Bool (oracle.Tbaa.Oracle.may_alias paths.(i) paths.(j)))
        pairs
    in
    if Json.member "answers" (result_of response) <> Some (Json.List (Array.to_list replayed))
    then fail r "the replayed engine's answers differ from the daemon's"
  end

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let geomean v = exp (Stats.mean (Array.map log (to_array v)))

let end_to_end r =
  let b = to_array r.builds and a = to_array r.answers in
  [ ("setup_s", r.setup_s);
    ("build_ms_p50", Stats.percentile b 50.0);
    ("build_ms_p90", Stats.percentile b 90.0);
    ("answer_ms_p50", Stats.percentile a 50.0);
    ("answer_ms_p90", Stats.percentile a 90.0);
    ("cycles_ratio", geomean r.cycle_ratios);
    ("heap_loads_ratio", geomean r.load_ratios);
    ("peak_rss_mb", r.peak_rss_mb) ]

let per_layer r =
  let spans = Span.spans () in
  let self = Span.self_by_name spans in
  let self_ms name = Span.ms_of_ns (Option.value (Hashtbl.find_opt self name) ~default:0) in
  let per d x = if d > 0.0 then x /. d else 0.0 in
  let pct x total = per total (100.0 *. x) in
  let nb = get r "build.n" and na = get r "answer.n" in
  let build_ms =
    per nb
      (List.fold_left
         (fun acc (s : Span.t) ->
           if s.name = "build" && s.parent = -1 then
             acc +. Span.ms_of_ns (s.stop - s.start)
           else acc)
         0.0 spans)
  in
  let opt_names =
    "opt.session" :: List.map (fun (label, _) -> "opt." ^ label) schedule
  in
  let opt_total = List.fold_left (fun acc n -> acc +. self_ms n) 0.0 opt_names in
  let layer name = per nb (self_ms name) in
  let front = layer "parse" +. layer "typecheck" +. layer "lower" in
  let unattributed = build_ms -. front -. layer "engine" -. per nb opt_total in
  let counts = List.map (fun (m, _, _) -> (m, per nb (get r m))) Spec.pass_counters in
  let queries = get r "oracle.queries" in
  let reused = get r "session.reused" and reran = get r "session.reran" in
  (* Traced over untraced time per program, geometric mean. *)
  let overhead =
    Hashtbl.fold
      (fun _ a acc ->
        if a.(1) > 0.0 && a.(3) > 0.0 then
          ignore (Vec.push acc (a.(0) /. a.(1) /. (a.(2) /. a.(3))));
        acc)
      r.overhead (Vec.create ())
  in
  let change_service = per (get r "change.n") (get r "change.service_ms") in
  let replay_ms = per (get r "replay.n") (get r "replay.ms") in
  [ ("build.ms", build_ms); ("parse.ms", layer "parse");
    ("typecheck.ms", layer "typecheck"); ("lower.ms", layer "lower");
    ("engine.ms", layer "engine"); ("opt.ms", per nb opt_total);
    ("build.unattributed_ms", unattributed);
    ("parse.mb_per_s", per (self_ms "parse" /. 1e3) (get r "parse.bytes" /. 1e6));
    ("lower.ir_instrs", per nb (get r "lower.ir_instrs"));
    ("opt.ir_instrs", per nb (get r "opt.ir_instrs"));
    ("engine.reanalyses", per nb (get r "engine.reanalyses"));
    ("engine.recomputed_procs", per nb (get r "engine.recomputed_procs"));
    ("oracle.queries", per nb queries);
    ("oracle.hit_ratio", per queries (queries -. get r "oracle.misses"));
    ("dataflow.iterations", per nb (get r "dataflow.iterations"));
    ("opt.session.reuse_ratio", per (reused +. reran) reused) ]
  @ List.map
      (fun (label, _) -> ("opt." ^ label ^ ".pct", pct (self_ms ("opt." ^ label)) opt_total))
      schedule
  @ counts
  @ [ ("answer.ms", per na (get r "answer.service_ms"));
      ("answer.wait_pct", pct (get r "answer.wait_ms") (get r "answer.latency_ms"));
      ("json.pct", pct (get r "json.ms") (get r "answer.service_ms"));
      ( "server.change.unattributed_pct",
        if change_service > 0.0 then pct (change_service -. replay_ms) change_service
        else 0.0 );
      ("sim.mips", per (get r "sim.ms") (get r "sim.instrs" /. 1e3));
      ("sim.instrs", per na (get r "sim.instrs"));
      ("build.alloc_mb", per nb (get r "build.alloc_mb"));
      ("build.major_gcs", per nb (get r "build.major_gcs"));
      ( "trace.overhead_pct",
        if Vec.length overhead > 0 then 100.0 *. (geomean overhead -. 1.0) else 0.0 );
      ("trace.unattributed_pct", pct unattributed build_ms) ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

(* The shortest decimal that reads back as the same float. *)
let number v =
  let rec go prec =
    let s = Printf.sprintf "%.*g" prec v in
    if prec >= 17 || float_of_string s = v then s else go (prec + 1)
  in
  go 1

let header () =
  Printf.printf "# tbaabench workload=%s seed=%d seconds=%g trace=%d\n%!"
    !workload !seed !seconds !trace

let report r specs values =
  let metrics =
    List.map
      (fun (m : Spec.metric) ->
        let v =
          match List.assoc_opt m.name values with
          | Some v when Float.is_finite v -> v
          | _ ->
            fail r "metric %s was not measured" m.name;
            0.0
        in
        Printf.printf "%-34s %16s %s\n" m.name (number v) m.unit;
        (m, v))
      specs
  in
  let samples what v =
    let n = Vec.length v in
    Printf.printf "%s samples: %d (highest supported percentile: %s)\n" what n
      (match Stats.tail_percentile n with
      | Some p -> Printf.sprintf "p%g" p
      | None -> "none")
  in
  samples "build" r.builds;
  samples "answer" r.answers;
  Vec.iter print_endline r.notes;
  List.iter (fun f -> Printf.printf "FAILED %s\n" f) (List.rev r.failures);
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (r.failed = 0) r.attempted r.failed
    (String.concat ", "
       (List.map
          (fun ((m : Spec.metric), v) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (number v) m.unit)
          metrics))

let workload_fns =
  [ ("paper-suite", paper_suite); ("scale-compile", scale_compile);
    ("generated-mix", generated_mix); ("ide-session", ide_session) ]

let run_one fn =
  header ();
  let r = new_run () in
  (match fn r with
  | () -> ()
  | exception e ->
    Span.enabled := false;
    fail r "workload aborted: %s" (Printexc.to_string e));
  if tracing () then begin
    report r Spec.per_layer (per_layer r);
    if !trace_file <> "" then
      Out_channel.with_open_text !trace_file (fun oc ->
          output_string oc (Json.to_string (Span.to_chrome (Span.spans ()))))
  end
  else report r Spec.end_to_end (end_to_end r);
  if r.failed > 0 then exit 1

(* ------------------------------------------------------------------ *)
(* Child processes: every workload, and the smoke check                *)
(* ------------------------------------------------------------------ *)

let child_args ~workload ~seconds ~trace =
  [| Sys.executable_name; "--workload"; workload; "--seed"; string_of_int !seed;
     "--seconds"; seconds; "--trace"; string_of_int trace |]

let run_all () =
  let ok =
    List.for_all
      (fun (w, _) ->
        let args = child_args ~workload:w ~seconds:(Printf.sprintf "%g" !seconds) ~trace:!trace in
        let args =
          if !trace_file = "" then args
          else Array.append args [| "--trace-file"; Filename.remove_extension !trace_file ^ "." ^ w ^ ".json" |]
        in
        let pid = Unix.create_process args.(0) args Unix.stdin Unix.stdout Unix.stderr in
        match Unix.waitpid [] pid with _, Unix.WEXITED 0 -> true | _ -> false)
      workload_fns
  in
  exit (if ok then 0 else 1)

let last_line text =
  match List.rev (List.filter (fun l -> l <> "") (String.split_on_char '\n' text)) with
  | l :: _ -> l
  | [] -> ""

let run_smoke () =
  let problems = ref 0 in
  List.iter
    (fun (w, _) ->
      List.iter
        (fun trace ->
          let args = child_args ~workload:w ~seconds:"2" ~trace in
          let ic = Unix.open_process_args_in args.(0) args in
          let out = In_channel.input_all ic in
          let status = Unix.close_process_in ic in
          let specs = if trace = 1 then Spec.per_layer else Spec.end_to_end in
          let verdict =
            match Json.of_string (last_line out) with
            | exception _ -> "no result line"
            | res ->
              let metrics = Json.member "metrics" res in
              let missing =
                List.filter
                  (fun (m : Spec.metric) ->
                    match Option.bind metrics (Json.member m.name) with
                    | Some v -> Json.member "value" v = None
                    | None -> true)
                  specs
              in
              if status <> Unix.WEXITED 0 || Json.member "failed" res <> Some (Json.Int 0)
              then "failed ops"
              else if missing <> [] then
                "missing " ^ String.concat ", " (List.map (fun (m : Spec.metric) -> m.name) missing)
              else "ok"
          in
          if verdict <> "ok" then begin
            incr problems;
            print_string out
          end;
          Printf.printf "smoke %-14s trace=%d  %s\n%!" w trace verdict)
        [ 0; 1 ])
    workload_fns;
  exit (if !problems = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* --compare                                                           *)
(* ------------------------------------------------------------------ *)

(* Saved runs: the concatenated output of one or more invocations. Each
   result line is keyed by the header line before it. *)
let load_runs file =
  let runs = Hashtbl.create 16 in
  let key = ref None in
  In_channel.with_open_text file In_channel.input_all
  |> String.split_on_char '\n'
  |> List.iter (fun line ->
         if String.starts_with ~prefix:"# tbaabench " line then
           key := Scanf.sscanf line "# tbaabench workload=%s " Option.some
         else if String.starts_with ~prefix:"{\"correct\"" line then
           match (!key, Json.member "metrics" (Json.of_string line)) with
           | Some w, Some (Json.Obj ms) ->
             List.iter
               (fun (name, v) ->
                 match Option.bind (Json.member "value" v) Json.to_float with
                 | Some x ->
                   let prev = Option.value (Hashtbl.find_opt runs (w, name)) ~default:[] in
                   Hashtbl.replace runs (w, name) (x :: prev)
                 | None -> ())
               ms
           | _ -> ());
  runs

let run_compare a b =
  let ra = load_runs a and rb = load_runs b in
  let worse = ref 0 in
  Printf.printf "%-14s %-30s %30s %30s  %s\n" "workload" "metric"
    "parent median [q1, q3]" "change median [q1, q3]" "verdict";
  List.iter
    (fun (w, _) ->
      List.iter
        (fun (m : Spec.metric) ->
          match (Hashtbl.find_opt ra (w, m.name), Hashtbl.find_opt rb (w, m.name)) with
          | Some xa, Some xb ->
            let xa = Array.of_list (List.rev xa) and xb = Array.of_list (List.rev xb) in
            let side xs =
              let q1, _, q3 = Stats.quartiles xs in
              Printf.sprintf "%.4g [%.4g, %.4g] n=%d" (Stats.median xs) q1 q3
                (Array.length xs)
            in
            let v =
              Stats.verdict ~lower_better:(m.better = Spec.Lower) ~bound:m.bound xa xb
            in
            if v = Stats.Worse && m.bound <> None then incr worse;
            Printf.printf "%-14s %-30s %30s %30s  %s\n" w m.name (side xa) (side xb)
              (Stats.verdict_name v)
          | _ -> ())
        (Spec.end_to_end @ Spec.per_layer))
    workload_fns;
  exit (if !worse = 0 then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Main                                                                *)
(* ------------------------------------------------------------------ *)

let usage =
  "tbaabench [--workload W] [--seed N] [--seconds S] [--trace 0|1] \
   [--trace-file F] | --smoke | --compare A B"

let () =
  let a = ref "" in
  Arg.parse
    [ ( "--workload", Arg.Set_string workload,
        "W paper-suite, scale-compile, generated-mix, ide-session or all \
         (default: all, each in its own process)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measured time per workload (default 20)");
      ( "--trace", Arg.Set_int trace,
        "0|1 1 records spans and reports the per-layer metrics (default 0)" );
      ( "--trace-file", Arg.Set_string trace_file,
        "F with --trace 1, also write the spans as Chrome trace-event JSON" );
      ( "--smoke", Arg.Set smoke,
        " every workload for about 2 s in both variants; fails on any failed \
         op or missing metric" );
      ( "--compare",
        Arg.Tuple
          [ Arg.Set_string a;
            Arg.String (fun b -> compare_files := Some (!a, b)) ],
        "A B compare two files of saved runs, per workload and metric" ) ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline ("tbaabench: --trace takes 0 or 1\n" ^ usage);
    exit 2
  end;
  match !compare_files with
  | Some (a, b) -> run_compare a b
  | None ->
    if !smoke then run_smoke ()
    else if !workload = "all" then run_all ()
    else
      match List.assoc_opt !workload workload_fns with
      | Some fn -> run_one fn
      | None ->
        prerr_endline ("tbaabench: unknown workload " ^ !workload ^ "\n" ^ usage);
        exit 2
