(* The benchmark's definitions: workload names and the metrics every run
   reports. BENCHMARK.json at the repository root repeats them as data;
   test_e2e checks that the two agree. *)

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;
      (** the share of the parent's median by which an end-to-end metric
          may get worse before a change counts as a regression; [None] for
          per-layer metrics *)
}

let better_name = function Lower -> "lower" | Higher -> "higher"

let workloads =
  [ ( "paper-suite",
      "the paper's ten programs; the simulator does about half the work, \
       the front end about 2%" );
    ( "scale-compile",
      "one 50 KB generated program that the optimizer and engine \
       dominate; it bypasses the daemon and barely runs the simulator" );
    ( "generated-mix",
      "a fixed pool of 100 small type-rich generated programs of many \
       shapes, so no single repeated shape pays" );
    ( "ide-session",
      "the daemon's handler serving edits and alias/modref queries on one \
       document, latencies through one worker that the edits keep 30% busy" ) ]

let e2e name unit bound = { name; unit; better = Lower; bound = Some bound }

(* Bounds, against the quartile spreads of ten runs in README.md
   ("Measured spread"). Every time gets the 0.25 cap: their spreads stay
   under a third of it, but the box's slow stretches move them by more
   from one hour to the next. The payoff ratios are exact, because no
   workload's programs depend on the seed; their bounds only let an
   optimizer change give up a little payoff. Peak memory spreads stay
   under a third of its bound. *)
let end_to_end =
  [ e2e "setup_s" "s" 0.25;
    e2e "build_ms_p50" "ms" 0.25;
    e2e "build_ms_p90" "ms" 0.25;
    e2e "answer_ms_p50" "ms" 0.25;
    e2e "answer_ms_p90" "ms" 0.25;
    e2e "cycles_ratio" "ratio" 0.01;
    e2e "heap_loads_ratio" "ratio" 0.02;
    e2e "peak_rss_mb" "MB" 0.12 ]

let layer better name unit = { name; unit; better; bound = None }

(* The optimizer's schedule items, as labels of their spans. *)
let opt_items =
  [ "devirt_inline"; "licm"; "pre"; "slf"; "rle"; "copyprop_rle"; "dse";
    "local_cse" ]

(* Optimizer counters: (metric, pass, report stat). *)
let pass_counters =
  [ ("opt.rle.eliminated", "rle", "eliminated");
    ("opt.rle.hoisted", "rle", "hoisted");
    ("opt.licm.hoisted", "licm", "hoisted");
    ("opt.pre.inserted", "pre", "inserted");
    ("opt.slf.forwarded", "slf", "forwarded");
    ("opt.dse.removed", "dse", "removed");
    ("opt.devirt.resolved", "devirt", "resolved");
    ("opt.inline.inlined", "inline", "inlined");
    ("opt.copyprop.replaced", "copyprop", "replaced");
    ("opt.local_cse.eliminated", "local-cse", "eliminated") ]

let per_layer =
  let lo = layer Lower and hi = layer Higher in
  [ lo "build.ms" "ms"; lo "parse.ms" "ms"; lo "typecheck.ms" "ms";
    lo "lower.ms" "ms"; lo "engine.ms" "ms"; lo "opt.ms" "ms";
    lo "build.unattributed_ms" "ms"; hi "parse.mb_per_s" "MB/s";
    lo "lower.ir_instrs" "count"; lo "opt.ir_instrs" "count";
    lo "engine.reanalyses" "count"; lo "engine.recomputed_procs" "count";
    lo "oracle.queries" "count"; hi "oracle.hit_ratio" "ratio";
    lo "dataflow.iterations" "count"; hi "opt.session.reuse_ratio" "ratio" ]
  @ List.map (fun item -> lo ("opt." ^ item ^ ".pct") "%") opt_items
  @ List.map (fun (name, _, _) -> hi name "count") pass_counters
  @ [ lo "answer.ms" "ms"; lo "answer.wait_pct" "%"; lo "json.pct" "%";
      lo "server.change.unattributed_pct" "%"; hi "sim.mips" "Minstr/s";
      lo "sim.instrs" "count"; lo "build.alloc_mb" "MB";
      lo "build.major_gcs" "count"; lo "trace.overhead_pct" "%";
      lo "trace.unattributed_pct" "%" ]
