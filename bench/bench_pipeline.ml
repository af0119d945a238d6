(* The optimizer-pipeline benchmark and its regression gate.

   Times three ways of optimizing the scaleN corpus (Gen.Scale, N = 1200
   worker procedures) through the full per-procedure client set (LICM,
   PRE, SLF, RLE, copy propagation, DSE):

   - cold:     Pass_manager.run with a fresh context, sequential;
   - warm:     one body-local edit (toggle an integer constant in one
               procedure) re-optimized through an incremental
               Pass_manager.session — only the edited procedure and its
               transitive callers re-run, everything else splices its
               memoized result;
   - parallel: Pass_manager.run with jobs = all available domains.

   Each leg optimizes a freshly lowered program (the passes mutate it),
   but lowering happens off the clock: the timers bracket exactly the
   optimizer work, matching what the daemon's document-change path pays
   per revision.

   Gates (ratios, not raw times, so the gate is meaningful across
   machines):
   - warm/cold: a single-procedure edit must re-optimize >= 5x faster
     than from scratch;
   - parallel/cold: >= 1.5x — checked only when the machine actually has
     >= 4 domains to offer, otherwise reported as skipped.

   Modes:
     (none)    run and print the table
     --write   also snapshot BENCH_pipeline.json
     --check   the `make bench-smoke` gate: required ratios above, plus
               each leg within 20% of its recorded speedup when
               BENCH_pipeline.json exists.

   Every run also asserts the incremental result is byte-identical to a
   from-scratch optimization of the same edited program — the cheap
   in-bench version of the differential suite in test_pipeline. *)

open Support

let snapshot_file = "BENCH_pipeline.json"
let required_warm_speedup = 5.0
let required_par_speedup = 1.5
let regression_slack = 0.8 (* accept >= 80% of the recorded speedup *)
let procs = 1200

let schedule =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.none with
      Opt.Pass_manager.Config.licm = true; pre = true; slf = true;
      rle = true; copyprop = true; dse = true }

let lower () = Ir.Lower.lower_string ~file:"scale" (Gen.Scale.source procs)

let now = Unix.gettimeofday

(* Best of [reps]: [prepare] runs off the clock (lowering a fresh
   program), [f] on it. *)
let best_ns ?(reps = 3) prepare f =
  let best = ref infinity in
  for _ = 1 to reps do
    let x = prepare () in
    let t0 = now () in
    f x;
    let dt = (now () -. t0) *. 1e9 in
    if dt < !best then best := dt
  done;
  !best

(* Bump the first integer constant in an ALU assignment of one mid-
   corpus procedure by [delta] — the canonical "edit one procedure"
   probe. A distinct [delta] per repetition keeps every warm rerun a
   genuine edit relative to the previous one; reusing one delta would
   make later reps byte-identical no-op diffs that splice everything. *)
let toggle_const ~delta program =
  let name = Ident.intern (Printf.sprintf "P%d" (procs / 2)) in
  let proc =
    match Ir.Cfg.find_proc_opt program name with
    | Some p -> p
    | None -> failwith "bench_pipeline: edited procedure not found"
  in
  let toggled = ref false in
  Vec.iter
    (fun b ->
      if not !toggled then
        b.Ir.Cfg.b_instrs <-
          List.map
            (function
              | Ir.Instr.Iassign (v, Ir.Instr.Rbinop (op, a, Ir.Reg.Aint k))
                when not !toggled ->
                toggled := true;
                Ir.Instr.Iassign
                  (v, Ir.Instr.Rbinop (op, a, Ir.Reg.Aint (k + delta)))
              | i -> i)
            b.Ir.Cfg.b_instrs)
    proc.Ir.Cfg.pr_blocks;
  if not !toggled then failwith "bench_pipeline: no constant to toggle"

let run_fresh ~jobs program =
  let ctx = Opt.Pass.create ~jobs () in
  ignore (Opt.Pass_manager.run ctx program schedule)

(* ------------------------------------------------------------------ *)
(* Legs                                                                *)
(* ------------------------------------------------------------------ *)

type leg = {
  leg_name : string;
  leg_required : float;
  old_ns : float;
  new_ns : float;
}

let speedup l = if l.new_ns > 0. then l.old_ns /. l.new_ns else 0.

let cold_ns () = best_ns lower (run_fresh ~jobs:1)

let warm_leg cold =
  let ctx = Opt.Pass.create () in
  let s = Opt.Pass_manager.session ctx in
  (* Prime the session's memo and gate engine on the unedited corpus. *)
  ignore (Opt.Pass_manager.rerun s (lower ()) schedule);
  let rep = ref 0 in
  let warm =
    best_ns ~reps:5
      (fun () ->
        incr rep;
        let p = lower () in
        toggle_const ~delta:!rep p;
        p)
      (fun p -> ignore (Opt.Pass_manager.rerun s p schedule))
  in
  let reused, reran = Opt.Pass_manager.session_counts s in
  if reused = 0 then failwith "bench_pipeline: warm rerun reused nothing";
  if reran = 0 then failwith "bench_pipeline: warm rerun re-ran nothing";
  (* The incremental result must be byte-identical to a from-scratch
     optimization of the same edited program. *)
  let incr_p = lower () in
  toggle_const ~delta:100 incr_p;
  ignore (Opt.Pass_manager.rerun s incr_p schedule);
  let scratch_p = lower () in
  toggle_const ~delta:100 scratch_p;
  run_fresh ~jobs:1 scratch_p;
  let pp p = Format.asprintf "%a" Ir.Cfg.pp_program p in
  if pp incr_p <> pp scratch_p then
    failwith "bench_pipeline: incremental result differs from from-scratch";
  Printf.printf "(warm rerun: %d procedures spliced, %d re-run)\n" reused reran;
  { leg_name = "warm-edit-one-proc";
    leg_required = required_warm_speedup;
    old_ns = cold;
    new_ns = warm }

let parallel_leg cold =
  let domains = Domain_pool.available () in
  if domains < 4 then begin
    Printf.printf
      "(parallel-cold: skipped, only %d domain%s available — gate needs 4)\n"
      domains
      (if domains = 1 then "" else "s");
    None
  end
  else begin
    let par = best_ns lower (run_fresh ~jobs:domains) in
    Some
      { leg_name = "parallel-cold";
        leg_required = required_par_speedup;
        old_ns = cold;
        new_ns = par }
  end

(* ------------------------------------------------------------------ *)
(* Reporting, snapshotting, gating                                     *)
(* ------------------------------------------------------------------ *)

let json_of_run legs =
  Json.envelope
    [ ("microbench", Json.String "optimizer-pipeline");
      ("procs", Json.Int procs);
      ( "legs",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [ ("name", Json.String l.leg_name);
                   ("old_ns", Json.Float l.old_ns);
                   ("new_ns", Json.Float l.new_ns);
                   ("required", Json.Float l.leg_required);
                   ("speedup", Json.Float (speedup l)) ])
             legs) ) ]

let print_table legs =
  Printf.printf "%-24s %14s %14s %10s %10s\n" "leg" "cold ms" "leg ms"
    "speedup" "required";
  List.iter
    (fun l ->
      Printf.printf "%-24s %14.1f %14.1f %9.1fx %9.1fx\n" l.leg_name
        (l.old_ns /. 1e6) (l.new_ns /. 1e6) (speedup l) l.leg_required)
    legs

let recorded_speedups () =
  if not (Sys.file_exists snapshot_file) then []
  else
    let ic = open_in snapshot_file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    match Json.member "legs" (Json.of_string text) with
    | Some (Json.List legs) ->
      List.filter_map
        (fun leg ->
          match (Json.member "name" leg, Json.member "speedup" leg) with
          | Some (Json.String name), Some v -> (
            match Json.to_float v with
            | Some s -> Some (name, s)
            | None -> None)
          | _ -> None)
        legs
    | _ -> []

let check legs =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun l ->
      if speedup l < l.leg_required then
        fail "%s: speedup %.1fx below required %.1fx" l.leg_name (speedup l)
          l.leg_required)
    legs;
  let recorded = recorded_speedups () in
  if recorded = [] then
    print_endline
      "(no BENCH_pipeline.json snapshot; gating on the required floors only)"
  else
    List.iter
      (fun l ->
        match List.assoc_opt l.leg_name recorded with
        | None -> ()  (* e.g. snapshot from a wider machine *)
        | Some r ->
          if speedup l < r *. regression_slack then
            fail
              "%s: speedup %.1fx regressed more than 20%% from recorded %.1fx"
              l.leg_name (speedup l) r)
      legs;
  match !failures with
  | [] -> print_endline "bench-smoke: all legs within bounds"
  | fs ->
    List.iter (fun m -> prerr_endline ("bench-smoke FAIL: " ^ m)) fs;
    exit 1

let () =
  let arg a = Array.exists (String.equal a) Sys.argv in
  let cold = cold_ns () in
  let legs = warm_leg cold :: Option.to_list (parallel_leg cold) in
  print_table legs;
  if arg "--write" then begin
    let oc = open_out snapshot_file in
    output_string oc (Json.to_string (json_of_run legs));
    output_char oc '\n';
    close_out oc;
    Printf.printf "(snapshot written to %s)\n" snapshot_file
  end;
  if arg "--check" then check legs
