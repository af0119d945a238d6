(* The per-procedure optimizer pipeline:

   - parallel execution (jobs > 1) is byte-identical to sequential over
     the full fuzz configuration matrix and the generator seeds —
     program text, per-pass stats, oracle counters, and claims-ledger
     totals all equal;
   - observing a run (a query log, a claims ledger, or both) changes
     neither the optimized program nor the reports, and a fault-injected
     run emits the same at any domain count;
   - incremental [Pass_manager.rerun] is indistinguishable from a
     from-scratch run for each mutation kind (constant toggle, store
     duplication, store-block erasure, procedure removal, procedure swap
     — the last two must flush the memo), along a chain of edits that
     changes a fixpoint group's round count, along the Gen.Scale edits,
     with whole-program passes between memoized positions, and in
     synthetic cases that each lean on one shortcut of the walk; it
     actually reuses memoized work for a body-local single-procedure
     edit, and reuses exactly the pinned amount on the daemon's
     schedule;
   - [run], [run_guarded] and [rerun] walk a schedule alike: a fixpoint
     group stops at [max_rounds], only Transform passes drive it, and
     guarded execution without failures reports what plain execution
     does;
   - the versioned JSON envelope round-trips;
   - over the full stack, a per-procedure pass that reports
     [mutated = false] left the procedure's fingerprint as it was (a
     planted false flag is caught), and the dead code the optimizer
     leaves behind is pinned. *)

open Support
open Ir

let seeds = [ 1; 2; 3; 5; 8; 13; 21; 34; 55; 89 ]

let lower_gen seed =
  let g = Gen.Generator.generate ~size:((seed mod 3) + 1) seed in
  Lower.lower_string ~file:"<gen>" g.Gen.Generator.source

let print_program program = Format.asprintf "%a" Cfg.pp_program program

let stats_sig reports =
  String.concat ";"
    (List.map
       (fun (r : Opt.Pass.report) ->
         Printf.sprintf "%s#%d changed=%b %s oracle=%d" r.Opt.Pass.r_pass
           r.Opt.Pass.r_round r.Opt.Pass.r_changed
           (String.concat ","
              (List.map
                 (fun (k, v) -> Printf.sprintf "%s=%d" k v)
                 r.Opt.Pass.r_stats))
           (Tbaa.Oracle_cache.queries r.Opt.Pass.r_oracle))
       reports)

(* ------------------------------------------------------------------ *)
(* Parallel ≡ sequential                                               *)
(* ------------------------------------------------------------------ *)

let run_once ~jobs (c : Harness.Runner.config) program =
  let oracle_kind = c.Harness.Runner.oracle in
  let ctx = Opt.Pass.create ~world:c.Harness.Runner.world ~oracle_kind ~jobs () in
  let claims = Tbaa.Claims.create ~oracle:(Opt.Pass.oracle_name oracle_kind) in
  ctx.Opt.Pass.claims <- Some claims;
  let reports =
    Opt.Pass_manager.run ctx program
      (Opt.Pass_manager.schedule c.Harness.Runner.passes)
  in
  (reports, claims)

let test_parallel_matches_sequential () =
  let configs = Harness.Fuzz.all_configs () in
  Alcotest.(check int) "fuzz matrix size" 27 (List.length configs);
  List.iter
    (fun seed ->
      List.iter
        (fun (cname, cfg) ->
          let p_seq = lower_gen seed and p_par = lower_gen seed in
          let r_seq, c_seq = run_once ~jobs:1 cfg p_seq in
          let r_par, c_par = run_once ~jobs:4 cfg p_par in
          let label = Printf.sprintf "%s seed=%d" cname seed in
          Alcotest.(check string)
            (label ^ ": program bytes") (print_program p_seq)
            (print_program p_par);
          Alcotest.(check string)
            (label ^ ": report stats") (stats_sig r_seq) (stats_sig r_par);
          Alcotest.(check int)
            (label ^ ": claim pairs") (Tbaa.Claims.n_pairs c_seq)
            (Tbaa.Claims.n_pairs c_par);
          Alcotest.(check int)
            (label ^ ": claim records") (Tbaa.Claims.n_records c_seq)
            (Tbaa.Claims.n_records c_par))
        configs)
    seeds

(* ------------------------------------------------------------------ *)
(* Observation does not perturb                                        *)
(* ------------------------------------------------------------------ *)

let full_schedule =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
      slf = true; rle = true; copyprop = true; dse = true; local_cse = true }

(* What a run emits: a digest of the optimized program and the reports. *)
let emitted program reports =
  Digest.to_hex (Digest.string (print_program program)) ^ " "
  ^ stats_sig reports

(* The fuzzer and the auditor optimize with a query log and a claims
   ledger installed; what they certify must be what a plain run emits. *)
let test_observation_does_not_perturb () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let run ~log ~ledger =
        let program = Workloads.Workload.lower w in
        let ctx = Opt.Pass.create () in
        if log then ctx.Opt.Pass.oracle_log <- Some (fun _ _ _ -> ());
        if ledger then
          ctx.Opt.Pass.claims <- Some (Tbaa.Claims.create ~oracle:"observed");
        emitted program (Opt.Pass_manager.run ctx program full_schedule)
      in
      let plain = run ~log:false ~ledger:false in
      List.iter
        (fun (label, log, ledger) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: %s run = plain run" w.Workloads.Workload.name
               label)
            plain (run ~log ~ledger))
        [ ("logged", true, false); ("ledger", false, true);
          ("logged+ledger", true, true) ])
    Workloads.Suite.all

(* A fault-injected run ignores [jobs] (its flip counters are not
   domain-safe) and so emits the same at any domain count. *)
let test_fault_run_domain_independent () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let run ~jobs =
        let program = Workloads.Workload.lower w in
        let ctx = Opt.Pass.create ~jobs () in
        let claims = Tbaa.Claims.create ~oracle:"fault" in
        let fault = Opt.Pass.fault ~seed:7 ~rate:0.05 () in
        ctx.Opt.Pass.claims <- Some claims;
        ctx.Opt.Pass.fault <- Some fault;
        let reports = Opt.Pass_manager.run_guarded ctx program full_schedule in
        let flips = fault.Opt.Pass.f_stats in
        Printf.sprintf "%s claims=%d/%d flips=%d/%d"
          (emitted program reports) (Tbaa.Claims.n_pairs claims)
          (Tbaa.Claims.n_records claims) flips.Tbaa.Oracle_fault.alias_flips
          flips.Tbaa.Oracle_fault.kill_flips
      in
      Alcotest.(check string)
        (w.Workloads.Workload.name ^ ": jobs=2 = jobs=1")
        (run ~jobs:1) (run ~jobs:2))
    Workloads.Suite.all

(* ------------------------------------------------------------------ *)
(* Incremental rerun ≡ from-scratch                                    *)
(* ------------------------------------------------------------------ *)

(* The daemon's configuration: every per-procedure client on, plus the
   whole-program fixpoint in front to prove whole-program passes rerun
   live. *)
let rerun_config =
  { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
    slf = true; rle = true; copyprop = true; dse = true; local_cse = false }

let rerun_schedule = Opt.Pass_manager.schedule rerun_config

let rerun_context () = Opt.Pass.create ~jobs:2 ()

let drop_last_proc (program : Cfg.program) =
  match List.rev program.Cfg.prog_procs with
  | [] | [ _ ] -> None
  | last :: _ ->
    Cfg.set_procs program
      (List.filter (fun (p : Cfg.proc) -> p != last) program.Cfg.prog_procs);
    Some last.Cfg.pr_name

(* Swap the first two procedures: same bodies and names, new positions.
   The session's memo is indexed by procedure position, so a reorder must
   flush it. *)
let swap_procs (program : Cfg.program) =
  match program.Cfg.prog_procs with
  | a :: b :: rest ->
    Cfg.set_procs program (b :: a :: rest);
    true
  | _ -> false

(* (label, mutation, whether it changes the procedure list — and so must
   flush the session's memo) *)
let mutations =
  [ ( "toggle-const",
      (fun p -> Option.is_some (Test_mutations.toggle_const p)),
      false );
    ("dup-store", (fun p -> Option.is_some (Test_mutations.dup_store p)), false);
    ( "erase-store-block",
      (fun p -> Option.is_some (Test_mutations.erase_store_block p)),
      false );
    ("drop-proc", (fun p -> Option.is_some (drop_last_proc p)), true);
    ("swap-procs", swap_procs, true) ]

let flushes s =
  match Json.member "flushes" (Opt.Pass_manager.session_stats s) with
  | Some (Json.Int n) -> n
  | _ -> Alcotest.fail "session_stats has no flushes"

let check_rerun_matches_scratch ~label ~mutate ~reorders seed =
  let ctx = rerun_context () in
  let s = Opt.Pass_manager.session ctx in
  (* Cold run over the unedited program populates the memo. *)
  let p0 = lower_gen seed in
  ignore (Opt.Pass_manager.rerun s p0 rerun_schedule);
  (* The next version: re-lowered from source (the daemon's
     document-change path), then edited pre-optimization. *)
  let p1 = lower_gen seed in
  if not (mutate p1) then ()
  else begin
    let claims1 = Tbaa.Claims.create ~oracle:"rerun" in
    ctx.Opt.Pass.claims <- Some claims1;
    let flushes0 = flushes s in
    let r1 = Opt.Pass_manager.rerun s p1 rerun_schedule in
    (* From-scratch reference on an identically edited copy. *)
    let p2 = lower_gen seed in
    ignore (mutate p2);
    let ctx2 = rerun_context () in
    let claims2 = Tbaa.Claims.create ~oracle:"rerun" in
    ctx2.Opt.Pass.claims <- Some claims2;
    let r2 = Opt.Pass_manager.run ctx2 p2 rerun_schedule in
    let l = Printf.sprintf "%s seed=%d" label seed in
    if reorders then
      Alcotest.(check bool)
        (l ^ ": the memo was flushed") true (flushes s > flushes0);
    Alcotest.(check string)
      (l ^ ": program bytes") (print_program p2) (print_program p1);
    Alcotest.(check string) (l ^ ": report stats") (stats_sig r2) (stats_sig r1);
    Alcotest.(check int)
      (l ^ ": claim pairs") (Tbaa.Claims.n_pairs claims2)
      (Tbaa.Claims.n_pairs claims1);
    Alcotest.(check int)
      (l ^ ": claim records") (Tbaa.Claims.n_records claims2)
      (Tbaa.Claims.n_records claims1)
  end

let test_rerun_mutations () =
  List.iter
    (fun (label, mutate, reorders) ->
      List.iter (check_rerun_matches_scratch ~label ~mutate ~reorders) seeds)
    mutations

(* Chained edits to one generated program (size 1, seed 55), each
   version re-lowered and edited from scratch, rerun through one session
   and compared with a from-scratch run after every edit. The chain
   changes how many rounds the copyprop+RLE fixpoint takes, which must not
   shift any later pass onto another pass's memoized results. *)
let test_rerun_chained_edits () =
  let source = (Gen.Generator.generate ~size:1 55).Gen.Generator.source in
  let chain =
    Test_mutations.
      [ toggle_const; erase_store_block; toggle_const; erase_store_block;
        erase_store_block ]
  in
  let version k =
    let p = Lower.lower_string ~file:"<gen>" source in
    List.iteri (fun j edit -> if j < k then ignore (edit p)) chain;
    p
  in
  let rounds reports =
    List.length (Opt.Pass_manager.reports_for "copyprop" reports)
  in
  List.iter
    (fun (label, schedule) ->
      let s = Opt.Pass_manager.session (rerun_context ()) in
      let r0 = Opt.Pass_manager.rerun s (version 0) schedule in
      let round_counts = ref [ rounds r0 ] in
      List.iteri
        (fun j _ ->
          let k = j + 1 in
          let p1 = version k in
          let r1 = Opt.Pass_manager.rerun s p1 schedule in
          let p2 = version k in
          let r2 = Opt.Pass_manager.run (rerun_context ()) p2 schedule in
          round_counts := rounds r2 :: !round_counts;
          let l = Printf.sprintf "%s edit %d" label k in
          Alcotest.(check string)
            (l ^ ": program bytes") (print_program p2) (print_program p1);
          Alcotest.(check string)
            (l ^ ": report stats") (stats_sig r2) (stats_sig r1))
        chain;
      Alcotest.(check bool)
        (label ^ ": the chain changes the fixpoint's round count")
        true
        (List.length (List.sort_uniq compare !round_counts) > 1))
    [ ("full", rerun_schedule);
      ( "daemon",
        (* the daemon's schedule: every per-procedure client *)
        Opt.Pass_manager.schedule
          { rerun_config with Opt.Pass_manager.Config.devirt_inline = false } ) ]

(* A digest-changing but fact-preserving single-procedure edit must
   actually hit the memo: procedures outside the edit's caller closure
   splice their recorded results. *)
let test_rerun_reuses () =
  let hit = ref false in
  List.iter
    (fun seed ->
      let ctx = rerun_context () in
      let s = Opt.Pass_manager.session ctx in
      let p0 = lower_gen seed in
      ignore (Opt.Pass_manager.rerun s p0 rerun_schedule);
      let p1 = lower_gen seed in
      if
        Option.is_some (Test_mutations.toggle_const p1)
        && List.length p1.Cfg.prog_procs > 2
      then begin
        ignore (Opt.Pass_manager.rerun s p1 rerun_schedule);
        let reused, reran = Opt.Pass_manager.session_counts s in
        if reused > 0 then hit := true;
        Alcotest.(check bool)
          (Printf.sprintf "seed %d reran something" seed)
          true (reran > 0)
      end)
    seeds;
  Alcotest.(check bool) "some seed reused memoized procedure results" true !hit

(* The daemon's schedule: every per-procedure client. *)
let daemon_schedule =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.none with
      Opt.Pass_manager.Config.licm = true; pre = true; slf = true;
      rle = true; copyprop = true; dse = true }

(* The Gen.Scale document, then the pinned daemon test's three edits
   applied one after another. *)
let scale_versions () =
  let source = Gen.Scale.source 200 in
  List.rev
    (List.fold_left
       (fun acc (start, stop, text) ->
         let prev = List.hd acc in
         (String.sub prev 0 start ^ text
         ^ String.sub prev stop (String.length prev - stop))
         :: acc)
       [ source ]
       (Test_mutations.scale_edits source))

let lower_scale src = Lower.lower_string ~file:"<scale>" src

(* The session's reuse on the daemon's schedule, pinned: each version of
   the Gen.Scale document lowered from source and rerun through one
   session. A change that loses (or invents) reuse moves these counts. *)
let test_rerun_pinned_reuse () =
  let s = Opt.Pass_manager.session (Opt.Pass.create ()) in
  let counts =
    List.map
      (fun src ->
        ignore (Opt.Pass_manager.rerun s (lower_scale src) daemon_schedule);
        Opt.Pass_manager.session_counts s)
      (scale_versions ())
  in
  Alcotest.(check (list (pair int int)))
    "(reused, reran): cold, P17 digit, P150 digit, L5 retarget"
    [ (0, 1631); (1624, 7); (1631, 0); (1526, 105) ]
    counts

(* Rerun each version of [versions] through one session under
   [schedule], a claims ledger kept, and check it against a from-scratch
   run of the same version: program bytes, report stats and claim
   counts. *)
let check_versions_match_scratch ~label schedule versions =
  let ctx = rerun_context () in
  let s = Opt.Pass_manager.session ctx in
  List.iteri
    (fun k version ->
      let claims1 = Tbaa.Claims.create ~oracle:"rerun" in
      ctx.Opt.Pass.claims <- Some claims1;
      let p1 = version () in
      let r1 = Opt.Pass_manager.rerun s p1 schedule in
      let claims2 = Tbaa.Claims.create ~oracle:"rerun" in
      let ctx2 = rerun_context () in
      ctx2.Opt.Pass.claims <- Some claims2;
      let p2 = version () in
      let r2 = Opt.Pass_manager.run ctx2 p2 schedule in
      let l = Printf.sprintf "%s version %d" label k in
      Alcotest.(check string)
        (l ^ ": program bytes") (print_program p2) (print_program p1);
      Alcotest.(check string) (l ^ ": report stats") (stats_sig r2) (stats_sig r1);
      Alcotest.(check int)
        (l ^ ": claim pairs") (Tbaa.Claims.n_pairs claims2)
        (Tbaa.Claims.n_pairs claims1);
      Alcotest.(check int)
        (l ^ ": claim records") (Tbaa.Claims.n_records claims2)
        (Tbaa.Claims.n_records claims1))
    versions

(* The daemon's schedule on the Gen.Scale document along the pinned
   edits, each version then rerun a second time unchanged (every
   procedure replays along its memo chain). *)
let test_rerun_scale_edits () =
  check_versions_match_scratch ~label:"scale" daemon_schedule
    (List.concat_map
       (fun src -> [ (fun () -> lower_scale src); (fun () -> lower_scale src) ])
       (scale_versions ()))

(* Whole-program passes between memoized positions: the walk splices
   every procedure before each and re-reads the fingerprints after, on
   the Gen.Scale edits and on each generator seed with a constant toggled
   and then a store block erased. *)
let test_rerun_whole_program_between () =
  let schedule =
    Opt.Pass_manager.
      [ Run Opt.Licm.pass; Run Opt.Devirt.pass; Run Opt.Slf.pass;
        Run Opt.Rle.pass;
        Fixpoint { passes = [ Opt.Copyprop.pass; Opt.Rle.pass ]; max_rounds = 3 };
        Run Opt.Inline.pass; Run Opt.Dse.pass ]
  in
  check_versions_match_scratch ~label:"scale" schedule
    (List.map (fun src () -> lower_scale src) (scale_versions ()));
  List.iter
    (fun seed ->
      let edited edits () =
        let p = lower_gen seed in
        List.iter (fun edit -> ignore (edit p)) edits;
        p
      in
      check_versions_match_scratch
        ~label:(Printf.sprintf "seed %d" seed)
        schedule
        Test_mutations.
          [ edited []; edited [ toggle_const ];
            edited [ toggle_const; erase_store_block ] ])
    seeds

(* The walk's shortcuts, each pinned by synthetic passes over a
   three-procedure module: C calls B, the main body calls A and C. Each
   case reruns three versions through one session and checks every run
   against a from-scratch one. *)
let walk_source ~a ~b ~c =
  Printf.sprintf
    "MODULE W;\nTYPE T = OBJECT f: INTEGER; END;\n  U = T OBJECT END;\n\
     VAR t: T;\n  u: U;\n\
     PROCEDURE A () =\n  VAR x: INTEGER;\n  BEGIN\n    x := x + %d;\n    t.f := x;\n  END A;\n\
     PROCEDURE B () =\n  VAR x: INTEGER;\n  BEGIN\n    x := x + %d;\n    t := u;\n    t.f := x;\n  END B;\n\
     PROCEDURE C () =\n  VAR x: INTEGER;\n  BEGIN\n    x := x + %d;\n    B ();\n  END C;\n\
     BEGIN\n  t := NEW (T);\n  A ();\n  C ();\nEND W.\n"
    a b c

(* The first ALU constant of a procedure, and a rewrite of it. *)
let const_of (proc : Cfg.proc) =
  let k = ref None in
  Vec.iter
    (fun b ->
      List.iter
        (function
          | Instr.Iassign (_, Instr.Rbinop (_, _, Reg.Aint n)) when !k = None ->
            k := Some n
          | _ -> ())
        b.Cfg.b_instrs)
    proc.Cfg.pr_blocks;
  !k

let set_const (proc : Cfg.proc) n =
  let hit = ref false in
  Vec.iter
    (fun b ->
      b.Cfg.b_instrs <-
        List.map
          (function
            | Instr.Iassign (v, Instr.Rbinop (op, a, Reg.Aint _)) when not !hit ->
              hit := true;
              Instr.Iassign (v, Instr.Rbinop (op, a, Reg.Aint n))
            | i -> i)
          b.Cfg.b_instrs)
    proc.Cfg.pr_blocks

let named name (proc : Cfg.proc) =
  String.equal (Ident.name proc.Cfg.pr_name) name

(* An analysis-free pass from a per-procedure rewrite of the constant
   ([None]: leave the procedure alone). [changed] says whether the
   rewrite counts toward a fixpoint. *)
let const_pass name ~role f =
  { Opt.Pass.name;
    role;
    scope =
      Opt.Pass.Analysis_free
        (fun _ proc ->
          match Option.bind (const_of proc) (f proc) with
          | Some (n, changed) ->
            set_const proc n;
            { Opt.Pass.stats = [ ("k", n) ]; changed; mutated = true }
          | None ->
            Opt.Pass.unchanged
              [ ("k", Option.value (const_of proc) ~default:0) ]) }

(* Per procedure, the number of location classes its direct callees may
   modify, read from the pass's mod-ref view. *)
let callee_mods =
  { Opt.Pass.name = "mods";
    role = Opt.Pass.Enabling;
    scope =
      Opt.Pass.Per_procedure
        (fun pc proc ->
          let n = ref 0 in
          Vec.iter
            (fun b ->
              List.iter
                (function
                  | Instr.Icall (_, Instr.Cdirect callee, _) ->
                    n :=
                      !n
                      + Tbaa.Aloc.Set.cardinal
                          (Opt.Modref.summary pc.Opt.Pass.pc_modref callee)
                            .Opt.Modref.mods
                  | _ -> ())
                b.Cfg.b_instrs)
            proc.Cfg.pr_blocks;
          Opt.Pass.unchanged [ ("mods", !n) ]) }

let check_walk ~label schedule sources =
  check_versions_match_scratch ~label schedule
    (List.map
       (fun src () -> Lower.lower_string ~file:"<walk>" src)
       sources)

(* A fixpoint that takes one round fewer than in the previous run: the
   position after it follows another position than it did, so the walk
   checks every procedure there. B's constant moves in every round
   without driving the fixpoint; A's, counting down, drives it. *)
let test_walk_round_count () =
  let step =
    const_pass "step" ~role:Opt.Pass.Transform (fun proc k ->
        if named "A" proc then (if k > 0 then Some (k - 1, true) else None)
        else if named "B" proc then Some (k + 1, false)
        else None)
  and read = const_pass "read" ~role:Opt.Pass.Transform (fun _ _ -> None) in
  check_walk ~label:"round count"
    Opt.Pass_manager.
      [ Fixpoint { passes = [ step ]; max_rounds = 4 }; Run read ]
    [ walk_source ~a:2 ~b:5 ~c:7; walk_source ~a:1 ~b:5 ~c:7;
      walk_source ~a:2 ~b:5 ~c:7 ]

(* A whole-program pass that rewrites B from A's constant: after it the
   walk checks every procedure, though only A was edited. *)
let test_walk_whole_program () =
  let copy_a =
    { Opt.Pass.name = "copy-a";
      role = Opt.Pass.Enabling;
      scope =
        Opt.Pass.Whole_program
          (fun _ program ->
            let a = List.find (named "A") program.Cfg.prog_procs in
            let b = List.find (named "B") program.Cfg.prog_procs in
            Option.iter (set_const b) (const_of a);
            { Opt.Pass.stats = []; changed = false; mutated = true }) }
  and read = const_pass "read" ~role:Opt.Pass.Transform (fun _ _ -> None) in
  check_walk ~label:"whole-program"
    Opt.Pass_manager.[ Run read; Run copy_a; Run read ]
    [ walk_source ~a:2 ~b:5 ~c:7; walk_source ~a:3 ~b:5 ~c:7;
      walk_source ~a:4 ~b:5 ~c:7 ]

(* A position's engine can lag: in the second run nothing before [mods]
   mutates, so [mods] reads the engine of the position before it and
   its own stays at the first run's state; the third run edits only C,
   which [mark] then mutates, so [mods] refreshes its own engine. B
   moved since that engine saw it, and B (not contaminated) still has
   its body from before [erase]: the walk must splice it before the
   engine reads it, or C's view of B's effects keeps the store [erase]
   removed. *)
let test_walk_lagging_engine () =
  let erase =
    { Opt.Pass.name = "erase";
      role = Opt.Pass.Enabling;
      scope =
        Opt.Pass.Analysis_free
          (fun _ proc ->
            let stores = ref 0 in
            if named "B" proc then
              Vec.iter
                (fun b ->
                  b.Cfg.b_instrs <-
                    List.filter
                      (function
                        | Instr.Istore _ -> incr stores; false
                        | _ -> true)
                      b.Cfg.b_instrs)
                proc.Cfg.pr_blocks;
            { Opt.Pass.stats = [ ("erased", !stores) ]; changed = false;
              mutated = !stores > 0 }) }
  and mark =
    { Opt.Pass.name = "mark";
      role = Opt.Pass.Enabling;
      scope =
        Opt.Pass.Per_procedure
          (fun _ proc ->
            if const_of proc = Some 99 then begin
              set_const proc 98;
              { Opt.Pass.stats = []; changed = false; mutated = true }
            end
            else Opt.Pass.unchanged []) }
  in
  check_walk ~label:"lagging engine"
    Opt.Pass_manager.[ Run erase; Run mark; Run callee_mods ]
    [ walk_source ~a:2 ~b:5 ~c:7; walk_source ~a:2 ~b:6 ~c:7;
      walk_source ~a:2 ~b:6 ~c:99 ]

(* An engine refresh that rebuilds the oracles drops the mod-ref views,
   and rebuilding them reads every body: the walk must splice every
   procedure first. [strip] removes A's stores in every run, and B's
   upcast (the program's only one) once B's constant is 6, which moves
   the oracle inputs at [mods] but not in the program as edited. *)
let test_walk_oracles_rebuilt () =
  let strip =
    { Opt.Pass.name = "strip";
      role = Opt.Pass.Enabling;
      scope =
        Opt.Pass.Analysis_free
          (fun _ proc ->
            let keep =
              if named "A" proc then (function Instr.Istore _ -> false | _ -> true)
              else if named "B" proc && const_of proc = Some 6 then
                function Instr.Iassign (_, Instr.Rbinop _) -> true | _ -> false
              else fun _ -> true
            in
            let removed = ref 0 in
            Vec.iter
              (fun b ->
                b.Cfg.b_instrs <-
                  List.filter
                    (fun i -> keep i || (incr removed; false))
                    b.Cfg.b_instrs)
              proc.Cfg.pr_blocks;
            { Opt.Pass.stats = [ ("removed", !removed) ]; changed = false;
              mutated = !removed > 0 }) }
  in
  check_walk ~label:"oracles rebuilt"
    Opt.Pass_manager.[ Run strip; Run callee_mods ]
    [ walk_source ~a:2 ~b:5 ~c:7; walk_source ~a:2 ~b:6 ~c:7;
      walk_source ~a:2 ~b:5 ~c:7 ]

(* ------------------------------------------------------------------ *)
(* The schedule walker                                                 *)
(* ------------------------------------------------------------------ *)

(* A pass that reports [changed] every time it runs and never touches the
   program, whole-program or per-procedure. *)
let synthetic ~name ~role ~scope ~changed =
  let outcome = { Opt.Pass.stats = []; changed; mutated = false } in
  { Opt.Pass.name;
    role;
    scope =
      (match scope with
      | `Whole -> Opt.Pass.Whole_program (fun _ _ -> outcome)
      | `Proc -> Opt.Pass.Per_procedure (fun _ _ -> outcome)) }

(* [run], [run_guarded] and a cold [rerun] share one schedule walker. *)
let walkers =
  [ ("run", fun program items ->
        Opt.Pass_manager.run (Opt.Pass.create ()) program items);
    ("run_guarded", fun program items ->
        Opt.Pass_manager.run_guarded (Opt.Pass.create ()) program items);
    ("cold rerun", fun program items ->
        Opt.Pass_manager.rerun
          (Opt.Pass_manager.session (Opt.Pass.create ()))
          program items) ]

let pass_rounds reports =
  List.map (fun r -> (r.Opt.Pass.r_pass, r.Opt.Pass.r_round)) reports

(* A Transform that always finds work keeps the group going until
   exactly [max_rounds] rounds have run. *)
let test_fixpoint_stops_at_max_rounds () =
  let spin =
    synthetic ~name:"spin" ~role:Opt.Pass.Transform ~scope:`Whole ~changed:true
  and idle =
    synthetic ~name:"idle" ~role:Opt.Pass.Enabling ~scope:`Proc ~changed:false
  in
  let items =
    [ Opt.Pass_manager.Fixpoint { passes = [ spin; idle ]; max_rounds = 4 } ]
  in
  let expected =
    List.concat_map (fun k -> [ ("spin", k); ("idle", k) ]) [ 1; 2; 3; 4 ]
  in
  List.iter
    (fun (label, walk) ->
      Alcotest.(check (list (pair string int)))
        label expected
        (pass_rounds (walk (lower_gen 1) items)))
    walkers

(* An Enabling pass's [changed] never starts another round; the walk
   then moves on to the next item. *)
let test_enabling_does_not_drive_fixpoint () =
  let churn =
    synthetic ~name:"churn" ~role:Opt.Pass.Enabling ~scope:`Proc ~changed:true
  and settled =
    synthetic ~name:"settled" ~role:Opt.Pass.Transform ~scope:`Whole
      ~changed:false
  and after =
    synthetic ~name:"after" ~role:Opt.Pass.Transform ~scope:`Whole
      ~changed:true
  in
  let items =
    [ Opt.Pass_manager.Fixpoint { passes = [ churn; settled ]; max_rounds = 5 };
      Opt.Pass_manager.Run after ]
  in
  List.iter
    (fun (label, walk) ->
      Alcotest.(check (list (pair string int)))
        label
        [ ("churn", 1); ("settled", 1); ("after", 1) ]
        (pass_rounds (walk (lower_gen 1) items)))
    walkers

(* With nothing failing, guarded execution reports exactly what plain
   execution does. *)
let test_guarded_matches_run () =
  let summary reports =
    List.map
      (fun (r : Opt.Pass.report) ->
        Printf.sprintf "%s analyses=%d" (stats_sig [ r ]) r.Opt.Pass.r_analyses)
      reports
  in
  List.iter
    (fun seed ->
      let plain = lower_gen seed and guarded = lower_gen seed in
      let r_plain =
        Opt.Pass_manager.run (Opt.Pass.create ()) plain rerun_schedule
      in
      let r_guarded =
        Opt.Pass_manager.run_guarded (Opt.Pass.create ()) guarded
          rerun_schedule
      in
      let l = Printf.sprintf "seed %d" seed in
      Alcotest.(check (list (pair string string)))
        (l ^ ": no failures") [] (Opt.Pass_manager.failures r_guarded);
      Alcotest.(check (list string))
        (l ^ ": reports") (summary r_plain) (summary r_guarded);
      Alcotest.(check string)
        (l ^ ": program bytes") (print_program plain) (print_program guarded))
    seeds

(* ------------------------------------------------------------------ *)
(* The output contract over the full stack                             *)
(* ------------------------------------------------------------------ *)

(* The ten workloads, the scale document and generated seeds 0-99. *)
let contract_corpus () =
  List.map Workloads.Workload.lower Workloads.Suite.all
  @ [ Lower.lower_string ~file:"<scale>" (Gen.Scale.source 200) ]
  @ List.init 100 (fun seed ->
        Lower.lower_string ~file:"<gen>"
          (Gen.Generator.generate ~size:3 seed).Gen.Generator.source)

(* [items] with every per-procedure pass wrapped to fingerprint its
   procedure around the body: each run that reports [mutated = false]
   yet changed the procedure is added to [violations]. [plant] rewrites
   an outcome before the check, to show a false flag is caught. *)
let fingerprint_checked ?(plant = fun _ o -> o) violations items =
  let wrap (p : Opt.Pass.t) =
    let check (proc : Cfg.proc) body =
      let before = Fingerprint.proc proc in
      let o = plant p (body ()) in
      if (not o.Opt.Pass.mutated) && Fingerprint.proc proc <> before then
        violations :=
          (p.Opt.Pass.name ^ ":" ^ Ident.name proc.Cfg.pr_name)
          :: !violations;
      o
    in
    match p.Opt.Pass.scope with
    | Opt.Pass.Per_procedure f ->
      { p with
        scope = Opt.Pass.Per_procedure (fun pc proc -> check proc (fun () -> f pc proc)) }
    | Opt.Pass.Analysis_free f ->
      { p with
        scope = Opt.Pass.Analysis_free (fun prog proc -> check proc (fun () -> f prog proc)) }
    | Opt.Pass.Whole_program _ -> p
  in
  List.map
    (function
      | Opt.Pass_manager.Run p -> Opt.Pass_manager.Run (wrap p)
      | Opt.Pass_manager.Fixpoint g ->
        Opt.Pass_manager.Fixpoint { g with passes = List.map wrap g.passes })
    items

let count_copies program =
  let n = ref 0 in
  List.iter
    (fun proc ->
      Cfg.iter_instrs proc (fun _ i ->
          match i with
          | Instr.Iassign (_, Instr.Ratom (Reg.Avar _)) -> incr n
          | _ -> ()))
    program.Cfg.prog_procs;
  !n

(* One checked full-stack run over the corpus: the [mutated] violations,
   then the instructions and the copies reference DCE removes after it. *)
let contract_run =
  lazy
    (let violations = ref [] in
     let dead = ref 0 and dead_copies = ref 0 in
     List.iter
       (fun program ->
         ignore
           (Opt.Pass_manager.run (Opt.Pass.create ()) program
              (fingerprint_checked violations full_schedule));
         let copies = count_copies program in
         let reports = Passes.run program [ Reference.Dce.pass ] in
         dead := !dead + Passes.stat reports Reference.Dce.pass "removed";
         dead_copies := !dead_copies + copies - count_copies program)
       (contract_corpus ());
     (List.rev !violations, !dead, !dead_copies))

let test_mutated_contract () =
  let violations, _, _ = Lazy.force contract_run in
  Alcotest.(check (list string)) "unflagged text changes" [] violations

(* A false flag is caught: RLE claiming [mutated] only when it removed a
   load hides the stores it split (and the homes it wrote) in procedures
   where it removed nothing. *)
let test_planted_flag_caught () =
  let violations = ref [] in
  let plant (p : Opt.Pass.t) (o : Opt.Pass.outcome) =
    if p.Opt.Pass.name = "rle" then { o with Opt.Pass.mutated = o.Opt.Pass.changed }
    else o
  in
  List.iter
    (fun w ->
      ignore
        (Opt.Pass_manager.run (Opt.Pass.create ()) (Workloads.Workload.lower w)
           (fingerprint_checked ~plant violations full_schedule)))
    Workloads.Suite.all;
  Alcotest.(check bool) "violations found" true (!violations <> [])

(* Each access RLE rewrites through a home is one that a later access
   reads, and copy propagation deletes the copies it made dead; what stays
   dead after the full stack is pinned here, copies included. It is not
   0: the unoptimized lowering already carries 2,681 dead instructions,
   and a store's proper prefixes get homes whether or not anything reads
   them. *)
let test_dead_code_pinned () =
  let _, dead, dead_copies = Lazy.force contract_run in
  Alcotest.(check (pair int int)) "dead instructions, dead copies" (9132, 2789)
    (dead, dead_copies)

(* ------------------------------------------------------------------ *)
(* The versioned JSON envelope                                         *)
(* ------------------------------------------------------------------ *)

let test_envelope_roundtrip () =
  let v =
    Json.envelope
      [ ("tool", Json.String "tbaac");
        ("stats", Json.Obj [ ("eliminated", Json.Int 7) ]);
        ("ok", Json.Bool true) ]
  in
  let s = Json.to_string v in
  let v' = Json.of_string s in
  Alcotest.(check (option int)) "schema" (Some Json.schema_version)
    (Json.schema_of v');
  Alcotest.(check (option int))
    "payload survives" (Some 7)
    (match Json.member "stats" v' with
    | Some stats -> (
      match Json.member "eliminated" stats with
      | Some (Json.Int n) -> Some n
      | _ -> None)
    | None -> None);
  (* The schema key leads, so stream consumers can dispatch on a prefix. *)
  Alcotest.(check bool)
    "schema key leads" true
    (String.length s > 11 && String.sub s 0 11 = "{\"schema\":1");
  Alcotest.(check (option int)) "non-enveloped" None (Json.schema_of (Json.Int 3))

(* ------------------------------------------------------------------ *)
(* Per-pass timing                                                     *)
(* ------------------------------------------------------------------ *)

(* A pass times itself on the monotonic-clamped clock: a system clock that
   steps backwards mid-pass reads as zero elapsed time, never negative. *)
let test_pass_time_monotonic () =
  let noop =
    { Opt.Pass.name = "noop";
      role = Opt.Pass.Enabling;
      scope =
        Opt.Pass.Whole_program
          (fun _ _ -> { Opt.Pass.stats = []; changed = false; mutated = false }) }
  in
  let script = ref [ 5000.0; 4000.0; 4500.0 ] in
  let reports =
    Clock.with_raw
      (fun () ->
        match !script with
        | [ final ] -> final
        | r :: rest ->
          script := rest;
          r
        | [] -> assert false)
      (fun () ->
        let noops = [ Opt.Pass_manager.Run noop; Opt.Pass_manager.Run noop ] in
        Opt.Pass_manager.run (Opt.Pass.create ()) (lower_gen 1) noops)
  in
  Alcotest.(check (list (float 0.0)))
    "stepped-back clock reads zero" [ 0.0; 0.0 ]
    (List.map (fun r -> r.Opt.Pass.r_time_ms) reports)

let () =
  Alcotest.run "pipeline"
    [ ( "parallel",
        [ Alcotest.test_case "parallel == sequential over fuzz matrix" `Slow
            test_parallel_matches_sequential ] );
      ( "observation",
        [ Alcotest.test_case "log and ledger do not perturb" `Quick
            test_observation_does_not_perturb;
          Alcotest.test_case "fault run independent of jobs" `Quick
            test_fault_run_domain_independent ] );
      ( "incremental",
        [ Alcotest.test_case "rerun == from-scratch per mutation kind" `Slow
            test_rerun_mutations;
          Alcotest.test_case "rerun == from-scratch along chained edits"
            `Quick test_rerun_chained_edits;
          Alcotest.test_case "single-proc edit reuses memo" `Quick
            test_rerun_reuses;
          Alcotest.test_case "daemon schedule's reuse is pinned" `Quick
            test_rerun_pinned_reuse;
          Alcotest.test_case "rerun == from-scratch along the scale edits"
            `Quick test_rerun_scale_edits;
          Alcotest.test_case "rerun == from-scratch, whole-program between"
            `Quick test_rerun_whole_program_between;
          Alcotest.test_case "walk: a fixpoint one round shorter" `Quick
            test_walk_round_count;
          Alcotest.test_case "walk: a whole-program pass between" `Quick
            test_walk_whole_program;
          Alcotest.test_case "walk: a lagging position engine" `Quick
            test_walk_lagging_engine;
          Alcotest.test_case "walk: a refresh that rebuilds the oracles"
            `Quick test_walk_oracles_rebuilt ] );
      ( "walker",
        [ Alcotest.test_case "fixpoint stops at max_rounds" `Quick
            test_fixpoint_stops_at_max_rounds;
          Alcotest.test_case "Enabling changes start no round" `Quick
            test_enabling_does_not_drive_fixpoint;
          Alcotest.test_case "run_guarded == run without failures" `Quick
            test_guarded_matches_run ] );
      ( "timing",
        [ Alcotest.test_case "pass time on the monotonic clock" `Quick
            test_pass_time_monotonic ] );
      ( "contract",
        [ Alcotest.test_case "mutated = false leaves the text" `Slow
            test_mutated_contract;
          Alcotest.test_case "a planted false flag is caught" `Slow
            test_planted_flag_caught;
          Alcotest.test_case "dead code after the full stack" `Slow
            test_dead_code_pinned ] );
      ( "envelope",
        [ Alcotest.test_case "versioned envelope round-trips" `Quick
            test_envelope_roundtrip ] ) ]
