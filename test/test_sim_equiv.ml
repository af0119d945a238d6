(* Differential suite: the pre-compiled simulator engine
   ([Sim.Interp.run] = [Sim.Precompile.run]) against the tree-walking
   reference interpreter ([Sim.Interp.run_reference]).

   The tentpole invariant of the fast path is that EVERY observable is
   bit-identical: printed output, all six counters, cycles, cache
   hits/misses, soft faults, halting — and, for traced runs, the full
   on_load/on_access event streams including site identities (ids are
   assigned lazily in order of first firing, so stream equality pins the
   assignment order too). *)

open Ir
module I = Sim.Interp

let lower src = Lower.lower_string ~file:"equiv" src

let run_engine ~reference ?on_load ?on_access ?fuel program =
  if reference then I.run_reference ?on_load ?on_access ?fuel program
  else I.run ?on_load ?on_access ?fuel program

let check_outcomes name (expect : I.outcome) (got : I.outcome) =
  let ck what a b = Alcotest.(check int) (name ^ ": " ^ what) a b in
  Alcotest.(check string) (name ^ ": output") expect.I.output got.I.output;
  ck "instrs" expect.I.counters.I.instrs got.I.counters.I.instrs;
  ck "heap loads" expect.I.counters.I.heap_loads got.I.counters.I.heap_loads;
  ck "other loads" expect.I.counters.I.other_loads got.I.counters.I.other_loads;
  ck "stores" expect.I.counters.I.stores got.I.counters.I.stores;
  ck "calls" expect.I.counters.I.calls got.I.counters.I.calls;
  ck "allocations" expect.I.counters.I.allocations
    got.I.counters.I.allocations;
  ck "cycles" expect.I.cycles got.I.cycles;
  ck "soft faults" expect.I.soft_faults got.I.soft_faults;
  ck "cache hits" expect.I.cache_hits got.I.cache_hits;
  ck "cache misses" expect.I.cache_misses got.I.cache_misses;
  Alcotest.(check bool) (name ^ ": halted") expect.I.halted got.I.halted

let check_program name ?fuel program =
  let a = run_engine ~reference:true ?fuel program in
  let b = run_engine ~reference:false ?fuel program in
  check_outcomes name a b;
  a

(* Every pass, with the default oracle (SMFieldTypeRefs), as the
   end-to-end benchmark compiles its programs. *)
let optimize_full program =
  let config =
    { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
      slf = true; rle = true; copyprop = true; dse = true; local_cse = true }
  in
  ignore
    (Opt.Pass_manager.run (Opt.Pass.create ()) program
       (Opt.Pass_manager.schedule config))

(* ------------------------------------------------------------------ *)
(* Full-suite counter/cycle/output equality, 12-config matrix          *)
(* ------------------------------------------------------------------ *)

let kinds =
  [ Opt.Pass.Otype_decl; Opt.Pass.Ofield_type_decl;
    Opt.Pass.Osm_field_type_refs ]

let configs =
  List.concat_map
    (fun kind ->
      let base = Harness.Runner.rle_with kind in
      let name v = Opt.Pass.oracle_name kind ^ ":" ^ v in
      let plus passes = { base with Harness.Runner.passes } in
      let p = base.Harness.Runner.passes in
      [ (name "rle", base);
        (name "rle+cp", plus { p with Opt.Pass_manager.Config.copyprop = true });
        (name "rle+pre", plus { p with Opt.Pass_manager.Config.pre = true });
        ( name "minv+rle",
          plus { p with Opt.Pass_manager.Config.devirt_inline = true } ) ])
    kinds

(* Each workload unoptimized too: Table 4's untraced run of slisp among
   them. *)
let test_full_matrix () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      ignore
        (check_program
           (w.Workloads.Workload.name ^ "/unoptimized")
           (Workloads.Workload.lower w));
      List.iter
        (fun (cname, config) ->
          let program = Workloads.Workload.lower w in
          ignore (Harness.Runner.optimize config program);
          ignore
            (check_program (w.Workloads.Workload.name ^ "/" ^ cname) program))
        configs)
    Workloads.Suite.dynamic

(* ------------------------------------------------------------------ *)
(* Traced equality: full on_load / on_access stream fingerprints       *)
(* ------------------------------------------------------------------ *)

(* The streams can run to millions of events, so compare an order-
   sensitive rolling hash plus exact counts instead of materializing
   them. Both runs execute in the same process on the same (hash-consed)
   program, so [Apath.hash] is directly comparable. *)
type fingerprint = { mutable hash : int; mutable events : int }

let mix fp x = fp.hash <- ((fp.hash * 31) + x) land max_int

let mix_kind fp = function
  | I.Sexplicit (ap, k) ->
    mix fp 1;
    mix fp (Apath.hash ap);
    mix fp k
  | I.Sdope ap ->
    mix fp 2;
    mix fp (Apath.hash ap)
  | I.Snumber -> mix fp 3
  | I.Sdispatch -> mix fp 4

let traced_run ~reference ?fuel program =
  let loads = { hash = 0; events = 0 } in
  let accs = { hash = 0; events = 0 } in
  let on_load (e : I.load_event) =
    loads.events <- loads.events + 1;
    mix loads e.I.le_site.I.site_id;
    mix loads (Support.Ident.id e.I.le_site.I.site_proc);
    mix loads e.I.le_site.I.site_block;
    mix loads e.I.le_site.I.site_index;
    mix_kind loads e.I.le_site.I.site_kind;
    mix loads e.I.le_addr;
    mix loads (Hashtbl.hash e.I.le_value);
    mix loads e.I.le_activation;
    mix loads (Bool.to_int e.I.le_heap)
  in
  let on_access (a : I.access) =
    accs.events <- accs.events + 1;
    mix accs (Bool.to_int a.I.ac_store);
    mix accs (Apath.hash a.I.ac_path);
    mix accs a.I.ac_addr;
    mix accs a.I.ac_activation;
    mix accs (Bool.to_int a.I.ac_heap)
  in
  let o = run_engine ~reference ?fuel ~on_load ~on_access program in
  (o, loads, accs)

(* Both engines, traced: equal outcomes and equal event streams. *)
let check_traced name ?fuel program =
  let ro, rl, ra = traced_run ~reference:true ?fuel program in
  let no, nl, na = traced_run ~reference:false ?fuel program in
  check_outcomes (name ^ "/traced") ro no;
  Alcotest.(check (pair int int))
    (name ^ ": load stream") (rl.events, rl.hash) (nl.events, nl.hash);
  Alcotest.(check (pair int int))
    (name ^ ": access stream") (ra.events, ra.hash) (na.events, na.hash);
  ro

let limit_stats ~reference program =
  let t = Sim.Limit.create () in
  let o = run_engine ~reference ~on_load:(Sim.Limit.on_load t) program in
  let stats =
    List.map
      (fun (s : Sim.Limit.site_stat) ->
        ( ( s.Sim.Limit.ss_site.I.site_id,
            Support.Ident.id s.Sim.Limit.ss_site.I.site_proc,
            s.Sim.Limit.ss_site.I.site_block,
            s.Sim.Limit.ss_site.I.site_index ),
          ( s.Sim.Limit.ss_loads, s.Sim.Limit.ss_redundant,
            s.Sim.Limit.ss_breakup_prev ) ))
      (Sim.Limit.sites t)
  in
  (o, Sim.Limit.total_heap_loads t, Sim.Limit.total_redundant t, stats)

let traced_workloads = [ "format"; "write_pickle" ]

let test_traced_streams () =
  List.iter
    (fun name ->
      let w = Workloads.Suite.find name in
      let program = Workloads.Workload.lower w in
      let ro, rl, ra = traced_run ~reference:true program in
      let no, nl, na = traced_run ~reference:false program in
      check_outcomes (name ^ "/traced") ro no;
      Alcotest.(check int) (name ^ ": load events") rl.events nl.events;
      Alcotest.(check int) (name ^ ": load stream hash") rl.hash nl.hash;
      Alcotest.(check int) (name ^ ": access events") ra.events na.events;
      Alcotest.(check int) (name ^ ": access stream hash") ra.hash na.hash;
      Alcotest.(check bool) (name ^ ": stream nonempty") true (rl.events > 0))
    traced_workloads

let test_traced_limit_stats () =
  List.iter
    (fun name ->
      let w = Workloads.Suite.find name in
      let program = Workloads.Workload.lower w in
      let ro, rh, rr, rstats = limit_stats ~reference:true program in
      let no, nh, nr, nstats = limit_stats ~reference:false program in
      check_outcomes (name ^ "/limit") ro no;
      Alcotest.(check int) (name ^ ": traced heap loads") rh nh;
      Alcotest.(check int) (name ^ ": traced redundant") rr nr;
      Alcotest.(check
                  (list
                     (pair
                        (pair (pair int int) (pair int int))
                        (triple int int int))))
        (name ^ ": per-site stats")
        (List.map (fun ((a, b, c, d), s) -> (((a, b), (c, d)), s)) rstats)
        (List.map (fun ((a, b, c, d), s) -> (((a, b), (c, d)), s)) nstats))
    traced_workloads

(* A traced run of an OPTIMIZED program (the Figure 9 configuration). *)
let test_traced_optimized () =
  let w = Workloads.Suite.find "format" in
  let program = Workloads.Workload.lower w in
  ignore
    (Harness.Runner.optimize
       (Harness.Runner.rle_with Opt.Pass.Osm_field_type_refs)
       program);
  let ro, rl, ra = traced_run ~reference:true program in
  let no, nl, na = traced_run ~reference:false program in
  check_outcomes "format/optimized+traced" ro no;
  Alcotest.(check (pair int int))
    "optimized load stream" (rl.events, rl.hash) (nl.events, nl.hash);
  Alcotest.(check (pair int int))
    "optimized access stream" (ra.events, ra.hash) (na.events, na.hash)

(* ------------------------------------------------------------------ *)
(* Double-hook regression (the mem_read single-force fix)              *)
(* ------------------------------------------------------------------ *)

let test_double_hook_same_sites () =
  let program = Workloads.Workload.lower (Workloads.Suite.find "format") in
  let load_stream ~reference ~with_access =
    let fp = { hash = 0; events = 0 } in
    let on_load (e : I.load_event) =
      fp.events <- fp.events + 1;
      mix fp e.I.le_site.I.site_id;
      mix fp e.I.le_site.I.site_block;
      mix fp e.I.le_site.I.site_index;
      mix_kind fp e.I.le_site.I.site_kind
    in
    let o =
      if with_access then
        run_engine ~reference ~on_load ~on_access:(fun _ -> ()) program
      else run_engine ~reference ~on_load program
    in
    (o, fp)
  in
  List.iter
    (fun reference ->
      let tag = if reference then "reference" else "compiled" in
      let o1, single = load_stream ~reference ~with_access:false in
      let o2, double = load_stream ~reference ~with_access:true in
      check_outcomes (tag ^ ": single vs double hook") o1 o2;
      Alcotest.(check (pair int int))
        (tag ^ ": same sites/ordinals either way")
        (single.events, single.hash)
        (double.events, double.hash))
    [ true; false ]

(* ------------------------------------------------------------------ *)
(* Soft-fault paths                                                    *)
(* ------------------------------------------------------------------ *)

let check_faulting name src =
  let o = check_program name (lower src) in
  Alcotest.(check bool) (name ^ ": faults counted") true (o.I.soft_faults > 0)

let test_nil_deref () =
  check_faulting "nil deref"
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; next: Node; END;
VAR n: Node;
BEGIN
  PrintInt (n.val);        (* read through NIL: null zone *)
  n.val := 7;              (* write through NIL lands in the zone *)
  PrintInt (n.val);        (* and persists: store-load forwarding *)
  PrintInt (n.next.val);   (* chained NIL deref *)
END M.
|}

let test_clamped_subscripts () =
  check_faulting "clamped subscripts"
    {|
MODULE M;
TYPE A = ARRAY [0..3] OF INTEGER; V = REF ARRAY OF INTEGER;
VAR a: A; v: V; i: INTEGER;
BEGIN
  a[2] := 5;
  i := 10;
  a[i] := 9;               (* out of range: clamps to a[0] *)
  PrintInt (a[0]); PrintInt (a[2]);
  v := NEW (V, 3);
  i := 0 - 1;
  v[i] := 4;               (* negative subscript clamps too *)
  PrintInt (v[0]);
END M.
|}

(* DIV/MOD by zero is total (yields 0) but — unlike NIL derefs and
   clamped subscripts — is not counted as a soft fault; the point here is
   engine agreement on the zero-divisor path. *)
let test_div_mod_zero () =
  let o =
    check_program "div/mod zero"
      (lower
         {|
MODULE M;
VAR x: INTEGER;
BEGIN
  x := 0;
  PrintInt (7 DIV x);
  PrintInt (7 MOD x);
  PrintInt ((0 - 7) DIV x);
END M.
|})
  in
  Alcotest.(check string) "total zero-divisor semantics" "000" o.I.output

let test_nil_receiver_dispatch () =
  check_faulting "nil receiver"
    {|
MODULE M;
TYPE Shape = OBJECT side: INTEGER; METHODS area (): INTEGER := Area; END;
VAR s: Shape;
PROCEDURE Area (self: Shape): INTEGER =
  BEGIN RETURN self.side * self.side; END Area;
BEGIN
  PrintInt (s.area ());    (* NIL receiver: static-type dispatch *)
END M.
|}

(* ------------------------------------------------------------------ *)
(* Fuel exhaustion                                                     *)
(* ------------------------------------------------------------------ *)

let test_fuel_exhaustion () =
  let program =
    lower
      {|
MODULE M;
VAR n: INTEGER;
BEGIN
  n := 1;
  LOOP
    n := n + 1;
    IF n = 0 THEN EXIT; END;
  END;
END M.
|}
  in
  let o = check_program "fuel exhaustion" ~fuel:5_000 program in
  Alcotest.(check bool) "halted by fuel" true o.I.halted

(* ------------------------------------------------------------------ *)
(* Generated programs                                                  *)
(* ------------------------------------------------------------------ *)

(* Generated programs reach what the stock suite never does: soft faults,
   null zones, open-array dopes and NIL receivers. Each seed runs
   unoptimized and through the full pass stack, untraced and traced. *)
let test_generated () =
  let faults = ref 0 in
  for seed = 0 to 99 do
    let g = Gen.Generator.generate ~size:3 seed in
    let name = Printf.sprintf "seed %d" seed in
    let lower () = Lower.lower_string ~file:g.Gen.Generator.module_name g.source in
    let fuel = 2_000_000 in
    let plain = lower () in
    let o = check_program name ~fuel plain in
    faults := !faults + o.I.soft_faults;
    ignore (check_traced name ~fuel plain);
    let optimized = lower () in
    optimize_full optimized;
    ignore (check_program (name ^ "/optimized") ~fuel optimized);
    ignore (check_traced (name ^ "/optimized") ~fuel optimized)
  done;
  Alcotest.(check bool) "the seeds reach soft faults" true (!faults > 0);
  (* The per-type layout tables and NEW plans on a 200-deep hierarchy,
     and one virtual method called through each of 200 types. *)
  List.iter
    (fun (name, source) ->
      let lower () = Lower.lower_string ~file:name source in
      let plain = lower () in
      let o = check_program name plain in
      Alcotest.(check bool) (name ^ ": calls its procedures") true
        (o.I.counters.I.calls > 1);
      ignore (check_traced name plain);
      let optimized = lower () in
      optimize_full optimized;
      ignore (check_program (name ^ "/optimized") optimized);
      ignore (check_traced (name ^ "/optimized") optimized))
    [ ("scale 200", Gen.Scale.source 200);
      ("chain 200", Gen_prog.chain_with_method ~run:true 200) ]

(* ------------------------------------------------------------------ *)
(* Run state reuse                                                     *)
(* ------------------------------------------------------------------ *)

let endless_source =
  {|
MODULE M;
VAR n: INTEGER;
BEGIN
  n := 1;
  LOOP
    n := n + 1;
    IF n = 0 THEN EXIT; END;
  END;
END M.
|}

let halting_source =
  {|
MODULE H;
TYPE Cell = OBJECT v: INTEGER; END;
VAR c: Cell;
PROCEDURE Step (x: INTEGER) =
  BEGIN
    c.v := c.v + x;
    IF c.v > 40 THEN PrintInt (c.v); Halt (); END;
  END Step;
VAR i: INTEGER;
BEGIN
  c := NEW (Cell);
  FOR i := 1 TO 100 DO Step (i); END;
END H.
|}

(* A domain lends the same buffers and variable tables to run after run:
   a large run (past the retained heap), small ones, a traced one, one
   that runs out of fuel, one that halts, and one that starts another
   run of the same program from inside its [on_load] hook, which must
   get buffers of its own. A second large program right after the first
   may take over the first one's heap, as it was left. Every outcome and
   event stream equals the reference's, on one domain and on two at
   once. *)
let test_state_reuse () =
  let workload name = Workloads.Workload.lower (Workloads.Suite.find name) in
  let large = workload "write_pickle" and small = workload "format" in
  let other_large = workload "m3cg" in
  let tree = workload "ktree" in
  let endless = lower endless_source and halting = lower halting_source in
  let traced_fp ~reference p =
    let o, l, a = traced_run ~reference p in
    (o, (l.events, l.hash), (a.events, a.hash))
  in
  let nested ~reference =
    let inner = ref None in
    let on_load _ =
      if Option.is_none !inner then inner := Some (run_engine ~reference small)
    in
    let outer = run_engine ~reference ~on_load small in
    (outer, !inner)
  in
  let sequence ~reference =
    let plain ?fuel p = (run_engine ~reference ?fuel p, None) in
    let traced p = (fun (o, l, a) -> (o, Some (l, a))) (traced_fp ~reference p) in
    let nest () =
      match nested ~reference with
      | outer, Some inner -> [ (outer, None); (inner, None) ]
      | _, None -> Alcotest.fail "the hook never ran"
    in
    List.concat
      [ [ plain large; plain small; traced tree; plain ~fuel:5_000 endless;
          plain halting ];
        nest ();
        [ plain small; plain large; plain other_large; traced small;
          plain halting;
          plain ~fuel:5_000 endless; plain small ] ]
  in
  let expected = sequence ~reference:true in
  Alcotest.(check (list bool)) "fuel runs out, then Halt"
    [ true; true ]
    (List.map (fun i -> (fst (List.nth expected i)).I.halted) [ 3; 4 ]);
  let compare what got =
    List.iteri
      (fun i ((eo, es), (go, gs)) ->
        let name = Printf.sprintf "%s, run %d" what i in
        check_outcomes name eo go;
        Alcotest.(check bool) (name ^ ": event streams") true (es = gs))
      (List.combine expected got)
  in
  compare "one domain" (sequence ~reference:false);
  compare "one domain, again" (sequence ~reference:false);
  let d1 = Domain.spawn (fun () -> sequence ~reference:false)
  and d2 = Domain.spawn (fun () -> sequence ~reference:false) in
  compare "domain 1" (Domain.join d1);
  compare "domain 2" (Domain.join d2)

(* ------------------------------------------------------------------ *)
(* Value range and fuel accounting                                     *)
(* ------------------------------------------------------------------ *)

(* Full 63-bit integers stored and reloaded through every kind of cell:
   registers, a stack frame, globals, heap objects and open arrays,
   arguments and results. An encoding that takes tag bits from the
   payload prints different numbers here. *)
let test_int_range () =
  let o =
    check_program "63-bit ints"
      (lower
         {|
MODULE Edge;
TYPE
  Cell = OBJECT v: INTEGER; END;
  Pair = RECORD a, b: INTEGER; END;
  Vec = REF ARRAY OF INTEGER;
VAR g, h: INTEGER;
PROCEDURE Show (x: INTEGER) =
  BEGIN PrintInt (x); PrintLn (); END Show;
PROCEDURE Id (x: INTEGER): INTEGER =
  BEGIN RETURN x; END Id;
PROCEDURE Mul (x, y: INTEGER): INTEGER =
  BEGIN RETURN x * y; END Mul;
PROCEDURE Bump (VAR r: INTEGER) =
  BEGIN r := r + 1; END Bump;
PROCEDURE Main () =
  VAR m, n, p: INTEGER; pr: Pair; c: Cell; v: Vec;
  BEGIN
    m := 4611686018427387903;
    n := 0 - m - 1;
    Show (m + 1);
    Show (n - 1);
    Show (n DIV (0 - 1));
    Show (n MOD (0 - 1));
    Show ((0 - 7) MOD 3);
    Show (7 MOD (0 - 3));
    Show ((0 - 7) MOD (0 - 3));
    Show ((0 - 7) DIV 2);
    Show (n MOD 10);
    p := 3037000499 * 3037000499;
    Show (p * 7);
    Show (-n);
    Show (Abs (n));
    Show (Min (n, m));
    Show (Max (n, m));
    g := m;
    g := g + 1;
    Show (g);
    h := m * 3;
    Show (h);
    pr.a := m;
    pr.b := pr.a + m;
    Show (pr.b);
    Bump (pr.a);
    Show (pr.a);
    c := NEW (Cell);
    c.v := m;
    c.v := c.v * c.v;
    Show (c.v);
    v := NEW (Vec, 3);
    v[1] := n;
    v[2] := v[1] - 1;
    Show (v[2]);
    Show (Id (m + m));
    Show (Mul (m, m - 5));
    Show (Id (n) DIV (0 - 1));
  END Main;
BEGIN
  Main ();
END Edge.
|})
  in
  let lines = String.split_on_char '\n' o.I.output in
  Alcotest.(check (list string))
    "the reference's 63-bit results"
    [ string_of_int min_int; string_of_int max_int;
      string_of_int (min_int / -1) ]
    (List.filteri (fun i _ -> i < 3) lines)

(* Run at every fuel from 1 to past the end: loops, calls and a Halt
   inside a callee, unoptimized and through the full pass stack. Every
   counter must equal the reference's at every stopping point, so fuel
   charged for a call-free segment at once must stop exactly where
   per-instruction charging would. *)
let test_fuel_sweep () =
  let source =
      {|
MODULE Fuel;
TYPE Cell = OBJECT v: INTEGER; END;
VAR g: INTEGER; c: Cell;
PROCEDURE Step (x: INTEGER): INTEGER =
  BEGIN
    c.v := c.v + x;
    IF c.v > 40 THEN PrintInt (c.v); Halt (); END;
    RETURN x + 1;
  END Step;
PROCEDURE Main () =
  VAR i: INTEGER;
  BEGIN
    c := NEW (Cell);
    i := 0;
    WHILE i < 100 DO
      g := Step (i) + g;
      PrintInt (g);
      i := i + 1;
    END;
  END Main;
BEGIN
  Main ();
END Fuel.
|}
  in
  let sweep name program =
    let full = check_program (name ^ "/unbounded") program in
    Alcotest.(check bool) (name ^ ": halts in the callee") true full.I.halted;
    for fuel = 1 to full.I.counters.I.instrs + 2 do
      ignore (check_program (Printf.sprintf "%s/fuel %d" name fuel) ~fuel program)
    done
  in
  sweep "plain" (lower source);
  let optimized = lower source in
  optimize_full optimized;
  sweep "optimized" optimized

(* ------------------------------------------------------------------ *)
(* Domains                                                             *)
(* ------------------------------------------------------------------ *)

(* Traced runs of the same physical programs on two domains at once must
   match sequential runs: the compiled-code cache, its site memo cells
   and the heap hints are per domain. *)
let test_two_domains () =
  let programs =
    List.map
      (fun name -> Workloads.Workload.lower (Workloads.Suite.find name))
      [ "format"; "slisp" ]
  in
  let fingerprint program =
    let o, l, a = traced_run ~reference:false program in
    (o.I.output, o.I.cycles, o.I.counters.I.instrs, (l.events, l.hash),
     (a.events, a.hash))
  in
  let sequential = List.map fingerprint programs in
  let rounds () = List.init 3 (fun _ -> List.map fingerprint programs) in
  let d1 = Domain.spawn rounds and d2 = Domain.spawn rounds in
  List.iter
    (fun results ->
      List.iter
        (fun round ->
          Alcotest.(check bool) "parallel = sequential" true (round = sequential))
        results)
    [ Domain.join d1; Domain.join d2 ]

let () =
  Alcotest.run "sim_equiv"
    [ ( "matrix",
        [ Alcotest.test_case "full suite x 12 configs" `Slow test_full_matrix ]
      );
      ( "traced",
        [ Alcotest.test_case "event streams" `Slow test_traced_streams;
          Alcotest.test_case "limit stats" `Slow test_traced_limit_stats;
          Alcotest.test_case "optimized traced run" `Slow
            test_traced_optimized;
          Alcotest.test_case "double hook" `Slow test_double_hook_same_sites ]
      );
      ( "faults",
        [ Alcotest.test_case "nil deref" `Quick test_nil_deref;
          Alcotest.test_case "clamped subscripts" `Quick
            test_clamped_subscripts;
          Alcotest.test_case "div/mod zero" `Quick test_div_mod_zero;
          Alcotest.test_case "nil receiver" `Quick test_nil_receiver_dispatch;
          Alcotest.test_case "fuel" `Quick test_fuel_exhaustion ] );
      ( "generated",
        [ Alcotest.test_case "size-3 seeds 0-99" `Slow test_generated ] );
      ( "edges",
        [ Alcotest.test_case "63-bit ints" `Quick test_int_range;
          Alcotest.test_case "fuel sweep" `Quick test_fuel_sweep ] );
      ( "domains",
        [ Alcotest.test_case "two domains" `Slow test_two_domains;
          Alcotest.test_case "run state reuse" `Slow test_state_reuse ] ) ]
