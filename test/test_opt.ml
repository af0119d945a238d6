(* Tests for the optimizer: mod-ref summaries, RLE (the paper's Figures 6
   and 7 shapes), devirtualization, inlining, and the pipeline. *)

open Support
open Ir

let lower src = Lower.lower_string ~file:"test" src

let proc_named program name = Cfg.find_proc program (Ident.intern name)

let analyze ?(world = Tbaa.World.Closed) program =
  Tbaa.Engine.create
    ~config:{ Tbaa.Engine.default_config with Tbaa.Engine.world }
    program

let run_out program = (Sim.Interp.run program).Sim.Interp.output

let sm = Opt.Pass.Osm_field_type_refs
let td = Opt.Pass.Otype_decl

(* What the pass manager hands a client: the engine's mod-ref view and
   oracle, both of one kind. *)
let inputs engine kind =
  let kind = Opt.Pass.engine_kind kind in
  (Opt.Modref.of_engine engine kind, Tbaa.Engine.oracle engine kind)

(* Run RLE alone; [stat name] reads one of its counters. *)
let rle_with src oracle_kind =
  let program = lower src in
  let before = run_out program in
  let reports = Passes.run ~oracle_kind program [ Opt.Rle.pass ] in
  let after = run_out program in
  (program, Passes.stat reports Opt.Rle.pass, before, after)

(* --- mod-ref ----------------------------------------------------------- *)

let test_modref_transitive () =
  let program =
    lower
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; g: INTEGER;
PROCEDURE Deep () = BEGIN n.val := 1; END Deep;
PROCEDURE Mid () = BEGIN Deep (); END Mid;
PROCEDURE Top () = BEGIN Mid (); END Top;
PROCEDURE Pure (x: INTEGER): INTEGER = BEGIN RETURN x + 1; END Pure;
BEGIN END M.
|}
  in
  let modref, _ = inputs (analyze program) sm in
  let mods name =
    (Opt.Modref.summary modref (Ident.intern name)).Opt.Modref.mods
  in
  Alcotest.(check bool) "Deep writes a field class" false
    (Tbaa.Aloc.Set.is_empty (mods "Deep"));
  Alcotest.(check bool) "Top inherits Deep's effects" false
    (Tbaa.Aloc.Set.is_empty (mods "Top"));
  Alcotest.(check bool) "Pure writes nothing visible" true
    (Tbaa.Aloc.Set.is_empty (mods "Pure"))

let test_modref_kills_loads_across_calls () =
  (* A call that writes val must kill availability of n.val; a pure call
     must not. *)
  let src writer =
    Printf.sprintf
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE Touch () = BEGIN %s END Touch;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    Touch ();
    b := n.val;
    sink := a + b;
  END P;
BEGIN END M.
|}
      writer
  in
  let eliminated writer =
    let _, stat, _, _ = rle_with (src writer) sm in
    stat "eliminated"
  in
  Alcotest.(check bool) "pure call: second load eliminated" true
    (eliminated "sink := 0;" >= 1);
  Alcotest.(check int) "writing call kills the load" 0
    (eliminated "n.val := 9;")

(* --- RLE: Figure 6 (loop-invariant motion) ----------------------------- *)

let figure6_src =
  {|
MODULE M;
TYPE
  Arr = REF ARRAY OF INTEGER;
  Box = OBJECT b: Arr; END;
VAR a: Box; sink: INTEGER;
PROCEDURE P (k: INTEGER) =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 0 TO k - 1 DO
      s := s + a.b[i];   (* a.b is loop invariant; a.b[i] is not *)
    END;
    sink := s;
  END P;
BEGIN
  a := NEW (Box);
  a.b := NEW (Arr, 10);
  P (10);
  PrintInt (sink);
END M.
|}

let test_rle_hoists_invariant_prefix () =
  let program, stats, before, after = rle_with figure6_src sm in
  Alcotest.(check bool) "hoisted at least one prefix" true
    (stats "hoisted" >= 1);
  Alcotest.(check string) "behaviour preserved" before after;
  (* The load of a.b must now be outside the loop: run and compare heap
     loads with the unoptimized program. *)
  let fresh = lower figure6_src in
  let base = (Sim.Interp.run fresh).Sim.Interp.counters.Sim.Interp.heap_loads in
  let opt = (Sim.Interp.run program).Sim.Interp.counters.Sim.Interp.heap_loads in
  Alcotest.(check bool) "fewer dynamic heap loads" true (opt < base)

(* --- RLE: Figure 7 (redundant load CSE) -------------------------------- *)

let figure7_src =
  {|
MODULE M;
TYPE
  Arr = REF ARRAY OF INTEGER;
  Box = OBJECT b: Arr; END;
VAR a: Box; sink: INTEGER;
PROCEDURE P (i: INTEGER; j: INTEGER) =
  VAR x: INTEGER; y: INTEGER;
  BEGIN
    x := a.b[i];
    y := a.b[j];   (* the a.b prefix is redundant *)
    sink := x + y;
  END P;
BEGIN
  a := NEW (Box);
  a.b := NEW (Arr, 10);
  P (3, 4);
  PrintInt (sink);
END M.
|}

let test_rle_cse_prefix () =
  let _, stats, before, after = rle_with figure7_src sm in
  Alcotest.(check bool) "prefix reused" true (stats "shortened" >= 1);
  Alcotest.(check string) "behaviour preserved" before after

let test_rle_cse_full () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 21;
  P ();
  PrintInt (sink);
END M.
|}
  in
  let _, stats, before, after = rle_with src sm in
  Alcotest.(check bool) "eliminated the second load" true
    (stats "eliminated" >= 1);
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 42" "42" after

(* RLE decides before it rewrites: in a procedure where it eliminates,
   hoists, shortens and splits nothing, nothing reads a home, so the
   procedure comes out byte-identical — multi-prefix loads, a store with
   no scalar proper prefix and a loop with variant loads included — while
   a sibling procedure with a redundant load is rewritten. *)
let test_rle_untouched_proc_identical () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; next: Node; END;
VAR n: Node; sink: INTEGER;
PROCEDURE Q () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.next.val;
    b := n.next.val;
    sink := a + b;
  END Q;
PROCEDURE P (m: Node) =
  BEGIN
    sink := m.next.val;
    m.val := sink + 1;
    WHILE m # NIL DO
      sink := sink + m.val;
      m := m.next;
    END;
  END P;
BEGIN
  n := NEW (Node);
  n.next := NEW (Node);
  n.next.val := 4;
  n.next.next := n;
  Q ();
  P (n);
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let text name = Format.asprintf "%a" Cfg.pp_proc (proc_named program name) in
  let before = run_out program and p_before = text "P" and q_before = text "Q" in
  let reports = Passes.run program [ Opt.Rle.pass ] in
  Alcotest.(check int) "one load eliminated" 1
    (Passes.stat reports Opt.Rle.pass "eliminated");
  Alcotest.(check int) "nothing hoisted" 0
    (Passes.stat reports Opt.Rle.pass "hoisted");
  Alcotest.(check string) "P byte-identical" p_before (text "P");
  Alcotest.(check bool) "Q rewritten" true (q_before <> text "Q");
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_rle_store_forwarding () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  BEGIN
    n.val := 7;
    sink := n.val;  (* forwarded from the store *)
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (sink);
END M.
|}
  in
  let _, stats, _, after = rle_with src sm in
  Alcotest.(check bool) "load forwarded" true (stats "eliminated" >= 1);
  Alcotest.(check string) "output is 7" "7" after

let test_rle_killed_by_may_alias_store () =
  (* Two compatible paths: a store through one kills the other. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    m.val := 5;    (* may alias n.val *)
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 3;
  m := n;
  P ();
  PrintInt (sink);
END M.
|}
  in
  let _, stats, before, after = rle_with src sm in
  Alcotest.(check int) "no elimination across the aliasing store" 0
    (stats "eliminated");
  Alcotest.(check string) "behaviour preserved" before after;
  (* a reads 3, the aliasing store makes b read 5: an unsound CSE would
     print 6 instead. *)
  Alcotest.(check string) "output reflects the store" "8" after

let test_rle_not_killed_by_independent_store () =
  (* SMFieldTypeRefs proves distinct-field stores independent. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; other: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    m.other := 5;   (* different field: cannot alias n.val *)
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  m := NEW (Node);
  P ();
  PrintInt (sink);
END M.
|}
  in
  let _, stats, before, after = rle_with src sm in
  Alcotest.(check bool) "eliminated across independent store" true
    (stats "eliminated" >= 1);
  Alcotest.(check string) "behaviour preserved" before after

let test_rle_precision_ordering_on_counts () =
  (* A more precise oracle can only remove at least as many loads. *)
  let removed oracle_kind =
    Opt.Rle.removed
      (Passes.run ~oracle_kind (lower figure6_src) [ Opt.Rle.pass ])
  in
  Alcotest.(check bool) "SMFieldTypeRefs >= TypeDecl" true
    (removed sm >= removed td)

let test_rle_conditional_not_eliminated () =
  (* Partial redundancy (the paper's Conditional category) must survive:
     RLE only removes fully redundant loads. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (c: BOOLEAN) =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := 0;
    IF c THEN
      a := n.val;
    END;
    b := n.val;   (* redundant only when c *)
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 3;
  P (TRUE);
  PrintInt (sink);
END M.
|}
  in
  let _, stats, before, after = rle_with src sm in
  Alcotest.(check int) "no full redundancy" 0 (stats "eliminated");
  Alcotest.(check string) "behaviour preserved" before after

(* --- devirtualization / inlining --------------------------------------- *)

let devirt_src =
  {|
MODULE M;
TYPE
  A = OBJECT v: INTEGER; METHODS m (): INTEGER := ImplA; END;
  B = A OBJECT OVERRIDES m := ImplB; END;
VAR a: A;
PROCEDURE ImplA (self: A): INTEGER = BEGIN RETURN self.v; END ImplA;
PROCEDURE ImplB (self: A): INTEGER = BEGIN RETURN 0 - self.v; END ImplB;
BEGIN
  a := NEW (A);
  a.v := 11;
  PrintInt (a.m ());
END M.
|}

let test_devirt_resolves_monomorphic () =
  (* B is never allocated or assigned into an A, so SMTypeRefs proves the
     receiver can only be an A and the call resolves to ImplA. *)
  let program = lower devirt_src in
  let before = run_out program in
  let reports = Passes.run program [ Opt.Devirt.pass ] in
  Alcotest.(check int) "resolved" 1
    (Opt.Pass_manager.sum_stat "devirt" "resolved" reports);
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_devirt_keeps_polymorphic () =
  let src =
    {|
MODULE M;
TYPE
  A = OBJECT v: INTEGER; METHODS m (): INTEGER := ImplA; END;
  B = A OBJECT OVERRIDES m := ImplB; END;
VAR a: A;
PROCEDURE ImplA (self: A): INTEGER = BEGIN RETURN self.v; END ImplA;
PROCEDURE ImplB (self: A): INTEGER = BEGIN RETURN 0 - self.v; END ImplB;
BEGIN
  a := NEW (B);   (* now a B flows into a *)
  a.v := 11;
  PrintInt (a.m ());
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let reports = Passes.run program [ Opt.Devirt.pass ] in
  Alcotest.(check int) "not resolved" 0
    (Opt.Pass_manager.sum_stat "devirt" "resolved" reports);
  Alcotest.(check string) "dispatches to ImplB" "-11" before;
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_inline_small_proc () =
  let src =
    {|
MODULE M;
VAR g: INTEGER;
PROCEDURE Add3 (x: INTEGER): INTEGER = BEGIN RETURN x + 3; END Add3;
PROCEDURE P () = BEGIN g := Add3 (Add3 (10)); END P;
BEGIN
  P ();
  PrintInt (g);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let reports = Passes.run program [ Opt.Inline.pass ] in
  Alcotest.(check bool) "inlined both calls" true
    (Opt.Pass_manager.sum_stat "inline" "inlined" reports >= 2);
  Alcotest.(check string) "behaviour preserved" before (run_out program);
  (* No calls remain in P *)
  let p = proc_named program "P" in
  let calls = ref 0 in
  Cfg.iter_instrs p (fun _ i ->
      match i with Instr.Icall _ -> incr calls | _ -> ());
  Alcotest.(check int) "no calls left" 0 !calls

let test_inline_respects_recursion () =
  let src =
    {|
MODULE M;
VAR g: INTEGER;
PROCEDURE Fact (n: INTEGER): INTEGER =
  BEGIN
    IF n <= 1 THEN RETURN 1; END;
    RETURN n * Fact (n - 1);
  END Fact;
BEGIN
  g := Fact (6);
  PrintInt (g);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let reports = Passes.run program [ Opt.Inline.pass ] in
  Alcotest.(check int) "recursive procedure left alone" 0
    (Opt.Pass_manager.sum_stat "inline" "inlined" reports);
  Alcotest.(check string) "720" "720" before;
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_inline_byref_param () =
  let src =
    {|
MODULE M;
VAR g: INTEGER;
PROCEDURE Bump (VAR x: INTEGER) = BEGIN x := x + 1; END Bump;
PROCEDURE P () = BEGIN Bump (g); Bump (g); END P;
BEGIN
  g := 40;
  P ();
  PrintInt (g);
END M.
|}
  in
  let program = lower src in
  let reports = Passes.run program [ Opt.Inline.pass ] in
  Alcotest.(check bool) "inlined" true
    (Opt.Pass_manager.sum_stat "inline" "inlined" reports >= 2);
  Alcotest.(check string) "VAR semantics preserved" "42" (run_out program)

(* --- PRE and copy propagation (the paper's future work) ----------------- *)

let test_pre_recovers_conditional () =
  (* The paper's Conditional pattern: redundant along the THEN path only.
     PRE inserts the load on the ELSE edge; RLE then eliminates the
     second load entirely. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (c: BOOLEAN) =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := 0;
    IF c THEN
      a := n.val;
    END;
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 3;
  P (TRUE);
  P (FALSE);
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let reports = Passes.run program [ Opt.Pre.pass; Opt.Rle.pass ] in
  Alcotest.(check bool) "PRE inserted on the else edge" true
    (Passes.stat reports Opt.Pre.pass "inserted" >= 1);
  Alcotest.(check bool) "the conditional load is now eliminated" true
    (Passes.stat reports Opt.Rle.pass "eliminated" >= 1);
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_pre_skips_unprofitable () =
  (* No sibling predecessor carries the value: PRE must not insert. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (c: BOOLEAN) =
  VAR b: INTEGER;
  BEGIN
    IF c THEN
      sink := 1;
    ELSE
      sink := 2;
    END;
    b := n.val;
    sink := sink + b;
  END P;
BEGIN
  n := NEW (Node);
  P (TRUE);
  PrintInt (sink);
END M.
|}
  in
  let reports = Passes.run (lower src) [ Opt.Pre.pass ] in
  Alcotest.(check int) "no insertion without a carrying sibling" 0
    (Passes.stat reports Opt.Pre.pass "inserted")

let test_copyprop_enables_breakup_recovery () =
  (* The Breakup pattern: the same address reached via p and via h.next.
     Copy propagation canonicalizes the base so a second RLE pass can
     eliminate the reload. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; next: Node; END;
VAR h: Node; sink: INTEGER;
PROCEDURE P () =
  VAR p: Node; a: INTEGER; b: INTEGER;
  BEGIN
    p := h.next;
    a := p.val;
    b := h.next.val;
    sink := a + b;
  END P;
BEGIN
  h := NEW (Node);
  h.next := NEW (Node);
  h.next.val := 6;
  P ();
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  ignore (Passes.run program [ Opt.Rle.pass ]);
  let reports = Passes.run program [ Opt.Copyprop.pass; Opt.Rle.pass ] in
  let stat = Passes.stat reports in
  Alcotest.(check bool) "copies were propagated" true
    (stat Opt.Copyprop.pass "replaced" >= 1);
  Alcotest.(check bool) "second RLE pass finds the breakup redundancy" true
    (stat Opt.Rle.pass "eliminated" + stat Opt.Rle.pass "shortened" >= 1);
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_copyprop_respects_redefinition () =
  let src =
    {|
MODULE M;
VAR sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := 1;
    b := a;
    a := 2;       (* kills the copy *)
    sink := b + a;
  END P;
BEGIN
  P ();
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  ignore (Passes.run program [ Opt.Copyprop.pass ]);
  Alcotest.(check string) "3" "3" (run_out program)

(* Three corners of the copy universe, each with the rewritten procedure
   text, the rewrite count and the program output pinned. A copy into a
   variable whose every use was rewritten is deleted, and so, in turn, is
   a copy whose only reader that deletion removed. *)
let copyprop_corner src =
  let program = lower src in
  let reports = Passes.run program [ Opt.Copyprop.pass ] in
  let text = Format.asprintf "%a" Cfg.pp_proc (proc_named program "P") in
  (Passes.stat reports Opt.Copyprop.pass "replaced", text, run_out program)

let test_copyprop_repeated_copy () =
  (* [b := a] occurs twice; both occurrences are the one copy (b, a), so
     the second regenerates it after [a]'s redefinition killed it. Every
     use of a, b, c and d is rewritten, so all their copies go. *)
  let replaced, text, out =
    copyprop_corner
      {|
MODULE M;
VAR sink: INTEGER;
PROCEDURE P (x: INTEGER) =
  VAR a, b, c, d: INTEGER;
  BEGIN
    a := x + 1;
    b := a;
    c := b + 1;
    a := x + 5;
    b := a;
    d := b + c;
    sink := d;
  END P;
BEGIN
  P (4);
  PrintInt (sink);
END M.
|}
  in
  Alcotest.(check int) "replaced" 4 replaced;
  Alcotest.(check string) "procedure"
    "procedure P (entry B0)\nB0:\n  t#6 := x + 1\n  t#7 := t#6 + 1\n\
    \  t#8 := x + 5\n  t#9 := t#8 + t#7\n  sink := t#9\n  return\n"
    text;
  Alcotest.(check string) "output" "15" out

let test_copyprop_long_chain () =
  (* [canonical] follows at most 8 copies: a10 resolves to a2, not a0.
     The copies a3..a10, read only along the chain, go; a2 is still read. *)
  let replaced, text, out =
    copyprop_corner
      {|
MODULE M;
VAR sink: INTEGER;
PROCEDURE P (x: INTEGER) =
  VAR a0, a1, a2, a3, a4, a5, a6, a7, a8, a9, a10: INTEGER;
  BEGIN
    a0 := x + 1;
    a1 := a0; a2 := a1; a3 := a2; a4 := a3; a5 := a4;
    a6 := a5; a7 := a6; a8 := a7; a9 := a8; a10 := a9;
    sink := a10 + 1;
  END P;
BEGIN
  P (4);
  PrintInt (sink);
END M.
|}
  in
  Alcotest.(check int) "replaced" 1 replaced;
  Alcotest.(check string) "procedure"
    "procedure P (entry B0)\nB0:\n  t#13 := x + 1\n  a0 := t#13\n  a1 := a0\n\
    \  a2 := a1\n  t#14 := a2 + 1\n  sink := t#14\n  return\n"
    text;
  Alcotest.(check string) "output" "6" out

let test_copyprop_source_redefined () =
  (* [a] is redefined between [b := a] and [c := a]: uses of [b] keep [b],
     uses of [c] become the new [a]'s source, and [c := a] goes. *)
  let replaced, text, out =
    copyprop_corner
      {|
MODULE M;
VAR sink: INTEGER;
PROCEDURE P (x: INTEGER) =
  VAR a, b, c: INTEGER;
  BEGIN
    a := x + 1;
    b := a;
    a := a + 10;
    c := a;
    sink := b * 100 + c;
  END P;
BEGIN
  P (4);
  PrintInt (sink);
END M.
|}
  in
  Alcotest.(check int) "replaced" 2 replaced;
  Alcotest.(check string) "procedure"
    "procedure P (entry B0)\nB0:\n  t#5 := x + 1\n  a := t#5\n  b := a\n\
    \  t#6 := t#5 + 10\n  a := t#6\n  t#7 := b * 100\n  t#8 := t#7 + t#6\n\
    \  sink := t#8\n  return\n"
    text;
  Alcotest.(check string) "output" "515" out

(* --- kill index --------------------------------------------------------- *)

(* Every prefix of every loaded or stored path, in first-seen order. *)

(* Regressions (generator seeds 5047 and 3045 at size 3, shrunk): a NIL
   dereference reads the null zone of the path's static type, so copy
   propagation may substitute a base only from a variable of the same
   static type. Without that guard, RLE's home [rle#8 : C0] for
   [o2.link] takes the copy [rle#8 := o7.next] ([C3]) and [o2.link.c]
   becomes a read of C3's zone, which the store [o7.next.c := 9] wrote. *)
let null_zone_case config src () =
  Alcotest.(check (list string))
    (config ^ " matches the unoptimized run") []
    (List.map
       (fun f -> f.Harness.Fuzz.f_detail)
       (Harness.Fuzz.check_source
          ~only:(Harness.Fuzz.Diff_semantics, config)
          ~name:"null-zone" src))

let null_zone_5047 =
  {|MODULE Fz5047;

TYPE
  C0 = OBJECT
               c: INTEGER;
  END;

TYPE
  C2 = OBJECT
               link: C0;
  END;

TYPE
  C3 = C0 OBJECT
  END;

TYPE
  C5 = OBJECT
               next: C3;
  END;

TYPE
  C7 = C5 OBJECT
  END;

VAR
  o2: C2;

VAR
  o7: C7;

BEGIN
       o2.link := o7.next;
       o7.next.c := 9;
       PrintInt (o2.link.c);
END Fz5047.|}

let null_zone_3045 =
  {|MODULE Fz3045;

TYPE
  BVec = BRANDED "fz" REF ARRAY OF INTEGER;

TYPE
  FArr = ARRAY [0..7] OF INTEGER;

TYPE
  C0 = OBJECT
               tag: INTEGER;
  METHODS
           tally (k: INTEGER): INTEGER := Im_C0_tally;
  END;

TYPE
  C3 = C0 OBJECT
  END;

TYPE
  C7 = OBJECT
               c: INTEGER;
  END;

TYPE
  C8 = OBJECT
               link: C3;
  END;

VAR
  o7: C7;

VAR
  o8: C8;

VAR
  bv0: BVec;

VAR
  fa0: FArr;

VAR
  g1: INTEGER;

PROCEDURE Im_C0_tally (self: C0; k: INTEGER): INTEGER =
VAR
     x0: INTEGER;
     x1: INTEGER;
     w0: INTEGER;
     w1: INTEGER;
     w2: INTEGER;
     w3: INTEGER;
BEGIN
       self.tag := fa0[0];
END Im_C0_tally;

PROCEDURE P2 (VAR z: INTEGER; n: INTEGER) =
VAR
     x0: INTEGER;
     x1: INTEGER;
     w0: INTEGER;
     w1: INTEGER;
     w2: INTEGER;
     w3: INTEGER;
BEGIN
       o8.link.tally (0);
END P2;

BEGIN
       g1 := 19;
       FOR fi := 0 TO 7 DO
                            fa0[fi] := g1;
       END;
       P2 (o7.c, bv0[5]);
       PrintInt (o8.link.tag);
END Fz3045.|}

let tracked_exprs proc =
  let seen = Apath.Tbl.create 64 and acc = ref [] in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iload (_, ap) | Instr.Istore (ap, _) ->
        List.iter
          (fun p ->
            if not (Apath.Tbl.mem seen p) then begin
              Apath.Tbl.add seen p ();
              acc := p :: !acc
            end)
          (Apath.prefixes ap)
      | _ -> ());
  Array.of_list (List.rev !acc)

(* [Rle.kill_set] against the per-expression baseline on every instruction
   of [program], each logging into its own claims ledger. Returns how many
   instructions define a global or address-taken variable. *)
let check_kill_index label program kind =
  let modref, oracle = inputs (analyze program) kind in
  let ledger () = Tbaa.Claims.create ~oracle:(Opt.Pass.oracle_name kind) in
  let fast = ledger () and slow = ledger () in
  let memory_defs = ref 0 in
  List.iter
    (fun proc ->
      let exprs = tracked_exprs proc in
      let ki = Opt.Rle.kill_index exprs in
      Cfg.iter_instrs proc (fun _ i ->
          (match Instr.defined_var i with
          | Some v
            when v.Reg.v_kind = Reg.Vglobal || oracle.Tbaa.Oracle.addr_taken_var v ->
            incr memory_defs
          | _ -> ());
          let got = Opt.Rle.kill_set ~claims:fast oracle modref ki i in
          let want = Reference.kill_set ~claims:slow oracle modref exprs i in
          if not (Bitset.equal got want) then
            Alcotest.failf "%s: kill set of %a: %a, expected %a" label Instr.pp i
              Bitset.pp got Bitset.pp want))
    program.Cfg.prog_procs;
  Alcotest.(check int) (label ^ ": claim pairs") (Tbaa.Claims.n_pairs slow)
    (Tbaa.Claims.n_pairs fast);
  Alcotest.(check int) (label ^ ": claim records") (Tbaa.Claims.n_records slow)
    (Tbaa.Claims.n_records fast);
  let disjoint c =
    List.sort compare
      (List.map
         (fun (p, q) -> Apath.to_string p ^ " | " ^ Apath.to_string q)
         (Tbaa.Claims.disjoint_pairs c))
  in
  Alcotest.(check (list string)) (label ^ ": disjoint pairs") (disjoint slow)
    (disjoint fast);
  !memory_defs

let oracle_kinds = [ td; Opt.Pass.Ofield_type_decl; sm ]

let test_kill_index_memory_defs () =
  let program =
    lower
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; next: Node; END;
VAR g: INTEGER; h: Node;
PROCEDURE Bump (VAR r: INTEGER) = BEGIN r := r + 1; END Bump;
PROCEDURE P () =
  VAR k: INTEGER; n: Node;
  BEGIN
    n := h.next;
    k := n.val;
    Bump (k);
    g := n.next.val + k;
    k := h.val + g;
    h.next.val := k;
    n.val := g;
  END P;
BEGIN
  h := NEW (Node);
  h.next := NEW (Node);
  h.next.next := h;
  P ();
  PrintInt (g);
END M.
|}
  in
  List.iter
    (fun kind ->
      let label = "memory defs " ^ Opt.Pass.oracle_name kind in
      let defs = check_kill_index label program kind in
      (* [g := ...] (a global) and [k := ...] (address-taken by [Bump]). *)
      Alcotest.(check bool) (label ^ ": fallback exercised") true (defs >= 2))
    oracle_kinds

let test_kill_index_programs () =
  let gen =
    List.init 50 (fun seed ->
        let g = Gen.Generator.generate ~size:3 seed in
        ( Printf.sprintf "gen seed=%d" seed,
          fun () -> Lower.lower_string ~file:"<gen>" g.Gen.Generator.source ))
  in
  let workloads =
    List.map
      (fun (w : Workloads.Workload.t) ->
        (w.Workloads.Workload.name, fun () -> Workloads.Workload.lower w))
      Workloads.Suite.all
  in
  List.iter
    (fun (name, program) ->
      List.iter
        (fun kind ->
          ignore
            (check_kill_index
               (name ^ " " ^ Opt.Pass.oracle_name kind)
               (program ()) kind))
        oracle_kinds)
    (gen @ workloads)

(* --- availability builder ------------------------------------------------- *)

(* [Opt.Rle.availability]'s universe and its facts before every
   instruction, solved [Must] and [May], against the per-pair replay
   ([Reference.build_avail]) under the perfect-alias kill rule and TBAA's
   under each oracle. Returns how many of the checked facts (over every
   rule and confluence) were non-empty. *)
let check_availability label program =
  let engine = analyze program in
  let tenv = program.Cfg.tenv in
  let rules =
    ("perfect", Opt.Rle.def_kill_set, Reference.perfect_kills)
    :: List.map
         (fun kind ->
           let modref, oracle = inputs engine kind in
           ( Opt.Pass.oracle_name kind,
             Opt.Rle.kill_set oracle modref,
             Reference.tbaa_kills oracle modref ))
         oracle_kinds
  in
  let non_empty = ref 0 in
  List.iter
    (fun proc ->
      List.iter
        (fun (rule, kills, ref_kills) ->
          let built = Opt.Rle.availability tenv proc ~kills in
          List.iter
            (fun (conf, confluence) ->
              let where =
                Printf.sprintf "%s %s %s %s" label (Ident.name proc.Cfg.pr_name) rule conf
              in
              let want = Reference.build_avail tenv proc ~confluence ~kills:ref_kills in
              let universe exprs = String.concat ", " (List.map Apath.to_string exprs) in
              let want_exprs = universe (Vec.to_list want.Reference.av_exprs) in
              let check_universe got =
                if got <> want_exprs then
                  Alcotest.failf "%s: universe [%s], expected [%s]" where got want_exprs
              in
              match built with
              | None -> check_universe ""
              | Some av ->
                check_universe (universe (Array.to_list av.Opt.Rle.av_exprs));
                let tr = av.Opt.Rle.av_transfers in
                let inn = (Opt.Rle.solve proc tr confluence).Dataflow.inn in
                Vec.iter
                  (fun b ->
                    let got = Opt.Rle.replay tr b inn.(b.Cfg.b_id) (fun a _ -> Bitset.copy a) in
                    List.iter2
                      (fun (instr, got) want ->
                        if not (Bitset.equal got want) then
                          Alcotest.failf "%s: facts before %a: %a, expected %a" where Instr.pp
                            instr Bitset.pp got Bitset.pp want;
                        if not (Bitset.is_empty got) then incr non_empty)
                      (List.combine b.Cfg.b_instrs got)
                      (Reference.avail_before want proc b.Cfg.b_id))
                  proc.Cfg.pr_blocks)
            [ ("must", Dataflow.Must); ("may", Dataflow.May) ])
        rules)
    program.Cfg.prog_procs;
  !non_empty

let test_availability_programs () =
  let gen =
    List.init 50 (fun seed ->
        ( Printf.sprintf "gen seed=%d" seed,
          fun () ->
            Lower.lower_string ~file:"<gen>"
              (Gen.Generator.generate ~size:3 seed).Gen.Generator.source ))
  in
  let workloads =
    List.map
      (fun (w : Workloads.Workload.t) ->
        (w.Workloads.Workload.name, fun () -> Workloads.Workload.lower w))
      Workloads.Suite.all
  in
  let scale = ("scale 200", fun () -> Lower.lower_string ~file:"<scale>" (Gen.Scale.source 200)) in
  (* Lowering loads into fresh temporaries, so no lowered load reads its
     own destination; fusing [t := load AP; v := t] into [v := load AP]
     where AP reads [v] makes such loads, whose gens the builder must
     guard. Each program is checked as lowered, fused, and after the full
     stack (the classifier reads optimized programs). *)
  let fused = ref 0 in
  let fuse program =
    List.iter
      (fun proc ->
        Vec.iter
          (fun b ->
            let rec go = function
              | Instr.Iload (t, ap) :: Instr.Iassign (v, Instr.Ratom (Reg.Avar t')) :: rest
                when Reg.var_equal t t' && List.exists (Reg.var_equal v) (Apath.vars_used ap)
                ->
                incr fused;
                Instr.Iload (v, ap) :: go rest
              | i :: rest -> i :: go rest
              | [] -> []
            in
            b.Cfg.b_instrs <- go b.Cfg.b_instrs)
          proc.Cfg.pr_blocks)
      program.Cfg.prog_procs
  in
  let full =
    Opt.Pass_manager.schedule
      { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
        slf = true; rle = true; copyprop = true; dse = true; local_cse = true }
  in
  List.iter
    (fun (name, program) ->
      let program = program () in
      let lowered = check_availability name program in
      fuse program;
      ignore (check_availability (name ^ " fused") program);
      ignore (Opt.Pass_manager.run (Opt.Pass.create ()) program full);
      let optimized = check_availability (name ^ " optimized") program in
      if not (String.starts_with ~prefix:"gen" name) then
        Alcotest.(check bool) (name ^ ": some fact is non-empty") true
          (lowered > 0 && optimized > 0))
    ((scale :: workloads) @ gen);
  Alcotest.(check bool) "some load was fused" true (!fused > 0)

(* --- dead-code elimination ------------------------------------------------ *)

let test_dce_removes_dead_chain () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER; c: INTEGER;
  BEGIN
    a := n.val;   (* dead: feeds only b *)
    b := a + 1;   (* dead: feeds only c *)
    c := b * 2;   (* dead: never used *)
    sink := 7;
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let reports = Passes.run program [ Reference.Dce.pass ] in
  (* a's load, b's and c's ALU ops, plus the lowering temporaries. *)
  Alcotest.(check bool) "removed the dead chain" true
    (Passes.stat reports Reference.Dce.pass "removed" >= 3);
  Alcotest.(check string) "behaviour preserved" before (run_out program);
  let p = proc_named program "P" in
  let loads = ref 0 in
  Cfg.iter_instrs p (fun _ i ->
      match i with Instr.Iload _ -> incr loads | _ -> ());
  Alcotest.(check int) "dead load gone" 0 !loads

let test_dce_keeps_effects () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; g: INTEGER;
PROCEDURE Effect (): INTEGER =
  BEGIN
    g := g + 1;
    RETURN g;
  END Effect;
PROCEDURE P () =
  VAR dead: INTEGER;
  BEGIN
    dead := Effect ();  (* result dead, call must stay *)
    n.val := 5;         (* store must stay *)
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (g + n.val);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  ignore (Passes.run program [ Reference.Dce.pass ]);
  Alcotest.(check string) "effects survive" before (run_out program);
  Alcotest.(check string) "output is 6" "6" before

let test_dce_fixpoint_on_workload () =
  (* Running DCE twice must find nothing the second time. *)
  let w = Workloads.Suite.find "format" in
  let program = Workloads.Workload.lower w in
  ignore (Passes.run program [ Reference.Dce.pass ]);
  let second = Passes.run program [ Reference.Dce.pass ] in
  Alcotest.(check int) "idempotent" 0
    (Passes.stat second Reference.Dce.pass "removed")

(* --- new TBAA clients: DSE, SLF, LICM ---------------------------------- *)

(* Run one client alone; the first component reads its counters. *)
let client_with pass src oracle_kind =
  let program = lower src in
  let before = run_out program in
  let reports = Passes.run ~oracle_kind program [ pass ] in
  let after = run_out program in
  (Passes.stat reports pass, before, after)

let test_dse_removes_overwritten_store () =
  let stats, before, after =
    client_with
      Opt.Dse.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  BEGIN
    n.val := 1;   (* dead: overwritten below, nothing reads in between *)
    sink := 3;
    n.val := 2;
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (n.val + sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "dead store removed" 1 (stats "removed");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 5" "5" before

let test_dse_kept_by_may_alias_load () =
  (* The intervening load goes through another name for the same object:
     every oracle must keep the first store. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P () =
  BEGIN
    n.val := 1;
    sink := m.val;   (* may alias n.val — reads the 1 *)
    n.val := 2;
  END P;
BEGIN
  n := NEW (Node);
  m := n;
  P ();
  PrintInt (n.val * 10 + sink);
END M.
|}
  in
  List.iter
    (fun kind ->
      let stats, before, after =
        client_with Opt.Dse.pass src kind
      in
      Alcotest.(check int) "store kept" 0 (stats "removed");
      Alcotest.(check string) "behaviour preserved" before after;
      Alcotest.(check string) "output is 21" "21" before)
    [ sm; td ]

let test_dse_kept_by_reading_call () =
  (* Regression (fuzz seed 58): the callee reads the cell only through an
     address computation's navigation (NUMBER takes the array's address),
     so the interprocedural ref summary must cover navigation reads. *)
  let stats, before, after =
    client_with
      Opt.Dse.pass
      {|
MODULE M;
TYPE Arr = REF ARRAY OF INTEGER;
TYPE Box = OBJECT buf: Arr; END;
VAR b: Box; sink: INTEGER;
PROCEDURE Len (): INTEGER = BEGIN RETURN Number (b.buf); END Len;
PROCEDURE P () =
  BEGIN
    b.buf := NEW (Arr, 3);
    sink := Len ();
    b.buf := NEW (Arr, 5);
  END P;
BEGIN
  b := NEW (Box);
  P ();
  PrintInt (sink + Number (b.buf));
END M.
|}
      sm
  in
  Alcotest.(check int) "store read by call kept" 0 (stats "removed");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 8" "8" before

let test_dse_kept_by_prefix_store () =
  (* Regression: an intervening store that rewrites the prefix pointer
     cell changes what the tracked path denotes — the later store to the
     same syntactic path overwrites a *different* cell, so the first
     store's value stays observable through the old pointer and the store
     must be kept. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
TYPE Box = OBJECT ptr: Node; END;
VAR b: Box; orig: Node; other: Node;
PROCEDURE P () =
  BEGIN
    b.ptr.val := 1;   (* must stay: b.ptr is redirected below *)
    b.ptr := other;   (* the path now denotes other.val *)
    b.ptr.val := 2;
  END P;
BEGIN
  b := NEW (Box);
  orig := NEW (Node);
  other := NEW (Node);
  b.ptr := orig;
  P ();
  PrintInt (orig.val * 10 + b.ptr.val);
END M.
|}
  in
  List.iter
    (fun kind ->
      let stats, before, after =
        client_with Opt.Dse.pass src kind
      in
      Alcotest.(check int) "store kept" 0 (stats "removed");
      Alcotest.(check string) "behaviour preserved" before after;
      Alcotest.(check string) "output is 12" "12" before)
    [ sm; td ]

let test_dse_kept_by_redirecting_call () =
  (* Regression: the intervening call *writes* the path's global base
     variable (a mod, not a ref) — afterwards n.val denotes a different
     cell, so the later store is no overwrite and the first must stay. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; other: Node; orig: Node;
PROCEDURE Swap () = BEGIN n := other; END Swap;
PROCEDURE P () =
  BEGIN
    n.val := 1;   (* must stay: Swap redirects n below *)
    Swap ();
    n.val := 2;
  END P;
BEGIN
  n := NEW (Node);
  other := NEW (Node);
  orig := n;
  P ();
  PrintInt (orig.val * 10 + n.val);
END M.
|}
  in
  List.iter
    (fun kind ->
      let stats, before, after =
        client_with Opt.Dse.pass src kind
      in
      Alcotest.(check int) "store kept" 0 (stats "removed");
      Alcotest.(check string) "behaviour preserved" before after;
      Alcotest.(check string) "output is 12" "12" before)
    [ sm; td ]

let test_slf_forwards_stored_atom () =
  let stats, before, after =
    client_with
      Opt.Slf.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  VAR x: INTEGER;
  BEGIN
    n.val := 3;
    x := n.val;   (* forwarded: x := 3, no load *)
    sink := x;
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "load forwarded" 1 (stats "forwarded");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 3" "3" before

let test_slf_blocked_by_supertype_store () =
  (* The intervening store goes through a supertype-typed name for the
     same field; the binding must die under every oracle. *)
  let src =
    {|
MODULE M;
TYPE A = OBJECT val: INTEGER; END;
TYPE B = A OBJECT END;
VAR pa: A; pb: B; sink: INTEGER;
PROCEDURE P () =
  VAR x: INTEGER;
  BEGIN
    pb.val := 1;
    pa.val := 2;   (* same object, supertype path *)
    x := pb.val;
    sink := x;
  END P;
BEGIN
  pb := NEW (B);
  pa := pb;
  P ();
  PrintInt (sink);
END M.
|}
  in
  List.iter
    (fun kind ->
      let stats, before, after =
        client_with Opt.Slf.pass src kind
      in
      Alcotest.(check int) "forwarding blocked" 0 (stats "forwarded");
      Alcotest.(check string) "behaviour preserved" before after;
      Alcotest.(check string) "output is 2" "2" before)
    [ sm; td ]

let test_slf_blocked_by_byref_atom_write () =
  (* Regression (fuzz seed 176): the stored atom is a global mutated by
     the callee through a VAR formal — forwarding it past the call would
     resurrect the stale value. *)
  let stats, before, after =
    client_with
      Opt.Slf.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; g: INTEGER; sink: INTEGER;
PROCEDURE Bump (VAR z: INTEGER) = BEGIN z := 9; END Bump;
PROCEDURE P () =
  VAR x: INTEGER;
  BEGIN
    n.val := g;
    Bump (g);
    x := n.val;   (* must reload: g no longer holds the stored value *)
    sink := x;
  END P;
BEGIN
  n := NEW (Node);
  g := 4;
  P ();
  PrintInt (sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "stale atom not forwarded" 0 (stats "forwarded");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 4" "4" before

let test_licm_hoists_invariant_load () =
  let stats, before, after =
    client_with
      Opt.Licm.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (k: INTEGER) =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 1 TO k DO
      s := s + n.val;   (* invariant: nothing in the loop writes it *)
    END;
    sink := s;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 2;
  P (3);
  PrintInt (sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "load hoisted" 1 (stats "hoisted");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 6" "6" before

let test_licm_blocked_by_modding_call () =
  (* The in-loop call's transitive Effects summary writes the loaded
     cell's class, so the load is not invariant. *)
  let stats, before, after =
    client_with
      Opt.Licm.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE Bump () = BEGIN n.val := n.val + 1; END Bump;
PROCEDURE P (k: INTEGER) =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 1 TO k DO
      s := s + n.val;
      Bump ();
    END;
    sink := s;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 1;
  P (3);
  PrintInt (sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "hoist blocked" 0 (stats "hoisted");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 6" "6" before

let test_clients_record_claim_kinds () =
  (* Each client attributes its oracle bets in the shared ledger, so an
     audit violation can name the pass that relied on the answer. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
TYPE Other = OBJECT w: INTEGER; END;
VAR n: Node; o: Other; sink: INTEGER;
PROCEDURE P (k: INTEGER) =
  VAR x: INTEGER;
  BEGIN
    n.val := 1;
    o.w := 2;       (* disjoint classes: the clients bet on no-alias *)
    x := n.val;
    FOR i := 1 TO k DO
      sink := sink + o.w;
    END;
    n.val := x;
  END P;
BEGIN
  n := NEW (Node);
  o := NEW (Other);
  P (2);
  PrintInt (sink + n.val);
END M.
|}
  in
  let kinds_used pass kind =
    let claims = Tbaa.Claims.create ~oracle:"SMFieldTypeRefs" in
    ignore (Passes.run ~claims (lower src) [ pass ]);
    let pairs = Tbaa.Claims.disjoint_pairs claims in
    Alcotest.(check bool)
      (kind ^ " made at least one no-alias bet")
      true (pairs <> []);
    List.for_all
      (fun (p1, p2) ->
        List.for_all
          (fun k -> String.equal k kind)
          (Tbaa.Claims.kinds claims p1 p2))
      pairs
  in
  Alcotest.(check bool) "dse bets carry kind dse" true
    (kinds_used Opt.Dse.pass "dse");
  Alcotest.(check bool) "slf bets carry kind slf" true
    (kinds_used Opt.Slf.pass "slf");
  Alcotest.(check bool) "licm bets carry kind licm" true
    (kinds_used Opt.Licm.pass "licm")

(* --- pipeline ----------------------------------------------------------- *)

let test_pipeline_full () =
  let program = lower devirt_src in
  let before = run_out program in
  let reports =
    Opt.Pass_manager.run (Opt.Pass.create ()) program
      (Opt.Pass_manager.schedule
         { Opt.Pass_manager.Config.none with
           Opt.Pass_manager.Config.devirt_inline = true; rle = true })
  in
  Alcotest.(check bool) "devirt ran" true
    (Opt.Pass_manager.ran "devirt" reports);
  Alcotest.(check string) "behaviour preserved" before (run_out program)

(* --- pass manager ------------------------------------------------------ *)

let rle_triple reports =
  if not (Opt.Pass_manager.ran "rle" reports) then
    Alcotest.fail "expected RLE reports";
  let sum stat = Opt.Pass_manager.sum_stat "rle" stat reports in
  (sum "hoisted", sum "eliminated", sum "shortened")

let triple = Alcotest.(triple int int int)

(* Counts pinned from the seed pipeline on the benchmark suite: the
   pass-manager rewrite must reproduce them exactly. *)
let test_passmgr_seed_counts () =
  let w name = Workloads.Suite.find name in
  let sm_cfg = Harness.Runner.rle_with Opt.Pass.Osm_field_type_refs in
  let with_cfg (c : Harness.Runner.config) f =
    { c with Harness.Runner.passes = f c.Harness.Runner.passes }
  in
  let optimize w c = Harness.Runner.optimize c (Workloads.Workload.lower w) in
  let reports = optimize (w "m3cg") sm_cfg in
  Alcotest.check triple "m3cg rle:SM" (4, 15, 17) (rle_triple reports);
  let reports =
    optimize (w "pp")
      (with_cfg sm_cfg (fun p -> { p with Opt.Pass_manager.Config.copyprop = true }))
  in
  Alcotest.check triple "pp rle:SM+cp" (3, 9, 0) (rle_triple reports);
  let reports =
    optimize (w "format")
      (with_cfg Harness.Runner.base (fun p ->
           { p with Opt.Pass_manager.Config.devirt_inline = true }))
  in
  Alcotest.(check (list bool)) "format minv ran devirt and inline"
    [ true; true ]
    [ Opt.Pass_manager.ran "devirt" reports;
      Opt.Pass_manager.ran "inline" reports ];
  Alcotest.(check int) "format minv resolved" 0
    (Opt.Pass_manager.sum_stat "devirt" "resolved" reports);
  Alcotest.(check int) "format minv unresolved" 0
    (Opt.Pass_manager.first_stat "devirt" "unresolved" reports);
  Alcotest.(check int) "format minv inlined" 9
    (Opt.Pass_manager.sum_stat "inline" "inlined" reports);
  let reports =
    optimize (w "dformat")
      (with_cfg sm_cfg (fun p ->
           { p with Opt.Pass_manager.Config.devirt_inline = true }))
  in
  Alcotest.check triple "dformat rle:SM+minv" (10, 20, 2) (rle_triple reports);
  Alcotest.(check int) "dformat minv unresolved (first leg)" 6
    (Opt.Pass_manager.first_stat "devirt" "unresolved" reports)

(* The seed pipeline spliced a second RLE harvest into the first run's
   mutable record, so any aggregation that walked both saw the second leg
   twice. Reports are immutable: each execution contributes exactly once,
   and aggregation is reproducible. *)
let test_reports_no_double_counting () =
  let w = Workloads.Suite.find "pp" in
  let config =
    let c = Harness.Runner.rle_with Opt.Pass.Osm_field_type_refs in
    { c with
      Harness.Runner.passes =
        { c.Harness.Runner.passes with Opt.Pass_manager.Config.copyprop = true } }
  in
  let reports = Harness.Runner.optimize config (Workloads.Workload.lower w) in
  let rle_reports = Opt.Pass_manager.reports_for "rle" reports in
  Alcotest.(check bool) "RLE ran more than once" true
    (List.length rle_reports >= 2);
  let per_report =
    List.fold_left
      (fun acc r ->
        acc + Opt.Pass.stat r "hoisted" + Opt.Pass.stat r "eliminated"
        + Opt.Pass.stat r "shortened")
      0 rle_reports
  in
  let aggregate =
    Opt.Pass_manager.sum_stat "rle" "hoisted" reports
    + Opt.Pass_manager.sum_stat "rle" "eliminated" reports
    + Opt.Pass_manager.sum_stat "rle" "shortened" reports
  in
  Alcotest.(check int) "legs sum exactly once" per_report aggregate;
  Alcotest.(check int) "aggregation is stable" aggregate
    (Opt.Pass_manager.sum_stat "rle" "hoisted" reports
    + Opt.Pass_manager.sum_stat "rle" "eliminated" reports
    + Opt.Pass_manager.sum_stat "rle" "shortened" reports)

let () =
  Alcotest.run "opt"
    [ ( "modref",
        [ Alcotest.test_case "transitive" `Quick test_modref_transitive;
          Alcotest.test_case "kills across calls" `Quick
            test_modref_kills_loads_across_calls ] );
      ( "rle",
        [ Alcotest.test_case "figure 6: hoist" `Quick test_rle_hoists_invariant_prefix;
          Alcotest.test_case "figure 7: prefix cse" `Quick test_rle_cse_prefix;
          Alcotest.test_case "full cse" `Quick test_rle_cse_full;
          Alcotest.test_case "untouched procedure identical" `Quick
            test_rle_untouched_proc_identical;
          Alcotest.test_case "store forwarding" `Quick test_rle_store_forwarding;
          Alcotest.test_case "killed by alias" `Quick test_rle_killed_by_may_alias_store;
          Alcotest.test_case "independent store" `Quick
            test_rle_not_killed_by_independent_store;
          Alcotest.test_case "precision ordering" `Quick
            test_rle_precision_ordering_on_counts;
          Alcotest.test_case "conditional kept" `Quick test_rle_conditional_not_eliminated ] );
      ( "devirt/inline",
        [ Alcotest.test_case "monomorphic resolved" `Quick test_devirt_resolves_monomorphic;
          Alcotest.test_case "polymorphic kept" `Quick test_devirt_keeps_polymorphic;
          Alcotest.test_case "inline small" `Quick test_inline_small_proc;
          Alcotest.test_case "inline recursion" `Quick test_inline_respects_recursion;
          Alcotest.test_case "inline VAR param" `Quick test_inline_byref_param ] );
      ( "future work",
        [ Alcotest.test_case "PRE recovers conditional" `Quick
            test_pre_recovers_conditional;
          Alcotest.test_case "PRE profitability guard" `Quick
            test_pre_skips_unprofitable;
          Alcotest.test_case "copyprop + breakup" `Quick
            test_copyprop_enables_breakup_recovery;
          Alcotest.test_case "copyprop kill" `Quick
            test_copyprop_respects_redefinition ] );
      ( "copyprop",
        [ Alcotest.test_case "repeated copy" `Quick test_copyprop_repeated_copy;
          Alcotest.test_case "chain past the bound" `Quick
            test_copyprop_long_chain;
          Alcotest.test_case "source redefined" `Quick
            test_copyprop_source_redefined;
          Alcotest.test_case "null zone: seed 5047 (rle+copyprop)" `Quick
            (null_zone_case "TypeDecl:rle+copyprop" null_zone_5047);
          Alcotest.test_case "null zone: seed 3045 (all passes)" `Quick
            (null_zone_case "TypeDecl:all" null_zone_3045) ] );
      ( "kill index",
        [ Alcotest.test_case "memory-resident defs" `Quick
            test_kill_index_memory_defs;
          Alcotest.test_case "index = per-expression kills" `Slow
            test_kill_index_programs ] );
      ( "availability",
        [ Alcotest.test_case "builder = per-pair replay" `Slow
            test_availability_programs ] );
      ( "dce",
        [ Alcotest.test_case "dead chain" `Quick test_dce_removes_dead_chain;
          Alcotest.test_case "effects kept" `Quick test_dce_keeps_effects;
          Alcotest.test_case "idempotent" `Quick test_dce_fixpoint_on_workload ] );
      ( "dse",
        [ Alcotest.test_case "removes overwritten" `Quick
            test_dse_removes_overwritten_store;
          Alcotest.test_case "kept by aliasing load" `Quick
            test_dse_kept_by_may_alias_load;
          Alcotest.test_case "kept by reading call" `Quick
            test_dse_kept_by_reading_call;
          Alcotest.test_case "kept by prefix store" `Quick
            test_dse_kept_by_prefix_store;
          Alcotest.test_case "kept by redirecting call" `Quick
            test_dse_kept_by_redirecting_call ] );
      ( "slf",
        [ Alcotest.test_case "forwards stored atom" `Quick
            test_slf_forwards_stored_atom;
          Alcotest.test_case "blocked by supertype store" `Quick
            test_slf_blocked_by_supertype_store;
          Alcotest.test_case "blocked by byref atom write" `Quick
            test_slf_blocked_by_byref_atom_write ] );
      ( "licm",
        [ Alcotest.test_case "hoists invariant load" `Quick
            test_licm_hoists_invariant_load;
          Alcotest.test_case "blocked by modding call" `Quick
            test_licm_blocked_by_modding_call ] );
      ( "claims",
        [ Alcotest.test_case "clients record kinds" `Quick
            test_clients_record_claim_kinds ] );
      ( "pipeline",
        [ Alcotest.test_case "full pipeline" `Quick test_pipeline_full ] );
      ( "pass manager",
        [ Alcotest.test_case "seed counts reproduced" `Quick
            test_passmgr_seed_counts;
          Alcotest.test_case "no double counting" `Quick
            test_reports_no_double_counting ] ) ]
