(* Tests for the IR layer: lowering shapes, access paths, dominators,
   loops, dataflow, and the call graph. *)

open Support
open Minim3
open Ir

let lower src = Lower.lower_string ~file:"test" src

let proc_named program name = Cfg.find_proc program (Ident.intern name)

let loads_of proc =
  let acc = ref [] in
  Cfg.iter_instrs proc (fun _ i ->
      match i with Instr.Iload (_, ap) -> acc := ap :: !acc | _ -> ());
  List.rev !acc

let stores_of proc =
  let acc = ref [] in
  Cfg.iter_instrs proc (fun _ i ->
      match i with Instr.Istore (ap, _) -> acc := ap :: !acc | _ -> ());
  List.rev !acc

(* --- access paths ----------------------------------------------------- *)

let test_apath_shapes () =
  let program =
    lower
      {|
MODULE M;
TYPE
  Inner = RECORD w: INTEGER; END;
  Node = OBJECT val: Inner; next: Node; END;
VAR head: Node;
PROCEDURE P () =
  VAR n: INTEGER;
  BEGIN
    n := head.next.val.w;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  match loads_of p with
  | [ ap ] ->
    Alcotest.(check string) "full path kept in one load" "head.next.val.w"
      (Apath.to_string ap);
    Alcotest.(check int) "three selectors" 3 (Apath.length ap);
    Alcotest.(check int) "three prefixes" 3 (List.length (Apath.prefixes ap))
  | aps ->
    Alcotest.fail
      (Printf.sprintf "expected one load, got %d" (List.length aps))

let test_apath_equality_on_indices () =
  let program =
    lower
      {|
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V;
PROCEDURE P (i: INTEGER; j: INTEGER) =
  VAR n: INTEGER;
  BEGIN
    n := v[i];
    n := v[i];
    n := v[j];
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  match loads_of p with
  | [ a; b; c ] ->
    Alcotest.(check bool) "v[i] = v[i]" true (Apath.equal a b);
    Alcotest.(check bool) "v[i] <> v[j]" false (Apath.equal a c)
  | _ -> Alcotest.fail "expected three loads"

let test_byref_formal_is_deref () =
  let program =
    lower
      {|
MODULE M;
PROCEDURE P (VAR x: INTEGER) =
  VAR n: INTEGER;
  BEGIN
    n := x;
    x := n + 1;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  (match loads_of p with
  | [ ap ] -> (
    match Apath.last ap with
    | Some (Apath.Sderef t) ->
      Alcotest.(check int) "deref of INTEGER" Types.tid_int t
    | _ -> Alcotest.fail "expected a dereference path")
  | _ -> Alcotest.fail "expected one load");
  match stores_of p with
  | [ ap ] ->
    Alcotest.(check bool) "store through deref" true
      (match Apath.last ap with Some (Apath.Sderef _) -> true | _ -> false)
  | _ -> Alcotest.fail "expected one store"

let test_with_alias_takes_address () =
  let program =
    lower
      {|
MODULE M;
TYPE R = RECORD x: INTEGER; END; PR = REF R;
VAR p: PR;
PROCEDURE P () =
  BEGIN
    WITH slot = p.x DO
      slot := 3;
    END;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  let addrs = ref [] in
  Cfg.iter_instrs p (fun _ i ->
      match i with Instr.Iaddr (_, ap) -> addrs := ap :: !addrs | _ -> ());
  match !addrs with
  | [ ap ] ->
    Alcotest.(check bool) "address of a field" true
      (match Apath.last ap with Some (Apath.Sfield _) -> true | _ -> false)
  | _ -> Alcotest.fail "expected exactly one Iaddr"

let test_short_circuit_blocks () =
  let program =
    lower
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node;
PROCEDURE P (): BOOLEAN =
  BEGIN
    RETURN (n # NIL) AND (n.val > 0);
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  (* The n.val load must be control-dependent on the NIL test: it must not
     be in the entry block. *)
  let entry = Cfg.block p p.Cfg.pr_entry in
  let entry_has_load =
    List.exists (function Instr.Iload _ -> true | _ -> false) entry.Cfg.b_instrs
  in
  Alcotest.(check bool) "no load in entry block" false entry_has_load;
  Alcotest.(check bool) "several blocks" true (Cfg.n_blocks p >= 3)

(* --- dominators / loops ----------------------------------------------- *)

let diamond_proc () =
  (* Build a diamond manually: 0 -> 1,2 -> 3 *)
  let proc =
    { Cfg.pr_name = Ident.intern "diamond"; pr_params = [];
      pr_ret = None; pr_blocks = Vec.create (); pr_entry = 0; pr_locals = [] }
  in
  let b0 = Cfg.new_block proc (Instr.Treturn None) in
  let b1 = Cfg.new_block proc (Instr.Treturn None) in
  let b2 = Cfg.new_block proc (Instr.Treturn None) in
  let b3 = Cfg.new_block proc (Instr.Treturn None) in
  b0.Cfg.b_term <- Instr.Tbranch (Reg.Abool true, b1.Cfg.b_id, b2.Cfg.b_id);
  b1.Cfg.b_term <- Instr.Tjump b3.Cfg.b_id;
  b2.Cfg.b_term <- Instr.Tjump b3.Cfg.b_id;
  proc

let test_dominators_diamond () =
  let proc = diamond_proc () in
  let dom = Dom.compute proc in
  Alcotest.(check bool) "entry dominates all" true
    (Dom.dominates dom 0 3 && Dom.dominates dom 0 1 && Dom.dominates dom 0 2);
  Alcotest.(check bool) "1 does not dominate 3" false (Dom.dominates dom 1 3);
  Alcotest.(check (option int)) "idom of 3 is 0" (Some 0) (Dom.idom dom 3);
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom 3 3)

(* Dominators against the bit-vector baseline ([Reference.Dom]): every
   block pair's [dominates], every [idom] and [reachable]. *)
let check_dom_matches_reference label proc =
  let dom = Dom.compute proc and ref_dom = Reference.Dom.compute proc in
  let n = Cfg.n_blocks proc in
  for b = 0 to n - 1 do
    if Dom.reachable dom b <> Reference.Dom.reachable ref_dom b then
      Alcotest.failf "%s: reachable %d" label b;
    if Dom.idom dom b <> Reference.Dom.idom ref_dom b then
      Alcotest.failf "%s: idom %d" label b;
    for a = 0 to n - 1 do
      if Dom.dominates dom a b <> Reference.Dom.dominates ref_dom a b then
        Alcotest.failf "%s: dominates %d %d" label a b
    done
  done

(* The workloads, the scale document and generated seeds 0-99, as
   lowered and after the full schedule (inlining splits blocks, LICM and
   RLE add preheaders, PRE splits edges). *)
let test_dom_matches_reference_corpus () =
  let full =
    Opt.Pass_manager.schedule
      { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
        slf = true; rle = true; copyprop = true; dse = true; local_cse = true }
  in
  let corpus =
    List.map
      (fun (w : Workloads.Workload.t) ->
        (w.Workloads.Workload.name, fun () -> Workloads.Workload.lower w))
      Workloads.Suite.all
    @ [ ( "scale",
          fun () -> Lower.lower_string ~file:"<scale>" (Gen.Scale.source 200) ) ]
    @ List.init 100 (fun seed ->
          ( Printf.sprintf "seed %d" seed,
            fun () ->
              Lower.lower_string ~file:"<gen>"
                (Gen.Generator.generate ~size:3 seed).Gen.Generator.source ))
  in
  List.iter
    (fun (name, lower) ->
      let program = lower () in
      let check stage =
        List.iter
          (fun proc ->
            check_dom_matches_reference
              (Printf.sprintf "%s %s %s" name stage (Ident.name proc.Cfg.pr_name))
              proc)
          program.Cfg.prog_procs
      in
      check "lowered";
      ignore (Opt.Pass_manager.run (Opt.Pass.create ()) program full);
      check "optimized")
    corpus

(* Random CFGs: unreachable blocks, self-loops, irreducible regions and an
   entry with predecessors all arise from random edges and a random entry;
   the first cases pin the single-block procedure. *)
let test_dom_matches_reference_random () =
  let rand = Random.State.make [| 0xD0; 2001 |] in
  let entry_preds = ref 0 and unreachable = ref 0 and self_loops = ref 0 in
  for case = 0 to 2999 do
    let n = if case < 2 then 1 else 1 + Random.State.int rand 14 in
    let proc =
      { Cfg.pr_name = Ident.intern "random"; pr_params = []; pr_ret = None;
        pr_blocks = Vec.create (); pr_entry = 0; pr_locals = [] }
    in
    let blocks = Array.init n (fun _ -> Cfg.new_block proc (Instr.Treturn None)) in
    let target () = Random.State.int rand n in
    Array.iteri
      (fun i b ->
        b.Cfg.b_term <-
          (if case = 1 then Instr.Tjump i
           else
             match Random.State.int rand 5 with
             | 0 -> Instr.Treturn None
             | 1 | 2 -> Instr.Tjump (target ())
             | _ -> Instr.Tbranch (Reg.Abool true, target (), target ())))
      blocks;
    proc.Cfg.pr_entry <- Random.State.int rand n;
    let preds = Cfg.predecessors proc in
    if preds.(proc.Cfg.pr_entry) <> [] then incr entry_preds;
    if List.length (Cfg.reverse_postorder proc) < n then incr unreachable;
    if Array.exists (fun b -> List.mem b preds.(b)) (Array.init n Fun.id) then
      incr self_loops;
    check_dom_matches_reference (Printf.sprintf "random CFG %d" case) proc
  done;
  List.iter
    (fun (what, k) ->
      if k < 100 then Alcotest.failf "only %d random CFGs with %s" k what)
    [ ("an entry with predecessors", !entry_preds);
      ("unreachable blocks", !unreachable);
      ("self-loops", !self_loops) ]

let test_loops_in_while () =
  let program =
    lower
      {|
MODULE M;
PROCEDURE P (k: INTEGER): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE s < k DO
      s := s + 1;
    END;
    RETURN s;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  let dom = Dom.compute p in
  match Loops.find p dom with
  | [ loop ] ->
    Alcotest.(check bool) "header in body" true
      (Support.Bitset.mem loop.Loops.body loop.Loops.header);
    Alcotest.(check int) "one latch" 1 (List.length loop.Loops.latches);
    List.iter
      (fun latch ->
        Alcotest.(check bool) "header executes every iteration" true
          (Loops.executes_every_iteration p dom loop latch |> fun _ ->
           Loops.executes_every_iteration p dom loop loop.Loops.header))
      loop.Loops.latches
  | l -> Alcotest.fail (Printf.sprintf "expected one loop, got %d" (List.length l))

let test_preheader_insertion () =
  let program =
    lower
      {|
MODULE M;
PROCEDURE P (k: INTEGER): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE s < k DO s := s + 1; END;
    RETURN s;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  let dom = Dom.compute p in
  let loop = List.hd (Loops.find p dom) in
  let pre = Loops.ensure_preheader p loop in
  let preds = Cfg.predecessors p in
  let outside =
    List.filter
      (fun q -> not (Support.Bitset.mem loop.Loops.body q))
      preds.(loop.Loops.header)
  in
  Alcotest.(check (list int)) "unique outside predecessor" [ pre ] outside

(* --- dataflow ---------------------------------------------------------- *)

let test_dataflow_must_meet () =
  (* On the diamond, a fact gen'd in only one arm must not reach the join
     under Must, but must reach it under May. *)
  let proc = diamond_proc () in
  let gen b =
    let s = Support.Bitset.create 1 in
    if b = 1 then Support.Bitset.add s 0;
    s
  in
  let kill _ = Support.Bitset.create 1 in
  let must =
    Dataflow.run ~proc ~universe:1 ~confluence:Dataflow.Must ~gen ~kill
      ~entry_fact:(Support.Bitset.create 1) ()
  in
  let may =
    Dataflow.run ~proc ~universe:1 ~confluence:Dataflow.May ~gen ~kill
      ~entry_fact:(Support.Bitset.create 1) ()
  in
  Alcotest.(check bool) "must: not available at join" false
    (Support.Bitset.mem must.Dataflow.inn.(3) 0);
  Alcotest.(check bool) "may: available at join" true
    (Support.Bitset.mem may.Dataflow.inn.(3) 0)

let test_dataflow_backward_liveness () =
  (* Liveness-style backward problem over a real loop: a fact generated
     (used) in the loop body must flow backward through the header to the
     procedure entry, and a kill (definition) in the header must stop it. *)
  let program =
    lower
      {|
MODULE M;
PROCEDURE P (k: INTEGER): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE s < k DO s := s + 1; END;
    RETURN s;
  END P;
BEGIN END M.
|}
  in
  let proc = proc_named program "P" in
  let dom = Dom.compute proc in
  let loop = List.hd (Loops.find proc dom) in
  let body =
    (* a loop block that is not the header *)
    let b = ref (-1) in
    Support.Bitset.iter (fun q -> if q <> loop.Loops.header then b := q)
      loop.Loops.body;
    !b
  in
  Alcotest.(check bool) "loop has a non-header body block" true (body >= 0);
  let gen b =
    let s = Support.Bitset.create 1 in
    if b = body then Support.Bitset.add s 0;
    s
  in
  let no_kill _ = Support.Bitset.create 1 in
  let live =
    Dataflow.run_backward ~proc ~universe:1 ~confluence:Dataflow.May ~gen
      ~kill:no_kill ~exit_fact:(Support.Bitset.create 1) ()
  in
  Alcotest.(check bool) "live across the back edge" true
    (Support.Bitset.mem live.Dataflow.out.(loop.Loops.header) 0);
  Alcotest.(check bool) "live at procedure entry" true
    (Support.Bitset.mem live.Dataflow.inn.(proc.Cfg.pr_entry) 0);
  Alcotest.(check bool) "iteration count recorded" true
    (live.Dataflow.iterations >= 2);
  let kill_at_header b =
    let s = Support.Bitset.create 1 in
    if b = loop.Loops.header then Support.Bitset.add s 0;
    s
  in
  let before = Dataflow.counters () in
  let killed =
    Dataflow.run_backward ~proc ~universe:1 ~confluence:Dataflow.May ~gen
      ~kill:kill_at_header ~exit_fact:(Support.Bitset.create 1) ()
  in
  let d = Dataflow.diff_counters ~before ~after:(Dataflow.counters ()) in
  Alcotest.(check bool) "killed in header: dead at entry" false
    (Support.Bitset.mem killed.Dataflow.inn.(proc.Cfg.pr_entry) 0);
  Alcotest.(check int) "counters: one solve attributed" 1 d.Dataflow.solves;
  Alcotest.(check int) "counters: sweeps attributed" killed.Dataflow.iterations
    d.Dataflow.iterations

(* --- call graph -------------------------------------------------------- *)

let test_callgraph_virtual () =
  let program =
    lower
      {|
MODULE M;
TYPE
  A = OBJECT METHODS m (): INTEGER := ImplA; END;
  B = A OBJECT OVERRIDES m := ImplB; END;
VAR a: A;
PROCEDURE ImplA (self: A): INTEGER = BEGIN RETURN 1; END ImplA;
PROCEDURE ImplB (self: A): INTEGER = BEGIN RETURN 2; END ImplB;
PROCEDURE P (): INTEGER = BEGIN RETURN a.m (); END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  let callees = Callgraph.callees program p in
  Alcotest.(check (list string)) "both implementations possible"
    [ "ImplA"; "ImplB" ]
    (List.sort compare (List.map Ident.name (Ident.Set.elements callees)))

(* Virtual callees from one walk down the receiver's subtree equal the
   baseline that tests every type for a subtype: over the workloads, the
   scale document, generated programs and a 400-deep chain with one
   method on its root. *)
let test_callgraph_reference () =
  let check name program =
    let virtual_sites = ref 0 in
    List.iter
      (fun p ->
        Cfg.iter_instrs p (fun _ -> function
          | Instr.Icall (_, target, _) ->
            (match target with
            | Instr.Cvirtual _ -> incr virtual_sites
            | Instr.Cdirect _ -> ());
            Alcotest.(check (list string))
              (Printf.sprintf "%s: a call in %s" name (Ident.name p.Cfg.pr_name))
              (List.map Ident.name (Reference.callees_of_target program target))
              (List.map Ident.name (Callgraph.callees_of_target program target))
          | _ -> ()))
      program.Cfg.prog_procs;
    !virtual_sites
  in
  let sites =
    List.fold_left
      (fun n (w : Workloads.Workload.t) ->
        n + check w.Workloads.Workload.name (Workloads.Workload.lower w))
      0 Workloads.Suite.all
  in
  Alcotest.(check bool) "the workloads make virtual calls" true (sites > 0);
  ignore (check "scale 200" (Lower.lower_string ~file:"scale" (Gen.Scale.source 200)));
  let sites = ref 0 in
  for seed = 0 to 49 do
    let g = Gen.Generator.generate ~size:3 seed in
    sites :=
      !sites
      + check (Printf.sprintf "seed %d" seed)
          (Lower.lower_string ~file:g.Gen.Generator.module_name g.source)
  done;
  Alcotest.(check bool) "the seeds make virtual calls" true (!sites > 0);
  Alcotest.(check int) "a virtual call per chain procedure" 400
    (check "chain 400"
       (Lower.lower_string ~file:"chain" (Gen_prog.chain_with_method 400)))

(* Mutual recursion is one two-member component of the condensation, and
   the inliner reads recursion from it: neither Even nor Odd is unfolded,
   while the non-recursive Leaf is. *)
let test_callgraph_recursion () =
  let program =
    lower
      {|
MODULE M;
VAR r: INTEGER;
PROCEDURE Even (n: INTEGER): BOOLEAN =
  BEGIN
    IF n = 0 THEN RETURN TRUE; END;
    RETURN Odd (n - 1);
  END Even;
PROCEDURE Odd (n: INTEGER): BOOLEAN =
  BEGIN
    IF n = 0 THEN RETURN FALSE; END;
    RETURN Even (n - 1);
  END Odd;
PROCEDURE Leaf (): INTEGER = BEGIN RETURN 7; END Leaf;
BEGIN
  IF Even (10) THEN r := Leaf (); END;
  PrintInt (r);
END M.
|}
  in
  let cond = Callgraph.condense_program program in
  let comp name = Hashtbl.find cond.Callgraph.cond_index (Ident.intern name) in
  Alcotest.(check bool) "Even and Odd share a component" true
    (comp "Even" = comp "Odd");
  Alcotest.(check (list string)) "Leaf is alone" [ "Leaf" ]
    (List.map Ident.name cond.Callgraph.cond_comps.(comp "Leaf"));
  let calls_to name =
    List.fold_left
      (fun n proc ->
        let k = ref 0 in
        Cfg.iter_instrs proc (fun _ i ->
            match i with
            | Instr.Icall (_, Instr.Cdirect p, _)
              when Ident.equal p (Ident.intern name) ->
              incr k
            | _ -> ());
        n + !k)
      0 program.Cfg.prog_procs
  in
  let run () = (Sim.Interp.run program).Sim.Interp.output in
  let before = run () in
  let reports = Passes.run program [ Opt.Inline.pass ] in
  Alcotest.(check int) "only Leaf inlined" 1
    (Opt.Pass_manager.sum_stat "inline" "inlined" reports);
  Alcotest.(check (list int)) "Even and Odd calls kept" [ 2; 1; 0 ]
    [ calls_to "Even"; calls_to "Odd"; calls_to "Leaf" ];
  Alcotest.(check string) "output is 7" "7" before;
  Alcotest.(check string) "output unchanged" before (run ())

(* --- snapshots ---------------------------------------------------------- *)

(* A rollback undoes blocks added and blocks lost alike: the daemon's
   side optimization, the guarded pass runner and the benchmark's replay
   all rely on [Cfg.restore] to give back the lowering byte for byte. *)
let test_restore_regrows () =
  let program =
    lower
      {|
MODULE M;
VAR g: INTEGER;
PROCEDURE P (n: INTEGER) =
  BEGIN
    IF n > 0 AND g > 0 THEN g := n; ELSE g := 0; END;
  END P;
BEGIN P (1); END M.
|}
  in
  let text () = Format.asprintf "%a" Cfg.pp_program program in
  let before = text () in
  let p = proc_named program "P" in
  let n = Cfg.n_blocks p in
  let snap = Cfg.snapshot program in
  ignore (Cfg.new_block p (Instr.Treturn None));
  (Cfg.block p 0).Cfg.b_instrs <- [];
  Cfg.restore program snap;
  Alcotest.(check string) "added block dropped" before (text ());
  Vec.truncate p.Cfg.pr_blocks 1;
  Cfg.restore program snap;
  Alcotest.(check int) "lost blocks re-created" n (Cfg.n_blocks p);
  Alcotest.(check string) "lost blocks restored" before (text ())

(* --- the procedure index ---------------------------------------------- *)

(* [Cfg.find_proc_opt] against a scan of the list it indexes: the same
   procedure (physically) for every name, first binding first, and
   nothing for a name no procedure has. *)
let absent_name = Ident.intern "no procedure has this name"

let index_mismatches (program : Cfg.program) =
  List.filter
    (fun n ->
      let scan =
        List.find_opt (fun (p : Cfg.proc) -> Ident.equal p.Cfg.pr_name n)
          program.Cfg.prog_procs
      in
      not (Option.equal ( == ) scan (Cfg.find_proc_opt program n)))
    (absent_name :: List.map (fun (p : Cfg.proc) -> p.Cfg.pr_name) program.Cfg.prog_procs)

let check_index what program =
  match index_mismatches program with
  | [] -> ()
  | n :: _ -> Alcotest.failf "%s: the index and the list disagree on %s" what (Ident.name n)

let index_corpus () =
  List.map
    (fun (w : Workloads.Workload.t) -> (w.Workloads.Workload.name, w.source))
    Workloads.Suite.all
  @ [ ("scale200", Gen.Scale.source 200) ]
  @ List.init 50 (fun seed ->
        (Printf.sprintf "gen%d" seed, (Gen.Generator.generate ~size:3 seed).Gen.Generator.source))

let full_stack =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
      slf = true; rle = true; copyprop = true; dse = true; local_cse = true }

(* As lowered; with its first procedure dropped and then restored from a
   snapshot; after the full optimizer stack. *)
let test_index_lowered_restored_optimized () =
  List.iter
    (fun (name, source) ->
      let program = Lower.lower_string ~file:name source in
      check_index (name ^ " as lowered") program;
      let saved = Cfg.snapshot program in
      Cfg.set_procs program (List.tl program.Cfg.prog_procs);
      check_index (name ^ " with its first procedure dropped") program;
      Cfg.restore program saved;
      check_index (name ^ " restored") program;
      ignore (Opt.Pass_manager.run (Opt.Pass.create ()) program full_stack);
      check_index (name ^ " after the full stack") program)
    (index_corpus ())

(* A space after the first BEGIN inside a procedure declaration: an edit
   the store serves by splicing one re-lowered procedure into the list. *)
let body_edit source =
  let _, spans = Parser.parse_module_spans ~file:"doc" source in
  let inside (sp : Parser.span) =
    let rec go i =
      if i + 5 > sp.sp_stop - 1 then None
      else if String.sub source i 5 = "BEGIN" then Some (i + 5)
      else go (i + 1)
    in
    go sp.sp_start
  in
  List.find_map inside (Array.to_list spans)

let test_index_store_splice () =
  let st = Server.Store.create ~allow_inject:false () in
  List.iter
    (fun (name, source) ->
      match body_edit source with
      | None -> Alcotest.failf "%s: no procedure body to edit" name
      | Some at -> (
        (match Server.Store.open_or_update st ~name ~source ~inject:[] with
        | Server.Store.Updated d -> check_index (name ^ " opened") (Server.Store.program d)
        | _ -> Alcotest.failf "%s does not open" name);
        let before = Server.Store.program (Option.get (Server.Store.find st name)) in
        match Server.Store.change st ~name ~edits:[ (at, at, " ") ] with
        | Server.Store.Changed (Server.Store.Updated d) ->
          Alcotest.(check int) (name ^ ": the edit took the fast path") 1
            (Server.Store.edits_fast d);
          let after = Server.Store.program d in
          Alcotest.(check bool) (name ^ ": a new procedure list") true
            (after.Cfg.prog_procs != before.Cfg.prog_procs);
          check_index (name ^ " after a splice") after
        | _ -> Alcotest.failf "%s: the edit was not applied" name))
    (index_corpus ())

(* A list that names one procedure twice: a distinct copy put after the
   original, then before it. *)
let test_index_first_binding_wins () =
  List.iter
    (fun (name, source) ->
      let program = Lower.lower_string ~file:name source in
      let procs = program.Cfg.prog_procs in
      let first = List.hd procs in
      let copy = { first with Cfg.pr_entry = first.Cfg.pr_entry } in
      Cfg.set_procs program (procs @ [ copy ]);
      check_index (name ^ " with a later duplicate") program;
      Alcotest.(check bool) (name ^ ": the original wins") true
        (Cfg.find_proc program first.Cfg.pr_name == first);
      Cfg.set_procs program (copy :: procs);
      check_index (name ^ " with an earlier duplicate") program;
      Alcotest.(check bool) (name ^ ": the copy wins") true
        (Cfg.find_proc program first.Cfg.pr_name == copy))
    (index_corpus ())

(* Two domains look every name up at once, many times over. *)
let test_index_two_domains () =
  List.iter
    (fun (name, source) ->
      let program = Lower.lower_string ~file:name source in
      let reader () =
        let bad = ref 0 in
        for _ = 1 to 20 do
          bad := !bad + List.length (index_mismatches program)
        done;
        !bad
      in
      let other = Domain.spawn reader in
      let here = reader () in
      Alcotest.(check int) (name ^ ": mismatches on two domains") 0
        (here + Domain.join other))
    (index_corpus ())

let () =
  Alcotest.run "ir"
    [ ( "apath",
        [ Alcotest.test_case "shapes" `Quick test_apath_shapes;
          Alcotest.test_case "index equality" `Quick test_apath_equality_on_indices;
          Alcotest.test_case "byref formals" `Quick test_byref_formal_is_deref;
          Alcotest.test_case "WITH takes address" `Quick test_with_alias_takes_address;
          Alcotest.test_case "short circuit" `Quick test_short_circuit_blocks ] );
      ( "dom/loops",
        [ Alcotest.test_case "diamond dominators" `Quick test_dominators_diamond;
          Alcotest.test_case "dominators = reference on the corpus" `Slow
            test_dom_matches_reference_corpus;
          Alcotest.test_case "dominators = reference on random CFGs" `Quick
            test_dom_matches_reference_random;
          Alcotest.test_case "while loop" `Quick test_loops_in_while;
          Alcotest.test_case "preheader" `Quick test_preheader_insertion ] );
      ( "dataflow",
        [ Alcotest.test_case "must vs may" `Quick test_dataflow_must_meet;
          Alcotest.test_case "backward liveness with loop" `Quick
            test_dataflow_backward_liveness ] );
      ( "callgraph",
        [ Alcotest.test_case "virtual targets" `Quick test_callgraph_virtual;
          Alcotest.test_case "recursion" `Quick test_callgraph_recursion;
          Alcotest.test_case "virtual callees = reference" `Quick
            test_callgraph_reference ] );
      ( "snapshot",
        [ Alcotest.test_case "restore re-grows a shrunk procedure" `Quick
            test_restore_regrows ] );
      ( "proc index",
        [ Alcotest.test_case "= list scan: lowered, restored, optimized" `Slow
            test_index_lowered_restored_optimized;
          Alcotest.test_case "= list scan after a store splice" `Slow
            test_index_store_splice;
          Alcotest.test_case "first binding wins" `Quick test_index_first_binding_wins;
          Alcotest.test_case "two domains read at once" `Quick test_index_two_domains ] ) ]
