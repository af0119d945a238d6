(* Deterministic scaled corpus: [n] worker procedures over a fixed type
   universe and library layer. Unlike {!Generator} there is no randomness
   at all — the same [n] always yields byte-identical source — so
   benchmark runs and their snapshots are comparable across sessions.

   Shape (all indices deterministic in the procedure number):
   - a 200-deep single-inheritance object chain T0 <: ... <: T199 with one
     integer field, and one global per type — the regime where TBAA
     precision depends on real subtype structure;
   - [lib_procs] library procedures L0.. with a VAR formal (so lowering
     takes addresses and the open-world AddressTaken rule has fuel), each
     writing its own global;
   - [n] workers P0..P{n-1}: allocation, a subtype-compatible global-to-
     global assignment, a field load and store, and two library calls —
     so the call graph is a bipartite P -> L layer (acyclic; every SCC is
     a singleton) and each worker's merged mod-ref view unions exactly
     three direct summaries;
   - a main body calling a fixed slice of workers, keeping the program
     runnable and its output finite. *)

let types = 200
let lib_procs = 32
let main_calls = 8

let source n =
  let n = max 1 n in
  let buf = Buffer.create (4096 + (n * 256)) in
  Buffer.add_string buf "MODULE Scale;\nTYPE\n  T0 = OBJECT a: INTEGER; END;\n";
  for i = 1 to types - 1 do
    Buffer.add_string buf (Printf.sprintf "  T%d = T%d OBJECT END;\n" i (i - 1))
  done;
  Buffer.add_string buf "VAR\n";
  for i = 0 to types - 1 do
    Buffer.add_string buf (Printf.sprintf "  g%d: T%d;\n" i i)
  done;
  for j = 0 to lib_procs - 1 do
    let t = j mod types in
    Buffer.add_string buf
      (Printf.sprintf
         "PROCEDURE L%d (VAR x: INTEGER) =\n\
         \  BEGIN\n\
         \    x := x + 1;\n\
         \    g%d := NEW (T%d);\n\
         \    g%d.a := x;\n\
         \  END L%d;\n"
         j t t t j)
  done;
  for i = 0 to n - 1 do
    let t = i mod types in
    Buffer.add_string buf
      (Printf.sprintf
         "PROCEDURE P%d () =\n\
         \  VAR x: INTEGER;\n\
         \  BEGIN\n\
         \    g%d := NEW (T%d);\n\
         \    g%d := g%d;\n\
         \    x := g%d.a;\n\
         \    g%d.a := x + %d;\n\
         \    L%d (x);\n\
         \    L%d (x);\n\
         \  END P%d;\n"
         i t t
         (max 0 (t - 1))
         t t t (i mod 7)
         (i mod lib_procs)
         ((i + 7) mod lib_procs)
         i)
  done;
  Buffer.add_string buf "BEGIN\n";
  for i = 0 to min main_calls n - 1 do
    Buffer.add_string buf (Printf.sprintf "  P%d ();\n" i)
  done;
  Buffer.add_string buf "END Scale.\n";
  Buffer.contents buf

(* The type axis: an [n]-deep chain T0 <: ... <: T{n-1}, one global per
   type and one procedure per type that allocates, upcasts its global
   into its supertype's (a merge for SMTypeRefs) and reads and writes the
   inherited field. Types, globals and instructions all grow linearly
   with n. *)
let type_chain n =
  let n = max 1 n in
  let buf = Buffer.create (4096 + (n * 160)) in
  Buffer.add_string buf "MODULE Scale;\nTYPE\n  T0 = OBJECT a: INTEGER; END;\n";
  for i = 1 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  T%d = T%d OBJECT END;\n" i (i - 1))
  done;
  Buffer.add_string buf "VAR\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "  g%d: T%d;\n" i i)
  done;
  for i = 0 to n - 1 do
    Buffer.add_string buf
      (Printf.sprintf
         "PROCEDURE P%d () =\n\
         \  VAR x: INTEGER;\n\
         \  BEGIN\n\
         \    g%d := NEW (T%d);\n\
         \    g%d := g%d;\n\
         \    x := g%d.a;\n\
         \    g%d.a := x + 1;\n\
         \  END P%d;\n"
         i i i (max 0 (i - 1)) i i i i)
  done;
  Buffer.add_string buf "BEGIN\nEND Scale.\n";
  Buffer.contents buf
