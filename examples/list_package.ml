(* The paper's Section 2.4 motivation: types are usually used far below
   their full generality, and watching the program's assignments proves it.

   Two scenarios, each run under all three analyses:
   - unrelated object types (FieldTypeDecl already separates the fields);
   - a subtype that is *declared* but never assigned into its supertype —
     only SMFieldTypeRefs keeps the load in a register across the update,
     because only it knows a Node-typed path cannot reach a Special.

     dune exec examples/list_package.exe *)

open Ir

let real_source =
  {|
MODULE ListPackage;
TYPE
  Node = OBJECT weight: INTEGER; next: Node; END;
  Counter = OBJECT clicks: INTEGER; END;
VAR
  basket: Node;
  clicker: Counter;
  sum: INTEGER;

PROCEDURE AddApple (w: INTEGER) =
  VAR n: Node;
  BEGIN
    n := NEW (Node);
    n.weight := w;
    n.next := basket;
    basket := n;
  END AddApple;

PROCEDURE WeighTwice () =
  VAR w1: INTEGER; w2: INTEGER;
  BEGIN
    w1 := basket.weight;
    clicker.clicks := clicker.clicks + 1;  (* cannot alias basket.weight *)
    w2 := basket.weight;                   (* redundant — if we can prove it *)
    sum := sum + w1 + w2;
  END WeighTwice;

BEGIN
  clicker := NEW (Counter);
  FOR i := 1 TO 40 DO
    AddApple (i);
  END;
  FOR i := 1 TO 200 DO
    WeighTwice ();
  END;
  PrintInt (sum); PrintLn ();
END ListPackage.
|}

let kinds =
  [ Tbaa.Engine.Type_decl; Tbaa.Engine.Field_type_decl;
    Tbaa.Engine.Sm_field_type_refs ]

(* RLE with one analysis: its oracle and mod-ref both come from the engine. *)
let rle program kind =
  let engine = Tbaa.Engine.create program in
  Opt.Rle.run ~modref:(Opt.Modref.of_engine engine kind) program
    (Tbaa.Engine.oracle engine kind)

let () =
  print_endline "List-package example (paper §2.4 motivation)\n";
  List.iter
    (fun kind ->
      let program = Lower.lower_string ~file:"list_package" real_source in
      let stats = rle program kind in
      let outcome = Sim.Interp.run program in
      Printf.printf
        "%-16s removed %d loads statically; dynamic heap loads: %d (output %s)\n"
        (Tbaa.Engine.kind_name kind)
        (Opt.Rle.removed stats)
        outcome.Sim.Interp.counters.Sim.Interp.heap_loads
        (String.trim outcome.Sim.Interp.output))
    kinds;
  print_endline
    "\nFieldTypeDecl already separates the two *fields*; try making the\n\
     counter a Node to see SMFieldTypeRefs earn its keep:";
  let tricky =
    {|
MODULE Tricky;
TYPE
  Node = OBJECT weight: INTEGER; next: Node; END;
  Special = Node OBJECT END;
VAR
  basket: Node;
  special: Special;
  sum: INTEGER;
PROCEDURE WeighTwice () =
  VAR w1: INTEGER; w2: INTEGER;
  BEGIN
    w1 := basket.weight;
    special.weight := special.weight + 1;
    w2 := basket.weight;
    sum := sum + w1 + w2;
  END WeighTwice;
BEGIN
  basket := NEW (Node);
  special := NEW (Special);
  FOR i := 1 TO 200 DO
    WeighTwice ();
  END;
  PrintInt (sum); PrintLn ();
END Tricky.
|}
  in
  List.iter
    (fun kind ->
      let program = Lower.lower_string ~file:"tricky" tricky in
      let stats = rle program kind in
      Printf.printf "%-16s removed %d loads statically\n"
        (Tbaa.Engine.kind_name kind)
        (Opt.Rle.removed stats))
    kinds
