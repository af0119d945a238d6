(* Tests for the three alias analyses: the paper's worked examples
   (Figures 1, 3, Table 3), the seven cases of Table 2, AddressTaken, the
   open-world rules, and the precision ordering between the analyses. *)

open Support
open Minim3
open Ir

let build ?(world = Tbaa.World.Closed) src =
  let program = Lower.lower_string ~file:"test" src in
  let engine =
    Tbaa.Engine.create
      ~config:{ Tbaa.Engine.default_config with Tbaa.Engine.world }
      program
  in
  (program, engine)

let type_decl e = Tbaa.Engine.oracle e Tbaa.Engine.Type_decl
let field_type_decl e = Tbaa.Engine.oracle e Tbaa.Engine.Field_type_decl
let sm_field_type_refs e = Tbaa.Engine.oracle e Tbaa.Engine.Sm_field_type_refs

(* Heap memory references of a procedure, in program order. *)
let refs_of analysis proc =
  (Tbaa.Engine.facts analysis).Tbaa.Facts.memrefs
  |> List.filter (fun (r : Tbaa.Facts.memref) ->
         Ident.name r.Tbaa.Facts.mr_proc = proc)
  |> List.map (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)

let nth_ref analysis proc i = List.nth (refs_of analysis proc) i

let figure1_prelude =
  {|
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT END;
  S2 = T OBJECT END;
  S3 = T OBJECT END;
|}

(* --- TypeDecl (§2.2) ------------------------------------------------ *)

let test_typedecl_figure1 () =
  let _, analysis =
    build
      ("MODULE M;" ^ figure1_prelude
     ^ {|
VAR t: T; s: S1; u: S2;
PROCEDURE P () =
  VAR x: T;
  BEGIN
    x := t.f;   (* ref 0: t.f *)
    x := s.f;   (* ref 1: s.f *)
    x := u.g;   (* ref 2: u.g *)
  END P;
BEGIN END M.
|})
  in
  let td = type_decl analysis in
  let r i = nth_ref analysis "P" i in
  (* TypeDecl sees only the types: T vs S1 compatible, T vs S2 compatible,
     S1 vs S2 incompatible — but all three paths here have type T (field f/g
     of T), so TypeDecl aliases them all. *)
  Alcotest.(check bool) "t.f ~ s.f" true (td.Tbaa.Oracle.may_alias (r 0) (r 1));
  Alcotest.(check bool) "t.f ~ u.g" true (td.Tbaa.Oracle.may_alias (r 0) (r 2));
  (* receiver types directly *)
  let tenv = (Tbaa.Engine.facts analysis).Tbaa.Facts.tenv in
  Alcotest.(check bool) "compat is symmetric" true
    (td.Tbaa.Oracle.compat (Apath.base (r 0)).Reg.v_ty (Apath.base (r 1)).Reg.v_ty);
  ignore tenv

let test_typedecl_incompatible_siblings () =
  let _, analysis =
    build
      ("MODULE M;" ^ figure1_prelude
     ^ {|
TYPE A = OBJECT x: INTEGER; END; B = OBJECT y: INTEGER; END;
VAR a: A; b: B;
PROCEDURE P () =
  VAR n: INTEGER;
  BEGIN
    n := a.x;   (* ref 0 *)
    n := b.y;   (* ref 1 *)
  END P;
BEGIN END M.
|})
  in
  let td = type_decl analysis in
  let r i = nth_ref analysis "P" i in
  (* Both fields are INTEGER, so plain TypeDecl conservatively aliases
     them; FieldTypeDecl distinguishes the receivers. *)
  Alcotest.(check bool) "TypeDecl: a.x ~ b.y (types only)" true
    (td.Tbaa.Oracle.may_alias (r 0) (r 1));
  let ftd = field_type_decl analysis in
  Alcotest.(check bool) "FieldTypeDecl: a.x !~ b.y" false
    (ftd.Tbaa.Oracle.may_alias (r 0) (r 1))

(* --- FieldTypeDecl (§2.3, Table 2) ---------------------------------- *)

let field_prog =
  "MODULE M;" ^ figure1_prelude
  ^ {|
TYPE
  R = RECORD n: INTEGER; END;
  PR = REF R;
  PI = REF INTEGER;
  VI = REF ARRAY OF INTEGER;
VAR t: T; s: S1; pr: PR; pi: PI; vi: VI;
PROCEDURE P () =
  VAR x: T; n: INTEGER;
  BEGIN
    x := t.f;      (* ref 0: t.f *)
    x := t.g;      (* ref 1: t.g *)
    x := s.f;      (* ref 2: s.f *)
    n := pr.n;     (* ref 3: pr^.n *)
    n := pi^;      (* ref 4: pi^ *)
    n := vi[0];    (* ref 5: vi^[0] *)
    n := vi[1];    (* ref 6: vi^[1] *)
  END P;
BEGIN END M.
|}

let test_table2_case1_identical () =
  let _, analysis = build field_prog in
  let ftd = field_type_decl analysis in
  let r i = nth_ref analysis "P" i in
  Alcotest.(check bool) "identical APs alias" true
    (ftd.Tbaa.Oracle.may_alias (r 0) (r 0))

let test_table2_case2_fields () =
  let _, analysis = build field_prog in
  let ftd = field_type_decl analysis in
  let r i = nth_ref analysis "P" i in
  Alcotest.(check bool) "t.f !~ t.g (different fields)" false
    (ftd.Tbaa.Oracle.may_alias (r 0) (r 1));
  Alcotest.(check bool) "t.f ~ s.f (same field, compatible receivers)" true
    (ftd.Tbaa.Oracle.may_alias (r 0) (r 2))

let test_table2_case3_field_vs_deref () =
  (* Without any address-taking, a field cannot alias a dereference. *)
  let _, analysis = build field_prog in
  let ftd = field_type_decl analysis in
  let r i = nth_ref analysis "P" i in
  Alcotest.(check bool) "pr^.n !~ pi^ without AddressTaken" false
    (ftd.Tbaa.Oracle.may_alias (r 3) (r 4))

let test_table2_case3_with_address_taken () =
  let src =
    {|
MODULE M;
TYPE R = RECORD n: INTEGER; END; PR = REF R; PI = REF INTEGER;
VAR pr: PR; pi: PI;
PROCEDURE ByRef (VAR x: INTEGER) = BEGIN x := 1; END ByRef;
PROCEDURE P () =
  VAR n: INTEGER;
  BEGIN
    ByRef (pr.n);  (* takes the address of field n *)
    n := pr.n;     (* ref: pr^.n — after the Iaddr *)
    n := pi^;
  END P;
BEGIN END M.
|}
  in
  let _, analysis = build src in
  let ftd = field_type_decl analysis in
  let refs = refs_of analysis "P" in
  (* find the field ref and the deref ref *)
  let field_ref =
    List.find
      (fun ap -> match Apath.last ap with Some (Apath.Sfield _) -> true | _ -> false)
      refs
  in
  let deref_ref =
    List.find
      (fun ap ->
        match Apath.last ap with
        | Some (Apath.Sderef t) -> t = Types.tid_int
        | _ -> false)
      refs
  in
  Alcotest.(check bool) "pr^.n ~ pi^ once n's address is taken" true
    (ftd.Tbaa.Oracle.may_alias field_ref deref_ref)

let test_table2_case5_field_vs_subscript () =
  let _, analysis = build field_prog in
  let ftd = field_type_decl analysis in
  let r i = nth_ref analysis "P" i in
  Alcotest.(check bool) "pr^.n !~ vi^[0]" false
    (ftd.Tbaa.Oracle.may_alias (r 3) (r 5))

let test_table2_case6_subscripts_ignored () =
  let _, analysis = build field_prog in
  let ftd = field_type_decl analysis in
  let r i = nth_ref analysis "P" i in
  Alcotest.(check bool) "vi^[0] ~ vi^[1] (subscripts ignored)" true
    (ftd.Tbaa.Oracle.may_alias (r 5) (r 6))

let test_table2_case7_derefs () =
  let src =
    {|
MODULE M;
TYPE PI = REF INTEGER; PB = REF BOOLEAN;
VAR p: PI; q: PI; r: PB;
PROCEDURE P () =
  VAR n: INTEGER; b: BOOLEAN;
  BEGIN
    n := p^;  (* ref 0 *)
    n := q^;  (* ref 1 *)
    b := r^;  (* ref 2 *)
  END P;
BEGIN END M.
|}
  in
  let _, analysis = build src in
  let ftd = field_type_decl analysis in
  let r i = nth_ref analysis "P" i in
  Alcotest.(check bool) "p^ ~ q^ (same target type)" true
    (ftd.Tbaa.Oracle.may_alias (r 0) (r 1));
  Alcotest.(check bool) "p^ !~ r^ (different target type)" false
    (ftd.Tbaa.Oracle.may_alias (r 0) (r 2))

(* --- SMTypeRefs (§2.4, Figures 2-4, Table 3) ------------------------- *)

let figure3_src =
  "MODULE M;" ^ figure1_prelude
  ^ {|
VAR s1: S1; s2: S2; s3: S3; t: T;
BEGIN
  s1 := NEW (S1);
  s2 := NEW (S2);
  s3 := NEW (S3);
  t := s1; (* Statement 1 *)
  t := s2; (* Statement 2 *)
END M.
|}

let test_figure3_typerefs_table () =
  let program = Lower.lower_string ~file:"fig3" figure3_src in
  let facts = Reference.facts program in
  let sm = Tbaa.Sm_type_refs.build ~facts ~world:Tbaa.World.Closed () in
  let tast = Typecheck.check_string figure3_src in
  let tid name = List.assoc (Ident.intern name) tast.Tast.type_names in
  ignore tid;
  (* Recover tids from the lowered program's globals. *)
  let tid_of_global name =
    let v =
      List.find
        (fun (g : Reg.var) -> Ident.name g.Reg.v_name = name)
        program.Cfg.prog_globals
    in
    v.Reg.v_ty
  in
  let t = tid_of_global "t" and s1 = tid_of_global "s1"
  and s2 = tid_of_global "s2" and s3 = tid_of_global "s3" in
  let refs x = Tbaa.Sm_type_refs.type_refs sm x in
  let sorted l = List.sort compare l in
  (* Table 3 *)
  Alcotest.(check (list int)) "TypeRefs(T) = {T, S1, S2}"
    (sorted [ t; s1; s2 ]) (sorted (refs t));
  Alcotest.(check (list int)) "TypeRefs(S1) = {S1}" [ s1 ] (refs s1);
  Alcotest.(check (list int)) "TypeRefs(S2) = {S2}" [ s2 ] (refs s2);
  Alcotest.(check (list int)) "TypeRefs(S3) = {S3}" [ s3 ] (refs s3);
  (* asymmetry: T may refer to S1 objects, S1 never to T's *)
  let compat = Tbaa.Compat.fn (Tbaa.Sm_type_refs.compat sm) in
  Alcotest.(check bool) "compat T S1" true (compat t s1);
  Alcotest.(check bool) "compat S1 S3" false (compat s1 s3);
  Alcotest.(check bool) "compat T S3" false (compat t s3)

let test_smtyperefs_no_assignment_no_merge () =
  (* §2.4's motivating example: t and s never assigned between, so
     SMFieldTypeRefs proves independence where TypeDecl cannot. *)
  let src =
    "MODULE M;" ^ figure1_prelude
    ^ {|
VAR t: T; s: S1;
PROCEDURE P () =
  VAR x: T;
  BEGIN
    t := NEW (T);
    s := NEW (S1);
    x := t.f;   (* on a T object *)
    x := s.f;   (* on an S1 object *)
  END P;
BEGIN END M.
|}
  in
  let _, analysis = build src in
  let sm = sm_field_type_refs analysis in
  let ftd = field_type_decl analysis in
  let r i = nth_ref analysis "P" i in
  Alcotest.(check bool) "FieldTypeDecl: t.f ~ s.f" true
    (ftd.Tbaa.Oracle.may_alias (r 0) (r 1));
  Alcotest.(check bool) "SMFieldTypeRefs: t.f !~ s.f" false
    (sm.Tbaa.Oracle.may_alias (r 0) (r 1))

let test_smtyperefs_variants_agree_here () =
  let program = Lower.lower_string ~file:"fig3" figure3_src in
  let facts = Reference.facts program in
  let g = Tbaa.Sm_type_refs.build ~variant:Tbaa.Sm_type_refs.Grouped ~facts
      ~world:Tbaa.World.Closed ()
  in
  let p = Tbaa.Sm_type_refs.build ~variant:Tbaa.Sm_type_refs.Per_type ~facts
      ~world:Tbaa.World.Closed ()
  in
  let tenv = facts.Tbaa.Facts.tenv in
  let compat sm = Tbaa.Compat.fn (Tbaa.Sm_type_refs.compat sm) in
  let compat_g = compat g and compat_p = compat p in
  for t1 = 0 to Types.count tenv - 1 do
    for t2 = 0 to Types.count tenv - 1 do
      (* the per-type variant is at least as precise *)
      if compat_p t1 t2 then
        Alcotest.(check bool) "per-type ⊑ grouped" true (compat_g t1 t2)
    done
  done

(* --- Open world (§4) -------------------------------------------------- *)

let test_open_world_addr_taken () =
  (* With a by-ref formal of type INTEGER somewhere, the open world must
     assume any INTEGER field's address may be taken by unavailable code. *)
  let src =
    {|
MODULE M;
TYPE R = RECORD n: INTEGER; END; PR = REF R; PI = REF INTEGER;
VAR pr: PR; pi: PI;
PROCEDURE ByRef (VAR x: INTEGER) = BEGIN x := 1; END ByRef;
PROCEDURE P () =
  VAR n: INTEGER;
  BEGIN
    n := pr.n;
    n := pi^;
  END P;
BEGIN END M.
|}
  in
  let _, closed = build ~world:Tbaa.World.Closed src in
  let _, opened = build ~world:Tbaa.World.Open src in
  let r a i = nth_ref a "P" i in
  Alcotest.(check bool) "closed: no alias (address never taken)" false
    ((field_type_decl closed).Tbaa.Oracle.may_alias (r closed 0)
       (r closed 1));
  Alcotest.(check bool) "open: alias (formal of identical type exists)" true
    ((field_type_decl opened).Tbaa.Oracle.may_alias (r opened 0)
       (r opened 1))

let test_open_world_merges_unbranded () =
  let src =
    "MODULE M;" ^ figure1_prelude
    ^ {|
VAR t: T; s: S1;
PROCEDURE P () =
  VAR x: T;
  BEGIN
    t := NEW (T);
    s := NEW (S1);
    x := t.f;
    x := s.f;
  END P;
BEGIN END M.
|}
  in
  let _, opened = build ~world:Tbaa.World.Open src in
  let sm = sm_field_type_refs opened in
  let r i = nth_ref opened "P" i in
  (* Unavailable code can construct S1 (structural typing) and assign it to
     a T, so the merge is forced and the independence proof is lost. *)
  Alcotest.(check bool) "open world: t.f ~ s.f again" true
    (sm.Tbaa.Oracle.may_alias (r 0) (r 1))

let test_open_world_branded_exempt () =
  let src =
    {|
MODULE M;
TYPE
  T = BRANDED "t" OBJECT f: INTEGER; END;
  S = BRANDED "s" T OBJECT END;
VAR t: T; s: S;
PROCEDURE P () =
  VAR x: INTEGER;
  BEGIN
    t := NEW (T);
    s := NEW (S);
    x := t.f;
    x := s.f;
  END P;
BEGIN END M.
|}
  in
  let _, opened = build ~world:Tbaa.World.Open src in
  let sm = sm_field_type_refs opened in
  let r i = nth_ref opened "P" i in
  Alcotest.(check bool) "branded types stay unmerged in the open world" false
    (sm.Tbaa.Oracle.may_alias (r 0) (r 1))

(* --- Precision ordering and static metric ----------------------------- *)

let precision_src =
  "MODULE M;" ^ figure1_prelude
  ^ {|
TYPE VI = REF ARRAY OF INTEGER;
VAR t: T; s: S1; u: S2; vi: VI;
PROCEDURE P () =
  VAR x: T; n: INTEGER;
  BEGIN
    t := NEW (T);
    s := NEW (S1);
    x := t.f;
    x := t.g;
    x := s.f;
    x := u.f;
    n := vi[3];
    vi[4] := n;
  END P;
BEGIN END M.
|}

let test_precision_ordering () =
  let _, analysis = build precision_src in
  let td = type_decl analysis in
  let ftd = field_type_decl analysis in
  let sm = sm_field_type_refs analysis in
  let refs = refs_of analysis "P" in
  List.iteri
    (fun i a ->
      List.iteri
        (fun j b ->
          if i < j then begin
            if sm.Tbaa.Oracle.may_alias a b then
              Alcotest.(check bool) "SM ⊑ FTD" true (ftd.Tbaa.Oracle.may_alias a b);
            if ftd.Tbaa.Oracle.may_alias a b then
              Alcotest.(check bool) "FTD ⊑ TD" true (td.Tbaa.Oracle.may_alias a b)
          end)
        refs)
    refs

let test_alias_pairs_ordering () =
  let _, analysis = build precision_src in
  let facts = Tbaa.Engine.facts analysis in
  let c o = Tbaa.Alias_pairs.count o facts in
  let td = c (type_decl analysis) in
  let ftd = c (field_type_decl analysis) in
  let sm = c (sm_field_type_refs analysis) in
  Alcotest.(check bool) "refs equal across analyses" true
    (td.Tbaa.Alias_pairs.references = ftd.Tbaa.Alias_pairs.references
    && ftd.Tbaa.Alias_pairs.references = sm.Tbaa.Alias_pairs.references);
  Alcotest.(check bool) "local pairs monotone" true
    (sm.Tbaa.Alias_pairs.local_pairs <= ftd.Tbaa.Alias_pairs.local_pairs
    && ftd.Tbaa.Alias_pairs.local_pairs <= td.Tbaa.Alias_pairs.local_pairs);
  Alcotest.(check bool) "global pairs monotone" true
    (sm.Tbaa.Alias_pairs.global_pairs <= ftd.Tbaa.Alias_pairs.global_pairs
    && ftd.Tbaa.Alias_pairs.global_pairs <= td.Tbaa.Alias_pairs.global_pairs)

(* --- facts collection (the single linear pass of §2.5) ----------------- *)

let test_facts_assignments () =
  let program =
    Lower.lower_string ~file:"t"
      ("MODULE M;" ^ figure1_prelude
     ^ {|
VAR t: T; s: S1;
PROCEDURE P () =
  BEGIN
    s := NEW (S1);
    t := s;          (* explicit upcast: merge T <- S1 *)
  END P;
BEGIN END M.
|})
  in
  let facts = Reference.facts program in
  let tid name =
    (List.find
       (fun (g : Reg.var) -> Ident.name g.Reg.v_name = name)
       program.Cfg.prog_globals)
      .Reg.v_ty
  in
  Alcotest.(check bool) "records the T <- S1 flow" true
    (List.mem (tid "t", tid "s") facts.Tbaa.Facts.assignments);
  Alcotest.(check bool) "never records same-type flows" true
    (List.for_all (fun (a, b) -> a <> b) facts.Tbaa.Facts.assignments);
  Alcotest.(check bool) "never records NIL flows" true
    (List.for_all
       (fun (_, b) -> b <> Types.tid_null)
       facts.Tbaa.Facts.assignments)

let test_facts_param_and_return_flows () =
  let program =
    Lower.lower_string ~file:"t"
      ("MODULE M;" ^ figure1_prelude
     ^ {|
VAR s: S1; t: T;
PROCEDURE Id (x: T): T = BEGIN RETURN x; END Id;
PROCEDURE Mk (): S1 = BEGIN RETURN NEW (S1); END Mk;
PROCEDURE P () =
  BEGIN
    t := Id (s);     (* implicit: parameter binding T <- S1 *)
    t := Mk ();      (* implicit: return binding T <- S1 *)
  END P;
BEGIN END M.
|})
  in
  let facts = Reference.facts program in
  let tid name =
    (List.find
       (fun (g : Reg.var) -> Ident.name g.Reg.v_name = name)
       program.Cfg.prog_globals)
      .Reg.v_ty
  in
  Alcotest.(check bool) "argument binding merges" true
    (List.mem (tid "t", tid "s") facts.Tbaa.Facts.assignments)

let test_facts_address_taken () =
  let program =
    Lower.lower_string ~file:"t"
      {|
MODULE M;
TYPE R = RECORD n: INTEGER; END; PR = REF R; VI = REF ARRAY OF INTEGER;
VAR pr: PR; vi: VI; g: INTEGER;
PROCEDURE ByRef (VAR x: INTEGER) = BEGIN x := x + 1; END ByRef;
PROCEDURE P () =
  BEGIN
    ByRef (pr.n);    (* field address *)
    ByRef (vi[2]);   (* element address *)
    ByRef (g);       (* whole variable *)
  END P;
BEGIN END M.
|}
  in
  let facts = Reference.facts program in
  Alcotest.(check int) "one field fact" 1
    (List.length facts.Tbaa.Facts.field_addrs);
  Alcotest.(check string) "it is field n" "n"
    (Ident.name (List.hd facts.Tbaa.Facts.field_addrs).Tbaa.Facts.fa_field);
  Alcotest.(check int) "one element fact" 1
    (List.length facts.Tbaa.Facts.elem_addrs);
  Alcotest.(check int) "one variable fact" 1
    (List.length facts.Tbaa.Facts.var_addrs);
  Alcotest.(check (list string)) "by-ref formal types" [ "INTEGER" ]
    (List.map
       (Types.to_string facts.Tbaa.Facts.tenv)
       facts.Tbaa.Facts.byref_formal_tids)

let test_facts_memrefs_in_order () =
  let program =
    Lower.lower_string ~file:"t"
      {|
MODULE M;
TYPE Node = OBJECT a, b: INTEGER; END;
VAR n: Node; g: INTEGER;
PROCEDURE P () =
  BEGIN
    g := n.a;
    n.b := g;
  END P;
BEGIN END M.
|}
  in
  let facts = Reference.facts program in
  let in_p =
    List.filter
      (fun (r : Tbaa.Facts.memref) -> Ident.name r.Tbaa.Facts.mr_proc = "P")
      facts.Tbaa.Facts.memrefs
  in
  Alcotest.(check (list string)) "paths in program order" [ "n.a"; "n.b" ]
    (List.map (fun (r : Tbaa.Facts.memref) -> Apath.to_string r.Tbaa.Facts.mr_path) in_p);
  Alcotest.(check (list bool)) "load then store" [ false; true ]
    (List.map (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_is_store) in_p)

let test_subtypes_excludes_nil () =
  let _, analysis = build "MODULE M; TYPE PI = REF INTEGER; VAR p: PI; BEGIN END M." in
  let tenv = (Tbaa.Engine.facts analysis).Tbaa.Facts.tenv in
  List.iter
    (fun t ->
      if List.mem Types.tid_null (Reference.subtypes tenv t) then
        Alcotest.fail "NIL must not be in any Subtypes set")
    (List.init (Types.count tenv) Fun.id)

let () =
  Alcotest.run "tbaa"
    [ ( "typedecl",
        [ Alcotest.test_case "figure 1" `Quick test_typedecl_figure1;
          Alcotest.test_case "siblings" `Quick test_typedecl_incompatible_siblings;
          Alcotest.test_case "subtypes sans NIL" `Quick test_subtypes_excludes_nil ] );
      ( "table2",
        [ Alcotest.test_case "case 1" `Quick test_table2_case1_identical;
          Alcotest.test_case "case 2" `Quick test_table2_case2_fields;
          Alcotest.test_case "case 3 (no addr)" `Quick test_table2_case3_field_vs_deref;
          Alcotest.test_case "case 3 (addr taken)" `Quick test_table2_case3_with_address_taken;
          Alcotest.test_case "case 5" `Quick test_table2_case5_field_vs_subscript;
          Alcotest.test_case "case 6" `Quick test_table2_case6_subscripts_ignored;
          Alcotest.test_case "case 7" `Quick test_table2_case7_derefs ] );
      ( "smtyperefs",
        [ Alcotest.test_case "figure 3 / table 3" `Quick test_figure3_typerefs_table;
          Alcotest.test_case "no assignment, no merge" `Quick
            test_smtyperefs_no_assignment_no_merge;
          Alcotest.test_case "per-type ⊑ grouped" `Quick
            test_smtyperefs_variants_agree_here ] );
      ( "open world",
        [ Alcotest.test_case "address taken by type" `Quick test_open_world_addr_taken;
          Alcotest.test_case "unbranded merged" `Quick test_open_world_merges_unbranded;
          Alcotest.test_case "branded exempt" `Quick test_open_world_branded_exempt ] );
      ( "facts",
        [ Alcotest.test_case "explicit assignments" `Quick test_facts_assignments;
          Alcotest.test_case "param/return flows" `Quick test_facts_param_and_return_flows;
          Alcotest.test_case "address taken" `Quick test_facts_address_taken;
          Alcotest.test_case "memrefs ordered" `Quick test_facts_memrefs_in_order ] );
      ( "precision",
        [ Alcotest.test_case "oracle ordering" `Quick test_precision_ordering;
          Alcotest.test_case "alias pairs ordering" `Quick test_alias_pairs_ordering ] ) ]
