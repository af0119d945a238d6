(* Lexer, parser, and typechecker tests, including the paper's Figure 1
   type hierarchy and Figure 3 assignment example. *)

open Support
open Minim3

let tokens_of s = List.map fst (Lexer.tokenize ~file:"t" s)

let token = Alcotest.testable (fun ppf t -> Fmt.string ppf (Token.to_string t)) Token.equal

let test_lex_basics () =
  Alcotest.(check (list token))
    "operators"
    [ Token.IDENT "a"; Token.ASSIGN; Token.IDENT "b"; Token.CARET; Token.DOT;
      Token.IDENT "f"; Token.LBRACKET; Token.INT 3; Token.RBRACKET; Token.SEMI;
      Token.EOF ]
    (tokens_of "a := b^.f[3];")

let test_lex_keywords_vs_idents () =
  Alcotest.(check (list token))
    "keywords"
    [ Token.WHILE; Token.IDENT "WhileLoop"; Token.DO; Token.END; Token.EOF ]
    (tokens_of "WHILE WhileLoop DO END")

let test_lex_comments_nest () =
  Alcotest.(check (list token))
    "nested comments"
    [ Token.INT 1; Token.INT 2; Token.EOF ]
    (tokens_of "1 (* outer (* inner *) still out *) 2")

let test_lex_char_and_string () =
  Alcotest.(check (list token))
    "literals"
    [ Token.CHARLIT 'x'; Token.CHARLIT '\n'; Token.STRING "hi\tthere"; Token.EOF ]
    (tokens_of "'x' '\\n' \"hi\\tthere\"")

let test_lex_dotdot () =
  Alcotest.(check (list token))
    "ranges"
    [ Token.LBRACKET; Token.INT 0; Token.DOTDOT; Token.INT 9; Token.RBRACKET;
      Token.EOF ]
    (tokens_of "[0..9]")

let test_lex_error () =
  match Lexer.tokenize ~file:"t" "a ? b" with
  | exception Diag.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected a lex error"

(* One line per token: kind, payload, line and column, or the error. *)
let stream_text src =
  let b = Buffer.create 4096 in
  (match Lexer.tokenize ~file:"f" src with
  | toks ->
    List.iter
      (fun (tok, (l : Loc.t)) ->
        (match tok with
        | Token.IDENT s -> Printf.bprintf b "ident %s" s
        | Token.INT n -> Printf.bprintf b "int %d" n
        | Token.CHARLIT c -> Printf.bprintf b "char %d" (Char.code c)
        | Token.STRING s -> Printf.bprintf b "string %S" s
        | t -> Buffer.add_string b (Token.to_string t));
        Printf.bprintf b " %d %d\n" l.Loc.line l.Loc.col)
      toks
  | exception Diag.Compile_error d ->
    Printf.bprintf b "error %s" (Diag.to_string d));
  Buffer.contents b

let fingerprint srcs =
  Digest.to_hex (Digest.string (String.concat "\n" (List.map stream_text srcs)))

(* Recorded with the list-building lexer this one replaced: the full
   (token, line, col) streams must not move. *)
let test_lex_golden_fingerprints () =
  let suite =
    List.map (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.source)
      Workloads.Suite.all
  in
  let generated =
    List.init 50 (fun seed -> (Gen.Generator.generate seed).Gen.Generator.source)
  in
  List.iter
    (fun (name, want, srcs) ->
      Alcotest.(check string) name want (fingerprint srcs))
    [ ("workload suite", "6f0bc4dc7f8ed65f002b9a717d5f9d8a", suite);
      ( "Gen.Scale.source 200", "45ac4f59837a6014ae24d39e1f1eb7a0",
        [ Gen.Scale.source 200 ] );
      ("Gen.Generator seeds 0-49", "02f55eee252642d81e06954fd3d831cf", generated) ]

let test_lex_every_keyword () =
  List.iter
    (fun (spelling, kw) ->
      Alcotest.(check (list token)) spelling [ kw; Token.EOF ] (tokens_of spelling);
      Alcotest.(check string) "spelling" spelling (Token.to_string kw);
      List.iter
        (fun ident ->
          Alcotest.(check (list token)) ident [ Token.IDENT ident; Token.EOF ]
            (tokens_of ident))
        [ spelling ^ "X"; spelling ^ "_"; spelling ^ "1";
          String.lowercase_ascii spelling;
          String.sub spelling 0 (String.length spelling - 1) ^ "x" ])
    Token.keyword_table

(* Edge cases, each pinned to the stream (or error) the replaced lexer
   gave. *)
let test_lex_edge_cases () =
  List.iter
    (fun (src, want) ->
      Alcotest.(check string) (String.escaped src) want (stream_text src))
    [ ( "MODULE ENDX IF_ DO1 END",
        "MODULE 1 1\nident ENDX 1 8\nident IF_ 1 13\nident DO1 1 17\nEND 1 21\n\
         <eof> 1 24\n" );
      ("a\r\nb\r\n  c", "ident a 1 1\nident b 2 1\nident c 3 3\n<eof> 3 4\n");
      ("'\n' b", "char 10 1 1\nident b 2 3\n<eof> 2 4\n");
      ("x (* open", "error f:1:3: error: unterminated comment");
      ("x (* (* *) open", "error f:1:3: error: unterminated comment");
      ( "4611686018427387903 4611686018427387904",
        "error f:1:40: error: integer literal out of range: 4611686018427387904" );
      ("4611686018427387903", "int 4611686018427387903 1 1\n<eof> 1 20\n");
      ("a\000b", "error f:1:2: error: unexpected character '\000'");
      ("a\xc3\xa9", "error f:1:2: error: unexpected character '\xc3'");
      ("'a", "error f:1:1: error: character literal missing closing quote");
      ("''", "error f:1:1: error: malformed character literal");
      ("\"ab", "error f:1:1: error: unterminated string literal");
      ("'\\q'", "error f:1:1: error: unknown escape '\\q'") ]

let constant_tokens =
  List.map snd Token.keyword_table
  @ Token.
      [ SEMI; COMMA; COLON; ASSIGN; EQ; NE; LT; LE; GT; GE; PLUS; MINUS; STAR;
        LPAREN; RPAREN; LBRACKET; RBRACKET; CARET; DOT; DOTDOT; EOF ]

(* Small payload alphabets, so equal payloads come up often. *)
let gen_token =
  QCheck.Gen.(
    oneof
      [ oneofl constant_tokens;
        map (fun s -> Token.IDENT s) (oneofl [ ""; "a"; "b"; "END" ]);
        map (fun n -> Token.INT n) (int_range (-1) 2);
        map (fun c -> Token.CHARLIT c) (oneofl [ 'a'; 'b'; '\000' ]);
        map (fun s -> Token.STRING s) (oneofl [ ""; "a"; "b"; "END" ]) ])

(* The same token with freshly allocated payloads. *)
let copy_token = function
  | Token.IDENT s -> Token.IDENT (Bytes.to_string (Bytes.of_string s))
  | Token.STRING s -> Token.STRING (Bytes.to_string (Bytes.of_string s))
  | t -> t

let prop_token_equal =
  QCheck.Test.make ~count:3000 ~name:"Token.equal agrees with ="
    (QCheck.make
       ~print:(fun (a, b) -> Token.to_string a ^ " / " ^ Token.to_string b)
       QCheck.Gen.(
         oneof
           [ pair gen_token gen_token; map (fun t -> (t, copy_token t)) gen_token ]))
    (fun (a, b) -> Token.equal a b = (a = b))

(* --- parser --------------------------------------------------------- *)

let figure1 =
  {|
MODULE Figure1;
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT END;
  S2 = T OBJECT END;
  S3 = T OBJECT END;
VAR
  t: T;
  s: S1;
  u: S2;
BEGIN
END Figure1.
|}

let figure3 =
  {|
MODULE Figure3;
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT END;
  S2 = T OBJECT END;
  S3 = T OBJECT END;
VAR
  s1: S1;
  s2: S2;
  s3: S3;
  t: T;
BEGIN
  s1 := NEW (S1);
  s2 := NEW (S2);
  s3 := NEW (S3);
  t := s1; (* Statement 1 *)
  t := s2; (* Statement 2 *)
END Figure3.
|}

let test_parse_figure1 () =
  let m = Parser.parse_module ~file:"fig1" figure1 in
  Alcotest.(check string) "module name" "Figure1" (Ident.name m.Ast.mod_name);
  Alcotest.(check int) "decl count" 7 (List.length m.Ast.mod_decls)

let test_parse_expr_precedence () =
  let e = Parser.parse_expr_string "1 + 2 * 3" in
  match e.Ast.e_desc with
  | Ast.Binop (Ast.Add, _, { Ast.e_desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "expected 1 + (2 * 3)"

let test_parse_access_path () =
  (* The paper's canonical AP shape: a^.b[i].c *)
  let e = Parser.parse_expr_string "a^.b[i].c" in
  match e.Ast.e_desc with
  | Ast.Field ({ Ast.e_desc = Ast.Index ({ Ast.e_desc = Ast.Field ({ Ast.e_desc = Ast.Deref _; _ }, _); _ }, _); _ }, c)
    when Ident.name c = "c" -> ()
  | _ -> Alcotest.fail "unexpected access path shape"

let test_parse_relations_nonassoc () =
  (* Relations are non-associative, as in Modula-3: chaining needs parens. *)
  (match Parser.parse_expr_string "a < b = TRUE" with
  | exception Diag.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected chained relation to be rejected");
  match (Parser.parse_expr_string "(a < b) = TRUE").Ast.e_desc with
  | Ast.Binop (Ast.Eq, _, _) -> ()
  | _ -> Alcotest.fail "expected = at top"

let test_parse_object_with_methods () =
  let src =
    {|
MODULE M;
TYPE
  Shape = OBJECT
    area: INTEGER;
  METHODS
    grow (by: INTEGER): INTEGER := GrowShape;
  END;
  Circle = Shape OBJECT
  OVERRIDES
    grow := GrowCircle;
  END;
PROCEDURE GrowShape (self: Shape; by: INTEGER): INTEGER =
  BEGIN
    self.area := self.area + by;
    RETURN self.area;
  END GrowShape;
PROCEDURE GrowCircle (self: Shape; by: INTEGER): INTEGER =
  BEGIN
    self.area := self.area + 2 * by;
    RETURN self.area;
  END GrowCircle;
VAR c: Circle;
BEGIN
  c := NEW (Circle);
  PrintInt (c.grow (3));
END M.
|}
  in
  let m = Parser.parse_module ~file:"m" src in
  Alcotest.(check int) "decls" 5 (List.length m.Ast.mod_decls)

let test_parse_decl_order_preserved () =
  (* Sections must come out in declaration order — global initializers run
     in that order. *)
  let m =
    Parser.parse_module ~file:"ord"
      {|
MODULE M;
TYPE A = INTEGER; B = INTEGER;
VAR x: INTEGER := 1; y: INTEGER := 2;
CONST C = 3; D = 4;
BEGIN
END M.
|}
  in
  let names =
    List.map
      (function
        | Ast.Dtype (n, _, _) -> Ident.name n
        | Ast.Dconst c -> Ident.name c.Ast.c_name
        | Ast.Dvar v -> Ident.name v.Ast.v_name
        | Ast.Dproc p -> Ident.name p.Ast.pr_name)
      m.Ast.mod_decls
  in
  Alcotest.(check (list string)) "order" [ "A"; "B"; "x"; "y"; "C"; "D" ] names

let test_parse_error_location () =
  match Parser.parse_module ~file:"bad" "MODULE X;\nVAR a: ; BEGIN END X." with
  | exception Diag.Compile_error d ->
    Alcotest.(check int) "error on line 2" 2 d.Diag.loc.Loc.line
  | _ -> Alcotest.fail "expected parse error"

(* Tokens are streamed, but a lexical error anywhere still wins over a
   syntax error before it, as when the whole input was lexed first. *)
let test_parse_lex_error_wins () =
  List.iter
    (fun (src, want) ->
      match Parser.parse_module ~file:"f" src with
      | exception Diag.Compile_error d ->
        Alcotest.(check string) (String.escaped src) want (Diag.to_string d)
      | _ -> Alcotest.fail "expected an error")
    [ ( "MODULE X;\nVAR a: ; BEGIN a := 1 ? END X.",
        "f:2:23: error: unexpected character '?'" );
      ("MODULE X; BEGIN END X. ?", "f:1:24: error: unexpected character '?'");
      ( "MODULE X; BEGIN END Y. (* open",
        "f:1:24: error: unterminated comment" );
      ( "MODULE X;\nVAR a: ; BEGIN END X.",
        "f:2:8: error: expected a type (found ';')" ) ]

let repeat n s = String.concat "" (List.init n (fun _ -> s))

(* 100k-deep nesting of each recursive construct is a structured error at
   a location inside the nest, not a stack overflow. *)
let test_parse_depth_limit () =
  let n = 100_000 in
  let stmt_prefix = "MODULE M; VAR x: INTEGER; b: BOOLEAN; BEGIN " in
  List.iter
    (fun (what, prefix, body) ->
      let src = prefix ^ body ^ " END M." in
      match Parser.parse_module ~file:"deep" src with
      | exception Diag.Compile_error d ->
        Alcotest.(check string) (what ^ ": message")
          "nesting deeper than 1000 levels" d.Diag.message;
        Alcotest.(check int) (what ^ ": line") 1 d.Diag.loc.Loc.line;
        Alcotest.(check bool) (what ^ ": inside the nest") true
          (d.Diag.loc.Loc.col > String.length prefix
           && d.Diag.loc.Loc.col <= String.length prefix + String.length body)
      | _ -> Alcotest.fail (what ^ ": expected a nesting error"))
    [ ("parens", stmt_prefix ^ "x := ", repeat n "(" ^ "1" ^ repeat n ")" ^ ";");
      ("unary minus", stmt_prefix ^ "x := ", repeat n "-" ^ "1;");
      ("NOT", stmt_prefix ^ "b := ", repeat n "NOT " ^ "TRUE;");
      ("IF", stmt_prefix, repeat n "IF b THEN " ^ repeat n "END; ");
      ("REF", "MODULE M; TYPE T = ", repeat n "REF " ^ "INTEGER; BEGIN") ]

(* --- typechecker ---------------------------------------------------- *)

let check src = Typecheck.check_string ~file:"test" src

let expect_error ?(substring = "") src =
  match check src with
  | exception Diag.Compile_error d ->
    if substring <> "" then
      let msg = d.Diag.message in
      let contains =
        let needle = substring and hay = msg in
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      if not contains then
        Alcotest.fail
          (Printf.sprintf "error %S does not mention %S" msg substring)
  | _ -> Alcotest.fail "expected a type error"

let test_check_figure1 () =
  let p = check figure1 in
  let env = p.Tast.tenv in
  let tid_of name = List.assoc (Ident.intern name) p.Tast.type_names in
  let t = tid_of "T" and s1 = tid_of "S1" and s2 = tid_of "S2" in
  Alcotest.(check bool) "S1 <: T" true (Types.subtype env s1 t);
  Alcotest.(check bool) "S2 <: T" true (Types.subtype env s2 t);
  Alcotest.(check bool) "not S1 <: S2" false (Types.subtype env s1 s2);
  Alcotest.(check bool) "not T <: S1" false (Types.subtype env t s1);
  Alcotest.(check bool) "T <: ROOT" true (Types.subtype env t Types.tid_root);
  let subs = Reference.subtypes env t in
  Alcotest.(check bool) "Subtypes(T) contains S1, S2, S3, T" true
    (List.length (List.filter (fun u -> Types.is_object env u) subs) = 4)

let test_check_figure3 () =
  let p = check figure3 in
  let main =
    Option.get
      (List.find_opt (fun q -> Ident.equal q.Tast.p_name Tast.main_ident) p.Tast.procs)
  in
  Alcotest.(check int) "five statements" 5 (List.length main.Tast.p_body)

let test_check_subtype_assign () =
  (* t := s1 legal; s1 := t illegal (downcast) *)
  expect_error ~substring:"cannot assign"
    {|
MODULE M;
TYPE T = OBJECT END; S = T OBJECT END;
VAR t: T; s: S;
BEGIN
  t := s;
  s := t;
END M.
|}

let test_check_nil () =
  let p =
    check
      {|
MODULE M;
TYPE T = OBJECT END; P = REF INTEGER;
VAR t: T; p: P;
BEGIN
  t := NIL;
  p := NIL;
END M.
|}
  in
  ignore p

let test_check_var_param_exact_type () =
  expect_error ~substring:"VAR argument"
    {|
MODULE M;
TYPE T = OBJECT END; S = T OBJECT END;
PROCEDURE F (VAR x: T) = BEGIN END F;
VAR s: S;
BEGIN
  F (s);
END M.
|}

let test_check_ref_record_sugar () =
  (* p.f on a REF RECORD desugars to p^.f *)
  let p =
    check
      {|
MODULE M;
TYPE R = RECORD x: INTEGER; END; P = REF R;
VAR p: P;
BEGIN
  p := NEW (P);
  p.x := 3;
  PrintInt (p.x + p^.x);
END M.
|}
  in
  let main =
    Option.get
      (List.find_opt (fun q -> Ident.equal q.Tast.p_name Tast.main_ident) p.Tast.procs)
  in
  match (List.nth main.Tast.p_body 1).Tast.s_desc with
  | Tast.Sassign ({ Tast.desc = Tast.Efield ({ Tast.desc = Tast.Ederef _; _ }, _); _ }, _) -> ()
  | _ -> Alcotest.fail "expected desugared deref+field"

let test_check_open_array () =
  let p =
    check
      {|
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V; n: INTEGER;
BEGIN
  v := NEW (V, 10);
  v[0] := 42;
  n := Number (v);
  PrintInt (v[0] + n);
END M.
|}
  in
  ignore p

let test_check_fixed_array_bounds_decl () =
  expect_error
    {|
MODULE M;
TYPE A = ARRAY [3..9] OF INTEGER;
BEGIN
END M.
|}

let test_check_method_dispatch () =
  let p =
    check
      {|
MODULE M;
TYPE
  Node = OBJECT val: INTEGER; METHODS eval (): INTEGER := EvalNode; END;
  Neg = Node OBJECT OVERRIDES eval := EvalNeg; END;
PROCEDURE EvalNode (self: Node): INTEGER = BEGIN RETURN self.val; END EvalNode;
PROCEDURE EvalNeg (self: Node): INTEGER = BEGIN RETURN 0 - self.val; END EvalNeg;
VAR n: Node;
BEGIN
  n := NEW (Neg);
  n.val := 5;
  PrintInt (n.eval ());
END M.
|}
  in
  let env = p.Tast.tenv in
  let neg = List.assoc (Ident.intern "Neg") p.Tast.type_names in
  let node = List.assoc (Ident.intern "Node") p.Tast.type_names in
  Alcotest.(check (option string))
    "Neg's eval impl" (Some "EvalNeg")
    (Option.map Ident.name (Types.method_impl env neg (Ident.intern "eval")));
  Alcotest.(check (option string))
    "Node's eval impl" (Some "EvalNode")
    (Option.map Ident.name (Types.method_impl env node (Ident.intern "eval")))

let test_check_method_bad_receiver () =
  expect_error ~substring:"receiver"
    {|
MODULE M;
TYPE
  A = OBJECT METHODS m () := Impl; END;
  B = OBJECT END;
PROCEDURE Impl (self: B) = BEGIN END Impl;
BEGIN
END M.
|}

let test_check_recursive_type () =
  let p =
    check
      {|
MODULE M;
TYPE
  List = REF Cell;
  Cell = RECORD head: INTEGER; tail: List; END;
VAR l: List;
BEGIN
  l := NEW (List);
  l.head := 1;
  l.tail := NIL;
END M.
|}
  in
  ignore p

let test_check_cyclic_alias_rejected () =
  expect_error ~substring:"cyclic"
    {|
MODULE M;
TYPE A = B; B = A;
BEGIN
END M.
|}

let test_check_aggregate_assign_rejected () =
  expect_error ~substring:"aggregate"
    {|
MODULE M;
TYPE R = RECORD x: INTEGER; END;
VAR a: R; b: R;
BEGIN
  a := b;
END M.
|}

let test_check_with_alias_and_value () =
  let p =
    check
      {|
MODULE M;
TYPE R = RECORD x: INTEGER; END; P = REF R;
VAR p: P; n: INTEGER;
BEGIN
  p := NEW (P);
  WITH slot = p.x, twice = n + n DO
    slot := twice;
  END;
END M.
|}
  in
  let main =
    Option.get
      (List.find_opt (fun q -> Ident.equal q.Tast.p_name Tast.main_ident) p.Tast.procs)
  in
  match (List.nth main.Tast.p_body 1).Tast.s_desc with
  | Tast.Swith ([ b1; b2 ], _) ->
    Alcotest.(check bool) "slot is an alias" true b1.Tast.wb_alias;
    Alcotest.(check bool) "twice is a value" false b2.Tast.wb_alias
  | _ -> Alcotest.fail "expected WITH"

let test_check_with_value_readonly () =
  expect_error ~substring:"read-only"
    {|
MODULE M;
VAR n: INTEGER;
BEGIN
  WITH v = n + 1 DO
    v := 3;
  END;
END M.
|}

let test_check_for_var_readonly () =
  expect_error ~substring:"read-only"
    {|
MODULE M;
BEGIN
  FOR i := 0 TO 9 DO
    i := 3;
  END;
END M.
|}

let test_check_exit_outside_loop () =
  expect_error ~substring:"EXIT"
    {|
MODULE M;
BEGIN
  EXIT;
END M.
|}

let test_check_branded () =
  let p =
    check
      {|
MODULE M;
TYPE
  Pub = OBJECT x: INTEGER; END;
  Priv = BRANDED "secret" OBJECT y: INTEGER; END;
  PR = BRANDED "pr" REF INTEGER;
VAR a: Pub; b: Priv; r: PR;
BEGIN
  a := NEW (Pub); b := NEW (Priv); r := NEW (PR);
END M.
|}
  in
  let env = p.Tast.tenv in
  let priv = List.assoc (Ident.intern "Priv") p.Tast.type_names in
  match Types.desc env priv with
  | Types.Dobject { Types.obj_brand = Some "secret"; _ } -> ()
  | _ -> Alcotest.fail "expected brand on Priv"

let test_check_const () =
  let p =
    check
      {|
MODULE M;
CONST N = 4 * 10 + 2;
VAR a: ARRAY [0..9] OF INTEGER;
BEGIN
  a[0] := N;
  PrintInt (N);
END M.
|}
  in
  ignore p

let test_check_unknown_name () = expect_error ~substring:"unknown name"
  "MODULE M; BEGIN PrintInt (nope); END M."

let test_check_arity () =
  expect_error ~substring:"argument"
    {|
MODULE M;
PROCEDURE F (a: INTEGER; b: INTEGER) = BEGIN END F;
BEGIN
  F (1);
END M.
|}

(* --- domains ---------------------------------------------------------- *)

(* Two different modules typechecked at once on two domains, 200 times
   each. A check must not see the other's elaborator or intern table, so
   both stay clean and equal to their sequential results. *)
let test_concurrent_typecheck () =
  let source seed = (Gen.Generator.generate ~size:2 seed).Gen.Generator.source in
  let a = source 3 and b = source 5 in
  let check src =
    match Typecheck.check_string_all ~file:"c" src with
    | Ok p -> p
    | Error ds -> Alcotest.fail (String.concat "\n" (List.map Diag.to_string ds))
  in
  let same (p : Tast.program) (q : Tast.program) =
    Types.env_equal p.Tast.tenv q.Tast.tenv
    && p.Tast.type_names = q.Tast.type_names
    && p.Tast.globals = q.Tast.globals
    && p.Tast.procs = q.Tast.procs
  in
  let want_a = check a and want_b = check b in
  Alcotest.(check bool) "sequential checks repeat" true
    (same want_a (check a) && same want_b (check b));
  let ready = Atomic.make 0 in
  let loop src want =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    let bad = ref 0 in
    for _ = 1 to 200 do
      match check src with
      | p -> if not (same p want) then incr bad
      | exception _ -> incr bad
    done;
    !bad
  in
  let other = Domain.spawn (fun () -> loop b want_b) in
  let bad_a = loop a want_a in
  let bad_b = Domain.join other in
  Alcotest.(check (pair int int)) "checks that went wrong" (0, 0) (bad_a, bad_b)

(* Interning the same fresh names from two domains at once yields one
   ident per name. *)
let test_concurrent_intern () =
  let names = Array.init 20_000 (Printf.sprintf "concurrent_intern_%d") in
  let ids () = Array.map (fun s -> Ident.id (Ident.intern s)) names in
  let other = Domain.spawn ids in
  let mine = ids () in
  let theirs = Domain.join other in
  Alcotest.(check bool) "same ids on both domains" true (mine = theirs);
  Alcotest.(check bool) "distinct ids" true
    (List.length (List.sort_uniq compare (Array.to_list mine)) = Array.length names)

(* --- pretty printer -------------------------------------------------- *)

let test_pp_roundtrip_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let src = w.Workloads.Workload.source in
      let printed = Ast_pp.reprint ~file:"w" src in
      (* fixed point: printing is layout-stable *)
      Alcotest.(check string)
        (w.Workloads.Workload.name ^ ": print is a fixed point")
        printed
        (Ast_pp.reprint ~file:"w2" printed);
      (* semantic equivalence on the simulator *)
      let o1 = Sim.Interp.run (Ir.Lower.lower_string ~file:"a" src) in
      let o2 = Sim.Interp.run (Ir.Lower.lower_string ~file:"b" printed) in
      Alcotest.(check string)
        (w.Workloads.Workload.name ^ ": reprint behaves identically")
        o1.Sim.Interp.output o2.Sim.Interp.output)
    Workloads.Suite.all

let test_pp_escapes () =
  let src =
    "MODULE M;\nBEGIN\n  PrintChar ('\\n');\n  Print (\"a\\\"b\\\\c\");\nEND M.\n"
  in
  let printed = Ast_pp.reprint ~file:"esc" src in
  let o1 = Sim.Interp.run (Ir.Lower.lower_string ~file:"a" src) in
  let o2 = Sim.Interp.run (Ir.Lower.lower_string ~file:"b" printed) in
  Alcotest.(check string) "escaped literals survive" o1.Sim.Interp.output
    o2.Sim.Interp.output

let () =
  Alcotest.run "frontend"
    [ ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "keywords" `Quick test_lex_keywords_vs_idents;
          Alcotest.test_case "nested comments" `Quick test_lex_comments_nest;
          Alcotest.test_case "char and string" `Quick test_lex_char_and_string;
          Alcotest.test_case "dotdot" `Quick test_lex_dotdot;
          Alcotest.test_case "error" `Quick test_lex_error;
          Alcotest.test_case "golden fingerprints" `Quick test_lex_golden_fingerprints;
          Alcotest.test_case "every keyword" `Quick test_lex_every_keyword;
          Alcotest.test_case "edge cases" `Quick test_lex_edge_cases;
          QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x70CE |])
            prop_token_equal ] );
      ( "parser",
        [ Alcotest.test_case "figure1" `Quick test_parse_figure1;
          Alcotest.test_case "precedence" `Quick test_parse_expr_precedence;
          Alcotest.test_case "access path" `Quick test_parse_access_path;
          Alcotest.test_case "relations" `Quick test_parse_relations_nonassoc;
          Alcotest.test_case "objects with methods" `Quick test_parse_object_with_methods;
          Alcotest.test_case "decl order" `Quick test_parse_decl_order_preserved;
          Alcotest.test_case "error location" `Quick test_parse_error_location;
          Alcotest.test_case "lex error wins" `Quick test_parse_lex_error_wins;
          Alcotest.test_case "depth limit" `Quick test_parse_depth_limit ] );
      ( "typecheck",
        [ Alcotest.test_case "figure1 subtyping" `Quick test_check_figure1;
          Alcotest.test_case "figure3" `Quick test_check_figure3;
          Alcotest.test_case "subtype assignment" `Quick test_check_subtype_assign;
          Alcotest.test_case "nil" `Quick test_check_nil;
          Alcotest.test_case "var param exact type" `Quick test_check_var_param_exact_type;
          Alcotest.test_case "ref record sugar" `Quick test_check_ref_record_sugar;
          Alcotest.test_case "open array" `Quick test_check_open_array;
          Alcotest.test_case "array bounds" `Quick test_check_fixed_array_bounds_decl;
          Alcotest.test_case "method dispatch tables" `Quick test_check_method_dispatch;
          Alcotest.test_case "method bad receiver" `Quick test_check_method_bad_receiver;
          Alcotest.test_case "recursive type" `Quick test_check_recursive_type;
          Alcotest.test_case "cyclic alias" `Quick test_check_cyclic_alias_rejected;
          Alcotest.test_case "aggregate assign" `Quick test_check_aggregate_assign_rejected;
          Alcotest.test_case "with alias/value" `Quick test_check_with_alias_and_value;
          Alcotest.test_case "with value readonly" `Quick test_check_with_value_readonly;
          Alcotest.test_case "for var readonly" `Quick test_check_for_var_readonly;
          Alcotest.test_case "exit outside loop" `Quick test_check_exit_outside_loop;
          Alcotest.test_case "branded" `Quick test_check_branded;
          Alcotest.test_case "const" `Quick test_check_const;
          Alcotest.test_case "unknown name" `Quick test_check_unknown_name;
          Alcotest.test_case "arity" `Quick test_check_arity ] );
      ( "domains",
        [ Alcotest.test_case "concurrent typecheck" `Quick test_concurrent_typecheck;
          Alcotest.test_case "concurrent intern" `Quick test_concurrent_intern ] );
      ( "printer",
        [ Alcotest.test_case "workload round trips" `Slow test_pp_roundtrip_workloads;
          Alcotest.test_case "escapes" `Quick test_pp_escapes ] ) ]
