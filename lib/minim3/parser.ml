open Support

(* Tokens are pulled from the lexer on demand through a two-token window:
   the current token and, once [lookahead] asked for it, the one after. *)
type state = {
  lex : Lexer.t;
  mutable tok : Token.t;
  mutable loc : Loc.t;
  mutable off : int;  (* byte offset of [tok] *)
  mutable peeked : bool;  (* [next_tok]/[next_loc] hold the following token *)
  mutable next_tok : Token.t;
  mutable next_loc : Loc.t;
  mutable next_off : int;
  mutable depth : int;  (* open [nested] frames *)
}

let current st = st.tok
let current_loc st = st.loc

let lookahead st =
  if not st.peeked then begin
    st.next_tok <- Lexer.next st.lex;
    st.next_loc <- Lexer.last_loc st.lex;
    st.next_off <- Lexer.last_offset st.lex;
    st.peeked <- true
  end;
  st.next_tok

(* At [EOF] the lexer keeps answering [EOF] at the same place, so advancing
   there stays put. *)
let advance st =
  if st.peeked then begin
    st.tok <- st.next_tok;
    st.loc <- st.next_loc;
    st.off <- st.next_off;
    st.peeked <- false
  end
  else begin
    st.tok <- Lexer.next st.lex;
    st.loc <- Lexer.last_loc st.lex;
    st.off <- Lexer.last_offset st.lex
  end

(* Recursion depth bound: nesting deeper than this in expressions,
   statements and types is reported as a syntax error rather than left to
   exhaust the stack here or in the phases that walk the tree. No real
   program comes near it. *)
let max_depth = 1000

let[@inline] nested st parse =
  if st.depth >= max_depth then
    Diag.errorf_at st.loc "nesting deeper than %d levels" max_depth;
  st.depth <- st.depth + 1;
  let r = parse st in
  st.depth <- st.depth - 1;
  r

let error st fmt =
  Format.kasprintf
    (fun msg ->
      Diag.errorf_at (current_loc st) "%s (found '%s')" msg
        (Token.to_string (current st)))
    fmt

let accept st tok =
  if Token.equal (current st) tok then begin
    advance st;
    true
  end
  else false

let expect st tok =
  if not (accept st tok) then error st "expected '%s'" (Token.to_string tok)

let expect_ident st =
  match current st with
  | Token.IDENT s ->
    advance st;
    Ident.intern s
  | _ -> error st "expected identifier"

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

let rec parse_ty st : Ast.ty_expr = nested st parse_ty_desc

and parse_ty_desc st : Ast.ty_expr =
  let loc = current_loc st in
  let mk t_desc : Ast.ty_expr = { t_desc; t_loc = loc } in
  match current st with
  | Token.IDENT "INTEGER" ->
    advance st;
    mk Ast.Tint
  | Token.IDENT "BOOLEAN" ->
    advance st;
    mk Ast.Tbool
  | Token.IDENT "CHAR" ->
    advance st;
    mk Ast.Tchar
  | Token.ROOT ->
    advance st;
    if Token.equal (current st) Token.OBJECT then
      mk (Ast.Tobject (parse_object_body st ~super:(Some (mk Ast.Troot)) ~brand:None))
    else mk Ast.Troot
  | Token.ARRAY ->
    advance st;
    if accept st Token.LBRACKET then begin
      let lo =
        match current st with
        | Token.INT n ->
          advance st;
          n
        | _ -> error st "expected array lower bound"
      in
      expect st Token.DOTDOT;
      let hi =
        match current st with
        | Token.INT n ->
          advance st;
          n
        | _ -> error st "expected array upper bound"
      in
      expect st Token.RBRACKET;
      expect st Token.OF;
      if lo <> 0 then Diag.errorf_at loc "array lower bound must be 0";
      if hi < lo then Diag.errorf_at loc "empty array range";
      mk (Ast.Tarray (Some (hi - lo + 1), parse_ty st))
    end
    else begin
      expect st Token.OF;
      mk (Ast.Tarray (None, parse_ty st))
    end
  | Token.RECORD ->
    advance st;
    let fields = parse_field_decls st in
    expect st Token.END;
    mk (Ast.Trecord fields)
  | Token.BRANDED ->
    advance st;
    let brand =
      match current st with
      | Token.STRING s ->
        advance st;
        Some s
      | _ -> Some "<anon-brand>"
    in
    (match current st with
    | Token.REF ->
      advance st;
      mk (Ast.Tref (brand, parse_ty st))
    | Token.OBJECT -> mk (Ast.Tobject (parse_object_body st ~super:None ~brand))
    | Token.IDENT name when Token.equal (lookahead st) Token.OBJECT ->
      advance st;
      let super = { Ast.t_desc = Ast.Tname (Ident.intern name); t_loc = loc } in
      mk (Ast.Tobject (parse_object_body st ~super:(Some super) ~brand))
    | Token.ROOT when Token.equal (lookahead st) Token.OBJECT ->
      advance st;
      let super = { Ast.t_desc = Ast.Troot; t_loc = loc } in
      mk (Ast.Tobject (parse_object_body st ~super:(Some super) ~brand))
    | _ -> error st "expected REF or OBJECT after BRANDED")
  | Token.REF ->
    advance st;
    mk (Ast.Tref (None, parse_ty st))
  | Token.OBJECT -> mk (Ast.Tobject (parse_object_body st ~super:None ~brand:None))
  | Token.IDENT name ->
    if Token.equal (lookahead st) Token.OBJECT then begin
      advance st;
      let super = { Ast.t_desc = Ast.Tname (Ident.intern name); t_loc = loc } in
      mk (Ast.Tobject (parse_object_body st ~super:(Some super) ~brand:None))
    end
    else begin
      advance st;
      mk (Ast.Tname (Ident.intern name))
    end
  | _ -> error st "expected a type"

and parse_field_decls st : Ast.field_decl list =
  (* fields: "a, b: T; c: U;" — runs until END/METHODS/OVERRIDES *)
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let names = parse_ident_list st in
      expect st Token.COLON;
      let ty = parse_ty st in
      expect st Token.SEMI;
      let fields =
        List.map (fun n -> { Ast.f_name = n; f_ty = ty; f_loc = loc }) names
      in
      go (List.rev_append fields acc)
    | _ -> List.rev acc
  in
  go []

and parse_ident_list st =
  let first = expect_ident st in
  let rec go acc = if accept st Token.COMMA then go (expect_ident st :: acc) else List.rev acc in
  go [ first ]

and parse_object_body st ~super ~brand : Ast.object_decl =
  expect st Token.OBJECT;
  let fields = parse_field_decls st in
  let methods = if accept st Token.METHODS then parse_method_decls st else [] in
  let overrides = if accept st Token.OVERRIDES then parse_overrides st else [] in
  expect st Token.END;
  { Ast.o_super = super; o_brand = brand; o_fields = fields;
    o_methods = methods; o_overrides = overrides }

and parse_method_decls st : Ast.method_decl list =
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let name = expect_ident st in
      expect st Token.LPAREN;
      let params = parse_params st in
      expect st Token.RPAREN;
      let ret = if accept st Token.COLON then Some (parse_ty st) else None in
      let impl = if accept st Token.ASSIGN then Some (expect_ident st) else None in
      expect st Token.SEMI;
      go ({ Ast.m_name = name; m_params = params; m_ret = ret; m_impl = impl; m_loc = loc } :: acc)
    | _ -> List.rev acc
  in
  go []

and parse_overrides st =
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let name = expect_ident st in
      expect st Token.ASSIGN;
      let impl = expect_ident st in
      expect st Token.SEMI;
      go ((name, impl, loc) :: acc)
    | _ -> List.rev acc
  in
  go []

and parse_params st : Ast.param_decl list =
  if Token.equal (current st) Token.RPAREN then []
  else begin
    let rec one acc =
      let loc = current_loc st in
      let mode = if accept st Token.VAR then Ast.By_ref else Ast.By_value in
      let names = parse_ident_list st in
      expect st Token.COLON;
      let ty = parse_ty st in
      let params =
        List.map
          (fun n -> { Ast.p_name = n; p_mode = mode; p_ty = ty; p_loc = loc })
          names
      in
      let acc = List.rev_append params acc in
      if accept st Token.SEMI then one acc else List.rev acc
    in
    one []
  end

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

(* Every way back into a rule of this group without consuming a bracket
   (OR/AND right operands, NOT, unary minus) goes through [nested], like
   the bracketed ones through [parse_expr]. *)
let rec parse_expr st : Ast.expr = nested st parse_or

and mk_e st loc e_desc : Ast.expr =
  ignore st;
  { Ast.e_desc; e_loc = loc }

and parse_or st =
  let loc = current_loc st in
  let lhs = parse_and st in
  if accept st Token.OR then mk_e st loc (Ast.Binop (Ast.Or, lhs, parse_expr st))
  else lhs

and parse_and st =
  let loc = current_loc st in
  let lhs = parse_not st in
  if accept st Token.AND then
    mk_e st loc (Ast.Binop (Ast.And, lhs, nested st parse_and))
  else lhs

and parse_not st =
  let loc = current_loc st in
  if accept st Token.NOT then mk_e st loc (Ast.Unop (Ast.Not, nested st parse_not))
  else parse_relation st

and parse_relation st =
  let loc = current_loc st in
  let lhs = parse_additive st in
  let op =
    match current st with
    | Token.EQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    mk_e st loc (Ast.Binop (op, lhs, parse_additive st))

and parse_additive st =
  let loc = current_loc st in
  let rec go lhs =
    match current st with
    | Token.PLUS ->
      advance st;
      go (mk_e st loc (Ast.Binop (Ast.Add, lhs, parse_multiplicative st)))
    | Token.MINUS ->
      advance st;
      go (mk_e st loc (Ast.Binop (Ast.Sub, lhs, parse_multiplicative st)))
    | _ -> lhs
  in
  go (parse_multiplicative st)

and parse_multiplicative st =
  let loc = current_loc st in
  let rec go lhs =
    match current st with
    | Token.STAR ->
      advance st;
      go (mk_e st loc (Ast.Binop (Ast.Mul, lhs, parse_unary st)))
    | Token.DIV ->
      advance st;
      go (mk_e st loc (Ast.Binop (Ast.Div, lhs, parse_unary st)))
    | Token.MOD ->
      advance st;
      go (mk_e st loc (Ast.Binop (Ast.Mod, lhs, parse_unary st)))
    | _ -> lhs
  in
  go (parse_unary st)

and parse_unary st =
  let loc = current_loc st in
  if accept st Token.MINUS then mk_e st loc (Ast.Unop (Ast.Neg, nested st parse_unary))
  else parse_postfix st

and parse_postfix st =
  let rec go e =
    let loc = current_loc st in
    match current st with
    | Token.DOT ->
      advance st;
      let f = expect_ident st in
      go (mk_e st loc (Ast.Field (e, f)))
    | Token.CARET ->
      advance st;
      go (mk_e st loc (Ast.Deref e))
    | Token.LBRACKET ->
      advance st;
      let idx = parse_expr st in
      expect st Token.RBRACKET;
      go (mk_e st loc (Ast.Index (e, idx)))
    | Token.LPAREN ->
      advance st;
      let args = parse_args st in
      expect st Token.RPAREN;
      go (mk_e st loc (Ast.Call (e, args)))
    | _ -> e
  in
  go (parse_primary st)

and parse_args st =
  if Token.equal (current st) Token.RPAREN then []
  else begin
    let rec go acc =
      let acc = parse_expr st :: acc in
      if accept st Token.COMMA then go acc else List.rev acc
    in
    go []
  end

and parse_primary st =
  let loc = current_loc st in
  match current st with
  | Token.INT n ->
    advance st;
    mk_e st loc (Ast.Int_lit n)
  | Token.CHARLIT c ->
    advance st;
    mk_e st loc (Ast.Char_lit c)
  | Token.STRING s ->
    advance st;
    mk_e st loc (Ast.String_lit s)
  | Token.TRUE ->
    advance st;
    mk_e st loc (Ast.Bool_lit true)
  | Token.FALSE ->
    advance st;
    mk_e st loc (Ast.Bool_lit false)
  | Token.NIL ->
    advance st;
    mk_e st loc Ast.Nil
  | Token.NEW ->
    advance st;
    expect st Token.LPAREN;
    let ty = parse_ty st in
    let args = if accept st Token.COMMA then parse_args st else [] in
    expect st Token.RPAREN;
    mk_e st loc (Ast.New (ty, args))
  | Token.IDENT s ->
    advance st;
    mk_e st loc (Ast.Name (Ident.intern s))
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN;
    e
  | _ -> error st "expected an expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_stmts st : Ast.stmt list =
  let rec go acc =
    match current st with
    | Token.END | Token.ELSE | Token.ELSIF | Token.UNTIL | Token.EOF -> List.rev acc
    | _ -> go (parse_stmt st :: acc)
  in
  go []

and parse_stmt st : Ast.stmt = nested st parse_stmt_desc

and parse_stmt_desc st : Ast.stmt =
  let loc = current_loc st in
  let mk s_desc : Ast.stmt = { Ast.s_desc; s_loc = loc } in
  match current st with
  | Token.IF ->
    advance st;
    let cond = parse_expr st in
    expect st Token.THEN;
    let body = parse_stmts st in
    let rec elsifs acc =
      if accept st Token.ELSIF then begin
        let c = parse_expr st in
        expect st Token.THEN;
        let b = parse_stmts st in
        elsifs ((c, b) :: acc)
      end
      else List.rev acc
    in
    let branches = (cond, body) :: elsifs [] in
    let else_ = if accept st Token.ELSE then parse_stmts st else [] in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.If (branches, else_))
  | Token.WHILE ->
    advance st;
    let cond = parse_expr st in
    expect st Token.DO;
    let body = parse_stmts st in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.While (cond, body))
  | Token.REPEAT ->
    advance st;
    let body = parse_stmts st in
    expect st Token.UNTIL;
    let cond = parse_expr st in
    expect st Token.SEMI;
    mk (Ast.Repeat (body, cond))
  | Token.LOOP ->
    advance st;
    let body = parse_stmts st in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.Loop body)
  | Token.FOR ->
    advance st;
    let v = expect_ident st in
    expect st Token.ASSIGN;
    let lo = parse_expr st in
    expect st Token.TO;
    let hi = parse_expr st in
    let step =
      if accept st Token.BY then begin
        match current st with
        | Token.INT n ->
          advance st;
          n
        | Token.MINUS ->
          advance st;
          (match current st with
          | Token.INT n ->
            advance st;
            -n
          | _ -> error st "expected step constant")
        | _ -> error st "expected step constant"
      end
      else 1
    in
    expect st Token.DO;
    let body = parse_stmts st in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.For (v, lo, hi, step, body))
  | Token.EXIT ->
    advance st;
    expect st Token.SEMI;
    mk Ast.Exit
  | Token.RETURN ->
    advance st;
    let v = if Token.equal (current st) Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    mk (Ast.Return v)
  | Token.WITH ->
    advance st;
    let rec bindings acc =
      let name = expect_ident st in
      expect st Token.EQ;
      let e = parse_expr st in
      let acc = (name, e) :: acc in
      if accept st Token.COMMA then bindings acc else List.rev acc
    in
    let binds = bindings [] in
    expect st Token.DO;
    let body = parse_stmts st in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.With (binds, body))
  | _ ->
    (* assignment or call statement *)
    let e = parse_expr st in
    if accept st Token.ASSIGN then begin
      let rhs = parse_expr st in
      expect st Token.SEMI;
      mk (Ast.Assign (e, rhs))
    end
    else begin
      expect st Token.SEMI;
      match e.Ast.e_desc with
      | Ast.Call _ -> mk (Ast.Call_stmt e)
      | _ -> Diag.errorf_at loc "expression statement must be a call"
    end

(* ------------------------------------------------------------------ *)
(* Declarations and modules                                           *)
(* ------------------------------------------------------------------ *)

let parse_var_decls st : Ast.var_decl list =
  (* after VAR: "a, b: T := e;" repeated while an identifier starts a line *)
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let names = parse_ident_list st in
      expect st Token.COLON;
      let ty = parse_ty st in
      let init = if accept st Token.ASSIGN then Some (parse_expr st) else None in
      expect st Token.SEMI;
      let decls =
        List.map
          (fun n -> { Ast.v_name = n; v_ty = ty; v_init = init; v_loc = loc })
          names
      in
      go (List.rev_append decls acc)
    | _ -> List.rev acc
  in
  go []

let parse_const_decls st : Ast.const_decl list =
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let name = expect_ident st in
      expect st Token.EQ;
      let value = parse_expr st in
      expect st Token.SEMI;
      go ({ Ast.c_name = name; c_value = value; c_loc = loc } :: acc)
    | _ -> List.rev acc
  in
  go []

let parse_type_decls st =
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let name = expect_ident st in
      expect st Token.EQ;
      let ty = parse_ty st in
      expect st Token.SEMI;
      go (Ast.Dtype (name, ty, loc) :: acc)
    | _ -> List.rev acc
  in
  go []

(* A procedure declaration up to its closing ';', which is left current:
   the caller decides whether to read past it. *)
let parse_proc_to_semi st : Ast.proc_decl =
  let loc = current_loc st in
  expect st Token.PROCEDURE;
  let name = expect_ident st in
  expect st Token.LPAREN;
  let params = parse_params st in
  expect st Token.RPAREN;
  let ret = if accept st Token.COLON then Some (parse_ty st) else None in
  expect st Token.EQ;
  let consts = if accept st Token.CONST then parse_const_decls st else [] in
  let locals = if accept st Token.VAR then parse_var_decls st else [] in
  expect st Token.BEGIN;
  let body = parse_stmts st in
  expect st Token.END;
  let end_name = expect_ident st in
  if not (Ident.equal end_name name) then
    Diag.errorf_at (current_loc st) "procedure ends with '%s', expected '%s'"
      (Ident.name end_name) (Ident.name name);
  if not (Token.equal (current st) Token.SEMI) then
    error st "expected '%s'" (Token.to_string Token.SEMI);
  { Ast.pr_name = name; pr_params = params; pr_ret = ret; pr_consts = consts;
    pr_locals = locals; pr_body = body; pr_loc = loc }

type span = { sp_start : int; sp_stop : int; sp_line : int }

let parse_module_state st =
  let spans = ref [] in
  let loc = current_loc st in
  expect st Token.MODULE;
  let name = expect_ident st in
  expect st Token.SEMI;
  let rec decls acc =
    match current st with
    | Token.TYPE ->
      advance st;
      (* [acc] is reversed overall, so a section must be prepended in
         reverse to come out in declaration order after the final rev. *)
      decls (List.rev_append (parse_type_decls st) acc)
    | Token.CONST ->
      advance st;
      let cs = parse_const_decls st in
      decls (List.rev_append (List.map (fun c -> Ast.Dconst c) cs) acc)
    | Token.VAR ->
      advance st;
      let vs = parse_var_decls st in
      decls (List.rev_append (List.map (fun v -> Ast.Dvar v) vs) acc)
    | Token.PROCEDURE ->
      let start = st.off and line = st.loc.Loc.line in
      let p = parse_proc_to_semi st in
      spans :=
        { sp_start = start; sp_stop = st.off + 1; sp_line = line } :: !spans;
      advance st;
      decls (Ast.Dproc p :: acc)
    | _ -> List.rev acc
  in
  let ds = decls [] in
  let body =
    if accept st Token.BEGIN then parse_stmts st
    else []
  in
  expect st Token.END;
  let end_name = expect_ident st in
  if not (Ident.equal end_name name) then
    Diag.errorf_at (current_loc st) "module ends with '%s', expected '%s'"
      (Ident.name end_name) (Ident.name name);
  expect st Token.DOT;
  ( { Ast.mod_name = name; mod_decls = ds; mod_body = body; mod_loc = loc },
    Array.of_list (List.rev !spans) )

(* Lexing stays ahead of parsing by at most one token, but the outcome is
   that of lexing the whole input first: however [parse] ends, the rest of
   the input is lexed, and a lexical error there replaces the result. *)
let start lex =
  let tok = Lexer.next lex in
  { lex; tok; loc = Lexer.last_loc lex; off = Lexer.last_offset lex;
    peeked = false; next_tok = Token.EOF; next_loc = Loc.dummy; next_off = 0;
    depth = 0 }

let run ~file src parse =
  let lex = Lexer.create ~file src in
  match parse (start lex) with
  | r ->
    Lexer.finish lex;
    r
  | exception (Diag.Compile_error _ as e) ->
    Lexer.finish lex;
    raise e

let parse_module_spans ~file src = run ~file src parse_module_state
let parse_module ~file src = fst (parse_module_spans ~file src)

(* Nothing past the closing ';' is lexed: the caller knows the rest of
   the text, and a declaration that ends where it should is enough. *)
let parse_proc_at ~file src ~pos ~line =
  let st = start (Lexer.create_at ~file src ~pos ~line) in
  let p = parse_proc_to_semi st in
  (p, st.off + 1)

let parse_expr_string src =
  run ~file:"<expr>" src (fun st ->
      let e = parse_expr st in
      if not (Token.equal (current st) Token.EOF) then error st "trailing tokens";
      e)
