open Support

(* The hot path reads bytes with [get], which returns '\000' past the end
   instead of a [char option], keeps every helper top-level (no closure per
   token) and copies text only for the payload of an IDENT or STRING token.
   A token costs its [Loc.t] and, for IDENT/INT/CHARLIT/STRING, its payload
   block; a character costs nothing. *)

type t = {
  file : string;
  src : string;
  len : int;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (* offset of the start of the current line *)
  mutable tok_loc : Loc.t;  (* where the token [next] last returned starts *)
  mutable tok_pos : int;  (* the offset of that token *)
  mutable finished : bool;  (* [next] returned [EOF] or raised *)
}

let create_at ~file src ~pos ~line =
  let bol =
    match String.rindex_from_opt src (pos - 1) '\n' with
    | Some i -> i + 1
    | None -> 0
  in
  { file; src; len = String.length src; pos; line; bol; tok_loc = Loc.dummy;
    tok_pos = pos; finished = false }

let create ~file src = create_at ~file src ~pos:0 ~line:1

let last_loc t = t.tok_loc
let last_offset t = t.tok_pos

let loc t = Loc.make ~file:t.file ~line:t.line ~col:(t.pos - t.bol + 1)

(* Every lexical error goes through here, so [finish] knows not to resume. *)
let fail t l fmt =
  t.finished <- true;
  Diag.errorf_at l fmt

(* Sentinel read: '\000' past the end of the input. A NUL inside the input
   is told apart by position wherever it matters. *)
let[@inline] get t i = if i < t.len then String.unsafe_get t.src i else '\000'

let[@inline] newline t p =
  t.line <- t.line + 1;
  t.bol <- p + 1

let rec skip_comment t depth start =
  let p = t.pos in
  if p >= t.len then fail t start "unterminated comment"
  else
    match String.unsafe_get t.src p with
    | '*' when get t (p + 1) = ')' ->
      t.pos <- p + 2;
      if depth > 1 then skip_comment t (depth - 1) start
    | '(' when get t (p + 1) = '*' ->
      t.pos <- p + 2;
      skip_comment t (depth + 1) start
    | '\n' ->
      newline t p;
      t.pos <- p + 1;
      skip_comment t depth start
    | _ ->
      t.pos <- p + 1;
      skip_comment t depth start

let rec skip_ws t =
  let p = t.pos in
  match get t p with
  | ' ' | '\t' | '\r' ->
    t.pos <- p + 1;
    skip_ws t
  | '\n' ->
    newline t p;
    t.pos <- p + 1;
    skip_ws t
  | '(' when get t (p + 1) = '*' ->
    let start = loc t in
    t.pos <- p + 2;
    skip_comment t 1 start;
    skip_ws t
  | _ -> ()

let lex_escape t start =
  let p = t.pos in
  if p >= t.len then fail t start "unterminated escape"
  else
    let c =
      match String.unsafe_get t.src p with
      | 'n' -> '\n'
      | 't' -> '\t'
      | ('\\' | '\'' | '"') as c -> c
      | c -> fail t start "unknown escape '\\%c'" c
    in
    t.pos <- p + 1;
    c

let lex_char t start =
  let p = t.pos + 1 (* past the opening quote *) in
  t.pos <- p;
  let c =
    match get t p with
    | '\\' ->
      t.pos <- p + 1;
      lex_escape t start
    | c when c <> '\'' && p < t.len ->
      if c = '\n' then newline t p;
      t.pos <- p + 1;
      c
    | _ -> fail t start "malformed character literal"
  in
  if get t t.pos = '\'' then begin
    t.pos <- t.pos + 1;
    Token.CHARLIT c
  end
  else fail t start "character literal missing closing quote"

let rec lex_string_body t start buf =
  let p = t.pos in
  match get t p with
  | '"' ->
    t.pos <- p + 1;
    Token.STRING (Buffer.contents buf)
  | '\\' ->
    t.pos <- p + 1;
    Buffer.add_char buf (lex_escape t start);
    lex_string_body t start buf
  | c when c <> '\n' && p < t.len ->
    t.pos <- p + 1;
    Buffer.add_char buf c;
    lex_string_body t start buf
  | _ -> fail t start "unterminated string literal"

let lex_string t start =
  t.pos <- t.pos + 1;
  lex_string_body t start (Buffer.create 16)

(* The value is accumulated in place; the digits are copied only for the
   error message. The range is [int_of_string]'s: 0 to [max_int]. *)
let rec lex_digits t start p n ok =
  match get t p with
  | '0' .. '9' as c ->
    let d = Char.code c - Char.code '0' in
    lex_digits t start (p + 1) ((n * 10) + d) (ok && n <= (max_int - d) / 10)
  | _ ->
    t.pos <- p;
    if ok then Token.INT n
    else
      fail t (loc t) "integer literal out of range: %s"
        (String.sub t.src start (p - start))

(* Keywords bucketed by (length, first letter). Every keyword is upper-case
   ASCII, so a word is compared in place against at most a couple of
   candidates before any copy is made. *)
let max_kw_len =
  List.fold_left (fun m (s, _) -> max m (String.length s)) 0 Token.keyword_table

let[@inline] kw_bucket n c = (n * 26) + Char.code c - Char.code 'A'

let kw_buckets =
  let a = Array.make (kw_bucket max_kw_len 'Z' + 1) [] in
  List.iter
    (fun ((s, _) as kw) ->
      let i = kw_bucket (String.length s) s.[0] in
      a.(i) <- kw :: a.(i))
    Token.keyword_table;
  a

let rec word_end t p =
  match get t p with
  | 'a' .. 'z' | 'A' .. 'Z' | '_' | '0' .. '9' -> word_end t (p + 1)
  | _ -> p

(* [kw] spells the [n] bytes at [start] (its first byte already matched). *)
let rec spells t start n kw i =
  i = n
  || String.unsafe_get kw i = String.unsafe_get t.src (start + i)
     && spells t start n kw (i + 1)

let rec find_keyword t start n = function
  | [] -> Token.IDENT (String.sub t.src start n)
  | (kw, tok) :: rest ->
    if spells t start n kw 1 then tok else find_keyword t start n rest

let lex_word t =
  let start = t.pos in
  let stop = word_end t (start + 1) in
  t.pos <- stop;
  let n = stop - start in
  match String.unsafe_get t.src start with
  | 'A' .. 'Z' as c when n <= max_kw_len ->
    find_keyword t start n kw_buckets.(kw_bucket n c)
  | _ -> Token.IDENT (String.sub t.src start n)

let[@inline] one t p tok =
  t.pos <- p + 1;
  tok

(* [tok2] if the byte after [p] is [second], else the one-byte [tok1]. *)
let[@inline] two t p second tok2 tok1 =
  if get t (p + 1) = second then begin
    t.pos <- p + 2;
    tok2
  end
  else one t p tok1

let next t =
  skip_ws t;
  let p = t.pos in
  let l = loc t in
  t.tok_loc <- l;
  t.tok_pos <- p;
  if p >= t.len then begin
    t.finished <- true;
    Token.EOF
  end
  else
    match String.unsafe_get t.src p with
    | '0' .. '9' -> lex_digits t p p 0 true
    | 'a' .. 'z' | 'A' .. 'Z' | '_' -> lex_word t
    | '\'' -> lex_char t l
    | '"' -> lex_string t l
    | ';' -> one t p Token.SEMI
    | ',' -> one t p Token.COMMA
    | ':' -> two t p '=' Token.ASSIGN Token.COLON
    | '=' -> one t p Token.EQ
    | '#' -> one t p Token.NE
    | '<' -> two t p '=' Token.LE Token.LT
    | '>' -> two t p '=' Token.GE Token.GT
    | '+' -> one t p Token.PLUS
    | '-' -> one t p Token.MINUS
    | '*' -> one t p Token.STAR
    | '(' -> one t p Token.LPAREN
    | ')' -> one t p Token.RPAREN
    | '[' -> one t p Token.LBRACKET
    | ']' -> one t p Token.RBRACKET
    | '^' -> one t p Token.CARET
    | '.' -> two t p '.' Token.DOTDOT Token.DOT
    | c -> fail t l "unexpected character '%c'" c

let finish t =
  while not t.finished do
    ignore (next t)
  done

let tokenize ~file src =
  let t = create ~file src in
  let rec go acc =
    let tok = next t in
    let acc = (tok, t.tok_loc) :: acc in
    match tok with Token.EOF -> List.rev acc | _ -> go acc
  in
  go []
