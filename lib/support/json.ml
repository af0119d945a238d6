type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

let buf_escape b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let rec emit b = function
  | Null -> Buffer.add_string b "null"
  | Bool v -> Buffer.add_string b (if v then "true" else "false")
  | Int n -> Buffer.add_string b (string_of_int n)
  | Float f ->
    if Float.is_integer f && Float.abs f < 1e15 then
      Buffer.add_string b (Printf.sprintf "%.1f" f)
    else if Float.is_nan f || Float.abs f = Float.infinity then
      Buffer.add_string b "null"
    else Buffer.add_string b (Printf.sprintf "%.6g" f)
  | String s ->
    Buffer.add_char b '"';
    buf_escape b s;
    Buffer.add_char b '"'
  | List xs ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char b ',';
        emit b x)
      xs;
    Buffer.add_char b ']'
  | Obj fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_char b '"';
        buf_escape b k;
        Buffer.add_string b "\":";
        emit b v)
      fields;
    Buffer.add_char b '}'

let to_string v =
  let b = Buffer.create 256 in
  emit b v;
  Buffer.contents b

let of_stats stats = Obj (List.map (fun (k, n) -> (k, Int n)) stats)

(* The one structured-output envelope every machine-readable emitter in
   this repository shares (tbaac --stats records, bench snapshots, tbaad
   stats responses): a versioned object whose first key is the schema
   number, so consumers can dispatch before reading anything else. *)
let schema_version = 1

let envelope ?(schema = schema_version) fields =
  Obj (("schema", Int schema) :: fields)

let schema_of = function
  | Obj kvs -> (
    match List.assoc_opt "schema" kvs with Some (Int n) -> Some n | _ -> None)
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let parse_fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* Adversarial-input bound: the parser recurses once per nesting level, so
   unbounded depth turns attacker-controlled input into [Stack_overflow]
   (an asynchronous exception no server loop can treat as a request
   error). 512 is far beyond anything our emitters produce. *)
let max_depth = 512

(* The decoder scans [s] by index: no option per peeked character, no
   buffer for a string without escapes, and a plain integer — an optional
   minus and at most 18 digits, which cannot overflow — accumulated digit
   by digit. Any other number goes through [int_of_string_opt] and
   [float_of_string_opt] over its text, as do the error messages. *)
let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let skip_ws () =
    while
      !pos < n
      && match String.unsafe_get s !pos with
         | ' ' | '\t' | '\n' | '\r' -> true
         | _ -> false
    do
      incr pos
    done
  in
  (* The next character, if it is [c]: consume it. *)
  let eat c =
    !pos < n && String.unsafe_get s !pos = c && (incr pos; true)
  in
  let expect c =
    if !pos >= n then parse_fail "expected %C at %d, found end of input" c !pos
    else if String.unsafe_get s !pos = c then incr pos
    else parse_fail "expected %C at %d, found %C" c !pos s.[!pos]
  in
  let literal word v =
    let l = String.length word in
    let rec same k = k = l || (s.[!pos + k] = word.[k] && same (k + 1)) in
    if !pos + l <= n && same 0 then begin
      pos := !pos + l;
      v
    end
    else parse_fail "bad literal at %d" !pos
  in
  (* The escaped tail of a string whose first [!pos - start] bytes held no
     escape. *)
  let escaped_string start =
    let b = Buffer.create (2 * (!pos - start) + 16) in
    Buffer.add_substring b s start (!pos - start);
    let rec go () =
      if !pos >= n then parse_fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
        if !pos >= n then parse_fail "unterminated escape";
        let e = s.[!pos] in
        incr pos;
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char b e;
          go ()
        | 'n' -> Buffer.add_char b '\n'; go ()
        | 'r' -> Buffer.add_char b '\r'; go ()
        | 't' -> Buffer.add_char b '\t'; go ()
        | 'b' -> Buffer.add_char b '\b'; go ()
        | 'f' -> Buffer.add_char b '\012'; go ()
        | 'u' ->
          if !pos + 4 > n then parse_fail "truncated \\u escape at %d" !pos;
          let hex = String.sub s !pos 4 in
          (* Validate the digits ourselves: [int_of_string] both raises a
             bare Failure and accepts non-JSON forms like "12_3". *)
          let is_hex = function
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
            | _ -> false
          in
          if not (String.for_all is_hex hex) then
            parse_fail "bad \\u escape '\\u%s' at %d" hex !pos;
          let code = int_of_string ("0x" ^ hex) in
          pos := !pos + 4;
          (* Our emitter only produces \u00xx control escapes; anything
             above Latin-1 would need real UTF-8 encoding. *)
          if code < 0x100 then Buffer.add_char b (Char.chr code)
          else Buffer.add_char b '?';
          go ()
        | _ -> parse_fail "bad escape \\%C at %d" e !pos)
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_string () =
    expect '"';
    let start = !pos in
    while
      !pos < n
      && match String.unsafe_get s !pos with '"' | '\\' -> false | _ -> true
    do
      incr pos
    done;
    if !pos < n && String.unsafe_get s !pos = '"' then begin
      incr pos;
      String.sub s start (!pos - 1 - start)
    end
    else escaped_string start
  in
  let is_num_char = function
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  let number_text start =
    while !pos < n && is_num_char s.[!pos] do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    let is_integer_text =
      text <> ""
      && String.for_all (function '0' .. '9' | '-' -> true | _ -> false) text
    in
    match int_of_string_opt text with
    | Some i -> Int i
    | None when is_integer_text ->
      (* A decimal integer [int_of_string] rejected is out of the 63-bit
         range: refuse it rather than silently rounding through float. *)
      parse_fail "integer %S out of range at %d" text start
    | None -> (
      match float_of_string_opt text with
      | Some f when Float.is_finite f -> Float f
      | Some _ -> parse_fail "number %S out of range at %d" text start
      | None -> parse_fail "bad number %S at %d" text start)
  in
  let parse_number () =
    let start = !pos in
    let negative = start < n && String.unsafe_get s start = '-' in
    let digits = if negative then start + 1 else start in
    (* A local cursor, written back once: the loop keeps it in a
       register. *)
    let i = ref digits and acc = ref 0 in
    while
      !i < n
      && !i - digits < 19
      && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
    do
      acc := (!acc * 10) + (Char.code (String.unsafe_get s !i) - 48);
      incr i
    done;
    let count = !i - digits in
    if
      count > 0 && count <= 18
      && not (!i < n && is_num_char (String.unsafe_get s !i))
    then begin
      pos := !i;
      Int (if negative then - !acc else !acc)
    end
    else begin
      pos := start;
      number_text start
    end
  in
  (* The digits of a plain integer of at most 18 digits at [!i], advancing
     [i] past them: the value, or -1 when there is no digit. *)
  let digits i =
    let d = !i and acc = ref 0 in
    while
      !i < n
      && !i - d < 18
      && match String.unsafe_get s !i with '0' .. '9' -> true | _ -> false
    do
      acc := (!acc * 10) + (Char.code (String.unsafe_get s !i) - 48);
      incr i
    done;
    if !i = d then -1 else !acc
  in
  (* Just after a '[': a list of exactly two unsigned integers written
     without spaces — a memref pair — decoded in one scan, to the value
     the general path gives it. [None], with the cursor unmoved, for
     anything else. *)
  let int_pair () =
    let i = ref !pos in
    let a = digits i in
    if a >= 0 && !i < n && String.unsafe_get s !i = ',' then begin
      incr i;
      let b = digits i in
      if b >= 0 && !i < n && String.unsafe_get s !i = ']' then begin
        pos := !i + 1;
        Some (List [ Int a; Int b ])
      end
      else None
    end
    else None
  in
  let rec parse_value depth =
    if depth > max_depth then
      parse_fail "nesting deeper than %d at %d" max_depth !pos;
    skip_ws ();
    if !pos >= n then parse_fail "unexpected end of input";
    match String.unsafe_get s !pos with
    | '{' ->
      incr pos;
      skip_ws ();
      if eat '}' then Obj []
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          if eat ',' then members ((k, v) :: acc)
          else if eat '}' then Obj (List.rev ((k, v) :: acc))
          else parse_fail "expected ',' or '}' at %d" !pos
        in
        members []
      end
    | '[' -> (
      incr pos;
      match if depth < max_depth then int_pair () else None with
      | Some pair -> pair
      | None ->
        skip_ws ();
        if eat ']' then List []
        else begin
          let rec elements acc =
            let v = parse_value (depth + 1) in
            skip_ws ();
            if eat ',' then elements (v :: acc)
            else if eat ']' then List (List.rev (v :: acc))
            else parse_fail "expected ',' or ']' at %d" !pos
          in
          (* The first two elements in place: most lists are short, and
             one of one or two elements needs no reversal. *)
          let v1 = parse_value (depth + 1) in
          skip_ws ();
          if eat ',' then begin
            let v2 = parse_value (depth + 1) in
            skip_ws ();
            if eat ',' then elements [ v2; v1 ]
            else if eat ']' then List [ v1; v2 ]
            else parse_fail "expected ',' or ']' at %d" !pos
          end
          else if eat ']' then List [ v1 ]
          else parse_fail "expected ',' or ']' at %d" !pos
        end)
    | '"' -> String (parse_string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then parse_fail "trailing input at %d" !pos;
  v

let parse s =
  match of_string s with
  | v -> Ok v
  | exception Parse_error msg ->
    Error { Diag.severity = Diag.Error; loc = Loc.dummy; message = msg }
  (* Belt and braces: the depth cap should make this unreachable, but a
     server must never die on attacker-controlled input. *)
  | exception Stack_overflow ->
    Error
      { Diag.severity = Diag.Error; loc = Loc.dummy;
        message = "json: input too deeply nested" }

let member key = function Obj kvs -> List.assoc_opt key kvs | _ -> None

let to_float = function
  | Int i -> Some (float_of_int i)
  | Float f -> Some f
  | _ -> None
