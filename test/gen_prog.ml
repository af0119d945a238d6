(* A deterministic random MiniM3 program generator for property testing.

   Programs are well-typed by construction over a fixed prelude (an object
   hierarchy with subtyping, a record behind a REF, an open integer array,
   integer globals) and exercise: field/deref/subscript paths, pointer
   assignment (including upcasts), NEW, procedure calls, VAR actuals, WITH
   aliases, FOR loops and conditionals. Loops are bounded by construction;
   any NIL dereference or wild subscript is a *defined* soft fault of the
   total simulator semantics, so outputs remain comparable across
   optimization levels. *)

open Support

let int_designators =
  [ "g1"; "g2"; "t.a"; "t.b"; "s.c"; "s.a"; "pr.x"; "pr.y" ]

let rec int_expr rng depth =
  if depth <= 0 then
    match Prng.int rng 4 with
    | 0 -> string_of_int (Prng.int rng 100)
    | 1 -> "g1"
    | 2 -> "g2"
    | _ -> Prng.pick rng int_designators
  else
    match Prng.int rng 8 with
    | 0 -> string_of_int (Prng.int rng 100)
    | 1 -> Prng.pick rng int_designators
    | 2 -> "t.next.a"
    | 3 -> Printf.sprintf "vi[Abs (%s) MOD 8]" (int_expr rng (depth - 1))
    | 4 ->
      Printf.sprintf "(%s + %s)" (int_expr rng (depth - 1)) (int_expr rng (depth - 1))
    | 5 ->
      Printf.sprintf "(%s - %s)" (int_expr rng (depth - 1)) (int_expr rng (depth - 1))
    | 6 -> Printf.sprintf "(%s * 3)" (int_expr rng (depth - 1))
    | _ -> Printf.sprintf "Abs (%s)" (int_expr rng (depth - 1))

let bool_expr rng depth =
  match Prng.int rng 4 with
  | 0 -> Printf.sprintf "(%s < %s)" (int_expr rng depth) (int_expr rng depth)
  | 1 -> Printf.sprintf "(%s = %s)" (int_expr rng depth) (int_expr rng depth)
  | 2 -> "(t.next # NIL)"
  | _ -> Printf.sprintf "NOT (%s > 10)" (int_expr rng depth)

let indent n = String.make (2 * n) ' '

(* [callable] = indices of procedures this body may call. *)
let rec stmts rng ~callable ~depth ~budget buf =
  let n = 1 + Prng.int rng (max 1 budget) in
  for _ = 1 to n do
    stmt rng ~callable ~depth ~budget:(budget - 1) buf
  done

and stmt rng ~callable ~depth ~budget buf =
  let pad = indent depth in
  match Prng.int rng 12 with
  | 0 | 1 | 2 ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s := %s;\n" pad
         (Prng.pick rng ("vi[Abs (g1) MOD 8]" :: int_designators))
         (int_expr rng 2))
  | 3 ->
    Buffer.add_string buf
      (Printf.sprintf "%s%s\n" pad
         (Prng.pick rng
            [ "t := s;"; "t := t.next;"; "t.next := t;"; "t.next := s;";
              "s := NEW (S);"; "pr := NEW (PR);"; "t := NEW (T);" ]))
  | 4 when budget > 0 ->
    Buffer.add_string buf (Printf.sprintf "%sIF %s THEN\n" pad (bool_expr rng 1));
    stmts rng ~callable ~depth:(depth + 1) ~budget buf;
    if Prng.bool rng then begin
      Buffer.add_string buf (Printf.sprintf "%sELSE\n" pad);
      stmts rng ~callable ~depth:(depth + 1) ~budget buf
    end;
    Buffer.add_string buf (Printf.sprintf "%sEND;\n" pad)
  | 5 when budget > 0 && depth < 4 ->
    let v = Printf.sprintf "i%d" depth in
    Buffer.add_string buf
      (Printf.sprintf "%sFOR %s := 0 TO %d DO\n" pad v (1 + Prng.int rng 4));
    (* the loop variable is usable as an int expression via globals only;
       keep bodies independent of it for simplicity *)
    stmts rng ~callable ~depth:(depth + 1) ~budget buf;
    Buffer.add_string buf (Printf.sprintf "%sEND;\n" pad)
  | 6 when callable <> [] ->
    Buffer.add_string buf
      (Printf.sprintf "%sP%d (%s);\n" pad (Prng.pick rng callable) (int_expr rng 1))
  | 7 ->
    Buffer.add_string buf
      (Printf.sprintf "%sBump (%s);\n" pad (Prng.pick rng int_designators))
  | 8 when depth < 4 ->
    let v = Printf.sprintf "w%d" depth in
    Buffer.add_string buf
      (Printf.sprintf "%sWITH %s = %s DO\n" pad v (Prng.pick rng int_designators));
    Buffer.add_string buf
      (Printf.sprintf "%s  %s := %s + 1;\n" pad v v);
    Buffer.add_string buf (Printf.sprintf "%sEND;\n" pad)
  | _ ->
    Buffer.add_string buf
      (Printf.sprintf "%sg2 := %s;\n" pad (int_expr rng 2))

let generate seed =
  let rng = Prng.create (Int64.of_int seed) in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf
    {|MODULE Gen;
TYPE
  T = OBJECT a, b: INTEGER; next: T; END;
  S = T OBJECT c: INTEGER; END;
  R = RECORD x, y: INTEGER; END;
  PR = REF R;
  VI = REF ARRAY OF INTEGER;
VAR
  t: T; s: S; pr: PR; vi: VI; g1: INTEGER; g2: INTEGER;

PROCEDURE Bump (VAR z: INTEGER) =
  BEGIN
    z := z + 1;
  END Bump;
|};
  let nprocs = 1 + Prng.int rng 3 in
  for p = 0 to nprocs - 1 do
    Buffer.add_string buf
      (Printf.sprintf "\nPROCEDURE P%d (n: INTEGER) =\n  BEGIN\n" p);
    Buffer.add_string buf (Printf.sprintf "    g1 := g1 + n;\n");
    stmts rng ~callable:(List.init p Fun.id) ~depth:2 ~budget:3 buf;
    Buffer.add_string buf (Printf.sprintf "  END P%d;\n" p)
  done;
  Buffer.add_string buf "\nBEGIN\n";
  Buffer.add_string buf
    {|  t := NEW (S);
  t.next := NEW (T);
  s := NEW (S);
  pr := NEW (PR);
  vi := NEW (VI, 8);
  g1 := 7;
|};
  stmts rng ~callable:(List.init nprocs Fun.id) ~depth:1 ~budget:4 buf;
  (* Observe everything. *)
  Buffer.add_string buf
    {|  PrintInt (g1); PrintInt (g2);
  PrintInt (t.a); PrintInt (t.b);
  PrintInt (s.a); PrintInt (s.c);
  PrintInt (pr.x); PrintInt (pr.y);
  IF t.next # NIL THEN PrintInt (t.next.a); END;
  FOR i := 0 TO 7 DO PrintInt (vi[i]); END;
END Gen.
|};
  Buffer.contents buf

(* QCheck arbitrary: a seed rendered as its generated source on failure. *)
let arbitrary =
  QCheck.make
    ~print:(fun seed -> Printf.sprintf "seed %d:\n%s" seed (generate seed))
    QCheck.Gen.(int_bound 1_000_000)

(* [Gen.Scale.type_chain n] (T0 .. T(n-1), each a subtype of the one
   before) with one METHODS entry on T0, implemented by M, and a virtual
   call of it through every global: each procedure's call site has the
   rest of the chain below its receiver type. With [~run], the module
   body calls every procedure and M prints, so the program runs every
   site over a dispatch table as wide as the environment. *)
let chain_with_method ?(run = false) n =
  let line l =
    match l with
    | "  T0 = OBJECT a: INTEGER; END;" ->
      [ "  T0 = OBJECT a: INTEGER; METHODS m () := M; END;" ]
    | "PROCEDURE P0 () =" ->
      [ "PROCEDURE M (self: T0) ="; "  BEGIN"; "    PrintInt (self.a);";
        "  END M;"; l ]
    | "END Scale." when run ->
      List.init n (fun i -> Printf.sprintf "  P%d ();" i) @ [ l ]
    | _ -> (
      (* "    gI.a := x + 1;" is followed by a call through gI. *)
      match String.index_opt l '.' with
      | Some dot when String.ends_with ~suffix:".a := x + 1;" l ->
        [ l; String.sub l 0 dot ^ ".m ();" ]
      | _ -> [ l ])
  in
  String.concat "\n"
    (List.concat_map line (String.split_on_char '\n' (Gen.Scale.type_chain n)))
