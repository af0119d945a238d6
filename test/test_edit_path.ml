(* The daemon's edit path: an edit that stays inside one procedure is
   re-read alone, and the result must be the full rebuild's to the byte.

   - Pinned corners: edits that must fall back (a new local, a comment
     that swallows later declarations, the module body, a header, type/
     const/var declarations, a declaration boundary, errors, types a
     body allocates) and edits that must not (bench-shaped edits, an
     empty change), each with the path it took asserted.
   - Differential: seeded ranged edits over the ten workloads, the
     Gen.Scale document and generated programs; after every edit the
     document equals a from-scratch build of its source: diagnostics, IR
     text and variable ids per procedure, fingerprints, type environment,
     alias answers under the three oracles and mod-ref answers. *)

open Support
module Store = Server.Store

let kinds =
  [ Tbaa.Engine.Type_decl; Tbaa.Engine.Field_type_decl;
    Tbaa.Engine.Sm_field_type_refs ]

(* ------------------------------------------------------------------ *)
(* Comparison with a from-scratch build                                *)
(* ------------------------------------------------------------------ *)

let diag_strings = List.map Diag.to_string

let reference ~file source =
  match Minim3.Typecheck.check_string_all ~file source with
  | Error diags -> Error (diag_strings diags)
  | Ok tast ->
    let program = Ir.Lower.lower_program tast in
    Ok (program, Tbaa.Engine.create program)

let var_ids vs = List.map (fun (v : Ir.Reg.var) -> v.Ir.Reg.v_id) vs

(* Fails with the first difference between the document and a fresh
   build of its source. [pairs] bounds the alias pairs asked per oracle
   (all pairs when the document has few enough memory references). *)
let check_equal ?(pairs = 600) rng what d =
  let source = Store.source d in
  match reference ~file:(Store.name d) source with
  | Error ds ->
    Alcotest.failf "%s: the document's source does not build: %s" what
      (String.concat "; " ds)
  | Ok (rp, re) ->
    let dp = Store.program d in
    if not (Minim3.Types.env_equal dp.Ir.Cfg.tenv rp.Ir.Cfg.tenv) then
      Alcotest.failf "%s: type environments differ" what;
    Alcotest.(check int) (what ^ ": next var id") rp.Ir.Cfg.next_var_id
      dp.Ir.Cfg.next_var_id;
    Alcotest.(check (list int)) (what ^ ": globals")
      (var_ids rp.Ir.Cfg.prog_globals) (var_ids dp.Ir.Cfg.prog_globals);
    Alcotest.(check int) (what ^ ": procedures")
      (List.length rp.Ir.Cfg.prog_procs) (List.length dp.Ir.Cfg.prog_procs);
    List.iter2
      (fun (r : Ir.Cfg.proc) (p : Ir.Cfg.proc) ->
        let name = what ^ ": " ^ Ident.name r.Ir.Cfg.pr_name in
        Alcotest.(check string) (name ^ " IR")
          (Format.asprintf "%a" Ir.Cfg.pp_proc r)
          (Format.asprintf "%a" Ir.Cfg.pp_proc p);
        Alcotest.(check (list int)) (name ^ " params")
          (var_ids r.Ir.Cfg.pr_params) (var_ids p.Ir.Cfg.pr_params);
        Alcotest.(check (list int)) (name ^ " locals")
          (var_ids r.Ir.Cfg.pr_locals) (var_ids p.Ir.Cfg.pr_locals);
        Alcotest.(check int) (name ^ " fingerprint")
          (Ir.Fingerprint.proc r) (Ir.Fingerprint.proc p))
      rp.Ir.Cfg.prog_procs dp.Ir.Cfg.prog_procs;
    let paths =
      Array.of_list
        (List.map
           (fun (m : Tbaa.Facts.memref) -> m.Tbaa.Facts.mr_path)
           (Tbaa.Engine.facts re).Tbaa.Facts.memrefs)
    in
    let n = Array.length paths in
    Alcotest.(check int) (what ^ ": memory references") n (Store.n_paths d);
    if n > 0 then
      List.iter
        (fun kind ->
          let o = Tbaa.Engine.oracle re kind in
          let ask = Store.may_alias d kind in
          let check i j =
            if ask i j <> o.Tbaa.Oracle.may_alias paths.(i) paths.(j) then
              Alcotest.failf "%s: %s answer on (%d, %d) differs" what
                (Tbaa.Engine.kind_name kind) i j
          in
          if n * n <= pairs then
            for i = 0 to n - 1 do
              for j = 0 to n - 1 do
                check i j
              done
            done
          else
            for _ = 1 to pairs do
              check (Prng.int rng n) (Prng.int rng n)
            done;
          List.iter
            (fun (p : Ir.Cfg.proc) ->
              let name = p.Ir.Cfg.pr_name in
              match Store.modref d kind name with
              | Some e when Tbaa.Effects.equal e (Tbaa.Engine.modref_merged re kind name)
                -> ()
              | _ ->
                Alcotest.failf "%s: %s mod-ref of %s differs" what
                  (Tbaa.Engine.kind_name kind) (Ident.name name))
            rp.Ir.Cfg.prog_procs)
        kinds

(* ------------------------------------------------------------------ *)
(* Driving one document                                                *)
(* ------------------------------------------------------------------ *)

type path = Fast | Full | Neither

let path_name = function Fast -> "fast" | Full -> "full" | Neither -> "neither"

(* Apply [edits] to the open document [name]; returns the outcome and
   the path its front end took. *)
let change ?cancelled st name edits =
  let d = Option.get (Store.find st name) in
  let fast = Store.edits_fast d and full = Store.edits_full d in
  let outcome = Store.change ?cancelled st ~name ~edits in
  let path =
    if Store.edits_fast d > fast then Fast
    else if Store.edits_full d > full then Full
    else Neither
  in
  (outcome, path)

(* Apply one ranged edit; check the outcome against a fresh build:
   accepted iff the new source builds, with the same diagnostics
   otherwise, and the document equal to a fresh build of its (new or
   kept) source. Returns the path taken. *)
let step rng st name what edit =
  let d = Option.get (Store.find st name) in
  let before = Store.source d in
  let target =
    match Store.splice ~source:before ~edits:[ edit ] with
    | Ok s -> s
    | Error e -> Alcotest.failf "%s: bad edit: %s" what e
  in
  let outcome, path = change st name [ edit ] in
  (match (outcome, reference ~file:name target) with
  | Store.Changed (Store.Updated d), Ok _ ->
    Alcotest.(check bool) (what ^ ": new source kept") true
      (Store.source d = target);
    check_equal rng what d
  | Store.Changed (Store.Rejected (Some d, diags)), Error want ->
    Alcotest.(check (list string)) (what ^ ": diagnostics") want
      (diag_strings diags);
    Alcotest.(check bool) (what ^ ": last-good source kept") true
      (Store.source d = before);
    Alcotest.(check bool) (what ^ ": rejected by the full front end") true
      (path = Full);
    check_equal rng what d
  | Store.Changed (Store.Updated _), Error _ ->
    Alcotest.failf "%s: accepted a source a full build rejects" what
  | Store.Changed (Store.Rejected _), Ok _ ->
    Alcotest.failf "%s: rejected a source a full build accepts" what
  | _ -> Alcotest.failf "%s: unexpected outcome" what);
  path

let open_doc st name source =
  match Store.open_or_update st ~name ~source ~inject:[] with
  | Store.Updated d -> d
  | _ -> Alcotest.failf "%s does not open" name

let find_from text pat from =
  let n = String.length text and m = String.length pat in
  let rec matches i k = k = m || (text.[i + k] = pat.[k] && matches i (k + 1)) in
  let rec go i =
    if i + m > n then raise Not_found else if matches i 0 then i else go (i + 1)
  in
  go from

let after text pat from = find_from text pat from + String.length pat

(* ------------------------------------------------------------------ *)
(* Pinned corners                                                      *)
(* ------------------------------------------------------------------ *)

let corner_source =
  "MODULE Corners;\n\
   TYPE\n\
  \  A = OBJECT f: INTEGER; END;\n\
  \  B = A OBJECT g: INTEGER; END;\n\
   CONST K = 3;\n\
   VAR a: A; b: B; n: INTEGER;\n\
   PROCEDURE Get (x: A): INTEGER =\n\
  \  VAR t: INTEGER;\n\
  \  BEGIN\n\
  \    t := x.f + 1;\n\
  \    RETURN t;\n\
  \  END Get;\n\
   PROCEDURE Put (VAR v: INTEGER) =\n\
  \  BEGIN\n\
  \    v := v + K;\n\
  \    b.g := v * 2;\n\
  \  END Put;\n\
   (* a comment between declarations *)\n\
   PROCEDURE Run () =\n\
  \  BEGIN\n\
  \    a := NEW (A);\n\
  \    b := NEW (B);\n\
  \    n := Get (b);\n\
  \    Put (n);\n\
  \  END Run;\n\
   BEGIN\n\
  \  Run ();\n\
  \  PrintInt (n);\n\
   END Corners.\n"

(* [corner_source] with Run's body also allocating REF A, a type no
   declaration and no earlier body allocates. *)
let allocating_source =
  let at = after corner_source "a := NEW (A);" 0 in
  String.sub corner_source 0 at
  ^ "\n    WITH r = NEW (REF A) DO END;"
  ^ String.sub corner_source at (String.length corner_source - at)

(* Each corner starts from a freshly opened document. [edit] gets the
   source and returns one ranged edit. *)
let corner ?(source = corner_source) ?(want_reason = "") name ~expect edit () =
  let rng = Prng.create 7L in
  let st = Store.create ~allow_inject:false () in
  let d = open_doc st "c" source in
  let path = step rng st "c" name (edit (Store.source d)) in
  Alcotest.(check string) (name ^ ": path") (path_name expect) (path_name path);
  if expect = Full then
    match Store.last_fallback d with
    | Some r when want_reason = "" || r = want_reason -> ()
    | r ->
      Alcotest.failf "%s: fallback reason %s" name
        (Option.value r ~default:"none")

let replace text pat by =
  let at = find_from text pat 0 in
  (at, at + String.length pat, by)

let insert_at text pat s =
  let at = find_from text pat 0 in
  (at, at, s)

let outside = "the edit is not inside one procedure declaration"

let corners =
  [ ( "body digit",
      corner "body digit" ~expect:Fast (fun s -> replace s "+ 1;" "+ 2;") );
    ( "body operator",
      corner "body operator" ~expect:Fast (fun s -> replace s "v * 2" "v + 2") );
    ( "added local",
      corner "added local" ~expect:Full
        ~want_reason:"the procedure needs a different number of variables"
        (fun s -> replace s "VAR t: INTEGER;" "VAR t, u: INTEGER;") );
    ( "comment swallows declarations",
      corner "comment swallows declarations" ~expect:Full (fun s ->
          insert_at s "v := v + K;" "(* ") );
    ( "module body",
      corner "module body" ~expect:Full ~want_reason:outside (fun s ->
          replace s "PrintInt (n)" "PrintInt (n + 1)") );
    ( "header",
      corner "header" ~expect:Full ~want_reason:"the header changed" (fun s ->
          replace s "PROCEDURE Put (VAR v" "PROCEDURE Put (v") );
    ( "procedure renamed",
      corner "procedure renamed" ~expect:Full ~want_reason:"the header changed"
        (fun s ->
          let at = find_from s "Run ()" 0 in
          let stop = after s "END Run" at in
          (at, stop, "Go () =\n  BEGIN\n    Put (n);\n  END Go")) );
    ( "type declaration",
      corner "type declaration" ~expect:Full ~want_reason:outside (fun s ->
          replace s "g: INTEGER" "g, h: INTEGER") );
    ( "const declaration",
      corner "const declaration" ~expect:Full ~want_reason:outside (fun s ->
          replace s "K = 3" "K = 4") );
    ( "var declaration",
      corner "var declaration" ~expect:Full ~want_reason:outside (fun s ->
          replace s "n: INTEGER;" "n, m: INTEGER;") );
    ( "declaration boundary",
      corner "declaration boundary" ~expect:Full ~want_reason:outside (fun s ->
          insert_at s "\nPROCEDURE Put" "\n") );
    ( "new declaration",
      corner "new declaration" ~expect:Full (fun s ->
          let at = after s "END Get" 0 in
          (at, at + 1, ";\nPROCEDURE Nop () =\n  BEGIN\n  END Nop;")) );
    ( "before a declaration",
      corner "before a declaration" ~expect:Full ~want_reason:outside (fun s ->
          insert_at s "PROCEDURE Run" "(* x *) ") );
    ( "parse error",
      corner "parse error" ~expect:Full (fun s -> replace s "RETURN t;" "RETURN t") );
    ( "type error",
      corner "type error" ~expect:Full (fun s -> replace s "x.f + 1" "x.f + a") );
    ( "new type in a body",
      corner "new type in a body" ~expect:Full
        ~want_reason:"the check would allocate a type" (fun s ->
          insert_at s "    b.g := v * 2;" "    WITH w = NEW (REF INTEGER) DO END;\n")
    );
    ( "later type in a body",
      (* Get's check starts before Run's allocates REF A. *)
      corner "later type in a body" ~source:allocating_source ~expect:Full
        ~want_reason:"the check would allocate a type" (fun s ->
          insert_at s "    RETURN t;" "    WITH q = NEW (REF A) DO END;\n") );
    ( "body that allocated a type",
      (* Without REF A from Run, the full rebuild has one type fewer. *)
      corner "body that allocated a type" ~source:allocating_source
        ~expect:Full ~want_reason:"its first check allocated types" (fun s ->
          replace s "r = NEW (REF A)" "r = NEW (A)") ) ]

(* An empty change and one that writes back the same text: the
   generation advances, the answers stay, and nothing is re-read. *)
let test_identity () =
  let rng = Prng.create 3L in
  let st = Store.create ~allow_inject:false () in
  let d = open_doc st "c" corner_source in
  let program = Store.program d in
  List.iteri
    (fun i edits ->
      let g = Store.generation d in
      let outcome, path = change st "c" edits in
      (match outcome with
      | Store.Changed (Store.Updated _) -> ()
      | _ -> Alcotest.fail "identity change not installed");
      Alcotest.(check string) "identity: path" "fast" (path_name path);
      Alcotest.(check int) "identity: generation" (g + 1) (Store.generation d);
      Alcotest.(check bool) "identity: same program" true
        (Store.program d == program);
      check_equal rng (Printf.sprintf "identity %d" i) d)
    [ []; [ (10, 12, String.sub corner_source 10 2) ] ]

(* A cancelled edit leaves the document as it was, and a later edit
   still re-reads against the untouched state. *)
let test_cancelled () =
  let rng = Prng.create 5L in
  let st = Store.create ~allow_inject:false () in
  let d = open_doc st "c" corner_source in
  let g = Store.generation d in
  let polls = ref 0 in
  let cancelled () =
    incr polls;
    !polls > 1
  in
  let at = find_from corner_source "+ 1;" 0 in
  let outcome, path = change ~cancelled st "c" [ (at, at + 3, "+ 9") ] in
  (match outcome with
  | Store.Changed (Store.Cancelled (Some _)) -> ()
  | _ -> Alcotest.fail "edit not cancelled");
  Alcotest.(check string) "cancelled: path" "neither" (path_name path);
  Alcotest.(check bool) "cancelled: source" true (Store.source d = corner_source);
  Alcotest.(check string) "cancelled: mode" "fresh"
    (Store.mode_name (Store.doc_mode d));
  Alcotest.(check int) "cancelled: generation" g (Store.generation d);
  check_equal rng "cancelled" d;
  let at = find_from corner_source "v * 2" 0 in
  let _, path = change st "c" [ (at, at + 5, "v * 7") ] in
  Alcotest.(check string) "after cancel: path" "fast" (path_name path);
  check_equal rng "after cancel" d

(* ------------------------------------------------------------------ *)
(* The bench's edits on the Gen.Scale document                          *)
(* ------------------------------------------------------------------ *)

(* The ide-session benchmark's two edit shapes: a worker's constant
   digit and a library procedure's allocation target. *)
let digit_edit rng text =
  let i = Prng.int rng 200 in
  let at = after text "x + " (after text (Printf.sprintf "PROCEDURE P%d ()" i) 0) in
  let d = (Char.code text.[at] - Char.code '0' + 1 + Prng.int rng 9) mod 10 in
  (at, at + 1, string_of_int d)

let retarget_edit rng text =
  let j = Prng.int rng Gen.Scale.lib_procs in
  let start =
    after text "x := x + 1;\n"
      (after text (Printf.sprintf "PROCEDURE L%d (VAR x: INTEGER) =" j) 0)
  in
  let stop = find_from text (Printf.sprintf "  END L%d;" j) start in
  let t = Prng.int rng Gen.Scale.types in
  (start, stop, Printf.sprintf "    g%d := NEW (T%d);\n    g%d.a := x;\n" t t t)

(* Through an optimizing store, like the benchmark's daemon: the side
   optimization runs over procedures the new program shares with the
   last-good one and must give them back unchanged. *)
let test_bench_edits () =
  let rng = Prng.create 11L in
  let st = Store.create ~optimize:true ~allow_inject:false () in
  ignore (open_doc st "scale" (Gen.Scale.source 200));
  for k = 0 to 19 do
    let d = Option.get (Store.find st "scale") in
    let edit =
      if k mod 5 = 4 then retarget_edit rng (Store.source d)
      else digit_edit rng (Store.source d)
    in
    let path = step rng st "scale" (Printf.sprintf "bench edit %d" k) edit in
    Alcotest.(check string) (Printf.sprintf "bench edit %d: path" k) "fast"
      (path_name path);
    match Option.bind (Store.opt_stats d) (Json.member "error") with
    | Some e -> Alcotest.failf "bench edit %d: optimizer: %s" k (Json.to_string e)
    | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Differential: seeded random edits                                   *)
(* ------------------------------------------------------------------ *)

let is_word c =
  match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false

let is_digit c = c >= '0' && c <= '9'

(* Offsets in [lo, hi) satisfying [ok], or [] *)
let positions lo hi ok =
  let acc = ref [] in
  for i = hi - 1 downto lo do
    if ok i then acc := i :: !acc
  done;
  !acc

(* The bodies (from BEGIN to the closing ';') of the top-level
   procedures of [text]. *)
let bodies text =
  match Minim3.Parser.parse_module_spans ~file:"doc" text with
  | exception Diag.Compile_error _ -> [||]
  | _, spans ->
    Array.of_list
      (List.filter_map
         (fun (sp : Minim3.Parser.span) ->
           match find_from text "BEGIN" sp.sp_start with
           | b when b < sp.sp_stop -> Some (b, sp.sp_stop)
           | _ | (exception Not_found) -> None)
         (Array.to_list spans))

(* The first byte of an integer literal's digits. *)
let literal_digit text i =
  is_digit text.[i]
  &&
  let j = ref i in
  while !j > 0 && is_word text.[!j - 1] do
    decr j
  done;
  is_digit text.[!j]

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Prng.int rng (List.length l)))

(* One random edit of [text]: a literal digit, an operator or a line of
   a procedure body, VAR on a parameter, or a token anywhere. *)
let random_edit rng text =
  let n = String.length text in
  let bodies = bodies text in
  let in_body ok =
    if Array.length bodies = 0 then None
    else
      let lo, hi = bodies.(Prng.int rng (Array.length bodies)) in
      pick rng (positions lo hi ok)
  in
  let anywhere () =
    let at = Prng.int rng (n + 1) in
    let stop = min n (at + Prng.int rng 4) in
    let text =
      [| ""; " "; "(*"; "*)"; ";"; "x"; "1"; "END"; "\n"; "VAR"; ":=" |]
    in
    (at, stop, text.(Prng.int rng (Array.length text)))
  in
  match Prng.int rng 10 with
  | 0 | 1 | 2 -> (
    match in_body (literal_digit text) with
    | Some at ->
      let d = (Char.code text.[at] - Char.code '0' + 1 + Prng.int rng 9) mod 10 in
      (at, at + 1, string_of_int d)
    | None -> anywhere ())
  | 3 | 4 -> (
    match in_body (fun i -> text.[i] = '+' || text.[i] = '-' || text.[i] = '*') with
    | Some at -> (at, at + 1, [| "+"; "-"; "*" |].(Prng.int rng 3))
    | None -> anywhere ())
  | 5 | 6 -> (
    (* Duplicate or delete a body line. *)
    match in_body (fun i -> text.[i] = '\n') with
    | Some at when at + 1 < n -> (
      match String.index_from_opt text (at + 1) '\n' with
      | Some eol ->
        let line = String.sub text (at + 1) (eol - at) in
        if Prng.bool rng then (at + 1, at + 1, line)
        else (at + 1, eol + 1, "")
      | None -> anywhere ())
    | _ -> anywhere ())
  | 7 -> (
    (* Toggle VAR on a parameter in a header. *)
    match
      pick rng
        (positions 0 (max 0 (n - 12)) (fun i ->
             String.sub text i 10 = "PROCEDURE "))
    with
    | Some at -> (
      match String.index_from_opt text at '(' with
      | Some lp when lp + 5 < n && text.[lp + 1] <> ')' ->
        if String.sub text (lp + 1) 4 = "VAR " then (lp + 1, lp + 5, "")
        else (lp + 1, lp + 1, "VAR ")
      | _ -> anywhere ())
    | None -> anywhere ())
  | _ -> anywhere ()

(* [edits] seeded edits on one document, each checked against a fresh
   build; returns how many took the fast path. *)
let storm ?(optimize = false) ~seed ~edits name source =
  let rng = Prng.create (Int64.of_int seed) in
  let st = Store.create ~optimize ~allow_inject:false () in
  ignore (open_doc st name source);
  let fast = ref 0 in
  for k = 1 to edits do
    let d = Option.get (Store.find st name) in
    let edit = random_edit rng (Store.source d) in
    if step rng st name (Printf.sprintf "%s edit %d" name k) edit = Fast then
      incr fast
  done;
  !fast

let test_differential_workloads () =
  let fast = ref 0 in
  List.iteri
    (fun i (w : Workloads.Workload.t) ->
      fast := !fast + storm ~seed:(100 + i) ~edits:12 w.Workloads.Workload.name w.source)
    Workloads.Suite.all;
  Alcotest.(check bool) "some workload edits took the fast path" true (!fast > 20)

let test_differential_scale () =
  let fast = storm ~optimize:true ~seed:1 ~edits:30 "scale" (Gen.Scale.source 200) in
  Alcotest.(check bool) "some scale edits took the fast path" true (fast > 5)

let test_differential_generated () =
  let fast = ref 0 in
  for seed = 0 to 49 do
    let g = Gen.Generator.generate ~size:3 seed in
    fast := !fast + storm ~seed ~edits:6 "gen" g.Gen.Generator.source
  done;
  Alcotest.(check bool) "some generated edits took the fast path" true (!fast > 30)

let () =
  Alcotest.run "edit_path"
    [ ( "corners",
        List.map (fun (name, f) -> Alcotest.test_case name `Quick f) corners
        @ [ Alcotest.test_case "identity change" `Quick test_identity;
            Alcotest.test_case "cancelled edit" `Quick test_cancelled;
            Alcotest.test_case "bench edits take the fast path" `Quick
              test_bench_edits ] );
      ( "differential",
        [ Alcotest.test_case "workloads" `Quick test_differential_workloads;
          Alcotest.test_case "scale" `Quick test_differential_scale;
          Alcotest.test_case "generated" `Quick test_differential_generated ] ) ]
