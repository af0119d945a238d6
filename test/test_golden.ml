(* Golden-stat regression test: pins the per-benchmark optimization
   counts under each of the three alias analyses. Any change to the
   frontend, the lowering, an oracle, or a pass that shifts what the
   optimizer achieves on the workload suite shows up here as a readable
   per-row diff — deliberate improvements update the table, accidental
   regressions fail the build.

   Row format: "<workload>/<analysis>: devirt=R/U inline=I rle=N pre=P"
   where R/U are resolved/kept-virtual call sites, I is inlined calls,
   N sums rle hoisted+eliminated+shortened, and P is PRE insertions.
   Regenerate with the same config below if the table legitimately
   moves. *)

let config kind =
  let c = Harness.Runner.rle_with kind in
  { c with
    Harness.Runner.passes =
      { c.Harness.Runner.passes with
        Opt.Pass_manager.Config.devirt_inline = true;
        pre = true } }

let kinds =
  [ ("TypeDecl", Opt.Pass.Otype_decl);
    ("FieldTypeDecl", Opt.Pass.Ofield_type_decl);
    ("SMFieldTypeRefs", Opt.Pass.Osm_field_type_refs) ]

let row_of (w : Workloads.Workload.t) (kname, kind) =
  let reports = Harness.Runner.optimize (config kind) (Workloads.Workload.lower w) in
  let sum name key =
    List.fold_left
      (fun acc (r : Opt.Pass.report) ->
        if r.Opt.Pass.r_pass = name then acc + Opt.Pass.stat r key else acc)
      0 reports
  in
  Printf.sprintf "%s/%s: devirt=%d/%d inline=%d rle=%d pre=%d"
    w.Workloads.Workload.name kname
    (sum "devirt" "resolved") (sum "devirt" "unresolved")
    (sum "inline" "inlined")
    (sum "rle" "hoisted" + sum "rle" "eliminated" + sum "rle" "shortened")
    (sum "pre" "inserted")

let actual_rows () =
  List.concat_map
    (fun w -> List.map (row_of w) kinds)
    Workloads.Suite.all

let expected_rows =
  [ "format/TypeDecl: devirt=0/0 inline=9 rle=14 pre=0";
    "format/FieldTypeDecl: devirt=0/0 inline=9 rle=15 pre=0";
    "format/SMFieldTypeRefs: devirt=0/0 inline=9 rle=15 pre=0";
    "dformat/TypeDecl: devirt=0/35 inline=8 rle=32 pre=0";
    "dformat/FieldTypeDecl: devirt=0/35 inline=8 rle=32 pre=0";
    "dformat/SMFieldTypeRefs: devirt=0/35 inline=8 rle=32 pre=0";
    "write_pickle/TypeDecl: devirt=0/29 inline=16 rle=26 pre=9";
    "write_pickle/FieldTypeDecl: devirt=0/29 inline=16 rle=26 pre=0";
    "write_pickle/SMFieldTypeRefs: devirt=0/29 inline=16 rle=26 pre=0";
    "ktree/TypeDecl: devirt=0/14 inline=4 rle=10 pre=0";
    "ktree/FieldTypeDecl: devirt=0/14 inline=4 rle=10 pre=0";
    "ktree/SMFieldTypeRefs: devirt=0/14 inline=4 rle=10 pre=0";
    "slisp/TypeDecl: devirt=0/96 inline=88 rle=4 pre=0";
    "slisp/FieldTypeDecl: devirt=0/96 inline=88 rle=5 pre=0";
    "slisp/SMFieldTypeRefs: devirt=0/96 inline=88 rle=5 pre=0";
    "pp/TypeDecl: devirt=0/0 inline=17 rle=45 pre=1";
    "pp/FieldTypeDecl: devirt=0/0 inline=17 rle=47 pre=1";
    "pp/SMFieldTypeRefs: devirt=0/0 inline=17 rle=47 pre=1";
    "dom/TypeDecl: devirt=0/5 inline=12 rle=8 pre=0";
    "dom/FieldTypeDecl: devirt=0/5 inline=12 rle=11 pre=0";
    "dom/SMFieldTypeRefs: devirt=0/5 inline=12 rle=11 pre=0";
    "postcard/TypeDecl: devirt=0/5 inline=15 rle=12 pre=0";
    "postcard/FieldTypeDecl: devirt=0/5 inline=15 rle=16 pre=0";
    "postcard/SMFieldTypeRefs: devirt=0/5 inline=15 rle=16 pre=0";
    "m2tom3/TypeDecl: devirt=0/0 inline=15 rle=0 pre=0";
    "m2tom3/FieldTypeDecl: devirt=0/0 inline=15 rle=0 pre=0";
    "m2tom3/SMFieldTypeRefs: devirt=0/0 inline=15 rle=0 pre=0";
    "m3cg/TypeDecl: devirt=0/26 inline=18 rle=75 pre=0";
    "m3cg/FieldTypeDecl: devirt=0/26 inline=18 rle=103 pre=0";
    "m3cg/SMFieldTypeRefs: devirt=0/26 inline=18 rle=103 pre=0" ]

let check_rows ~expected ~actual =
  let by_key rows =
    List.map
      (fun row ->
        match String.index_opt row ':' with
        | Some i -> (String.sub row 0 i, row)
        | None -> (row, row))
      rows
  in
  let exp_k = by_key expected and act_k = by_key actual in
  let diffs = ref [] in
  List.iter
    (fun (k, exp_row) ->
      match List.assoc_opt k act_k with
      | Some act_row when act_row = exp_row -> ()
      | Some act_row ->
        diffs := Printf.sprintf "  - %s\n  + %s" exp_row act_row :: !diffs
      | None -> diffs := Printf.sprintf "  - %s\n  + (missing)" exp_row :: !diffs)
    exp_k;
  List.iter
    (fun (k, act_row) ->
      if not (List.mem_assoc k exp_k) then
        diffs := Printf.sprintf "  - (missing)\n  + %s" act_row :: !diffs)
    act_k;
  match List.rev !diffs with
  | [] -> ()
  | ds ->
    Alcotest.fail
      (Printf.sprintf
         "golden stats moved (-expected, +actual); update test_golden.ml \
          if intentional:\n%s"
         (String.concat "\n" ds))

let test_golden_stats () =
  check_rows ~expected:expected_rows ~actual:(actual_rows ())

(* --- the newer TBAA clients: LICM, SLF, DSE ----------------------------- *)

(* Second table, isolating the three post-RLE clients: devirt+inline to
   expose cross-call opportunities, RLE off so each count is the
   client's own. Row format: "<workload>/<analysis>: licm=L slf=S dse=D"
   (loads hoisted, loads forwarded, stores removed). *)

let client_config kind =
  { Harness.Runner.base with
    Harness.Runner.passes =
      { Harness.Runner.base.Harness.Runner.passes with
        Opt.Pass_manager.Config.devirt_inline = true;
        licm = true;
        slf = true;
        dse = true };
    oracle = kind }

let client_row_of (w : Workloads.Workload.t) (kname, kind) =
  let reports =
    Harness.Runner.optimize (client_config kind) (Workloads.Workload.lower w)
  in
  let sum name key =
    List.fold_left
      (fun acc (r : Opt.Pass.report) ->
        if r.Opt.Pass.r_pass = name then acc + Opt.Pass.stat r key else acc)
      0 reports
  in
  Printf.sprintf "%s/%s: licm=%d slf=%d dse=%d" w.Workloads.Workload.name
    kname
    (sum "licm" "hoisted")
    (sum "slf" "forwarded")
    (sum "dse" "removed")

let expected_client_rows =
  [ "format/TypeDecl: licm=0 slf=0 dse=0";
    "format/FieldTypeDecl: licm=0 slf=0 dse=0";
    "format/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "dformat/TypeDecl: licm=0 slf=0 dse=0";
    "dformat/FieldTypeDecl: licm=0 slf=0 dse=0";
    "dformat/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "write_pickle/TypeDecl: licm=0 slf=0 dse=0";
    "write_pickle/FieldTypeDecl: licm=0 slf=0 dse=0";
    "write_pickle/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "ktree/TypeDecl: licm=2 slf=0 dse=0";
    "ktree/FieldTypeDecl: licm=2 slf=0 dse=0";
    "ktree/SMFieldTypeRefs: licm=2 slf=0 dse=0";
    "slisp/TypeDecl: licm=0 slf=0 dse=0";
    "slisp/FieldTypeDecl: licm=0 slf=0 dse=0";
    "slisp/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "pp/TypeDecl: licm=0 slf=1 dse=0";
    "pp/FieldTypeDecl: licm=0 slf=1 dse=0";
    "pp/SMFieldTypeRefs: licm=0 slf=1 dse=0";
    "dom/TypeDecl: licm=0 slf=0 dse=0";
    "dom/FieldTypeDecl: licm=0 slf=0 dse=0";
    "dom/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "postcard/TypeDecl: licm=0 slf=2 dse=1";
    "postcard/FieldTypeDecl: licm=0 slf=6 dse=5";
    "postcard/SMFieldTypeRefs: licm=0 slf=6 dse=5";
    "m2tom3/TypeDecl: licm=0 slf=0 dse=0";
    "m2tom3/FieldTypeDecl: licm=0 slf=0 dse=0";
    "m2tom3/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "m3cg/TypeDecl: licm=0 slf=22 dse=0";
    "m3cg/FieldTypeDecl: licm=1 slf=22 dse=0";
    "m3cg/SMFieldTypeRefs: licm=1 slf=22 dse=0" ]

let test_golden_client_stats () =
  check_rows ~expected:expected_client_rows
    ~actual:
      (List.concat_map
         (fun w -> List.map (client_row_of w) kinds)
         Workloads.Suite.all)

(* The precision ordering the paper establishes (Section 5): refining
   the analysis must never lose optimization opportunities on these
   benchmarks. Checked structurally rather than baked into the table so
   a table update cannot silently invert the lattice. *)
let value row =
  match String.index_opt row ':' with
  | None -> Alcotest.fail ("bad row: " ^ row)
  | Some i -> String.sub row (i + 1) (String.length row - i - 1)

let field prefix row =
  (* extract the integer following "<prefix>=" in a row body *)
  let body = value row in
  let pat = " " ^ prefix ^ "=" in
  let rec find i =
    if i + String.length pat > String.length body then
      Alcotest.fail ("no field " ^ prefix ^ " in " ^ row)
    else if String.sub body i (String.length pat) = pat then
      let j = ref (i + String.length pat) in
      let start = !j in
      while !j < String.length body && body.[!j] >= '0' && body.[!j] <= '9' do
        incr j
      done;
      int_of_string (String.sub body start (!j - start))
    else find (i + 1)
  in
  find 0

let row_for rows w k =
  List.find
    (fun r ->
      String.length r > String.length w + String.length k + 1
      && String.sub r 0 (String.length w + String.length k + 1) = w ^ "/" ^ k)
    rows

let test_golden_lattice () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let n = w.Workloads.Workload.name in
      let td = row_for expected_rows n "TypeDecl"
      and ftd = row_for expected_rows n "FieldTypeDecl" in
      if field "rle" ftd < field "rle" td then
        Alcotest.fail
          (Printf.sprintf "%s: FieldTypeDecl rle (%d) < TypeDecl rle (%d)" n
             (field "rle" ftd) (field "rle" td)))
    Workloads.Suite.all

(* Same ordering for the client table, across both refinement steps and
   every client: TypeDecl ⊑ FieldTypeDecl ⊑ SMFieldTypeRefs must never
   cost a hoist, a forward, or a removal. *)
let test_golden_client_lattice () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let n = w.Workloads.Workload.name in
      let td = row_for expected_client_rows n "TypeDecl"
      and ftd = row_for expected_client_rows n "FieldTypeDecl"
      and smf = row_for expected_client_rows n "SMFieldTypeRefs" in
      List.iter
        (fun client ->
          let a = field client td
          and b = field client ftd
          and c = field client smf in
          if not (a <= b && b <= c) then
            Alcotest.fail
              (Printf.sprintf "%s: %s counts not monotone (%d, %d, %d)" n
                 client a b c))
        [ "licm"; "slf"; "dse" ])
    Workloads.Suite.all

let () =
  Alcotest.run "golden"
    [ ( "stats",
        [ Alcotest.test_case "workload suite optimization counts" `Quick
            test_golden_stats;
          Alcotest.test_case "precision lattice on pinned rows" `Quick
            test_golden_lattice ] );
      ( "clients",
        [ Alcotest.test_case "client suite optimization counts" `Quick
            test_golden_client_stats;
          Alcotest.test_case "client precision lattice" `Quick
            test_golden_client_lattice ] ) ]
