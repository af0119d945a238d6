(* The alias-query microbenchmark and its regression gate.

   PR 4 replaced the per-query compatibility cores (subtype chain walking
   for TypeDecl/FieldTypeDecl, a TypeRefsTable copy + intersection for
   SMFieldTypeRefs) with O(1) precomputed cores. This benchmark times both
   implementations over identical query streams:

   - a deep synthetic hierarchy (scale200: 200 single-inheritance object
     types), where the reference cost is proportional to hierarchy depth
     and TypeRefs set size — the regime the rewrite targets; and
   - the m3cg workload, the suite's largest real program.

   It also tracks (new-engine-only) the end-to-end [may_alias] cost over
   every pair of m3cg heap references.

   Modes:
     (none)    run and print the table
     --write   also snapshot BENCH_alias.json
     --check   the `make bench-smoke` gate: the geometric-mean speedup
               across the legs must be >= 5x, and — if BENCH_alias.json
               exists — each leg must be within 20% of its recorded
               speedup. Gating on old/new *ratios* rather than raw
               ns/query keeps the gate meaningful across machines of
               different absolute speed. *)

open Support

let snapshot_file = "BENCH_alias.json"
let required_speedup = 5.0
let regression_slack = 0.8 (* accept >= 80% of the recorded speedup *)

(* ------------------------------------------------------------------ *)
(* Subjects                                                            *)
(* ------------------------------------------------------------------ *)

(* A deep single-inheritance chain: reference subtyping walks O(depth)
   supers per query and every TypeRefs set is O(n) types wide. *)
let synthetic n =
  let buf = Buffer.create 4096 in
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
  Ir.Lower.lower_string ~file:"scale" (Buffer.contents buf)

let m3cg () = Workloads.Workload.lower (Workloads.Suite.find "m3cg")

(* ------------------------------------------------------------------ *)
(* Timing                                                              *)
(* ------------------------------------------------------------------ *)

(* [f ()] runs one full query sweep of [queries] queries; returns CPU
   nanoseconds per query, doubling the iteration count until the sweep
   takes long enough to time reliably. *)
let ns_per_query ~queries f =
  f ();
  (* warmup *)
  let rec go iters =
    let t0 = Sys.time () in
    for _ = 1 to iters do
      f ()
    done;
    let dt = Sys.time () -. t0 in
    if dt < 0.2 && iters < 1 lsl 22 then go (iters * 2)
    else dt *. 1e9 /. float_of_int (iters * queries)
  in
  go 1

(* The accumulator keeps the query results observable so neither sweep can
   be optimized away. *)
let sink = ref 0

let sweep_pairs n fn () =
  for t1 = 0 to n - 1 do
    for t2 = 0 to n - 1 do
      if fn t1 t2 then incr sink
    done
  done

type leg = {
  leg_name : string;
  leg_queries : int;
  old_ns : float;
  new_ns : float;
}

let speedup l = if l.new_ns > 0. then l.old_ns /. l.new_ns else 0.

let geomean legs =
  let logs = List.map (fun l -> Float.log (Float.max (speedup l) 1e-9)) legs in
  Float.exp (List.fold_left ( +. ) 0. logs /. float_of_int (List.length logs))

let compat_legs label program =
  let facts = Reference.facts program in
  let tenv = facts.Tbaa.Facts.tenv in
  let n = Minim3.Types.count tenv in
  let queries = n * n in
  let fast = Tbaa.Compat.fn (Tbaa.Compat.subtyping tenv) in
  let slow = Reference.subtyping tenv in
  let subtype_leg =
    { leg_name = "subtype-compat/" ^ label;
      leg_queries = queries;
      old_ns = ns_per_query ~queries (sweep_pairs n slow);
      new_ns = ns_per_query ~queries (sweep_pairs n fast) }
  in
  let sm = Tbaa.Sm_type_refs.build ~facts ~world:Tbaa.World.Closed () in
  let matrix = Tbaa.Compat.fn (Tbaa.Sm_type_refs.compat_matrix sm) in
  let reference = Tbaa.Sm_type_refs.compat sm in
  let typerefs_leg =
    { leg_name = "typerefs-compat/" ^ label;
      leg_queries = queries;
      old_ns = ns_per_query ~queries (sweep_pairs n reference);
      new_ns = ns_per_query ~queries (sweep_pairs n matrix) }
  in
  [ subtype_leg; typerefs_leg ]

(* New-engine-only tracking: every ordered pair of heap references through
   the raw SMFieldTypeRefs handle. *)
let may_alias_tracked label program =
  let engine = Tbaa.Engine.create program in
  let refs =
    List.map
      (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
      (Tbaa.Engine.facts engine).Tbaa.Facts.memrefs
  in
  let refs = Array.of_list refs in
  let o = Tbaa.Engine.oracle engine Tbaa.Engine.Sm_field_type_refs in
  let n = Array.length refs in
  let queries = n * n in
  let f () =
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        if o.Tbaa.Oracle.may_alias refs.(i) refs.(j) then incr sink
      done
    done
  in
  ("may-alias/" ^ label, queries, ns_per_query ~queries f)

(* ------------------------------------------------------------------ *)
(* Reporting, snapshotting, gating                                     *)
(* ------------------------------------------------------------------ *)

let json_of_run legs tracked =
  Json.envelope
    [ ("microbench", Json.String "alias-query-engine");
      ( "legs",
        Json.List
          (List.map
             (fun l ->
               Json.Obj
                 [ ("name", Json.String l.leg_name);
                   ("queries", Json.Int l.leg_queries);
                   ("old_ns_per_query", Json.Float l.old_ns);
                   ("new_ns_per_query", Json.Float l.new_ns);
                   ("speedup", Json.Float (speedup l)) ])
             legs) );
      ( "tracked",
        Json.List
          (List.map
             (fun (name, queries, ns) ->
               Json.Obj
                 [ ("name", Json.String name);
                   ("queries", Json.Int queries);
                   ("ns_per_query", Json.Float ns) ])
             tracked) );
      ( "speedup_min",
        Json.Float
          (List.fold_left (fun acc l -> Float.min acc (speedup l)) infinity
             legs) );
      ("speedup_geomean", Json.Float (geomean legs)) ]

let print_table legs tracked =
  Printf.printf "%-28s %12s %12s %10s\n" "leg" "old ns/q" "new ns/q" "speedup";
  List.iter
    (fun l ->
      Printf.printf "%-28s %12.1f %12.1f %9.1fx\n" l.leg_name l.old_ns l.new_ns
        (speedup l))
    legs;
  List.iter
    (fun (name, _, ns) ->
      Printf.printf "%-28s %12s %12.1f %10s\n" name "-" ns "-")
    tracked

let recorded_speedups () =
  if not (Sys.file_exists snapshot_file) then []
  else
    let ic = open_in snapshot_file in
    let len = in_channel_length ic in
    let text = really_input_string ic len in
    close_in ic;
    match Json.member "legs" (Json.of_string text) with
    | Some (Json.List legs) ->
      List.filter_map
        (fun leg ->
          match (Json.member "name" leg, Json.member "speedup" leg) with
          | Some (Json.String name), Some v -> (
            match Json.to_float v with
            | Some s -> Some (name, s)
            | None -> None)
          | _ -> None)
        legs
    | _ -> []

let check legs =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  if geomean legs < required_speedup then
    fail "geometric-mean speedup %.1fx below required %.1fx" (geomean legs)
      required_speedup;
  let recorded = recorded_speedups () in
  if recorded = [] then
    print_endline "(no BENCH_alias.json snapshot; gating on the 5x floor only)"
  else
    List.iter
      (fun l ->
        match List.assoc_opt l.leg_name recorded with
        | None -> fail "%s: not present in %s" l.leg_name snapshot_file
        | Some r ->
          if speedup l < r *. regression_slack then
            fail "%s: speedup %.1fx regressed more than 20%% from recorded %.1fx"
              l.leg_name (speedup l) r)
      legs;
  match !failures with
  | [] -> print_endline "bench-smoke: all legs within bounds"
  | fs ->
    List.iter (fun m -> prerr_endline ("bench-smoke FAIL: " ^ m)) fs;
    exit 1

let () =
  let arg a = Array.exists (String.equal a) Sys.argv in
  let legs =
    compat_legs "scale200" (synthetic 200) @ compat_legs "m3cg" (m3cg ())
  in
  let tracked = [ may_alias_tracked "m3cg" (m3cg ()) ] in
  print_table legs tracked;
  if !sink = max_int then print_newline ();
  if arg "--write" then begin
    let oc = open_out snapshot_file in
    output_string oc (Json.to_string (json_of_run legs tracked));
    output_char oc '\n';
    close_out oc;
    Printf.printf "(snapshot written to %s)\n" snapshot_file
  end;
  if arg "--check" then check legs
