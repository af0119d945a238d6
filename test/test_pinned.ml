(* The optimizer's whole observable output under the end-to-end bench's
   full schedule (SMFieldTypeRefs, closed world, one job), folded into one
   md5: the printed program, every report's pass, round, flag, stats,
   oracle counters and dataflow counters (not its time or analysis count),
   and the claims ledger when one is kept. Any change to what the
   optimizer produces or asks moves it.

   A test executable of its own: modref summaries list their classes in
   identifier order, which the class counters follow, so the digest
   depends on which identifiers the process interned before it. Here that
   is fixed by the executable, not by where the case sits in a suite. *)

open Ir

let sm = Opt.Pass.Osm_field_type_refs

let schedule =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
      slf = true; rle = true; copyprop = true; dse = true; local_cse = true }

let programs () =
  List.map
    (fun (w : Workloads.Workload.t) -> fun () -> Workloads.Workload.lower w)
    Workloads.Suite.all
  @ [ (fun () -> Lower.lower_string ~file:"<scale>" (Gen.Scale.source 200)) ]
  @ List.init 50 (fun seed ->
        fun () ->
         Lower.lower_string ~file:"<gen>"
           (Gen.Generator.generate ~size:3 seed).Gen.Generator.source)

let output buf ~ledger program =
  let ctx =
    Opt.Pass.create ~world:Tbaa.World.Closed ~oracle_kind:sm ~jobs:1 ()
  in
  if ledger then
    ctx.Opt.Pass.claims <-
      Some (Tbaa.Claims.create ~oracle:(Opt.Pass.oracle_name sm));
  let reports = Opt.Pass_manager.run ctx program schedule in
  Buffer.add_string buf (Format.asprintf "%a" Cfg.pp_program program);
  List.iter
    (fun (r : Opt.Pass.report) ->
      let o = r.r_oracle in
      Printf.bprintf buf "%s/%d %b %s oracle=%d,%d,%d,%d,%d,%d,%d,%d df=%d,%d\n"
        r.r_pass r.r_round r.r_changed
        (String.concat ","
           (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) r.r_stats))
        o.compat_queries o.compat_misses o.alias_queries o.alias_misses
        o.class_queries o.class_misses o.store_queries o.store_misses
        r.r_dataflow.solves r.r_dataflow.iterations)
    reports;
  Option.iter
    (fun c ->
      Buffer.add_string buf (Support.Json.to_string (Tbaa.Claims.to_json c)))
    ctx.Opt.Pass.claims

let test_digest () =
  let buf = Buffer.create (1 lsl 20) in
  List.iter
    (fun ledger ->
      List.iter (fun program -> output buf ~ledger (program ())) (programs ()))
    [ false; true ];
  Alcotest.(check string) "md5 of the optimizer's output" "2066cf765f04bdca9d50f190fdda7481"
    (Digest.to_hex (Digest.string (Buffer.contents buf)))

let () =
  Alcotest.run "pinned"
    [ ( "pinned output",
        [ Alcotest.test_case "full schedule digest" `Slow test_digest ] ) ]
