open Workloads

type config = {
  passes : Opt.Pass_manager.Config.t;
  oracle : Opt.Pass.oracle_kind;
  world : Tbaa.World.t;
}

let base =
  { passes =
      { Opt.Pass_manager.Config.none with
        Opt.Pass_manager.Config.local_cse = true };
    oracle = Opt.Pass.Osm_field_type_refs;
    world = Tbaa.World.Closed }

let rle_with oracle =
  { passes = { base.passes with Opt.Pass_manager.Config.rle = true };
    oracle;
    world = base.world }

let config_name c =
  let p = c.passes in
  let open Opt.Pass_manager.Config in
  let tag on s = if on then s else "" in
  let analysis = Opt.Pass.oracle_name c.oracle in
  (if p.rle then "rle:" ^ analysis
   else if p.licm || p.pre || p.slf || p.dse then analysis
   else "base")
  ^ tag p.devirt_inline "+minv" ^ tag p.licm "+licm" ^ tag p.pre "+pre"
  ^ tag p.slf "+slf" ^ tag p.copyprop "+cp" ^ tag p.dse "+dse"
  ^ tag (c.world = Tbaa.World.Open) "+open"

let context ?jobs c =
  Opt.Pass.create ~world:c.world ~oracle_kind:c.oracle ?jobs ()

let optimize ?jobs ?(guarded = false) c program =
  let run =
    if guarded then Opt.Pass_manager.run_guarded else Opt.Pass_manager.run
  in
  run (context ?jobs c) program (Opt.Pass_manager.schedule c.passes)

type audit_result = {
  ar_outcome : Sim.Interp.outcome;
  ar_failures : (string * string) list;
  ar_auditor : Sim.Audit.t;
  ar_violations : Sim.Audit.violation list;
  ar_claims : Tbaa.Claims.t;
}

let audit ?fault ?fuel ?(observe = ignore) ~label c program =
  let ctx = context c in
  let claims = Tbaa.Claims.create ~oracle:label in
  ctx.Opt.Pass.claims <- Some claims;
  ctx.Opt.Pass.fault <- fault;
  observe ctx;
  let reports =
    Opt.Pass_manager.run_guarded ctx program (Opt.Pass_manager.schedule c.passes)
  in
  let auditor = Sim.Audit.create claims in
  let outcome =
    Sim.Interp.run ?fuel ~on_access:(Sim.Audit.on_access auditor) program
  in
  { ar_outcome = outcome;
    ar_failures = Opt.Pass_manager.failures reports;
    ar_auditor = auditor;
    ar_violations = Sim.Audit.check auditor;
    ar_claims = claims }

let memo : (string * config, Sim.Interp.outcome) Hashtbl.t = Hashtbl.create 64

let run w c =
  let key = (w.Workload.name, c) in
  match Hashtbl.find_opt memo key with
  | Some outcome -> outcome
  | None ->
    let program = Workload.lower w in
    ignore (optimize c program);
    let outcome = Sim.Interp.run program in
    Hashtbl.replace memo key outcome;
    outcome

let percent_of_base w config =
  let b = run w base in
  let c = run w config in
  100.0 *. float_of_int c.Sim.Interp.cycles /. float_of_int b.Sim.Interp.cycles

(* First line at which two outputs diverge: (1-based line number, base's
   line, other's line). A missing line on one side reports as "<end of
   output>". *)
let first_divergence base_output output =
  let a = String.split_on_char '\n' base_output in
  let b = String.split_on_char '\n' output in
  let missing = "<end of output>" in
  let rec go i a b =
    match (a, b) with
    | [], [] -> None
    | x :: a', y :: b' ->
      if String.equal x y then go (i + 1) a' b' else Some (i, x, y)
    | x :: _, [] -> Some (i, x, missing)
    | [], y :: _ -> Some (i, missing, y)
  in
  go 1 a b

let divergence_error ~workload ~config ~base_output ~output =
  match first_divergence base_output output with
  | None ->
    Support.Diag.error
      "workload %s: configuration %s changed the program output" workload
      config
  | Some (line, expected, got) ->
    Support.Diag.error
      "workload %s: configuration %s changed the program output at line %d: \
       expected %S, got %S"
      workload config line expected got

let check_outputs_agree w configs =
  let b = run w base in
  List.iter
    (fun c ->
      let o = run w c in
      if not (String.equal o.Sim.Interp.output b.Sim.Interp.output) then
        divergence_error ~workload:w.Workload.name ~config:(config_name c)
          ~base_output:b.Sim.Interp.output ~output:o.Sim.Interp.output)
    configs
