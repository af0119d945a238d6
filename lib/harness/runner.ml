open Workloads

type config = {
  rle : Opt.Pass.oracle_kind option;
  minv : bool;
  world : Tbaa.World.t;
  pre : bool;
  copyprop : bool;
  licm : bool;
  slf : bool;
  dse : bool;
  oracle : Opt.Pass.oracle_kind option;
}

let base =
  { rle = None; minv = false; world = Tbaa.World.Closed; pre = false;
    copyprop = false; licm = false; slf = false; dse = false; oracle = None }

let rle_with kind = { base with rle = Some kind }

let oracle_kind c =
  match (c.rle, c.oracle) with
  | Some k, _ -> k
  | None, Some k -> k
  | None, None -> Opt.Pass.Osm_field_type_refs

let config_name c =
  let rle =
    match c.rle with
    | None -> (
      match c.oracle with
      | None -> "base"
      | Some k -> Opt.Pass.oracle_name k)
    | Some k -> "rle:" ^ Opt.Pass.oracle_name k
  in
  let minv = if c.minv then "+minv" else "" in
  let world =
    match c.world with Tbaa.World.Closed -> "" | Tbaa.World.Open -> "+open"
  in
  let ext =
    (if c.licm then "+licm" else "")
    ^ (if c.pre then "+pre" else "")
    ^ (if c.slf then "+slf" else "")
    ^ (if c.copyprop then "+cp" else "")
    ^ if c.dse then "+dse" else ""
  in
  rle ^ minv ^ world ^ ext

(* The configuration's pass context and schedule; every configuration
   ends with the local-CSE baseline. *)
let context config =
  Opt.Pass.create ~world:config.world ~oracle_kind:(oracle_kind config) ()

let schedule config =
  Opt.Pass_manager.schedule
    { Opt.Pass_manager.Config.devirt_inline = config.minv;
      licm = config.licm;
      pre = config.pre;
      slf = config.slf;
      rle = config.rle <> None;
      copyprop = config.copyprop;
      dse = config.dse;
      local_cse = true }

let prepare w config =
  let program = Workload.lower w in
  let reports =
    Opt.Pass_manager.run (context config) program (schedule config)
  in
  (program, reports)

type audit_result = {
  ar_outcome : Sim.Interp.outcome;
  ar_failures : (string * string) list;
  ar_violations : Sim.Audit.violation list;
  ar_claims : Tbaa.Claims.t;
}

let audit ?fault ?fuel w config =
  let program = Workload.lower w in
  let ctx = context config in
  let claims =
    Tbaa.Claims.create ~oracle:(Opt.Pass.oracle_name (oracle_kind config))
  in
  ctx.Opt.Pass.claims <- Some claims;
  ctx.Opt.Pass.fault <- fault;
  let reports =
    Opt.Pass_manager.run_guarded ctx program (schedule config)
  in
  let auditor = Sim.Audit.create claims in
  let outcome =
    Sim.Interp.run ?fuel ~on_access:(Sim.Audit.on_access auditor) program
  in
  { ar_outcome = outcome;
    ar_failures = Opt.Pass_manager.failures reports;
    ar_violations = Sim.Audit.check auditor;
    ar_claims = claims }

let memo : (string * string, Sim.Interp.outcome * Opt.Pass.report list)
    Hashtbl.t =
  Hashtbl.create 64

let run_with_reports w config =
  let key = (w.Workload.name, config_name config) in
  match Hashtbl.find_opt memo key with
  | Some cached -> cached
  | None ->
    let program, reports = prepare w config in
    let outcome = Sim.Interp.run program in
    Hashtbl.replace memo key (outcome, reports);
    (outcome, reports)

let run w config = fst (run_with_reports w config)
let reports w config = snd (run_with_reports w config)

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
