open Support
open Ir

type t = {
  sp_name : Ident.t;
  sp_fingerprint : int;
  sp_signature : int;
  sp_callees : Ident.Set.t;
  sp_callee_sigs : (Ident.t * int option) list;
  sp_contrib : Facts.contrib;
  sp_inputs : Facts.oracle_inputs;
}

let callee_sigs program callees =
  List.map
    (fun callee ->
      match Cfg.find_proc_opt program callee with
      | Some cp -> (callee, Some (Fingerprint.signature cp))
      | None -> (callee, None))
    (Ident.Set.elements callees)

(* Pure given a frozen program: fingerprinting, callee resolution
   (type-environment reads) and fact collection all intern nothing — safe
   to run on many procedures concurrently. *)
let compute program (proc : Cfg.proc) ~fingerprint =
  let callees = Callgraph.callees program proc in
  let contrib = Facts.collect_proc program proc in
  { sp_name = proc.Cfg.pr_name;
    sp_fingerprint = fingerprint;
    sp_signature = Fingerprint.signature proc;
    sp_callees = callees;
    sp_callee_sigs = callee_sigs program callees;
    sp_contrib = contrib;
    sp_inputs = Facts.oracle_inputs contrib }

let signature_of program name =
  Option.map Fingerprint.signature (Cfg.find_proc_opt program name)

let reusable old ~fingerprint ~signature_of =
  old.sp_fingerprint = fingerprint
  && List.for_all
       (fun (callee, sg) -> sg = signature_of callee)
       old.sp_callee_sigs
