open Support
open Minim3
open Ir

let resolve_target program ~type_refs m recv_ty =
  let tenv = program.Cfg.tenv in
  let candidates =
    type_refs recv_ty
    |> List.filter (Types.is_object tenv)
    |> List.filter_map (fun t -> Types.method_impl tenv t m)
    |> List.sort_uniq Ident.compare
  in
  match candidates with [ impl ] -> Some impl | _ -> None

(* Rewrite every virtual call whose candidates resolve to one procedure;
   the counts of resolved and unresolved call sites. *)
let resolve program ~type_refs =
  let resolved = ref 0 and unresolved = ref 0 in
  List.iter
    (fun proc ->
      Vec.iter
        (fun block ->
          block.Cfg.b_instrs <-
            List.map
              (fun instr ->
                match instr with
                | Instr.Icall (dst, Instr.Cvirtual (m, recv_ty), args) -> (
                  match resolve_target program ~type_refs m recv_ty with
                  | Some impl ->
                    incr resolved;
                    Instr.Icall (dst, Instr.Cdirect impl, args)
                  | None ->
                    incr unresolved;
                    instr)
                | _ -> instr)
              block.Cfg.b_instrs)
        proc.Cfg.pr_blocks)
    program.Cfg.prog_procs;
  (!resolved, !unresolved)

let pass =
  { Pass.name = "devirt";
    role = Pass.Transform;
    scope =
      Pass.Whole_program
        (fun ctx program ->
          let resolved, unresolved =
            resolve program
              ~type_refs:(Tbaa.Engine.type_refs_table (Pass.analysis ctx program))
          in
          { Pass.stats = [ ("resolved", resolved); ("unresolved", unresolved) ];
            changed = resolved > 0;
            mutated = resolved > 0 }) }
