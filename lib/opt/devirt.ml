open Support
open Minim3
open Ir

type stats = { mutable resolved : int; mutable unresolved : int }

let resolve_target program ~type_refs m recv_ty =
  let tenv = program.Cfg.tenv in
  let candidates =
    type_refs recv_ty
    |> List.filter (Types.is_object tenv)
    |> List.filter_map (fun t -> Types.method_impl tenv t m)
    |> List.sort_uniq Ident.compare
  in
  match candidates with [ impl ] -> Some impl | _ -> None

let run program ~type_refs =
  let stats = { resolved = 0; unresolved = 0 } in
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
                    stats.resolved <- stats.resolved + 1;
                    Instr.Icall (dst, Instr.Cdirect impl, args)
                  | None ->
                    stats.unresolved <- stats.unresolved + 1;
                    instr)
                | _ -> instr)
              block.Cfg.b_instrs)
        proc.Cfg.pr_blocks)
    program.Cfg.prog_procs;
  stats

let pass =
  { Pass.name = "devirt";
    role = Pass.Transform;
    scope =
      Pass.Whole_program
        (fun ctx program ->
          let s =
            run program
              ~type_refs:(Tbaa.Engine.type_refs_table (Pass.analysis ctx program))
          in
        { Pass.stats =
            [ ("resolved", s.resolved); ("unresolved", s.unresolved) ];
          changed = s.resolved > 0;
          mutated = s.resolved > 0 }) }
