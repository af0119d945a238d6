open Support
open Minim3
open Ir

type stats = { mutable eliminated : int }

(* Available expressions within one block: access path -> variable holding
   its value. Entries die at any store or call (trivial aliasing), or when
   a variable they mention is redefined. *)
let run_block tenv block stats =
  let avail : Reg.var Apath.Tbl.t = Apath.Tbl.create 16 in
  let kill_all () = Apath.Tbl.reset avail in
  let kill_var v =
    let dead =
      Apath.Tbl.fold
        (fun ap home acc ->
          if
            List.exists (Reg.var_equal v) (Apath.vars_used ap)
            || Reg.var_equal v home
          then ap :: acc
          else acc)
        avail []
    in
    List.iter (Apath.Tbl.remove avail) dead
  in
  let scalar ap = Types.is_scalar tenv (Apath.ty ap) in
  let rewritten =
    List.map
      (fun instr ->
        match instr with
        | Instr.Iload (v, ap) -> (
          match Apath.Tbl.find_opt avail ap with
          | Some home when not (Reg.var_equal home v) ->
            stats.eliminated <- stats.eliminated + 1;
            kill_var v;
            if scalar ap then Apath.Tbl.replace avail ap home;
            Instr.Iassign (v, Instr.Ratom (Reg.Avar home))
          | _ ->
            kill_var v;
            if scalar ap && not (List.exists (Reg.var_equal v) (Apath.vars_used ap))
            then Apath.Tbl.replace avail ap v;
            instr)
        | Instr.Istore (ap, a) ->
          kill_all ();
          (match a with
          | Reg.Avar u when scalar ap -> Apath.Tbl.replace avail ap u
          | _ -> ());
          instr
        | Instr.Icall (dst, _, _) ->
          kill_all ();
          (match dst with Some v -> kill_var v | None -> ());
          instr
        | Instr.Iassign (v, _) | Instr.Iaddr (v, _) | Instr.Inew (v, _, _) ->
          kill_var v;
          instr
        | Instr.Ibuiltin (dst, _, _) ->
          (match dst with Some v -> kill_var v | None -> ());
          instr)
      block.Cfg.b_instrs
  in
  block.Cfg.b_instrs <- rewritten

let pass =
  { Pass.name = "local-cse";
    role = Pass.Transform;
    scope =
      Pass.Analysis_free
        (fun program proc ->
          let s = { eliminated = 0 } in
          Vec.iter
            (fun b -> run_block program.Cfg.tenv b s)
            proc.Cfg.pr_blocks;
          { Pass.stats = [ ("eliminated", s.eliminated) ];
            changed = s.eliminated > 0;
            mutated = s.eliminated > 0 }) }
