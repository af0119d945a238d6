open Support
open Ir
open Opt

type stats = { mutable removed : int }

let removable = function
  | Instr.Iassign _ | Instr.Iload _ | Instr.Iaddr _ | Instr.Inew _ -> true
  | Instr.Istore _ | Instr.Icall _ | Instr.Ibuiltin _ -> false

let run_proc proc stats =
  (* Pin down the always-live variables: globals and bare-address-taken. *)
  let pinned = Hashtbl.create 8 in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iaddr (_, ap) when not (Apath.is_memory_ref ap) ->
        Hashtbl.replace pinned (Apath.base ap).Reg.v_id ()
      | _ -> ());
  let is_pinned (v : Reg.var) =
    v.Reg.v_kind = Reg.Vglobal || Hashtbl.mem pinned v.Reg.v_id
  in
  (* Dense numbering of the variables occurring in this procedure. *)
  let index = Hashtbl.create 64 in
  let vars = Vec.create () in
  let idx v =
    match Hashtbl.find_opt index v.Reg.v_id with
    | Some i -> i
    | None ->
      let i = Vec.push vars v in
      Hashtbl.add index v.Reg.v_id i;
      i
  in
  Cfg.iter_instrs proc (fun _ i ->
      List.iter (fun v -> ignore (idx v)) (Instr.vars_used i);
      Option.iter (fun v -> ignore (idx v)) (Instr.defined_var i));
  Vec.iter
    (fun b ->
      match b.Cfg.b_term with
      | Instr.Tbranch (Reg.Avar v, _, _) | Instr.Treturn (Some (Reg.Avar v)) ->
        ignore (idx v)
      | _ -> ())
    proc.Cfg.pr_blocks;
  let n = Vec.length vars in
  if n = 0 then ()
  else begin
    let changed = ref true in
    while !changed do
      changed := false;
      (* Per-block liveness gen/kill by backward composition. *)
      let nb = Cfg.n_blocks proc in
      let gen = Array.init nb (fun _ -> Bitset.create n) in
      let kill = Array.init nb (fun _ -> Bitset.create n) in
      let uses_of i = List.map idx (Instr.vars_used i) in
      Vec.iter
        (fun b ->
          let g = gen.(b.Cfg.b_id) and k = kill.(b.Cfg.b_id) in
          (* terminator uses come last, so they seed the backward scan *)
          (match b.Cfg.b_term with
          | Instr.Tbranch (Reg.Avar v, _, _) | Instr.Treturn (Some (Reg.Avar v)) ->
            Bitset.add g (idx v)
          | _ -> ());
          List.iter
            (fun i ->
              (match Instr.defined_var i with
              | Some d ->
                let di = idx d in
                Bitset.remove g di;
                Bitset.add k di
              | None -> ());
              List.iter
                (fun u ->
                  Bitset.add g u;
                  Bitset.remove k u)
                (uses_of i))
            (List.rev b.Cfg.b_instrs))
        proc.Cfg.pr_blocks;
      let live =
        Dataflow.run_backward ~proc ~universe:n ~confluence:Dataflow.May
          ~gen:(fun b -> gen.(b))
          ~kill:(fun b -> kill.(b))
          ~exit_fact:(Bitset.create n) ()
      in
      (* Sweep each block backwards, dropping dead pure definitions. *)
      Vec.iter
        (fun b ->
          let fact = Bitset.copy live.Dataflow.out.(b.Cfg.b_id) in
          (match b.Cfg.b_term with
          | Instr.Tbranch (Reg.Avar v, _, _) | Instr.Treturn (Some (Reg.Avar v)) ->
            Bitset.add fact (idx v)
          | _ -> ());
          let kept =
            List.fold_left
              (fun acc i ->
                let dead =
                  removable i
                  &&
                  match Instr.defined_var i with
                  | Some d -> (not (is_pinned d)) && not (Bitset.mem fact (idx d))
                  | None -> false
                in
                if dead then begin
                  stats.removed <- stats.removed + 1;
                  changed := true;
                  acc
                end
                else begin
                  (match Instr.defined_var i with
                  | Some d -> Bitset.remove fact (idx d)
                  | None -> ());
                  List.iter (fun u -> Bitset.add fact u) (uses_of i);
                  i :: acc
                end)
              []
              (List.rev b.Cfg.b_instrs)
          in
          b.Cfg.b_instrs <- kept)
        proc.Cfg.pr_blocks
    done
  end

let pass =
  { Pass.name = "dce";
    role = Pass.Transform;
    scope =
      Pass.Analysis_free
        (fun _program proc ->
          let s = { removed = 0 } in
          run_proc proc s;
          { Pass.stats = [ ("removed", s.removed) ];
            changed = s.removed > 0;
            mutated = s.removed > 0 }) }
