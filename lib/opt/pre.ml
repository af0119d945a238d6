open Support
open Ir

type stats = { mutable inserted : int; mutable edges_split : int }

(* Retarget one edge p -> b to p -> fresh -> b, returning the fresh block.
   Needed when [p] has other successors that must not execute the inserted
   load. *)
let split_edge proc (p : Cfg.block) b_id =
  let fresh = Cfg.new_block proc (Instr.Tjump b_id) in
  (match p.Cfg.b_term with
  | Instr.Tjump l when l = b_id -> p.Cfg.b_term <- Instr.Tjump fresh.Cfg.b_id
  | Instr.Tbranch (a, t, f) ->
    let t = if t = b_id then fresh.Cfg.b_id else t in
    let f = if f = b_id then fresh.Cfg.b_id else f in
    p.Cfg.b_term <- Instr.Tbranch (a, t, f)
  | _ -> ());
  fresh

let run_proc ~fresh program oracle modref proc stats =
  (* RLE's expressions and kill rule: one build, solved both ways. *)
  match Rle.availability program.Cfg.tenv proc ~kills:(Rle.kill_set oracle modref) with
  | None -> ()
  | Some av ->
    let tr = av.Rle.av_transfers in
    let n = tr.Rle.tr_universe and nb = Cfg.n_blocks proc in
    let must = Rle.solve proc tr Dataflow.Must in
    let may = Rle.solve proc tr Dataflow.May in
    (* Expressions loaded in a block *before* any kill of them — the only
       ones an entry-edge insertion can make redundant. *)
    let used_in = Array.init nb (fun _ -> Bitset.create n) in
    Vec.iter
      (fun b ->
        let killed = Bitset.create n in
        List.iter2
          (fun i (ks, _) ->
            (match i with
            | Instr.Iload (_, ap) ->
              List.iter
                (fun p ->
                  let e = Apath.Tbl.find av.Rle.av_ids p in
                  if not (Bitset.mem killed e) then
                    Bitset.add used_in.(b.Cfg.b_id) e)
                (Rle.scalar_prefixes program.Cfg.tenv ap)
            | _ -> ());
            Bitset.union_into ~dst:killed ks)
          b.Cfg.b_instrs tr.Rle.tr_steps.(b.Cfg.b_id))
      proc.Cfg.pr_blocks;
    let preds = Cfg.predecessors proc in
    let dom = Dom.compute proc in
    (* Collect insertions first; mutate afterwards (edge splitting changes
       the block table). Insert expression e on edge p->b when e is used in
       b, partially but not fully available at b's entry, and missing on
       that particular edge. *)
    let insertions = ref [] in
    for b = 0 to nb - 1 do
      let candidates = Bitset.copy used_in.(b) in
      Bitset.inter_into ~dst:candidates may.Dataflow.inn.(b);
      Bitset.diff_into ~dst:candidates must.Dataflow.inn.(b);
      (* Back-edge insertions (b dominates p) would run the load on every
         iteration of a loop whose body re-kills the expression — pure
         pessimization; loop-carried reuse is RLE's LICM's job. *)
      let no_back_edges =
        List.for_all (fun p -> not (Dom.dominates dom b p)) preds.(b)
      in
      if (not (Bitset.is_empty candidates)) && preds.(b) <> [] && no_back_edges
      then
        Bitset.iter
          (fun e ->
            (* Profitability: some sibling predecessor must already carry
               the value — then the inserted loads turn an existing partial
               redundancy into a full one instead of merely moving work. *)
            if List.exists (fun p -> Bitset.mem must.Dataflow.out.(p) e) preds.(b)
            then
              List.iter
                (fun p ->
                  if not (Bitset.mem must.Dataflow.out.(p) e) then
                    insertions := (p, b, e) :: !insertions)
                preds.(b))
          candidates
    done;
    (* Group by edge so one split block serves all its expressions. *)
    let by_edge = Hashtbl.create 16 in
    List.iter
      (fun (p, b, e) ->
        let key = (p, b) in
        Hashtbl.replace by_edge key
          (e :: Option.value (Hashtbl.find_opt by_edge key) ~default:[]))
      !insertions;
    (* Emit in sorted edge order: iteration order decides fresh-var ids and
       instruction placement, and Hashtbl order is seed-dependent. *)
    List.iter
      (fun ((p, b), es) ->
        let pred_block = Cfg.block proc p in
        let target =
          if List.length (Cfg.successors pred_block.Cfg.b_term) > 1 then begin
            stats.edges_split <- stats.edges_split + 1;
            split_edge proc pred_block b
          end
          else pred_block
        in
        List.iter
          (fun e ->
            let ap = av.Rle.av_exprs.(e) in
            let t = fresh ~name:"pre" ~ty:(Apath.ty ap) ~kind:Reg.Vtemp in
            target.Cfg.b_instrs <- target.Cfg.b_instrs @ [ Instr.Iload (t, ap) ];
            stats.inserted <- stats.inserted + 1)
          (List.sort_uniq compare es))
      (List.sort compare (Hashtbl.fold (fun k es acc -> (k, es) :: acc) by_edge []))

let pass =
  { Pass.name = "pre";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s = { inserted = 0; edges_split = 0 } in
          run_proc ~fresh:pc.Pass.pc_fresh pc.Pass.pc_program pc.Pass.pc_oracle
            pc.Pass.pc_modref proc s;
          { Pass.stats =
              [ ("inserted", s.inserted); ("edges_split", s.edges_split) ];
            changed = s.inserted > 0;
            mutated = s.inserted > 0 || s.edges_split > 0 }) }
