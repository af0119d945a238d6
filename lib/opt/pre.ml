open Support
open Minim3
open Ir

type stats = { mutable inserted : int; mutable edges_split : int }

let scalar_prefixes tenv ap =
  List.filter
    (fun p -> Types.is_scalar tenv (Apath.ty p))
    (Apath.prefixes ap)

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
  let tenv = program.Cfg.tenv in
  (* Universe of scalar load-expression prefixes, as in Rle.cse. *)
  let ids = Apath.Tbl.create 64 in
  let exprs = Vec.create () in
  let intern ap =
    match Apath.Tbl.find_opt ids ap with
    | Some i -> i
    | None ->
      let i = Vec.push exprs ap in
      Apath.Tbl.add ids ap i;
      i
  in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iload (_, ap) | Instr.Istore (ap, _) ->
        List.iter (fun p -> ignore (intern p)) (scalar_prefixes tenv ap)
      | _ -> ());
  let n = Vec.length exprs in
  if n = 0 then ()
  else begin
    let ki = Rle.kill_index (Array.init n (Vec.get exprs)) in
    let gens instr =
      match instr with
      | Instr.Iload (v, ap) ->
        List.filter_map
          (fun p ->
            if List.exists (Reg.var_equal v) (Apath.vars_used p) then None
            else Some (intern p))
          (scalar_prefixes tenv ap)
      | Instr.Istore (ap, _) -> List.map intern (scalar_prefixes tenv ap)
      | _ -> []
    in
    let nb = Cfg.n_blocks proc in
    let gen = Array.init nb (fun _ -> Bitset.create n) in
    let kill = Array.init nb (fun _ -> Bitset.create n) in
    (* Each instruction's kill set, computed once for both walks. *)
    let kills = Array.make nb [] in
    Vec.iter
      (fun b ->
        let id = b.Cfg.b_id in
        kills.(id) <-
          List.map
            (fun i ->
              let ks = Rle.kill_set oracle modref ki i in
              Bitset.diff_into ~dst:gen.(id) ks;
              Bitset.union_into ~dst:kill.(id) ks;
              List.iter
                (fun e ->
                  Bitset.add gen.(id) e;
                  Bitset.remove kill.(id) e)
                (gens i);
              ks)
            b.Cfg.b_instrs)
      proc.Cfg.pr_blocks;
    let must =
      Dataflow.run ~proc ~universe:n ~confluence:Dataflow.Must
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~entry_fact:(Bitset.create n) ()
    in
    let may =
      Dataflow.run ~proc ~universe:n ~confluence:Dataflow.May
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~entry_fact:(Bitset.create n) ()
    in
    (* Expressions loaded in a block *before* any kill of them — the only
       ones an entry-edge insertion can make redundant. *)
    let used_in = Array.init nb (fun _ -> Bitset.create n) in
    Vec.iter
      (fun b ->
        let killed = Bitset.create n in
        List.iter2
          (fun i ks ->
            (match i with
            | Instr.Iload (_, ap) ->
              List.iter
                (fun p ->
                  let e = intern p in
                  if not (Bitset.mem killed e) then
                    Bitset.add used_in.(b.Cfg.b_id) e)
                (scalar_prefixes tenv ap)
            | _ -> ());
            Bitset.union_into ~dst:killed ks)
          b.Cfg.b_instrs kills.(b.Cfg.b_id))
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
            let ap = Vec.get exprs e in
            let t = fresh ~name:"pre" ~ty:(Apath.ty ap) ~kind:Reg.Vtemp in
            target.Cfg.b_instrs <- target.Cfg.b_instrs @ [ Instr.Iload (t, ap) ];
            stats.inserted <- stats.inserted + 1)
          (List.sort_uniq compare es))
      (List.sort compare (Hashtbl.fold (fun k es acc -> (k, es) :: acc) by_edge []))
  end

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
