open Support
open Minim3

type block = {
  b_id : int;
  mutable b_instrs : Instr.t list;
  mutable b_term : Instr.terminator;
}

type proc = {
  pr_name : Ident.t;
  pr_params : Reg.var list;
  pr_ret : Types.tid option;
  pr_blocks : block Vec.t;
  mutable pr_entry : int;
  mutable pr_locals : Reg.var list;
}

type index = proc Ident.Tbl.t

type program = {
  tenv : Types.env;
  prog_globals : Reg.var list;
  mutable prog_procs : proc list;
  prog_main : Ident.t;
  mutable next_var_id : int;
  mutable prog_index : index;
}

(* First binding wins, as in a [List.find_opt] over the list. Built in
   full before it is installed, so readers on other domains never see a
   half-built table; read-only afterwards. *)
let index_of procs =
  let tbl = Ident.Tbl.create (max 16 (List.length procs)) in
  List.iter
    (fun p -> if not (Ident.Tbl.mem tbl p.pr_name) then Ident.Tbl.add tbl p.pr_name p)
    procs;
  tbl

let make_program ~tenv ~globals ~main ~next_var_id procs =
  { tenv; prog_globals = globals; prog_procs = procs; prog_main = main;
    next_var_id; prog_index = index_of procs }

let set_procs program procs =
  program.prog_index <- index_of procs;
  program.prog_procs <- procs

let new_block proc term =
  let b = { b_id = Vec.length proc.pr_blocks; b_instrs = []; b_term = term } in
  ignore (Vec.push proc.pr_blocks b);
  b

let block proc id = Vec.get proc.pr_blocks id
let n_blocks proc = Vec.length proc.pr_blocks

let successors = function
  | Instr.Tjump l -> [ l ]
  | Instr.Tbranch (_, t, f) -> if t = f then [ t ] else [ t; f ]
  | Instr.Treturn _ -> []

let predecessors proc =
  let preds = Array.make (n_blocks proc) [] in
  Vec.iter
    (fun b ->
      List.iter (fun s -> preds.(s) <- b.b_id :: preds.(s)) (successors b.b_term))
    proc.pr_blocks;
  Array.map List.rev preds

let reverse_postorder proc =
  let visited = Array.make (n_blocks proc) false in
  let order = ref [] in
  let rec dfs id =
    if not visited.(id) then begin
      visited.(id) <- true;
      List.iter dfs (successors (block proc id).b_term);
      order := id :: !order
    end
  in
  dfs proc.pr_entry;
  !order

let find_proc program name = Ident.Tbl.find program.prog_index name
let find_proc_opt program name = Ident.Tbl.find_opt program.prog_index name

let set_next_var_id program id = program.next_var_id <- id

let fresh_var program ~name ~ty ~kind =
  let id = program.next_var_id in
  program.next_var_id <- id + 1;
  { Reg.v_id = id; v_name = Ident.intern name; v_ty = ty; v_kind = kind }

let iter_instrs proc f =
  Vec.iter (fun b -> List.iter (f b) b.b_instrs) proc.pr_blocks

let instr_count proc =
  Vec.fold_left (fun acc b -> acc + List.length b.b_instrs + 1) 0 proc.pr_blocks

(* ------------------------------------------------------------------ *)
(* Snapshots (for guarded pass execution)                              *)
(* ------------------------------------------------------------------ *)

(* Passes mutate procedures in place, so to survive a crashing pass we
   save enough state to roll the program back to the pre-pass IR: the
   proc list itself, each proc's entry/locals and per-block instruction
   lists and terminators, and the variable-id counter. Blocks appended
   by the failed pass are dropped by truncating the block Vec; block ids
   are dense indices, so truncation restores the old id space exactly.
   A procedure left with fewer blocks than it had is grown back. *)

type proc_snapshot = {
  ps_proc : proc;
  ps_entry : int;
  ps_locals : Reg.var list;
  ps_n_blocks : int;
  ps_blocks : (Instr.t list * Instr.terminator) array;
}

type snapshot = {
  sn_procs : proc list;
  sn_next_var_id : int;
  sn_proc_states : proc_snapshot list;
}

let snapshot program =
  { sn_procs = program.prog_procs;
    sn_next_var_id = program.next_var_id;
    sn_proc_states =
      List.map
        (fun p ->
          { ps_proc = p;
            ps_entry = p.pr_entry;
            ps_locals = p.pr_locals;
            ps_n_blocks = n_blocks p;
            ps_blocks =
              Array.init (n_blocks p) (fun i ->
                  let b = block p i in
                  (b.b_instrs, b.b_term)) })
        program.prog_procs }

let restore program sn =
  if program.prog_procs != sn.sn_procs then set_procs program sn.sn_procs;
  program.next_var_id <- sn.sn_next_var_id;
  List.iter
    (fun ps ->
      let p = ps.ps_proc in
      p.pr_entry <- ps.ps_entry;
      p.pr_locals <- ps.ps_locals;
      while n_blocks p < ps.ps_n_blocks do
        ignore (new_block p (Instr.Treturn None))
      done;
      Vec.truncate p.pr_blocks ps.ps_n_blocks;
      Array.iteri
        (fun i (instrs, term) ->
          let b = block p i in
          b.b_instrs <- instrs;
          b.b_term <- term)
        ps.ps_blocks)
    sn.sn_proc_states

let pp_proc ppf proc =
  Format.fprintf ppf "@[<v>procedure %a (entry B%d)@," Ident.pp proc.pr_name
    proc.pr_entry;
  Vec.iter
    (fun b ->
      Format.fprintf ppf "B%d:@," b.b_id;
      List.iter (fun i -> Format.fprintf ppf "  %a@," Instr.pp i) b.b_instrs;
      Format.fprintf ppf "  %a@," Instr.pp_terminator b.b_term)
    proc.pr_blocks;
  Format.fprintf ppf "@]"

let pp_program ppf program =
  List.iter (fun p -> Format.fprintf ppf "%a@." pp_proc p) program.prog_procs
