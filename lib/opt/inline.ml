open Support
open Minim3
open Ir

(* A callee larger than this many IR instructions is not inlined, and a
   caller stops inlining once it has grown by [max_growth]. *)
let max_size = 60
let max_growth = 3000

(* Clone a callee variable for the inlined body. By-reference formals keep
   their holds-address nature by becoming Vaddr temporaries; by-value
   formals become plain temporaries. *)
let clone_kind = function
  | Reg.Vparam Ast.By_ref -> Reg.Vaddr
  | Reg.Vparam Ast.By_value -> Reg.Vtemp
  | k -> k

let inline_one program caller (call_block : Cfg.block) before after dst callee_proc args =
  let var_map : (int, Reg.var) Hashtbl.t = Hashtbl.create 32 in
  let clone_var (v : Reg.var) =
    if v.Reg.v_kind = Reg.Vglobal then v
    else
      match Hashtbl.find_opt var_map v.Reg.v_id with
      | Some v' -> v'
      | None ->
        let v' =
          Cfg.fresh_var program ~name:(Ident.name v.Reg.v_name) ~ty:v.Reg.v_ty
            ~kind:(clone_kind v.Reg.v_kind)
        in
        Hashtbl.add var_map v.Reg.v_id v';
        v'
  in
  let clone_atom = function
    | Reg.Avar v -> Reg.Avar (clone_var v)
    | a -> a
  in
  let clone_sel = function
    | Apath.Sfield (f, t) -> Apath.Sfield (f, t)
    | Apath.Sderef t -> Apath.Sderef t
    | Apath.Sindex (a, t) -> Apath.Sindex (clone_atom a, t)
  in
  let clone_path (ap : Apath.t) =
    Apath.make (clone_var (Apath.base ap)) (List.map clone_sel (Apath.sels ap))
  in
  let clone_rvalue = function
    | Instr.Ratom a -> Instr.Ratom (clone_atom a)
    | Instr.Rbinop (op, a, b) -> Instr.Rbinop (op, clone_atom a, clone_atom b)
    | Instr.Runop (op, a) -> Instr.Runop (op, clone_atom a)
  in
  let clone_instr = function
    | Instr.Iassign (v, rv) -> Instr.Iassign (clone_var v, clone_rvalue rv)
    | Instr.Iload (v, ap) -> Instr.Iload (clone_var v, clone_path ap)
    | Instr.Istore (ap, a) -> Instr.Istore (clone_path ap, clone_atom a)
    | Instr.Iaddr (v, ap) -> Instr.Iaddr (clone_var v, clone_path ap)
    | Instr.Inew (v, t, len) ->
      Instr.Inew (clone_var v, t, Option.map clone_atom len)
    | Instr.Icall (d, target, xs) ->
      Instr.Icall (Option.map clone_var d, target, List.map clone_atom xs)
    | Instr.Ibuiltin (d, b, xs) ->
      Instr.Ibuiltin (Option.map clone_var d, b, List.map clone_atom xs)
  in
  (* Continuation block: the remainder of the original block. *)
  let cont = Cfg.new_block caller call_block.Cfg.b_term in
  cont.Cfg.b_instrs <- after;
  (* Clone the callee's blocks, remapping labels and returns. *)
  let block_map = Hashtbl.create 16 in
  Vec.iter
    (fun (cb : Cfg.block) ->
      let nb = Cfg.new_block caller (Instr.Treturn None) in
      Hashtbl.add block_map cb.Cfg.b_id nb.Cfg.b_id)
    callee_proc.Cfg.pr_blocks;
  let remap l = Hashtbl.find block_map l in
  Vec.iter
    (fun (cb : Cfg.block) ->
      let nb = Cfg.block caller (remap cb.Cfg.b_id) in
      nb.Cfg.b_instrs <- List.map clone_instr cb.Cfg.b_instrs;
      nb.Cfg.b_term <-
        (match cb.Cfg.b_term with
        | Instr.Tjump l -> Instr.Tjump (remap l)
        | Instr.Tbranch (a, t, f) -> Instr.Tbranch (clone_atom a, remap t, remap f)
        | Instr.Treturn ret ->
          (match (dst, ret) with
          | Some d, Some a ->
            nb.Cfg.b_instrs <-
              nb.Cfg.b_instrs @ [ Instr.Iassign (d, Instr.Ratom (clone_atom a)) ]
          | _ -> ());
          Instr.Tjump cont.Cfg.b_id))
    callee_proc.Cfg.pr_blocks;
  (* Rewire the call block: bind formals, jump to the cloned entry. *)
  let bindings =
    List.map2
      (fun formal arg -> Instr.Iassign (clone_var formal, Instr.Ratom arg))
      callee_proc.Cfg.pr_params args
  in
  call_block.Cfg.b_instrs <- before @ bindings;
  call_block.Cfg.b_term <- Instr.Tjump (remap callee_proc.Cfg.pr_entry)

(* Inline every eligible call site; the number inlined. *)
let inline_calls program =
  let inlined = ref 0 in
  (* Procedures on a call cycle. The condensation elides self-loops, so a
     singleton component is recursive only when it calls itself. *)
  let recursive = Hashtbl.create 16 in
  Array.iter
    (function
      | [ p ]
        when not
               (Ident.Set.mem p
                  (Callgraph.callees program (Cfg.find_proc program p))) ->
        ()
      | members -> List.iter (fun p -> Hashtbl.replace recursive p ()) members)
    (Callgraph.condense_program program).Callgraph.cond_comps;
  let inlinable name =
    match Cfg.find_proc_opt program name with
    | Some callee
      when (not (Ident.equal name program.Cfg.prog_main))
           && (not (Hashtbl.mem recursive name))
           && Cfg.instr_count callee <= max_size ->
      Some callee
    | _ -> None
  in
  List.iter
    (fun caller ->
      let budget = ref (Cfg.instr_count caller + max_growth) in
      let bid = ref 0 in
      while !bid < Cfg.n_blocks caller do
        let b = Cfg.block caller !bid in
        (* Find the first inlinable call in this block. *)
        let rec split before = function
          | [] -> None
          | Instr.Icall (dst, Instr.Cdirect p, args) :: rest -> (
            match inlinable p with
            | Some callee when Ident.equal caller.Cfg.pr_name p |> not ->
              Some (List.rev before, rest, dst, callee, args)
            | _ -> split (Instr.Icall (dst, Instr.Cdirect p, args) :: before) rest)
          | i :: rest -> split (i :: before) rest
        in
        (match split [] b.Cfg.b_instrs with
        | Some (before, after, dst, callee, args)
          when Cfg.instr_count caller < !budget ->
          inline_one program caller b before after dst callee args;
          incr inlined
          (* Re-scan the same block id: it now ends at the bindings; the
             continuation and cloned blocks come later in the vector. *)
        | _ -> incr bid)
      done)
    program.Cfg.prog_procs;
  !inlined

let pass =
  { Pass.name = "inline";
    role = Pass.Transform;
    scope =
      Pass.Whole_program
        (fun _ctx program ->
          let inlined = inline_calls program in
          { Pass.stats = [ ("inlined", inlined) ];
            changed = inlined > 0;
            mutated = inlined > 0 }) }
