open Support
open Ir

type stats = { mutable replaced : int }

(* A copy is a register-to-register [Iassign (v, Ratom (Avar u))] between
   variables of the same static type: substituting [u] for [v] as a path
   base then keeps every path's static type, which NIL's null zones are
   keyed by. The dataflow fact is the set of copies whose equality still
   holds. *)

let eligible_var excluded (v : Reg.var) =
  v.Reg.v_kind <> Reg.Vglobal && not (Hashtbl.mem excluded v.Reg.v_id)

let is_copy excluded = function
  | Instr.Iassign (v, Instr.Ratom (Reg.Avar u)) ->
    (not (Reg.var_equal v u)) && v.Reg.v_ty = u.Reg.v_ty
    && eligible_var excluded v && eligible_var excluded u
  | _ -> false

(* Delete each copy into a variable every use of which the rewrite
   replaced: such a variable is register-resident and read nowhere in the
   procedure any more, so its copies are dead. Deleting [v := u] removes a
   use of [u], which may leave [u] unread in turn. *)
let delete_copies proc touched is_copy =
  let uses = Hashtbl.create 64 in
  let count k (v : Reg.var) =
    Hashtbl.replace uses v.Reg.v_id
      (k + Option.value (Hashtbl.find_opt uses v.Reg.v_id) ~default:0)
  in
  Vec.iter
    (fun b ->
      List.iter (fun i -> List.iter (count 1) (Instr.vars_used i)) b.Cfg.b_instrs;
      match b.Cfg.b_term with
      | Instr.Tbranch (Reg.Avar v, _, _) | Instr.Treturn (Some (Reg.Avar v)) -> count 1 v
      | _ -> ())
    proc.Cfg.pr_blocks;
  let deleted = ref true in
  let dead = function
    | Instr.Iassign (v, Instr.Ratom (Reg.Avar u)) as i
      when is_copy i && Hashtbl.mem touched v.Reg.v_id
           && Option.value (Hashtbl.find_opt uses v.Reg.v_id) ~default:0 = 0 ->
      count (-1) u;
      Hashtbl.replace touched u.Reg.v_id ();
      deleted := true;
      true
    | _ -> false
  in
  while !deleted do
    deleted := false;
    Vec.iter
      (fun b -> b.Cfg.b_instrs <- List.filter (fun i -> not (dead i)) b.Cfg.b_instrs)
      proc.Cfg.pr_blocks
  done

let run_proc program proc stats =
  ignore program;
  (* Variables whose bare address escapes can be written through pointers;
     exclude them entirely. *)
  let excluded = Hashtbl.create 8 in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iaddr (_, ap) when not (Apath.is_memory_ref ap) ->
        Hashtbl.replace excluded (Apath.base ap).Reg.v_id ()
      | _ -> ());
  let is_copy = is_copy excluded in
  (* Universe of copy occurrences. *)
  let copies = Vec.create () in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iassign (v, Instr.Ratom (Reg.Avar u)) when is_copy i ->
        ignore (Vec.push copies (v, u))
      | _ -> ());
  let n = Vec.length copies in
  if n = 0 then ()
  else begin
    (* Three indexes over the universe, each built once: the copies each
       variable's definition kills (those mentioning it), the first
       occurrence of each (dst, src) pair, and each destination's copies in
       ascending id order. *)
    let mentions = Hashtbl.create 16 in
    let first_id = Hashtbl.create 16 in
    let by_dst = Hashtbl.create 16 in
    let mention (x : Reg.var) i =
      let s =
        match Hashtbl.find_opt mentions x.Reg.v_id with
        | Some s -> s
        | None ->
          let s = Bitset.create n in
          Hashtbl.add mentions x.Reg.v_id s;
          s
      in
      Bitset.add s i
    in
    for i = n - 1 downto 0 do
      let v, u = Vec.get copies i in
      mention v i;
      mention u i;
      Hashtbl.replace first_id (v.Reg.v_id, u.Reg.v_id) i;
      Hashtbl.replace by_dst v.Reg.v_id
        (i :: Option.value (Hashtbl.find_opt by_dst v.Reg.v_id) ~default:[])
    done;
    let none = Bitset.create n in
    let kills_of_def (d : Reg.var) =
      Option.value (Hashtbl.find_opt mentions d.Reg.v_id) ~default:none
    in
    let copy_id_of instr =
      match instr with
      | Instr.Iassign (v, Instr.Ratom (Reg.Avar u)) when is_copy instr ->
        Hashtbl.find_opt first_id (v.Reg.v_id, u.Reg.v_id)
      | _ -> None
    in
    let nb = Cfg.n_blocks proc in
    let gen = Array.init nb (fun _ -> Bitset.create n) in
    let kill = Array.init nb (fun _ -> Bitset.create n) in
    let transfer instr ~gen ~kill =
      (match Instr.defined_var instr with
      | Some d ->
        let ks = kills_of_def d in
        Bitset.diff_into ~dst:gen ks;
        Bitset.union_into ~dst:kill ks
      | None -> ());
      match copy_id_of instr with
      | Some c ->
        Bitset.add gen c;
        Bitset.remove kill c
      | None -> ()
    in
    Vec.iter
      (fun b ->
        List.iter
          (fun i -> transfer i ~gen:gen.(b.Cfg.b_id) ~kill:kill.(b.Cfg.b_id))
          b.Cfg.b_instrs)
      proc.Cfg.pr_blocks;
    let result =
      Dataflow.run ~proc ~universe:n ~confluence:Dataflow.Must
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~entry_fact:(Bitset.create n) ()
    in
    (* Rewrite pass: canonicalize each used variable through the available
       copies (transitively, with a bound against cycles). The rewrite only
       tracks the fact; [unused_kill] absorbs the kill side. [touched]
       collects the variables some use of which was rewritten. *)
    let unused_kill = Bitset.create n in
    let touched = Hashtbl.create 16 in
    Vec.iter
      (fun b ->
        let fact = Bitset.copy result.Dataflow.inn.(b.Cfg.b_id) in
        let source_of (v : Reg.var) =
          match Hashtbl.find_opt by_dst v.Reg.v_id with
          | None -> None
          | Some ids ->
            List.find_opt (Bitset.mem fact) ids
            |> Option.map (fun i -> snd (Vec.get copies i))
        in
        let canonical v =
          let rec go v steps =
            if steps = 0 then v
            else
              match source_of v with
              | Some u -> go u (steps - 1)
              | None -> v
          in
          go v 8
        in
        let subst_var v =
          let c = canonical v in
          if not (Reg.var_equal c v) then begin
            stats.replaced <- stats.replaced + 1;
            Hashtbl.replace touched v.Reg.v_id ()
          end;
          c
        in
        let subst_atom = function
          | Reg.Avar v -> Reg.Avar (subst_var v)
          | a -> a
        in
        let subst_sel = function
          | Apath.Sindex (a, t) -> Apath.Sindex (subst_atom a, t)
          | s -> s
        in
        let subst_path (ap : Apath.t) =
          Apath.make (subst_var (Apath.base ap))
            (List.map subst_sel (Apath.sels ap))
        in
        let subst_rvalue = function
          | Instr.Ratom a -> Instr.Ratom (subst_atom a)
          | Instr.Rbinop (op, a, b') -> Instr.Rbinop (op, subst_atom a, subst_atom b')
          | Instr.Runop (op, a) -> Instr.Runop (op, subst_atom a)
        in
        let rewritten =
          List.map
            (fun instr ->
              let instr' =
                match instr with
                | Instr.Iassign _ when is_copy instr ->
                  (* Leave copy instructions intact: rewriting their source
                     would orphan them in the copy universe; [canonical]
                     already follows chains transitively. *)
                  instr
                | Instr.Iassign (v, rv) -> Instr.Iassign (v, subst_rvalue rv)
                | Instr.Iload (v, ap) -> Instr.Iload (v, subst_path ap)
                | Instr.Istore (ap, a) -> Instr.Istore (subst_path ap, subst_atom a)
                | Instr.Iaddr (v, ap) -> Instr.Iaddr (v, subst_path ap)
                | Instr.Inew (v, t, len) ->
                  Instr.Inew (v, t, Option.map subst_atom len)
                | Instr.Icall (d, tgt, args) ->
                  Instr.Icall (d, tgt, List.map subst_atom args)
                | Instr.Ibuiltin (d, bi, args) ->
                  Instr.Ibuiltin (d, bi, List.map subst_atom args)
              in
              transfer instr' ~gen:fact ~kill:unused_kill;
              instr')
            b.Cfg.b_instrs
        in
        b.Cfg.b_instrs <- rewritten;
        b.Cfg.b_term <-
          (match b.Cfg.b_term with
          | Instr.Tbranch (a, t, f) -> Instr.Tbranch (subst_atom a, t, f)
          | Instr.Treturn a -> Instr.Treturn (Option.map subst_atom a)
          | t -> t))
      proc.Cfg.pr_blocks;
    if Hashtbl.length touched > 0 then delete_copies proc touched is_copy
  end

let pass =
  { Pass.name = "copyprop";
    role = Pass.Enabling;
    scope =
      Pass.Analysis_free
        (fun program proc ->
          let s = { replaced = 0 } in
          run_proc program proc s;
          { Pass.stats = [ ("replaced", s.replaced) ];
            changed = s.replaced > 0;
            mutated = s.replaced > 0 }) }
