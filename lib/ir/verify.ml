open Support
open Minim3

(* Structural IR validator, run between passes (--verify-ir) so the first
   pass that emits garbage is named in the report instead of the last
   pass (or the simulator) to consume it.

   The checks are deliberately tuned to invariants every pass actually
   preserves: block-id density, in-range terminator targets, access-path
   well-typedness against the type environment, load/store/assign type
   compatibility, and definite assignment of compiler temporaries (a
   must-availability fixpoint — NOT single-assignment: RLE home temps
   are legitimately re-assigned on every store to their path). *)

type error = {
  ve_proc : string;
  ve_block : int;
  ve_instr : string option;
  ve_msg : string;
}

let error_to_string e =
  Printf.sprintf "[%s/B%d]%s %s" e.ve_proc e.ve_block
    (match e.ve_instr with Some i -> " {" ^ i ^ "}" | None -> "")
    e.ve_msg


(* ------------------------------------------------------------------ *)
(* Per-path well-typedness                                             *)
(* ------------------------------------------------------------------ *)

let ty_name env t = try Types.to_string env t with _ -> Printf.sprintf "#%d" t

(* Walk the selector chain, threading the current type. Address-holding
   bases (By_ref params, Iaddr temps) store the *referent* type, so their
   paths must open with an [Sderef] producing exactly that type. *)
let path_errors env (ap : Apath.t) =
  let errs = ref [] in
  let err fmt =
    Format.kasprintf (fun m -> errs := m :: !errs) ("path %a: " ^^ fmt) Apath.pp ap
  in
  let desc_opt t = try Some (Types.desc env t) with _ -> None in
  let check_index = function
    | Reg.Aint _ -> ()
    | Reg.Avar v ->
      if v.Reg.v_ty <> Types.tid_int then
        err "index %a : %s is not INTEGER" Reg.pp_var v (ty_name env v.Reg.v_ty)
    | a -> err "index %a is not an integer atom" Reg.pp_atom a
  in
  let rec walk cur pos = function
    | [] -> ()
    | sel :: rest ->
      let next =
        match sel with
        | Apath.Sderef t ->
          if pos = 0 && Reg.holds_address (Apath.base ap) then begin
            if t <> (Apath.base ap).Reg.v_ty then
              err "deref of address base yields %s, base referent is %s"
                (ty_name env t)
                (ty_name env (Apath.base ap).Reg.v_ty);
            Some t
          end
          else begin
            (match desc_opt cur with
            | Some (Types.Dref { target; _ }) ->
              if target <> t then
                err "deref of %s yields %s, selector claims %s"
                  (ty_name env cur) (ty_name env target) (ty_name env t)
            | Some _ -> err "deref applied to non-REF %s" (ty_name env cur)
            | None -> err "deref applied to unknown type #%d" cur);
            Some t
          end
        | Apath.Sfield (f, content) ->
          (match Types.find_field env cur f with
          | Some { Types.fld_ty; _ } ->
            if fld_ty <> content then
              err "field %a of %s has type %s, selector claims %s" Ident.pp f
                (ty_name env cur) (ty_name env fld_ty) (ty_name env content)
          | None ->
            err "type %s has no field %a" (ty_name env cur) Ident.pp f
          | exception _ ->
            err "field select %a on unknown type #%d" Ident.pp f cur);
          Some content
        | Apath.Sindex (i, elem) ->
          check_index i;
          (match desc_opt cur with
          | Some (Types.Darray (_, e)) ->
            if e <> elem then
              err "element of %s has type %s, selector claims %s"
                (ty_name env cur) (ty_name env e) (ty_name env elem)
          | Some _ -> err "subscript applied to non-array %s" (ty_name env cur)
          | None -> err "subscript on unknown type #%d" cur);
          Some elem
      in
      (match next with Some t -> walk t (pos + 1) rest | None -> ())
  in
  (if Apath.is_memory_ref ap && Reg.holds_address (Apath.base ap) then
     match Apath.last (Apath.truncate ap 1) with
     | Some (Apath.Sderef _) -> ()
     | _ -> err "address-holding base used without a leading deref");
  walk (Apath.base ap).Reg.v_ty 0 (Apath.sels ap);
  List.rev !errs

(* ------------------------------------------------------------------ *)
(* Definite assignment of temporaries                                  *)
(* ------------------------------------------------------------------ *)

(* Temps ([Vtemp]/[Vaddr]) must be written before they are read; globals,
   params and locals are default-initialized by the runtime, so they are
   exempt. Solved as a must-available fixpoint (intersection over
   predecessors, empty at entry, full at unreachable blocks) with a
   hand-rolled loop so validator runs do not perturb the pass manager's
   per-pass dataflow-sweep attribution. *)
let definite_assignment_errors (proc : Cfg.proc) =
  let is_temp (v : Reg.var) =
    match v.Reg.v_kind with Reg.Vtemp | Reg.Vaddr -> true | _ -> false
  in
  let idx : (int, int) Hashtbl.t = Hashtbl.create 32 in
  let note v =
    if is_temp v && not (Hashtbl.mem idx v.Reg.v_id) then
      Hashtbl.add idx v.Reg.v_id (Hashtbl.length idx)
  in
  Cfg.iter_instrs proc (fun _ i ->
      List.iter note (Instr.vars_used i);
      Option.iter note (Instr.defined_var i));
  let n = Cfg.n_blocks proc in
  let universe = Hashtbl.length idx in
  if universe = 0 then []
  else begin
    let gen = Array.init n (fun _ -> Bitset.create universe) in
    Vec.iter
      (fun (b : Cfg.block) ->
        List.iter
          (fun i ->
            match Instr.defined_var i with
            | Some v when is_temp v ->
              Bitset.add gen.(b.Cfg.b_id) (Hashtbl.find idx v.Reg.v_id)
            | _ -> ())
          b.Cfg.b_instrs)
      proc.Cfg.pr_blocks;
    let inn = Array.init n (fun _ -> Bitset.create universe) in
    let out = Array.init n (fun _ -> Bitset.create universe) in
    Array.iter Bitset.fill inn;
    Array.iter Bitset.fill out;
    let rpo = Cfg.reverse_postorder proc in
    let preds = Cfg.predecessors proc in
    Bitset.clear inn.(proc.Cfg.pr_entry);
    let transfer b =
      let o = Bitset.copy inn.(b) in
      Bitset.union_into ~dst:o gen.(b);
      o
    in
    List.iter (fun b -> out.(b) <- transfer b) rpo;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          if b <> proc.Cfg.pr_entry then begin
            let meet = Bitset.create universe in
            Bitset.fill meet;
            List.iter (fun p -> Bitset.inter_into ~dst:meet out.(p)) preds.(b);
            if not (Bitset.equal meet inn.(b)) then begin
              inn.(b) <- meet;
              let o = transfer b in
              if not (Bitset.equal o out.(b)) then begin
                out.(b) <- o;
                changed := true
              end
            end
          end)
        rpo
    done;
    let errs = ref [] in
    let pname = Ident.name proc.Cfg.pr_name in
    Vec.iter
      (fun (b : Cfg.block) ->
        let avail = Bitset.copy inn.(b.Cfg.b_id) in
        let use ctx v =
          if is_temp v && not (Bitset.mem avail (Hashtbl.find idx v.Reg.v_id))
          then
            errs :=
              { ve_proc = pname; ve_block = b.Cfg.b_id; ve_instr = ctx;
                ve_msg =
                  Format.asprintf "temp %a read before any assignment"
                    Reg.pp_var v }
              :: !errs
        in
        List.iter
          (fun i ->
            let ctx = Some (Format.asprintf "%a" Instr.pp i) in
            List.iter (use ctx) (Instr.vars_used i);
            match Instr.defined_var i with
            | Some v when is_temp v ->
              Bitset.add avail (Hashtbl.find idx v.Reg.v_id)
            | _ -> ())
          b.Cfg.b_instrs;
        let term_vars =
          match b.Cfg.b_term with
          | Instr.Tbranch (Reg.Avar v, _, _) -> [ v ]
          | Instr.Treturn (Some (Reg.Avar v)) -> [ v ]
          | _ -> []
        in
        List.iter
          (use (Some (Format.asprintf "%a" Instr.pp_terminator b.Cfg.b_term)))
          term_vars)
      proc.Cfg.pr_blocks;
    List.rev !errs
  end

(* ------------------------------------------------------------------ *)
(* Per-procedure structural checks                                     *)
(* ------------------------------------------------------------------ *)

let proc_errors (program : Cfg.program) (proc : Cfg.proc) =
  let env = program.Cfg.tenv in
  let pname = Ident.name proc.Cfg.pr_name in
  let errs = ref [] in
  let add ~block ~instr fmt =
    Format.kasprintf
      (fun m ->
        errs :=
          { ve_proc = pname; ve_block = block; ve_instr = instr; ve_msg = m }
          :: !errs)
      fmt
  in
  let n = Cfg.n_blocks proc in
  if proc.Cfg.pr_entry < 0 || proc.Cfg.pr_entry >= n then
    add ~block:(-1) ~instr:None "entry block B%d out of range (%d blocks)"
      proc.Cfg.pr_entry n;
  Vec.iteri
    (fun i (b : Cfg.block) ->
      if b.Cfg.b_id <> i then
        add ~block:i ~instr:None "block id %d at table index %d" b.Cfg.b_id i;
      List.iter
        (fun s ->
          if s < 0 || s >= n then
            add ~block:i
              ~instr:(Some (Format.asprintf "%a" Instr.pp_terminator b.Cfg.b_term))
              "terminator targets out-of-range block B%d" s)
        (Cfg.successors b.Cfg.b_term))
    proc.Cfg.pr_blocks;
  let check_var ~block ~instr (v : Reg.var) =
    if v.Reg.v_id < 0 || v.Reg.v_id >= program.Cfg.next_var_id then
      add ~block ~instr "variable %a has id %d outside [0, %d)" Reg.pp_var v
        v.Reg.v_id program.Cfg.next_var_id
  in
  let check_path ~block ~instr ap =
    List.iter (fun m -> add ~block ~instr "%s" m) (path_errors env ap)
  in
  let subtype s t = try Types.subtype env s t with _ -> false in
  Vec.iter
    (fun (b : Cfg.block) ->
      let block = b.Cfg.b_id in
      List.iter
        (fun i ->
          let instr = Some (Format.asprintf "%a" Instr.pp i) in
          List.iter (check_var ~block ~instr) (Instr.vars_used i);
          Option.iter (check_var ~block ~instr) (Instr.defined_var i);
          match i with
          | Instr.Iassign (v, Instr.Ratom a) ->
            if not (subtype (Reg.atom_ty a) v.Reg.v_ty) then
              add ~block ~instr "assign of %s into %a : %s"
                (ty_name env (Reg.atom_ty a))
                Reg.pp_var v
                (ty_name env v.Reg.v_ty)
          | Instr.Iassign _ -> ()
          | Instr.Iload (v, ap) ->
            check_path ~block ~instr ap;
            if not (subtype (Apath.ty ap) v.Reg.v_ty) then
              add ~block ~instr "load of %s into %a : %s"
                (ty_name env (Apath.ty ap))
                Reg.pp_var v
                (ty_name env v.Reg.v_ty)
          | Instr.Istore (ap, a) ->
            check_path ~block ~instr ap;
            if not (subtype (Reg.atom_ty a) (Apath.ty ap)) then
              add ~block ~instr "store of %s into cell of type %s"
                (ty_name env (Reg.atom_ty a))
                (ty_name env (Apath.ty ap))
          | Instr.Iaddr (v, ap) ->
            check_path ~block ~instr ap;
            if not (Reg.holds_address v) then
              add ~block ~instr "address stored into non-address %a"
                Reg.pp_var v
          | Instr.Inew (v, ty, _) ->
            if not (subtype ty v.Reg.v_ty) then
              add ~block ~instr "new %s into %a : %s" (ty_name env ty)
                Reg.pp_var v
                (ty_name env v.Reg.v_ty)
          | Instr.Icall (_, Instr.Cdirect p, _) ->
            if Cfg.find_proc_opt program p = None then
              add ~block ~instr "call to undefined procedure %a" Ident.pp p
          | Instr.Icall (_, Instr.Cvirtual (m, recv), _) ->
            (match try Types.lookup_method env recv m with _ -> None with
            | Some _ -> ()
            | None ->
              add ~block ~instr "no method %a on %s" Ident.pp m
                (ty_name env recv))
          | Instr.Ibuiltin _ -> ())
        b.Cfg.b_instrs)
    proc.Cfg.pr_blocks;
  (* The definite-assignment fixpoint walks successor edges, so it can
     only run on a graph whose entry and terminator targets are in range
     — exactly what the structural checks above just established. *)
  let graph_ok = ref (proc.Cfg.pr_entry >= 0 && proc.Cfg.pr_entry < n) in
  Vec.iter
    (fun (b : Cfg.block) ->
      List.iter
        (fun s -> if s < 0 || s >= n then graph_ok := false)
        (Cfg.successors b.Cfg.b_term))
    proc.Cfg.pr_blocks;
  List.rev !errs @ (if !graph_ok then definite_assignment_errors proc else [])

let program (program : Cfg.program) =
  List.concat_map (proc_errors program) program.Cfg.prog_procs
