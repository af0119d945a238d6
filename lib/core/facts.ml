open Support
open Minim3
open Ir

type field_addr = {
  fa_field : Ident.t;
  fa_recv : Types.tid;
  fa_content : Types.tid;
}

type elem_addr = { ea_array : Types.tid; ea_elem : Types.tid }

type memref = { mr_proc : Ident.t; mr_path : Apath.t; mr_is_store : bool }

type t = {
  tenv : Types.env;
  assignments : (Types.tid * Types.tid) list;
  field_addrs : field_addr list;
  elem_addrs : elem_addr list;
  var_addrs : Reg.var list;
  byref_formal_tids : Types.tid list;
  memrefs : memref list;
}

type contrib = {
  c_assignments : (Types.tid * Types.tid) list;
  c_field_addrs : field_addr list;
  c_elem_addrs : elem_addr list;
  c_var_addrs : Reg.var list;
  c_byref : Types.tid list;
  c_memrefs : memref list;
}

let prefix_ty = Apath.prefix_ty

(* A flow of a value of type [src] into a location of declared type [dst]
   merges the two types when they are distinct pointer types; NIL carries no
   referent so it never causes a merge. *)
let record_assignment tenv acc ~dst ~src =
  if
    dst <> src && src <> Types.tid_null
    && Types.is_pointer tenv dst && Types.is_pointer tenv src
  then (dst, src) :: acc
  else acc

(* One procedure's facts, in encounter order (the traversal — params, then
   blocks in id order, instructions then terminator — is byte-for-byte the
   historical whole-program pass restricted to one procedure). Pure: reads
   the IR and the type environment, interns nothing, touches no global
   state — safe to run on many procedures concurrently. *)
let collect_proc (program : Cfg.program) (proc : Cfg.proc) : contrib =
  let tenv = program.Cfg.tenv in
  let assignments = ref [] in
  let field_addrs = ref [] in
  let elem_addrs = ref [] in
  let var_addrs = ref [] in
  let byref = ref [] in
  let memrefs = ref [] in
  let assign ~dst ~src =
    assignments := record_assignment tenv !assignments ~dst ~src
  in
  List.iter
    (fun p ->
      match p.Reg.v_kind with
      | Reg.Vparam Ast.By_ref ->
        if not (List.mem p.Reg.v_ty !byref) then byref := p.Reg.v_ty :: !byref
      | _ -> ())
    proc.Cfg.pr_params;
  Vec.iter
    (fun block ->
      List.iter
        (fun instr ->
          (match instr with
          | Instr.Iload (_, ap) ->
            memrefs :=
              { mr_proc = proc.Cfg.pr_name; mr_path = ap; mr_is_store = false }
              :: !memrefs
          | Instr.Istore (ap, _) ->
            memrefs :=
              { mr_proc = proc.Cfg.pr_name; mr_path = ap; mr_is_store = true }
              :: !memrefs
          | _ -> ());
          match instr with
          | Instr.Iassign (v, Instr.Ratom a) ->
            assign ~dst:v.Reg.v_ty ~src:(Reg.atom_ty a)
          | Instr.Iassign (_, _) -> ()
          | Instr.Iload (v, ap) -> assign ~dst:v.Reg.v_ty ~src:(Apath.ty ap)
          | Instr.Istore (ap, a) ->
            assign ~dst:(Apath.ty ap) ~src:(Reg.atom_ty a)
          | Instr.Inew (v, t, _) -> assign ~dst:v.Reg.v_ty ~src:t
          | Instr.Iaddr (_, ap) -> (
            match Apath.last ap with
            | Some (Apath.Sfield (f, content)) ->
              field_addrs :=
                { fa_field = f; fa_recv = prefix_ty ap; fa_content = content }
                :: !field_addrs
            | Some (Apath.Sindex (_, elem)) ->
              elem_addrs :=
                { ea_array = prefix_ty ap; ea_elem = elem } :: !elem_addrs
            | Some (Apath.Sderef _) ->
              (* The address of p^ is p's value: the location was already
                 pointer-reachable, no new fact. *)
              ()
            | None -> var_addrs := Apath.base ap :: !var_addrs)
          | Instr.Icall (dst, target, args) ->
            let bind_callee callee =
              match Cfg.find_proc_opt program callee with
              | None -> ()
              | Some cp ->
                (* Virtual calls carry the receiver as the first actual;
                   formals line up positionally in both cases. *)
                let formals = cp.Cfg.pr_params in
                List.iteri
                  (fun i formal ->
                    match List.nth_opt args i with
                    | Some a -> (
                      match formal.Reg.v_kind with
                      | Reg.Vparam Ast.By_ref -> ()  (* aliasing, not a flow *)
                      | _ -> assign ~dst:formal.Reg.v_ty ~src:(Reg.atom_ty a))
                    | None -> ())
                  formals;
                (match (dst, cp.Cfg.pr_ret) with
                | Some d, Some r -> assign ~dst:d.Reg.v_ty ~src:r
                | _ -> ())
            in
            List.iter bind_callee (Callgraph.callees_of_target program target)
          | Instr.Ibuiltin _ -> ())
        block.Cfg.b_instrs;
      match block.Cfg.b_term with
      | Instr.Treturn (Some a) -> (
        match proc.Cfg.pr_ret with
        | Some r -> assign ~dst:r ~src:(Reg.atom_ty a)
        | None -> ())
      | _ -> ())
    proc.Cfg.pr_blocks;
  { c_assignments = List.rev !assignments;
    c_field_addrs = List.rev !field_addrs;
    c_elem_addrs = List.rev !elem_addrs;
    c_var_addrs = List.rev !var_addrs;
    c_byref = List.rev !byref;
    c_memrefs = List.rev !memrefs }

(* Merging reproduces the historical single-pass accumulator lists *exactly*
   (the golden tests compare whole facts records): the old pass consed onto
   global lists, so its final order is the reverse of the global encounter
   sequence — rebuilt here by [rev_append]-folding per-procedure encounter
   lists left to right. [byref_formal_tids] deduplicated globally on first
   occurrence, [memrefs] kept in program order. *)
let merge tenv (contribs : contrib list) : t =
  let assignments, field_addrs, elem_addrs, var_addrs =
    List.fold_left
      (fun (a, f, e, v) c ->
        ( List.rev_append c.c_assignments a,
          List.rev_append c.c_field_addrs f,
          List.rev_append c.c_elem_addrs e,
          List.rev_append c.c_var_addrs v ))
      ([], [], [], []) contribs
  in
  let byref =
    List.fold_left
      (fun acc c ->
        List.fold_left
          (fun acc tid -> if List.mem tid acc then acc else tid :: acc)
          acc c.c_byref)
      [] contribs
  in
  { tenv;
    assignments;
    field_addrs;
    elem_addrs;
    var_addrs;
    byref_formal_tids = byref;
    memrefs = List.concat_map (fun c -> c.c_memrefs) contribs }

(* ------------------------------------------------------------------ *)
(* Canonical oracle inputs                                             *)
(* ------------------------------------------------------------------ *)

(* Everything the oracle constructors consume from facts, as canonical
   (sorted, deduplicated) integer lists. All the consumers have set
   semantics — [Sm_type_refs.build] unions over assignment pairs,
   [Address_taken.make] indexes occurrences and answers existence
   queries — so two facts records with equal canonical inputs (and the
   same [tenv] and world) build semantically identical oracles. [memrefs]
   are deliberately excluded: no oracle constructor reads them. *)
type oracle_inputs = {
  oi_assignments : (int * int) list;
  oi_field_addrs : (int * int * int) list;  (* Ident.id, recv, content *)
  oi_elem_addrs : (int * int) list;
  oi_var_addrs : (int * int) list;  (* v_id, v_ty *)
  oi_byref : int list;
}

let oracle_inputs (c : contrib) : oracle_inputs =
  { oi_assignments = List.sort_uniq compare c.c_assignments;
    oi_field_addrs =
      List.sort_uniq compare
        (List.map
           (fun fa -> (Ident.id fa.fa_field, fa.fa_recv, fa.fa_content))
           c.c_field_addrs);
    oi_elem_addrs =
      List.sort_uniq compare
        (List.map (fun ea -> (ea.ea_array, ea.ea_elem)) c.c_elem_addrs);
    oi_var_addrs =
      List.sort_uniq compare
        (List.map (fun v -> (v.Reg.v_id, v.Reg.v_ty)) c.c_var_addrs);
    oi_byref = List.sort_uniq Int.compare c.c_byref }

let oracle_inputs_equal (a : oracle_inputs) (b : oracle_inputs) = a = b

(* Structural contribution equality with identity-aware leaf comparisons
   (interned idents by id, hash-consed paths by node id) — the engine's
   fast path: when an edited procedure's contribution is unchanged, the
   merged facts of the whole program are too. *)

let memref_equal a b =
  Ident.equal a.mr_proc b.mr_proc
  && Apath.equal a.mr_path b.mr_path
  && a.mr_is_store = b.mr_is_store

let var_equal (a : Reg.var) (b : Reg.var) =
  a.Reg.v_id = b.Reg.v_id
  && a.Reg.v_ty = b.Reg.v_ty
  && a.Reg.v_kind = b.Reg.v_kind

let field_addr_equal a b =
  Ident.equal a.fa_field b.fa_field
  && a.fa_recv = b.fa_recv
  && a.fa_content = b.fa_content

let elem_addr_equal a b = a.ea_array = b.ea_array && a.ea_elem = b.ea_elem

let contrib_equal a b =
  List.equal
    (fun (d1, s1) (d2, s2) -> d1 = d2 && s1 = s2)
    a.c_assignments b.c_assignments
  && List.equal field_addr_equal a.c_field_addrs b.c_field_addrs
  && List.equal elem_addr_equal a.c_elem_addrs b.c_elem_addrs
  && List.equal var_equal a.c_var_addrs b.c_var_addrs
  && List.equal (fun (x : Types.tid) y -> x = y) a.c_byref b.c_byref
  && List.equal memref_equal a.c_memrefs b.c_memrefs
