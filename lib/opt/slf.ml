open Support
open Ir
open Tbaa

(* Store-to-load forwarding: the dual of RLE. RLE keeps loaded values in
   home temporaries and reuses them at later loads; this pass tracks
   *stored* bindings [mem[AP] := a] and replaces a later load of the same
   path with a register copy of the stored atom, when no instruction on
   the intervening paths may invalidate the binding:

   - a store whose path may alias any prefix of AP (alias oracle),
   - a call whose callees' transitive mod summaries may write a cell of
     AP (mod-ref), or
   - a redefinition of AP's base/index variables (the path would denote a
     different cell) or of the stored atom's variable (the register no
     longer holds the stored value) — where a memory-resident atom
     variable (global or address-taken) also counts as redefined by
     anything that may write its slot, e.g. a callee writing through a
     VAR formal.

   The invalidation test is exactly RLE's kill predicate plus the
   atom-redefinition leg; every oracle answer consulted is logged in the
   claims ledger under kind "slf". Forward must-availability over the
   distinct (path, atom) bindings, composed and solved by RLE's
   availability machinery, one solve per procedure. *)

type stats = { mutable forwarded : int }

let kind = "slf"

let atom_key = function
  | Reg.Avar v -> (0, v.Reg.v_id)
  | Reg.Aint n -> (1, n)
  | Reg.Abool b -> (2, Bool.to_int b)
  | Reg.Achar c -> (3, Char.code c)
  | Reg.Anil -> (4, 0)

let run_proc ?claims (oracle : Oracle.t) modref proc stats =
  (* Universe: the distinct (stored path, stored atom) bindings. *)
  let ids : (int * (int * int), int) Hashtbl.t = Hashtbl.create 32 in
  let bindings = Vec.create () in
  let intern ap a =
    let key = (Apath.id ap, atom_key a) in
    match Hashtbl.find_opt ids key with
    | Some i -> i
    | None ->
      let i = Vec.push bindings (ap, a) in
      Hashtbl.add ids key i;
      i
  in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Istore (ap, a) -> ignore (intern ap a)
      | _ -> ());
  let n = Vec.length bindings in
  if n = 0 then ()
  else begin
    let qps =
      Array.init n (fun i -> Rle.query_paths (fst (Vec.get bindings i)))
    in
    (* A stored atom that is a memory-resident variable (a global, or one
       whose address escaped) can change without a direct definition — a
       callee writing through a VAR formal, a store through an escaped
       address. Such a binding is additionally killed by anything that may
       write the variable's own slot, which is exactly the kill test for
       the variable as a path. *)
    let atom_qps =
      Array.init n (fun i ->
          match snd (Vec.get bindings i) with
          | Reg.Avar w
            when w.Reg.v_kind = Reg.Vglobal || oracle.Oracle.addr_taken_var w
            ->
            Some (Rle.query_paths (Apath.of_var w))
          | _ -> None)
    in
    (* Binding indices per path id, for the rewrite lookup. *)
    let by_path : (int, int list) Hashtbl.t = Hashtbl.create 32 in
    for i = n - 1 downto 0 do
      let pid = Apath.id (fst (Vec.get bindings i)) in
      Hashtbl.replace by_path pid
        (i :: Option.value (Hashtbl.find_opt by_path pid) ~default:[])
    done;
    let kill_set_of instr =
      let s = Bitset.create n in
      let kills = Rle.kill_pred ?claims ~kind oracle modref instr in
      let def = Instr.defined_var instr in
      for i = 0 to n - 1 do
        let killed =
          kills qps.(i)
          || (match (def, snd (Vec.get bindings i)) with
             | Some d, Reg.Avar w -> Reg.var_equal d w
             | _ -> false)
          || match atom_qps.(i) with Some q -> kills q | None -> false
        in
        if killed then Bitset.add s i
      done;
      s
    in
    let gens_of = function
      | Instr.Istore (ap, a) -> [ intern ap a ]
      | _ -> []
    in
    (* Each instruction's kill set and gens are taken exactly once; the
       rewrite walk replays the saved sets, so each oracle answer lands
       in the claims ledger once, not once per use. *)
    let tr = Rle.compose proc ~universe:n ~kills:kill_set_of ~gens:gens_of in
    let result = Rle.solve proc tr Dataflow.Must in
    Vec.iter
      (fun b ->
        (* The replacement defines the same register the load did, so the
           original instruction's transfer is the right one to track
           availability with. *)
        b.Cfg.b_instrs <-
          Rle.replay tr b result.Dataflow.inn.(b.Cfg.b_id) (fun avail instr ->
              match instr with
              | Instr.Iload (v, ap) -> (
                let live =
                  List.filter (Bitset.mem avail)
                    (Option.value (Hashtbl.find_opt by_path (Apath.id ap)) ~default:[])
                in
                match live with
                | i :: _ ->
                  stats.forwarded <- stats.forwarded + 1;
                  Instr.Iassign (v, Instr.Ratom (snd (Vec.get bindings i)))
                | [] -> instr)
              | _ -> instr))
      proc.Cfg.pr_blocks
  end

let pass =
  { Pass.name = "slf";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s = { forwarded = 0 } in
          run_proc ?claims:pc.Pass.pc_claims pc.Pass.pc_oracle
            pc.Pass.pc_modref proc s;
          { Pass.stats = [ ("forwarded", s.forwarded) ];
            changed = s.forwarded > 0;
            mutated = s.forwarded > 0 }) }
