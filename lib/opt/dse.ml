open Support
open Ir
open Tbaa

(* Dead-store elimination: a store is dead when, on every path from it,
   its cell is overwritten by another store to the *same* path (with the
   address variables unchanged in between) before anything can read it.

   Backward must-analysis over the procedure's distinct store paths; the
   bit for path P means "P's cell is overwritten before any possible
   read". A bit is generated by a store to exactly P and killed by
   anything that may observe P's cell or change what P denotes:

   - a load whose prefix cells may alias P (alias oracle),
   - another store's or an address computation's navigation reads (their
     proper prefixes),
   - a store that may write a cell P navigates through — a proper prefix
     of P, or the memory-resident slot of P's base variable — after which
     P denotes a different cell, so a later store to the same syntactic
     path no longer overwrites this one,
   - a register read of a global or address-taken variable whose slot a
     write to P may reach (class overlap),
   - a call whose callees' transitive ref summaries may read a cell of
     P's class ({!Modref.call_ref_pred}), or whose mod summaries may
     write P's base-variable slot or a prefix cell — the same
     denotation-change legs as stores ({!Modref.call_kill_pred}),
   - a definition of P's base or index variables — directly, or through
     memory when the defined variable is a global or address-taken and
     its slot may underlie P's base or a prefix cell.

   Every alias answer relied on is logged in the claims ledger under kind
   "dse"; like RLE's call kills, the class-set legs (calls) carry no
   witness path and are exempt. Nothing is live at exit — the exit fact
   is the empty dead-set, so a final store is never removed. *)

type stats = { mutable removed : int }

let kind = "dse"

(* The store-path-side data the kill test consults, resolved once. *)
type store_info = {
  si_path : Apath.t;
  si_vars : Reg.var list;
  si_cls : Aloc.t;
  si_base : Apath.t;  (* the base variable as a path *)
  si_proper : Apath.t list;  (* proper prefixes: the cells navigated through *)
  si_denote : Apath.t list;  (* si_base :: si_proper — a write to any of
                                these changes which cell si_path denotes *)
}

let store_info (oracle : Oracle.t) ap =
  let proper =
    List.filter (fun r -> not (Apath.equal r ap)) (Apath.prefixes ap)
  in
  let base = Apath.of_var (Apath.base ap) in
  { si_path = ap;
    si_vars = Apath.vars_used ap;
    si_cls = oracle.Oracle.store_class ap;
    si_base = base;
    si_proper = proper;
    si_denote = base :: proper }

(* May executing [instr] read the cell [si] denotes, or change which cell
   that is? (The gen — a must-kill overwrite — is handled separately.) *)
let read_pred ?claims (oracle : Oracle.t) modref instr =
  let note p1 p2 ans =
    (match claims with
    | Some c -> Claims.record ~kind c p1 p2 ans
    | None -> ());
    ans
  in
  (* A definition of [v] invalidates a tracked path directly when [v] is
     its base or an index; indirectly when [v] is memory-resident (a
     global or address-taken variable) and its slot may underlie the base
     slot or a prefix cell — the write changes what the path denotes. *)
  let def_p =
    match Instr.defined_var instr with
    | Some v when v.Reg.v_kind = Reg.Vglobal || oracle.Oracle.addr_taken_var v
      ->
      let cls = Aloc.Lvar (v.Reg.v_id, v.Reg.v_ty) in
      let vp = Apath.of_var v in
      fun si ->
        List.exists (Reg.var_equal v) si.si_vars
        || List.exists
             (fun p -> note vp p (oracle.Oracle.class_kills cls p))
             si.si_denote
    | Some v -> fun si -> List.exists (Reg.var_equal v) si.si_vars
    | None -> fun _ -> false
  in
  (* Register reads of memory-resident variables, as paths resolved once
     per instruction: a write through [si] could have targeted the
     variable's slot, so reading it observes the store. Registers proper
     are unreachable from stores. *)
  let mem_reads =
    List.filter_map
      (fun v ->
        if v.Reg.v_kind = Reg.Vglobal || oracle.Oracle.addr_taken_var v then
          Some (Apath.of_var v)
        else None)
      (Instr.vars_used instr)
  in
  let regs_p si =
    List.exists
      (fun vp -> note si.si_path vp (oracle.Oracle.class_kills si.si_cls vp))
      mem_reads
  in
  let cells_p =
    match instr with
    | Instr.Iload (_, lp) ->
      let qs = Apath.prefixes lp in
      fun si ->
        List.exists
          (fun q -> note si.si_path q (oracle.Oracle.may_alias si.si_path q))
          qs
    | Instr.Iaddr (_, q) ->
      (* Navigation reads: every proper prefix cell. The addressed cell
         itself is merely located, not read or written. *)
      let qs = List.filter (fun r -> not (Apath.equal r q)) (Apath.prefixes q) in
      fun si ->
        List.exists
          (fun r -> note si.si_path r (oracle.Oracle.may_alias si.si_path r))
          qs
    | Instr.Istore (q, _) ->
      (* Navigation reads as for Iaddr, plus the write: the stored-to cell
         may be a cell the tracked path navigates through (a proper
         prefix, or the base variable's memory slot), after which the
         tracked path denotes a different cell — mirroring RLE's store
         kill. Writing the tracked cell itself is not a kill: the
         overwrite below still overwrites it. *)
      let qs = List.filter (fun r -> not (Apath.equal r q)) (Apath.prefixes q) in
      let scls = oracle.Oracle.store_class q in
      fun si ->
        List.exists
          (fun r -> note si.si_path r (oracle.Oracle.may_alias si.si_path r))
          qs
        || List.exists
             (fun p -> note q p (oracle.Oracle.may_alias q p))
             si.si_proper
        || note q si.si_base (oracle.Oracle.class_kills scls si.si_base)
    | Instr.Icall (_, target, _) ->
      (* Callees may read the cell (ref sets), or rewrite the path's
         denotation by assigning its base variable or a prefix cell (mod
         sets — the same legs RLE's call kill tests). *)
      let rp = Modref.call_ref_pred modref oracle target in
      let kp = Modref.call_kill_pred modref oracle target in
      fun si -> rp [ si.si_path ] || kp si.si_denote
    | Instr.Iassign _ | Instr.Inew _ | Instr.Ibuiltin _ -> fun _ -> false
  in
  fun si -> def_p si || regs_p si || cells_p si

let sweep_proc ?claims (oracle : Oracle.t) modref proc stats =
  let ids = Apath.Tbl.create 32 in
  let paths = Vec.create () in
  let intern ap =
    match Apath.Tbl.find_opt ids ap with
    | Some i -> i
    | None ->
      let i = Vec.push paths ap in
      Apath.Tbl.add ids ap i;
      i
  in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Istore (ap, _) -> ignore (intern ap)
      | _ -> ());
  let n = Vec.length paths in
  if n = 0 then ()
  else begin
    let infos = Array.init n (fun i -> store_info oracle (Vec.get paths i)) in
    (* Per-instruction transfer, in backward order: the write happens
       last, so going backward the gen applies before the reads kill —
       [fact' = (fact ∪ gen) − kill]. A store whose own navigation may
       read its cell must not gen (the read observes the old value). *)
    let transfer_of instr =
      let k = Bitset.create n in
      let reads = read_pred ?claims oracle modref instr in
      for i = 0 to n - 1 do
        if reads infos.(i) then Bitset.add k i
      done;
      let g =
        match instr with
        | Instr.Istore (ap, _) ->
          let i = intern ap in
          if Bitset.mem k i then [] else [ i ]
        | _ -> []
      in
      (g, k)
    in
    let nb = Cfg.n_blocks proc in
    let gen = Array.init nb (fun _ -> Bitset.create n) in
    let kill = Array.init nb (fun _ -> Bitset.create n) in
    (* Each instruction's transfer is computed exactly once, here — the
       sweep below replays the saved sets, so the oracle answers behind
       them land in the claims ledger once per sweep, not once per use.
       [transfers] holds each block's (instr, transfer) pairs in backward
       order, the order both walks consume them in. *)
    let transfers = Array.make nb [] in
    (* Compose [(fact ∪ g) − k] steps, last instruction first, into block
       sets for the framework's [inn = (out − KILL) ∪ GEN] shape:
       GEN := (GEN ∪ g) − k, KILL := KILL ∪ k. *)
    Vec.iter
      (fun b ->
        let ts =
          List.rev_map (fun instr -> (instr, transfer_of instr)) b.Cfg.b_instrs
        in
        transfers.(b.Cfg.b_id) <- ts;
        let bg = gen.(b.Cfg.b_id) and bk = kill.(b.Cfg.b_id) in
        List.iter
          (fun (_, (g, k)) ->
            List.iter (Bitset.add bg) g;
            Bitset.diff_into ~dst:bg k;
            Bitset.union_into ~dst:bk k)
          ts)
      proc.Cfg.pr_blocks;
    let result =
      Dataflow.run_backward ~proc ~universe:n ~confluence:Dataflow.Must
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~exit_fact:(Bitset.create n) ()
    in
    (* Sweep each block backwards: a store whose path is dead in the fact
       *below* it is removed (and contributes no transfer — it no longer
       executes); every kept instruction applies its saved transfer. *)
    Vec.iter
      (fun b ->
        let fact = Bitset.copy result.Dataflow.out.(b.Cfg.b_id) in
        let kept =
          List.fold_left
            (fun acc (instr, (g, k)) ->
              let dead =
                match instr with
                | Instr.Istore (ap, _) -> Bitset.mem fact (intern ap)
                | _ -> false
              in
              if dead then begin
                stats.removed <- stats.removed + 1;
                acc
              end
              else begin
                List.iter (Bitset.add fact) g;
                Bitset.diff_into ~dst:fact k;
                instr :: acc
              end)
            []
            transfers.(b.Cfg.b_id)
        in
        b.Cfg.b_instrs <- kept)
      proc.Cfg.pr_blocks
  end

let run_proc ?claims oracle modref proc stats =
  (* Removing a dead store removes its navigation reads, which can expose
     earlier stores; iterate until a sweep finds nothing (the store count
     strictly decreases, so this terminates). Claims are recorded on the
     first sweep only: later sweeps run over a strictly smaller program,
     so every query they pose was already posed — and logged — by the
     first, and re-recording would only inflate the ledger's counters. *)
  let rec go claims prev =
    sweep_proc ?claims oracle modref proc stats;
    if stats.removed > prev then go None stats.removed
  in
  go claims stats.removed

let pass =
  { Pass.name = "dse";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s = { removed = 0 } in
          run_proc ?claims:pc.Pass.pc_claims pc.Pass.pc_oracle
            pc.Pass.pc_modref proc s;
          { Pass.stats = [ ("removed", s.removed) ];
            changed = s.removed > 0;
            mutated = s.removed > 0 }) }
