open Support
open Minim3
open Ir
open Tbaa

type stats = {
  mutable hoisted : int;
  mutable eliminated : int;
  mutable shortened : int;
}

(* The kill test for a tracked expression consults the same derived paths
   (its variables, its prefixes, its base variable as a path) for every
   instruction in the procedure; recomputing them per query is quadratic
   allocation. They are resolved once per expression instead. *)
type query_paths = {
  qp_vars : Reg.var list;  (* variables the path reads (base and indices) *)
  qp_base : Apath.t;  (* the base variable as a path *)
  qp_prefixes : Apath.t list;  (* all prefixes, including the path itself *)
  qp_all : Apath.t list;  (* qp_base :: qp_prefixes *)
}

let query_paths ap =
  let prefixes = Apath.prefixes ap in
  let base = Apath.of_var (Apath.base ap) in
  { qp_vars = Apath.vars_used ap;
    qp_base = base;
    qp_prefixes = prefixes;
    qp_all = base :: prefixes }

(* The instruction-side data is likewise shared across every expression the
   instruction is tested against: the defined variable's escape status and
   location class, a store's own class, a call's mod summaries. [kill_pred]
   resolves those once and returns the per-expression predicate.

   A definition of [v] invalidates an expression directly when [v] is the
   base or an index of the path; indirectly when [v] is memory-resident for
   others (a global or address-taken variable) and a location of its class
   may underlie the path. A store kills the path when it may alias one of
   the path's selector-prefixes, or the slot of the path's base variable
   when that variable's address escaped; a call kills what its callees'
   mod sets may write. *)
let kill_pred ?claims ?kind (oracle : Oracle.t) modref instr =
  (* Each oracle answer consulted here is a bet the rewrite stands on;
     with a ledger installed, log it against the witness paths so the
     dynamic auditor can cross-check the "no" answers against concrete
     addresses. [kind] attributes the bet to the client on whose behalf
     the predicate runs (SLF and LICM reuse this predicate). Call kills
     are exempt: mod-ref summaries are sets of location classes with no
     witness path to audit. *)
  let note p1 p2 ans =
    (match claims with Some c -> Claims.record ?kind c p1 p2 ans | None -> ());
    ans
  in
  let def_pred v =
    if v.Reg.v_kind = Reg.Vglobal || oracle.Oracle.addr_taken_var v then begin
      let cls = Aloc.Lvar (v.Reg.v_id, v.Reg.v_ty) in
      let vpath = Apath.of_var v in
      fun qp ->
        List.exists (Reg.var_equal v) qp.qp_vars
        || List.exists
             (fun p -> note vpath p (oracle.Oracle.class_kills cls p))
             qp.qp_all
    end
    else fun qp -> List.exists (Reg.var_equal v) qp.qp_vars
  in
  let dst_pred = function
    | Some v -> def_pred v
    | None -> fun _ -> false
  in
  match instr with
  | Instr.Iassign (v, _) | Instr.Iaddr (v, _) | Instr.Inew (v, _, _)
  | Instr.Iload (v, _) ->
    def_pred v
  | Instr.Istore (sap, _) ->
    let scls = oracle.Oracle.store_class sap in
    fun qp ->
      List.exists
        (fun prefix -> note sap prefix (oracle.Oracle.may_alias sap prefix))
        qp.qp_prefixes
      || note sap qp.qp_base (oracle.Oracle.class_kills scls qp.qp_base)
  | Instr.Icall (dst, target, _) ->
    let dp = dst_pred dst in
    let cp = Modref.call_kill_pred modref oracle target in
    fun qp -> dp qp || cp qp.qp_all
  | Instr.Ibuiltin (dst, _, _) -> dst_pred dst

(* A dataflow client tests every instruction against every tracked
   expression. Most instructions are definitions of local registers, whose
   kill test is variable membership alone; indexing the expressions by the
   variables they read answers those by lookup. Everything else (stores,
   calls, definitions of memory-resident variables) falls back to
   [kill_pred] over the whole universe. *)
type kill_index = {
  ki_qps : query_paths array;
  ki_readers : (int, Bitset.t) Hashtbl.t;  (* v_id -> expressions reading it *)
  ki_none : Bitset.t;
}

let kill_index exprs =
  let n = Array.length exprs in
  let qps = Array.map query_paths exprs in
  let readers = Hashtbl.create 16 in
  Array.iteri
    (fun i qp ->
      List.iter
        (fun (v : Reg.var) ->
          let s =
            match Hashtbl.find_opt readers v.Reg.v_id with
            | Some s -> s
            | None ->
              let s = Bitset.create n in
              Hashtbl.add readers v.Reg.v_id s;
              s
          in
          Bitset.add s i)
        qp.qp_vars)
    qps;
  { ki_qps = qps; ki_readers = readers; ki_none = Bitset.create n }

let readers ki (v : Reg.var) =
  Option.value (Hashtbl.find_opt ki.ki_readers v.Reg.v_id) ~default:ki.ki_none

let def_kill_set ki instr =
  match Instr.defined_var instr with
  | Some v -> readers ki v
  | None -> ki.ki_none

let kill_set ?claims (oracle : Oracle.t) modref ki instr =
  match instr with
  | Instr.Iassign (v, _) | Instr.Iaddr (v, _) | Instr.Inew (v, _, _)
  | Instr.Iload (v, _) | Instr.Ibuiltin (Some v, _, _)
    when v.Reg.v_kind <> Reg.Vglobal && not (oracle.Oracle.addr_taken_var v) ->
    readers ki v
  | Instr.Ibuiltin (None, _, _) -> ki.ki_none
  | _ ->
    let n = Array.length ki.ki_qps in
    let s = Bitset.create n in
    let kills = kill_pred ?claims oracle modref instr in
    for i = 0 to n - 1 do
      if kills ki.ki_qps.(i) then Bitset.add s i
    done;
    s

(* The memory *expressions* RLE tracks are the scalar-typed prefixes of a
   path: those denote one word the machine actually reads (a pointer or a
   scalar). Aggregate-typed prefixes (an inline record, the array behind a
   dope) are address arithmetic, not loads. *)
let scalar_prefixes tenv ap =
  List.filter (fun p -> Types.is_scalar tenv (Apath.ty p)) (Apath.prefixes ap)

(* ------------------------------------------------------------------ *)
(* Forward availability                                                *)
(* ------------------------------------------------------------------ *)

(* Every instruction's transfer over a fixed universe — its kill set and
   the expressions it makes available — is taken once, in block and
   instruction order, and composed into the block's gen/kill. Walks after
   the solve replay the saved sets, so each kill answer (and each claim
   logged while taking it) is had once. *)
type transfers = {
  tr_universe : int;
  tr_gen : Bitset.t array;
  tr_kill : Bitset.t array;
  tr_steps : (Bitset.t * int list) list array;
}

let compose proc ~universe ~kills ~gens =
  let nb = Cfg.n_blocks proc in
  let gen = Array.init nb (fun _ -> Bitset.create universe) in
  let kill = Array.init nb (fun _ -> Bitset.create universe) in
  let steps = Array.make nb [] in
  Vec.iter
    (fun b ->
      let gen = gen.(b.Cfg.b_id) and kill = kill.(b.Cfg.b_id) in
      steps.(b.Cfg.b_id) <-
        List.map
          (fun i ->
            let ks = kills i in
            let gs = gens i in
            Bitset.diff_into ~dst:gen ks;
            Bitset.union_into ~dst:kill ks;
            List.iter
              (fun e ->
                Bitset.add gen e;
                Bitset.remove kill e)
              gs;
            (ks, gs))
          b.Cfg.b_instrs)
    proc.Cfg.pr_blocks;
  { tr_universe = universe; tr_gen = gen; tr_kill = kill; tr_steps = steps }

let solve proc tr confluence =
  Dataflow.run ~proc ~universe:tr.tr_universe ~confluence
    ~gen:(fun b -> tr.tr_gen.(b))
    ~kill:(fun b -> tr.tr_kill.(b))
    ~entry_fact:(Bitset.create tr.tr_universe) ()

let replay tr (b : Cfg.block) inn f =
  let avail = Bitset.copy inn in
  List.map2
    (fun instr (ks, gs) ->
      let r = f avail instr in
      Bitset.diff_into ~dst:avail ks;
      List.iter (Bitset.add avail) gs;
      r)
    b.Cfg.b_instrs tr.tr_steps.(b.Cfg.b_id)

(* A load makes available the scalar prefixes of its path (it reads each
   to navigate) except those that read its own destination, whose value it
   changes; a store makes available its proper prefixes and, by
   store-to-load forwarding, its own path. *)
let self_dependent v ap = List.exists (Reg.var_equal v) (Apath.vars_used ap)

type availability = {
  av_exprs : Apath.t array;
  av_ids : int Apath.Tbl.t;
  av_transfers : transfers;
}

let availability tenv proc ~kills =
  let ids = Apath.Tbl.create 64 in
  let exprs = Vec.create () in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iload (_, ap) | Instr.Istore (ap, _) ->
        List.iter
          (fun p -> if not (Apath.Tbl.mem ids p) then Apath.Tbl.add ids p (Vec.push exprs p))
          (scalar_prefixes tenv ap)
      | _ -> ());
  let n = Vec.length exprs in
  if n = 0 then None
  else begin
    let exprs = Array.init n (Vec.get exprs) in
    let id = Apath.Tbl.find ids in
    let gens = function
      | Instr.Iload (v, ap) ->
        List.filter_map
          (fun p -> if self_dependent v p then None else Some (id p))
          (scalar_prefixes tenv ap)
      | Instr.Istore (ap, _) -> List.map id (scalar_prefixes tenv ap)
      | _ -> []
    in
    Some
      { av_exprs = exprs;
        av_ids = ids;
        av_transfers = compose proc ~universe:n ~kills:(kills (kill_index exprs)) ~gens }
  end

(* ------------------------------------------------------------------ *)
(* Loop-invariant load motion (Figure 6)                               *)
(* ------------------------------------------------------------------ *)

(* The hoistable unit is the longest invariant candidate prefix of a
   loaded path: in the paper's example a.b^[i] is variant in i, but a.b^
   is invariant and moves to the preheader. RLE offers every scalar
   prefix; LICM offers only the whole path. *)

let loop_instrs proc (loop : Loops.loop) =
  Bitset.fold
    (fun bid acc -> List.rev_append (Cfg.block proc bid).Cfg.b_instrs acc)
    loop.Loops.body []

let defs_in_loop instrs v =
  List.exists
    (fun i ->
      match Instr.defined_var i with
      | Some d -> Reg.var_equal d v
      | None -> false)
    instrs

let hoist_once ?claims ?kind ~candidates ~fresh oracle modref proc =
  let hoisted = ref 0 in
  let dom = Dom.compute proc in
  let loops = Loops.find proc dom in
  List.iter
    (fun loop ->
      let body_instrs = loop_instrs proc loop in
      let prefix_invariant p =
        let qp = query_paths p in
        (not (List.exists (fun u -> defs_in_loop body_instrs u) qp.qp_vars))
        && not
             (List.exists
                (* Loads go through the kill test too: one whose
                   destination is a global or address-taken variable
                   rewrites that variable's memory slot, which can
                   underlie a cell the candidate prefix navigates through.
                   [kill_pred] reduces to that cheap def test for loads. *)
                (fun i -> kill_pred ?claims ?kind oracle modref i qp)
                body_instrs)
      in
      let longest_invariant_prefix ap =
        List.fold_left
          (fun best p -> if prefix_invariant p then Some p else best)
          None (candidates ap)
      in
      (* Collect candidates before mutating: (block, instr, prefix). *)
      let moves = ref [] in
      Bitset.iter
        (fun bid ->
          if Loops.executes_every_iteration proc dom loop bid then
            List.iter
              (fun i ->
                match i with
                | Instr.Iload (v, ap) -> (
                  match longest_invariant_prefix ap with
                  | Some p ->
                    (* If the whole path moves, its destination must have no
                       other definition in the loop: the hoisted load
                       assigns it once, in the preheader's stead. *)
                    let whole = Apath.equal p ap in
                    let v_ok =
                      (not whole)
                      || List.length
                           (List.filter
                              (fun j ->
                                match Instr.defined_var j with
                                | Some d -> Reg.var_equal d v
                                | None -> false)
                              body_instrs)
                         = 1
                    in
                    if v_ok then moves := (bid, i, p) :: !moves
                  | None -> ())
                | _ -> ())
              (Cfg.block proc bid).Cfg.b_instrs)
        loop.Loops.body;
      if !moves <> [] then begin
        let pre = Loops.ensure_preheader proc loop in
        let pre_block = Cfg.block proc pre in
        (* Share one preheader load per distinct hoisted prefix. *)
        let hoisted_homes : Reg.var Apath.Tbl.t = Apath.Tbl.create 8 in
        let home_for p =
          match Apath.Tbl.find_opt hoisted_homes p with
          | Some v -> v
          | None ->
            let v = fresh ~name:"licm" ~ty:(Apath.ty p) ~kind:Reg.Vtemp in
            (match claims with
            | Some c -> Claims.note_home c v p
            | None -> ());
            Apath.Tbl.add hoisted_homes p v;
            pre_block.Cfg.b_instrs <- pre_block.Cfg.b_instrs @ [ Instr.Iload (v, p) ];
            v
        in
        List.iter
          (fun (bid, instr, p) ->
            match instr with
            | Instr.Iload (v, ap) ->
              let b = Cfg.block proc bid in
              let t = home_for p in
              let replacement =
                if Apath.equal p ap then Instr.Iassign (v, Instr.Ratom (Reg.Avar t))
                else begin
                  Instr.Iload
                    (v, Apath.make t (Apath.sels_from ap (Apath.length p)))
                end
              in
              b.Cfg.b_instrs <-
                List.map (fun i -> if i == instr then replacement else i) b.Cfg.b_instrs;
              incr hoisted
            | _ -> assert false)
          (List.rev !moves)
      end)
    loops;
  !hoisted

(* Iterate so loads escape nested loops level by level; each round
   recomputes dominators over the preheaders of the previous one. *)
let hoist_loops ?claims ?kind ~candidates ~fresh oracle modref proc =
  let rec rounds budget total =
    let h = hoist_once ?claims ?kind ~candidates ~fresh oracle modref proc in
    if h > 0 && budget > 0 then rounds (budget - 1) (total + h) else total + h
  in
  rounds 4 0

(* ------------------------------------------------------------------ *)
(* Redundant-load CSE over available expressions (Figure 7)            *)
(* ------------------------------------------------------------------ *)

(* Universe: every selector-prefix of every loaded or stored path. A load of
   a.b^.c performs three memory reads (a.b, a.b^, and .c), so it generates
   availability for all three prefixes. A store generates its proper
   prefixes (it reads them to navigate) and its own path (store-to-load
   forwarding).

   The rewrite decides before it rewrites. A first walk over the
   availability sets finds where each access's rewrite starts — an
   available whole path (the load is eliminated) or the longest available
   prefix (the access is shortened) — and marks the expression whose home
   temporary that start reads. The second walk loads a prefix into its
   home, and gives a load's or store's own path a home, only for a marked
   expression, at every access that makes it available; so a home that is
   read holds its expression's value on every path into the read, and an
   access nothing reuses stays as written. A store is the exception: it
   still loads its scalar proper prefixes into homes, since loop hoisting
   moves only loads and a later RLE run hoists those segments out of
   loops. *)

let cse ?claims ~fresh program oracle modref proc stats =
  let tenv = program.Cfg.tenv in
  match availability tenv proc ~kills:(kill_set ?claims oracle modref) with
  | None -> false
  | Some av ->
    let n = Array.length av.av_exprs in
    let id = Apath.Tbl.find av.av_ids in
    let result = solve proc av.av_transfers Dataflow.Must in
    (* The scalar-prefix lengths of [ap] shorter than the whole path. *)
    let proper_lens ap =
      let m = Apath.length ap in
      List.filter_map
        (fun p ->
          let k = Apath.length p in
          if k < m then Some k else None)
        (scalar_prefixes tenv ap)
    in
    (* Decide: where each access's rewrite starts — [-1] for an eliminated
       load, else the length of the longest available prefix it reuses (0
       for none) — marking in [read] the expression whose home it reads. *)
    let read = Bitset.create n in
    let longest_available avail ap lens =
      List.fold_left
        (fun best k ->
          if Bitset.mem avail (id (Apath.truncate ap k)) then max best k
          else best)
        0 lens
    in
    let start_of avail instr =
      let shortened ap k =
        if k > 0 then begin
          stats.shortened <- stats.shortened + 1;
          Bitset.add read (id (Apath.truncate ap k))
        end;
        k
      in
      match instr with
      | Instr.Iload (v, ap) when self_dependent v ap -> 0
      | Instr.Iload (_, ap) ->
        let full = id ap in
        if Bitset.mem avail full then begin
          stats.eliminated <- stats.eliminated + 1;
          Bitset.add read full;
          -1
        end
        else shortened ap (longest_available avail ap (proper_lens ap))
      | Instr.Istore (ap, _) ->
        shortened ap (longest_available avail ap (proper_lens ap))
      | _ -> 0
    in
    let starts = Array.make (Cfg.n_blocks proc) [] in
    Vec.iter
      (fun b ->
        starts.(b.Cfg.b_id) <-
          replay av.av_transfers b result.Dataflow.inn.(b.Cfg.b_id) start_of)
      proc.Cfg.pr_blocks;
    (* Rewrite. *)
    let home = Array.make n None in
    let home_temp e =
      match home.(e) with
      | Some v -> v
      | None ->
        let ap = av.av_exprs.(e) in
        let v = fresh ~name:"rle" ~ty:(Apath.ty ap) ~kind:Reg.Vtemp in
        (match claims with
        | Some c -> Claims.note_home c v ap
        | None -> ());
        home.(e) <- Some v;
        v
    in
    let marked ap = Bitset.mem read (id ap) in
    (* Navigate [ap] from the home of its length-[s] prefix (from its base
       when [s = 0]), loading each scalar proper prefix longer than [s]
       that [keep] selects into its home. Returns the loads and the (base,
       consumed length) the rest of the access continues from. *)
    let segments ap s keep =
      let start = if s = 0 then Apath.base ap else home_temp (id (Apath.truncate ap s)) in
      let loads, base, consumed =
        List.fold_left
          (fun (acc, base, consumed) k ->
            if k <= s || not (keep k) then (acc, base, consumed)
            else begin
              let h = home_temp (id (Apath.truncate ap k)) in
              (Instr.Iload (h, Apath.make base (Apath.sels_between ap consumed k)) :: acc, h, k)
            end)
          ([], start, s) (proper_lens ap)
      in
      (List.rev loads, base, consumed)
    in
    let rest base ap consumed = Apath.make base (Apath.sels_from ap consumed) in
    let rewrite instr s =
      match instr with
      | Instr.Iload (v, ap) when s < 0 ->
        [ Instr.Iassign (v, Instr.Ratom (Reg.Avar (home_temp (id ap)))) ]
      | Instr.Iload (v, ap) ->
        (* A self-dependent load makes available only the prefixes that do
           not read its destination; only those may need a home. *)
        let self = self_dependent v ap in
        let keep k =
          let p = Apath.truncate ap k in
          marked p && not (self && self_dependent v p)
        in
        let loads, base, consumed = segments ap s keep in
        if (not self) && marked ap then begin
          let h = home_temp (id ap) in
          loads
          @ [ Instr.Iload (h, rest base ap consumed);
              Instr.Iassign (v, Instr.Ratom (Reg.Avar h)) ]
        end
        else if consumed = 0 then [ instr ]
        else loads @ [ Instr.Iload (v, rest base ap consumed) ]
      | Instr.Istore (ap, a) ->
        let loads, base, consumed = segments ap s (fun _ -> true) in
        let store = if consumed = 0 then instr else Instr.Istore (rest base ap consumed, a) in
        if marked ap then
          loads @ [ store; Instr.Iassign (home_temp (id ap), Instr.Ratom a) ]
        else loads @ [ store ]
      | _ -> [ instr ]
    in
    let rewrote = ref false in
    Vec.iter
      (fun b ->
        b.Cfg.b_instrs <-
          List.concat
            (List.map2
               (fun instr s ->
                 match rewrite instr s with
                 | [ i ] when i == instr -> [ i ]
                 | out ->
                   rewrote := true;
                   out)
               b.Cfg.b_instrs starts.(b.Cfg.b_id)))
      proc.Cfg.pr_blocks;
    !rewrote

let run_proc (pc : Pass.proc_context) proc =
  let claims = pc.Pass.pc_claims and fresh = pc.Pass.pc_fresh in
  let program = pc.Pass.pc_program
  and oracle = pc.Pass.pc_oracle
  and modref = pc.Pass.pc_modref in
  let stats = { hoisted = 0; eliminated = 0; shortened = 0 } in
  stats.hoisted <-
    hoist_loops ?claims ~candidates:(scalar_prefixes program.Cfg.tenv) ~fresh oracle
      modref proc;
  let rewrote = cse ?claims ~fresh program oracle modref proc stats in
  (stats, stats.hoisted > 0 || rewrote)

let pass =
  { Pass.name = "rle";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s, mutated = run_proc pc proc in
          { Pass.stats =
              [ ("hoisted", s.hoisted); ("eliminated", s.eliminated);
                ("shortened", s.shortened) ];
            changed = s.hoisted + s.eliminated + s.shortened > 0;
            mutated }) }

let removed reports =
  List.fold_left
    (fun acc r ->
      if r.Pass.r_pass = pass.Pass.name then
        acc + Pass.stat r "hoisted" + Pass.stat r "eliminated"
        + Pass.stat r "shortened"
      else acc)
    0 reports
