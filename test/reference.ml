(* Baselines production code is checked against, shared by the tests.
   The incremental engine collects facts per procedure and answers the
   whole-program questions from the call-graph SCC condensation and its
   per-procedure summaries; these are the monolithic pass and the direct
   fixpoint and closure formulations. The oracles' subtype test reads an
   interval-labeled forest; the baseline walks the supertype chain per
   query. The optimizer's kill sets come from an index
   over the tracked expressions; the baseline asks the per-expression kill
   test of every expression, and the classifier's availability ({!avail})
   asks it per (instruction, expression) pair. The JSON decoder scans by index and reads
   plain integers digit by digit; the baseline is the peek-and-substring
   parser it replaced. Dominators come from Cooper-Harvey-Kennedy idoms
   and dominator-tree intervals; the baseline ({!Dom}) is the iterative
   bit-vector algorithm. SMTypeRefs keeps class ids and a merged
   subtype forest, where a TypeRefsTable is a subtree and compat one
   interval test, and merges the open world's unbranded objects along
   their nearest unbranded ancestors; the baseline ({!type_refs}) merges
   every subtype-related unbranded pair, filters each group against
   chain-walked Subtypes and runs the n²/2 pairwise intersection tests,
   and {!typerefs_compat} intersects two TypeRefsTables per query.
   Dead-code elimination ({!Dce}) measures what the optimizer leaves
   dead. The production virtual callees come from one walk down the
   receiver's subtree of the inheritance forest; the baseline
   ({!callees_of_target}) lists Subtypes(T) ({!subtypes}) by testing
   every type with the chain-walking subtype test and resolves each
   member's method up its chain. *)

open Support
open Minim3
open Ir

module Dce = Dce

(* The whole-program facts pass: every procedure's contribution, merged in
   program order. *)
let facts program =
  Tbaa.Facts.merge program.Cfg.tenv
    (List.map (Tbaa.Facts.collect_proc program) program.Cfg.prog_procs)

(* Subtypes(T) by testing every type: NIL left out. *)
let subtypes env t =
  let acc = ref [] in
  for u = Types.count env - 1 downto 0 do
    if u <> Types.tid_null && Types.subtype env u t then acc := u :: !acc
  done;
  !acc

(* The procedures a call target may reach: a virtual call's are the
   method implementations over every subtype of its receiver type. *)
let callees_of_target program = function
  | Instr.Cdirect p -> [ p ]
  | Instr.Cvirtual (m, recv_ty) ->
    let tenv = program.Cfg.tenv in
    subtypes tenv recv_ty
    |> List.filter_map (fun t ->
           if Types.is_object tenv t then Types.method_impl tenv t m else None)
    |> List.sort_uniq Ident.compare

(* TypeDecl's Subtypes-intersection test by chain walking: MiniM3
   subtyping is a forest, so two subtype sets intersect exactly when one
   type is an ancestor of the other. NIL is compatible with nothing. *)
let subtyping env t1 t2 =
  t1 <> Types.tid_null && t2 <> Types.tid_null
  && (Types.subtype env t1 t2 || Types.subtype env t2 t1)

(* For each procedure, every procedure reachable from it (including itself
   if recursive), by iterating set unions to a fixpoint. *)
let transitive_closure program =
  let closure = Hashtbl.create 32 in
  List.iter
    (fun proc ->
      Hashtbl.replace closure proc.Cfg.pr_name (Callgraph.callees program proc))
    program.Cfg.prog_procs;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun proc ->
        let name = proc.Cfg.pr_name in
        let cur = Hashtbl.find closure name in
        let expanded =
          Ident.Set.fold
            (fun callee acc ->
              match Hashtbl.find_opt closure callee with
              | Some s -> Ident.Set.union acc s
              | None -> acc)
            cur cur
        in
        if not (Ident.Set.equal expanded cur) then begin
          Hashtbl.replace closure name expanded;
          changed := true
        end)
      program.Cfg.prog_procs
  done;
  closure

let empty = { Opt.Modref.mods = Tbaa.Aloc.Set.empty; refs = Tbaa.Aloc.Set.empty }

(* Mod-ref by one direct-effects pass per procedure, merged over the
   transitive closure. Effects come from the oracle's raw
   store_class/addr_taken_var, as in the engine. *)
let modref program (oracle : Tbaa.Oracle.t) =
  let closure = transitive_closure program in
  let direct = Hashtbl.create 32 in
  List.iter
    (fun proc ->
      Hashtbl.replace direct proc.Cfg.pr_name
        (Tbaa.Effects.direct ~store_class:oracle.Tbaa.Oracle.store_class
           ~addr_taken_var:oracle.Tbaa.Oracle.addr_taken_var proc))
    program.Cfg.prog_procs;
  let summaries = Hashtbl.create 32 in
  List.iter
    (fun proc ->
      let name = proc.Cfg.pr_name in
      let reach =
        Ident.Set.add name
          (Option.value (Hashtbl.find_opt closure name) ~default:Ident.Set.empty)
      in
      let merged =
        Ident.Set.fold
          (fun callee (acc : Opt.Modref.summary) ->
            match Hashtbl.find_opt direct callee with
            | Some (e : Tbaa.Effects.t) ->
              { Opt.Modref.mods = Tbaa.Aloc.Set.union acc.mods e.e_mods;
                refs = Tbaa.Aloc.Set.union acc.refs e.e_refs }
            | None -> acc)
          reach empty
      in
      Hashtbl.replace summaries name merged)
    program.Cfg.prog_procs;
  Opt.Modref.of_summaries program (fun name ->
      Option.value (Hashtbl.find_opt summaries name) ~default:empty)

(* Dominators by the iterative bit-vector algorithm over reverse
   postorder: each reachable block's full dominator set, and the idom as
   the strict dominator every other strict dominator dominates. *)
module Dom = struct
  type t = {
    doms : Bitset.t option array;  (* None = unreachable *)
    idoms : int option array;
  }

  let compute proc =
    let n = Cfg.n_blocks proc in
    let rpo = Cfg.reverse_postorder proc in
    let preds = Cfg.predecessors proc in
    let doms : Bitset.t option array = Array.make n None in
    let entry = proc.Cfg.pr_entry in
    let full () =
      let s = Bitset.create n in
      Bitset.fill s;
      s
    in
    List.iter (fun b -> doms.(b) <- Some (full ())) rpo;
    let entry_set = Bitset.create n in
    Bitset.add entry_set entry;
    doms.(entry) <- Some entry_set;
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun b ->
          if b <> entry then begin
            let inter = full () in
            let has_pred = ref false in
            List.iter
              (fun p ->
                match doms.(p) with
                | Some dp ->
                  has_pred := true;
                  Bitset.inter_into ~dst:inter dp
                | None -> ())
              preds.(b);
            if !has_pred then begin
              Bitset.add inter b;
              match doms.(b) with
              | Some old when Bitset.equal old inter -> ()
              | _ ->
                doms.(b) <- Some inter;
                changed := true
            end
          end)
        rpo
    done;
    let idoms = Array.make n None in
    List.iter
      (fun b ->
        if b <> entry then
          match doms.(b) with
          | None -> ()
          | Some db ->
            let strict = List.filter (fun d -> d <> b) (Bitset.elements db) in
            let is_idom c =
              List.for_all
                (fun d ->
                  d = c
                  ||
                  match doms.(c) with
                  | Some dc -> Bitset.mem dc d
                  | None -> false)
                strict
            in
            idoms.(b) <- List.find_opt is_idom strict)
      rpo;
    { doms; idoms }

  let dominates t a b =
    match t.doms.(b) with Some db -> Bitset.mem db a | None -> false

  let idom t b = t.idoms.(b)
  let reachable t b = t.doms.(b) <> None
end

(* SMTypeRefs' TypeRefsTable and compat rows by the pairwise build: the
   open world's forced merges as every pair of subtype-related unbranded
   objects, each type's merged set as a list, filtered against its
   Subtypes by the chain-walking subtype test, then every pair of tables
   intersected. Returns [(trt, rows)], both indexed by tid. *)
let type_refs ?(variant = Tbaa.Sm_type_refs.Grouped) ~(facts : Tbaa.Facts.t)
    ~world () =
  let env = facts.Tbaa.Facts.tenv in
  let n = Types.count env in
  let unbranded t =
    match Types.desc env t with
    | Types.Dobject { Types.obj_brand = None; _ } -> true
    | _ -> false
  in
  let open_world = ref [] in
  if world = Tbaa.World.Open then
    for s = 0 to n - 1 do
      for u = 0 to n - 1 do
        if s <> u && unbranded s && unbranded u && Types.subtype env s u then
          open_world := (u, s) :: !open_world
      done
    done;
  let pairs = facts.Tbaa.Facts.assignments @ !open_world in
  let group_of =
    match variant with
    | Tbaa.Sm_type_refs.Grouped ->
      let uf = Union_find.create n in
      List.iter (fun (dst, src) -> Union_find.union uf dst src) pairs;
      fun t -> Union_find.group uf t
    | Tbaa.Sm_type_refs.Per_type ->
      let reach = Array.init n (fun i -> Bitset.of_list n [ i ]) in
      let changed = ref true in
      while !changed do
        changed := false;
        List.iter
          (fun (dst, src) ->
            let before = Bitset.cardinal reach.(dst) in
            Bitset.union_into ~dst:reach.(dst) reach.(src);
            if Bitset.cardinal reach.(dst) <> before then changed := true)
          pairs
      done;
      fun t -> Bitset.elements reach.(t)
  in
  let objects = List.filter (Types.is_object env) (List.init n Fun.id) in
  let trt =
    Array.init n (fun tid ->
        let subs = Bitset.create n in
        if Types.is_object env tid then
          List.iter
            (fun u -> if Types.subtype env u tid then Bitset.add subs u)
            objects
        else if tid <> Types.tid_null then Bitset.add subs tid;
        let grp = Bitset.of_list n (group_of tid) in
        Bitset.inter_into ~dst:grp subs;
        grp)
  in
  let rows = Array.init n (fun _ -> Bitset.create n) in
  for i = 0 to n - 1 do
    for j = i to n - 1 do
      if Bitset.intersects trt.(i) trt.(j) then begin
        Bitset.add rows.(i) j;
        Bitset.add rows.(j) i
      end
    done
  done;
  (trt, rows)

(* [TypeRefsTable(t1) ∩ TypeRefsTable(t2) ≠ ∅] by one intersection per
   query, over each type's table read once from [sm] (the types [0 .. n-1]).
   NIL is compatible with nothing. *)
let typerefs_compat sm n =
  let tables =
    Array.init n (fun t -> Bitset.of_list n (Tbaa.Sm_type_refs.type_refs sm t))
  in
  fun t1 t2 ->
    t1 <> Types.tid_null && t2 <> Types.tid_null
    && Bitset.intersects tables.(t1) tables.(t2)

(* The kill set of one instruction over [exprs]: bit [i] iff the instruction
   may change expression [i], with the instruction-side data resolved
   afresh for every expression. *)
let kill_set ?claims oracle modref exprs instr =
  let s = Bitset.create (Array.length exprs) in
  Array.iteri
    (fun i ap ->
      if Opt.Rle.kill_pred ?claims oracle modref instr (Opt.Rle.query_paths ap)
      then Bitset.add s i)
    exprs;
  s

(* RLE's availability as the Figure 10 classifier first replayed it: the
   scalar-prefix universe interned in scan order, the kill rule [kills
   instr ap] asked afresh for every (instruction, expression) pair, block
   gen/kill composed from those answers and solved, and the facts before
   each instruction rebuilt by walking the block again, pair by pair. The
   production builder ([Opt.Rle.availability]) takes each instruction's
   kill set once, over an index. *)
type avail = {
  av_exprs : Apath.t Vec.t;
  av_ids : int Apath.Tbl.t;
  av_inn : Bitset.t array;
  av_kills : Instr.t -> Apath.t -> bool;
}

let build_avail tenv proc ~confluence ~kills =
  let scalar_prefixes ap =
    List.filter (fun p -> Types.is_scalar tenv (Apath.ty p)) (Apath.prefixes ap)
  in
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
        List.iter (fun p -> ignore (intern p)) (scalar_prefixes ap)
      | _ -> ());
  let n = Vec.length exprs in
  let kill_set instr =
    let s = Bitset.create n in
    Vec.iteri (fun i ap -> if kills instr ap then Bitset.add s i) exprs;
    s
  in
  let gens instr =
    match instr with
    | Instr.Iload (v, ap) ->
      List.filter_map
        (fun p ->
          if List.exists (Reg.var_equal v) (Apath.vars_used p) then None
          else Some (intern p))
        (scalar_prefixes ap)
    | Instr.Istore (ap, _) -> List.map intern (scalar_prefixes ap)
    | _ -> []
  in
  let nb = Cfg.n_blocks proc in
  let gen = Array.init nb (fun _ -> Bitset.create n) in
  let kill = Array.init nb (fun _ -> Bitset.create n) in
  Vec.iter
    (fun b ->
      List.iter
        (fun i ->
          let ks = kill_set i in
          Bitset.diff_into ~dst:gen.(b.Cfg.b_id) ks;
          Bitset.union_into ~dst:kill.(b.Cfg.b_id) ks;
          List.iter
            (fun e ->
              Bitset.add gen.(b.Cfg.b_id) e;
              Bitset.remove kill.(b.Cfg.b_id) e)
            (gens i))
        b.Cfg.b_instrs)
    proc.Cfg.pr_blocks;
  let inn =
    if n = 0 then Array.init nb (fun _ -> Bitset.create 0)
    else
      (Dataflow.run ~proc ~universe:n ~confluence
         ~gen:(fun b -> gen.(b))
         ~kill:(fun b -> kill.(b))
         ~entry_fact:(Bitset.create n) ())
        .Dataflow.inn
  in
  { av_exprs = exprs; av_ids = ids; av_inn = inn; av_kills = kills }

(* The facts just before each instruction of block [bid]. *)
let avail_before av proc bid =
  let fact = Bitset.copy av.av_inn.(bid) in
  List.map
    (fun instr ->
      let before = Bitset.copy fact in
      Vec.iteri (fun j ap -> if av.av_kills instr ap then Bitset.remove fact j) av.av_exprs;
      let gen p =
        match Apath.Tbl.find_opt av.av_ids p with
        | Some k -> Bitset.add fact k
        | None -> ()
      in
      (match instr with
      | Instr.Iload (v, ap) ->
        List.iter
          (fun p -> if not (List.exists (Reg.var_equal v) (Apath.vars_used p)) then gen p)
          (Apath.prefixes ap)
      | Instr.Istore (ap, _) -> List.iter gen (Apath.prefixes ap)
      | _ -> ());
      before)
    (Cfg.block proc bid).Cfg.b_instrs

(* The two kill rules the classifier replays: TBAA's, asking
   [Opt.Rle.kill_pred] per pair, and a perfect alias analysis's, under
   which only a redefinition of a variable the expression reads kills it. *)
let tbaa_kills oracle modref instr ap =
  Opt.Rle.kill_pred oracle modref instr (Opt.Rle.query_paths ap)

let perfect_kills instr ap =
  match Instr.defined_var instr with
  | Some v -> List.exists (Reg.var_equal v) (Apath.vars_used ap)
  | None -> false

(* The daemon's original JSON decoder: a [Some c] per peek, a [Buffer] per
   string and [int_of_string_opt] over every number's text. Same values,
   same [Json.Parse_error] messages and same depth bound as
   [Json.of_string]. *)
let json_fail fmt = Printf.ksprintf (fun m -> raise (Json.Parse_error m)) fmt

let json_max_depth = 512

let json_of_string s =
  let open Json in
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> json_fail "expected %C at %d, found %C" c !pos c'
    | None -> json_fail "expected %C at %d, found end of input" c !pos
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      v
    end
    else json_fail "bad literal at %d" !pos
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then json_fail "unterminated string";
      let c = s.[!pos] in
      advance ();
      match c with
      | '"' -> Buffer.contents b
      | '\\' -> (
        if !pos >= n then json_fail "unterminated escape";
        let e = s.[!pos] in
        advance ();
        match e with
        | '"' | '\\' | '/' ->
          Buffer.add_char b e;
          go ()
        | 'n' -> Buffer.add_char b '\n'; go ()
        | 'r' -> Buffer.add_char b '\r'; go ()
        | 't' -> Buffer.add_char b '\t'; go ()
        | 'b' -> Buffer.add_char b '\b'; go ()
        | 'f' -> Buffer.add_char b '\012'; go ()
        | 'u' ->
          if !pos + 4 > n then json_fail "truncated \\u escape at %d" !pos;
          let hex = String.sub s !pos 4 in
          (* Validate the digits ourselves: [int_of_string] both raises a
             bare Failure and accepts non-JSON forms like "12_3". *)
          let is_hex = function
            | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
            | _ -> false
          in
          if not (String.for_all is_hex hex) then
            json_fail "bad \\u escape '\\u%s' at %d" hex !pos;
          let code = int_of_string ("0x" ^ hex) in
          pos := !pos + 4;
          (* Our emitter only produces \u00xx control escapes; anything
             above Latin-1 would need real UTF-8 encoding. *)
          if code < 0x100 then Buffer.add_char b (Char.chr code)
          else Buffer.add_char b '?';
          go ()
        | _ -> json_fail "bad escape \\%C at %d" e !pos)
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let text = String.sub s start (!pos - start) in
    let is_integer_text =
      text <> ""
      && String.for_all (function '0' .. '9' | '-' -> true | _ -> false) text
    in
    match int_of_string_opt text with
    | Some i -> Int i
    | None when is_integer_text ->
      (* A decimal integer [int_of_string] rejected is out of the 63-bit
         range: refuse it rather than silently rounding through float. *)
      json_fail "integer %S out of range at %d" text start
    | None -> (
      match float_of_string_opt text with
      | Some f when Float.is_finite f -> Float f
      | Some _ -> json_fail "number %S out of range at %d" text start
      | None -> json_fail "bad number %S at %d" text start)
  in
  let rec parse_value depth =
    if depth > json_max_depth then
      json_fail "nesting deeper than %d at %d" json_max_depth !pos;
    skip_ws ();
    match peek () with
    | None -> json_fail "unexpected end of input"
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let rec members acc =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ((k, v) :: acc)
          | Some '}' ->
            advance ();
            Obj (List.rev ((k, v) :: acc))
          | _ -> json_fail "expected ',' or '}' at %d" !pos
        in
        members []
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let rec elements acc =
          let v = parse_value (depth + 1) in
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements (v :: acc)
          | Some ']' ->
            advance ();
            List (List.rev (v :: acc))
          | _ -> json_fail "expected ',' or ']' at %d" !pos
        in
        elements []
      end
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
  in
  let v = parse_value 0 in
  skip_ws ();
  if !pos <> n then json_fail "trailing input at %d" !pos;
  v
