open Support
open Ir

(* A claim ledger: every may-alias / kill answer RLE relied on, keyed by
   the concrete pair of access paths that was queried. Claims are kept at
   path granularity (not location-class granularity) deliberately — the
   same (class, class) pair can carry both true and false answers (e.g.
   FieldTypeDecl distinguishes [u.r1.x] vs [u.r2.x] from [pr^.x] vs
   [qr^.x], all classed Lfield(x)), so aggregating by class would mix
   sound "no" answers with genuine aliases and produce false violations
   on perfectly sound runs. *)

module Pair_tbl = Hashtbl.Make (struct
  type t = Apath.t * Apath.t

  let equal (a1, b1) (a2, b2) = Apath.equal a1 a2 && Apath.equal b1 b2
  let hash (a, b) = (Apath.hash a * 31) + Apath.hash b
end)

type cell = {
  mutable c_yes : int;
  mutable c_no : int;
  (* Which clients bet on this pair ("rle", "dse", "slf", "licm"); a
     violation report names them so a bad bet is attributable to the pass
     that made it. Tiny sets — a sorted list beats a hashtable here. *)
  mutable c_kinds : string list;
}

type t = {
  cl_oracle : string;
  cl_pairs : cell Pair_tbl.t;
  (* Scalar homes introduced by RLE/LICM: v_id of the home temp mapped to
     the access path it materializes. The auditor uses this to rewrite
     executed paths like [h17.next] back to the source-level path the
     claim was made about. *)
  cl_homes : (int, Apath.t) Hashtbl.t;
}

let create ~oracle =
  { cl_oracle = oracle;
    cl_pairs = Pair_tbl.create 256;
    cl_homes = Hashtbl.create 32 }

let oracle_name t = t.cl_oracle

let canonical p1 p2 = if Apath.compare p1 p2 <= 0 then (p1, p2) else (p2, p1)

let add_kind cell kind =
  if not (List.mem kind cell.c_kinds) then
    cell.c_kinds <- List.sort String.compare (kind :: cell.c_kinds)

let record ?(kind = "rle") t p1 p2 answer =
  let key = canonical p1 p2 in
  let cell =
    match Pair_tbl.find_opt t.cl_pairs key with
    | Some c -> c
    | None ->
      let c = { c_yes = 0; c_no = 0; c_kinds = [] } in
      Pair_tbl.add t.cl_pairs key c;
      c
  in
  add_kind cell kind;
  if answer then cell.c_yes <- cell.c_yes + 1 else cell.c_no <- cell.c_no + 1

(* Merge one ledger into another (the per-procedure pass engine records
   into per-procedure ledgers and folds them in program order). Keys are
   already canonical, counts add, kind sets union (re-sorted), and homes
   replace — home temp ids are globally unique, so replacement never
   loses a binding. All derived counts (n_pairs, n_records,
   disjoint_pairs) are order-insensitive sums over the cells, so the
   merged ledger is independent of merge order. *)
let absorb ~into src =
  Pair_tbl.iter
    (fun key c ->
      let cell =
        match Pair_tbl.find_opt into.cl_pairs key with
        | Some d -> d
        | None ->
          let d = { c_yes = 0; c_no = 0; c_kinds = [] } in
          Pair_tbl.add into.cl_pairs key d;
          d
      in
      cell.c_yes <- cell.c_yes + c.c_yes;
      cell.c_no <- cell.c_no + c.c_no;
      List.iter (add_kind cell) c.c_kinds)
    src.cl_pairs;
  Hashtbl.iter (Hashtbl.replace into.cl_homes) src.cl_homes

let kinds t p1 p2 =
  match Pair_tbl.find_opt t.cl_pairs (canonical p1 p2) with
  | Some c -> c.c_kinds
  | None -> []

let note_home t (v : Reg.var) path = Hashtbl.replace t.cl_homes v.Reg.v_id path
let home t v_id = Hashtbl.find_opt t.cl_homes v_id
let n_pairs t = Pair_tbl.length t.cl_pairs

let n_records t =
  Pair_tbl.fold (fun _ c acc -> acc + c.c_yes + c.c_no) t.cl_pairs 0

(* The pairs the optimizer actually bet on: queried at least once, always
   answered "no alias / not killed", and structurally distinct (a pair
   that collapses to the same path after canonicalization trivially
   overlaps and carries no claim). *)
let disjoint_pairs t =
  Pair_tbl.fold
    (fun (p1, p2) c acc ->
      if c.c_no > 0 && c.c_yes = 0 && not (Apath.equal p1 p2) then
        (p1, p2) :: acc
      else acc)
    t.cl_pairs []

let to_json t =
  let pair_row (p1, p2) c =
    Json.Obj
      [ ("p1", Json.String (Apath.to_string p1));
        ("p2", Json.String (Apath.to_string p2));
        ("yes", Json.Int c.c_yes);
        ("no", Json.Int c.c_no);
        ("kinds", Json.List (List.map (fun k -> Json.String k) c.c_kinds)) ]
  in
  Json.Obj
    [ ("oracle", Json.String t.cl_oracle);
      ("pairs", Json.Int (n_pairs t));
      ("records", Json.Int (n_records t));
      ( "claims",
        Json.List
          (Pair_tbl.fold (fun k c acc -> pair_row k c :: acc) t.cl_pairs []) )
    ]
