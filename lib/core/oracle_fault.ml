open Support
open Ir

type stats = { mutable alias_flips : int; mutable kill_flips : int }

let fresh_stats () = { alias_flips = 0; kill_flips = 0 }

(* Flip decisions must be a deterministic function of the *query*, not of
   call order: the same question asked twice must flip (or not)
   identically, so that RLE's claim ledger agrees with the answers the
   dataflow actually consumed. We hash a
   canonical key for each query, mix it with the seed through a
   splitmix64-style finalizer, and flip when the mixed value falls below
   the rate threshold.

   The keys must also be stable across *processes* — a fuzz repro file
   records only (seed, rate), so replaying it in a fresh run must flip
   the same answers. [Ident.hash] (and hence [Apath.hash])
   is the global interning id, which depends on everything the process
   parsed earlier; we hash printed forms instead, whose only ids are
   per-program temp numbers. *)

let path_key ap = Hashtbl.hash (Apath.to_string ap)

let aloc_key = function
  | Aloc.Lfield (f, recv, content) -> Hashtbl.hash (0, Ident.name f, recv, content)
  | Aloc.Lelem (arr, elem) -> Hashtbl.hash (1, arr, elem)
  | Aloc.Ltarget t -> Hashtbl.hash (2, t)
  | Aloc.Lvar (id, t) -> Hashtbl.hash (3, id, t)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94d049bb133111ebL in
  logxor z (shift_right_logical z 31)

let decide ~seed ~rate key =
  let h = mix64 (Int64.logxor (Int64.of_int key) (Int64.of_int (seed * 0x9e3779b9))) in
  let bucket = Int64.to_int (Int64.rem (Int64.logand h Int64.max_int) 1_000_000L) in
  float_of_int bucket < rate *. 1_000_000.

let wrap ?(flip_class_kills = true) ?(stats = fresh_stats ()) ~seed ~rate
    (oracle : Oracle.t) : Oracle.t =
  let may_alias ap1 ap2 =
    let answer = oracle.Oracle.may_alias ap1 ap2 in
    (* Symmetric key: may_alias is symmetric in every analysis. *)
    let h1 = path_key ap1 and h2 = path_key ap2 in
    let lo, hi = if h1 <= h2 then (h1, h2) else (h2, h1) in
    if decide ~seed ~rate ((lo * 31) + hi + 1) then begin
      stats.alias_flips <- stats.alias_flips + 1;
      not answer
    end
    else answer
  in
  let class_kills cls ap =
    let answer = oracle.Oracle.class_kills cls ap in
    if not flip_class_kills then answer
    else begin
      (* Keyed by (class, the path's own store class): the {!Oracle}
         contract makes the answer a function of that pair, so every path
         of one store class sees the same fault. *)
      let key =
        (aloc_key cls * 31) + aloc_key (oracle.Oracle.store_class ap) + 2
      in
      if decide ~seed ~rate key then begin
        stats.kill_flips <- stats.kill_flips + 1;
        not answer
      end
      else answer
    end
  in
  { oracle with
    Oracle.name = Printf.sprintf "%s+fault(seed=%d,rate=%g)" oracle.Oracle.name seed rate;
    may_alias;
    class_kills }
