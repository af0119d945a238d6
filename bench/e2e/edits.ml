(* The ide-session workload's edits to a Gen.Scale document: each is one
   ranged replacement, valid against the text the edits before it
   produced, and the edited document still typechecks.

   - Four of every five change the constant digit in a worker P_i's body
     ([g.a := x + d]): one procedure's fingerprint changes.
   - Every fifth retargets the global a library procedure L_j allocates
     and stores to, which changes its mod-ref effects and the merged
     summaries of every worker that calls it.

   The mix is exact, not drawn, so runs with different seeds do the same
   amount of work; the seed picks the procedures and the new values. *)

open Support

type t = { start : int; stop : int; text : string }

let find_from text pat from =
  let n = String.length text and m = String.length pat in
  let rec matches i k = k = m || (text.[i + k] = pat.[k] && matches i (k + 1)) in
  let rec go i =
    if i + m > n then raise Not_found else if matches i 0 then i else go (i + 1)
  in
  go from

let after text pat from = find_from text pat from + String.length pat

let digit_edit rng ~workers text =
  let i = Prng.int rng workers in
  let at = after text "x + " (after text (Printf.sprintf "PROCEDURE P%d ()" i) 0) in
  let old = Char.code text.[at] - Char.code '0' in
  let d = (old + 1 + Prng.int rng 9) mod 10 in
  { start = at; stop = at + 1; text = string_of_int d }

let retarget_edit rng text =
  let j = Prng.int rng Gen.Scale.lib_procs in
  let header = Printf.sprintf "PROCEDURE L%d (VAR x: INTEGER) =" j in
  let start = after text "x := x + 1;\n" (after text header 0) in
  let stop = find_from text (Printf.sprintf "  END L%d;" j) start in
  let body t = Printf.sprintf "    g%d := NEW (T%d);\n    g%d.a := x;\n" t t t in
  let t = Prng.int rng Gen.Scale.types in
  let t = if body t = String.sub text start (stop - start) then (t + 1) mod Gen.Scale.types else t in
  { start; stop; text = body t }

(* The [k]th edit (from 0) of a document with [workers] worker
   procedures. *)
let next rng ~workers k text =
  if k mod 5 = 4 then retarget_edit rng text else digit_edit rng ~workers text

(* The daemon's own splice, so the benchmark's copy of the document
   tracks the daemon's exactly. *)
let apply text e =
  match Server.Store.splice ~source:text ~edits:[ (e.start, e.stop, e.text) ] with
  | Ok text -> text
  | Error msg -> failwith msg
