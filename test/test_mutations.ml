(* Program mutations shared by the incremental-engine tests (test_incr)
   and the incremental-pipeline tests (test_pipeline). Each edits the
   program in place and returns the name of the procedure it touched,
   [None] when the program offers no mutation site. Also: the source
   edits the daemon tests apply to the Gen.Scale document. *)

open Support
open Ir

(* Toggle the first integer constant in an ALU assignment: changes the
   fingerprint, leaves every collected fact untouched. *)
let toggle_const (program : Cfg.program) =
  let hit = ref None in
  List.iter
    (fun (proc : Cfg.proc) ->
      if Option.is_none !hit then
        Vec.iter
          (fun b ->
            if Option.is_none !hit then
              b.Cfg.b_instrs <-
                List.map
                  (function
                    | Instr.Iassign (v, Instr.Rbinop (op, a, Reg.Aint k))
                      when Option.is_none !hit ->
                      hit := Some proc.Cfg.pr_name;
                      Instr.Iassign
                        (v, Instr.Rbinop (op, a, Reg.Aint (k + 1)))
                    | i -> i)
                  b.Cfg.b_instrs)
          proc.Cfg.pr_blocks)
    program.Cfg.prog_procs;
  !hit

(* Duplicate the first heap store: the memref list grows (facts re-merge)
   but the canonical oracle inputs are sets, so oracles must survive. *)
let dup_store (program : Cfg.program) =
  let hit = ref None in
  List.iter
    (fun (proc : Cfg.proc) ->
      if Option.is_none !hit then
        Vec.iter
          (fun b ->
            if Option.is_none !hit then
              b.Cfg.b_instrs <-
                List.concat_map
                  (function
                    | Instr.Istore _ as i when Option.is_none !hit ->
                      hit := Some proc.Cfg.pr_name;
                      [ i; i ]
                    | i -> [ i ])
                  b.Cfg.b_instrs)
          proc.Cfg.pr_blocks)
    program.Cfg.prog_procs;
  !hit

(* Erase the body of a block containing a heap store: the procedure's
   direct effects shrink, so its dependents' merged views must be
   recomputed — the propagation path through the condensation. *)
let erase_store_block (program : Cfg.program) =
  let hit = ref None in
  List.iter
    (fun (proc : Cfg.proc) ->
      if Option.is_none !hit then
        Vec.iter
          (fun b ->
            if
              Option.is_none !hit
              && List.exists
                   (function Instr.Istore _ -> true | _ -> false)
                   b.Cfg.b_instrs
            then begin
              hit := Some proc.Cfg.pr_name;
              b.Cfg.b_instrs <- []
            end)
          proc.Cfg.pr_blocks)
    program.Cfg.prog_procs;
  !hit

(* ------------------------------------------------------------------ *)
(* Source edits on the Gen.Scale document                             *)
(* ------------------------------------------------------------------ *)

let find_from text pat from =
  let n = String.length text and m = String.length pat in
  let rec matches i k = k = m || (text.[i + k] = pat.[k] && matches i (k + 1)) in
  let rec go i =
    if i + m > n then raise Not_found else if matches i 0 then i else go (i + 1)
  in
  go from

let after text pat from = find_from text pat from + String.length pat

(* Two edits change the constant in a worker's [g.a := x + d]; the third
   retargets what a library procedure allocates and stores to, which
   moves its mod-ref effects and those of every worker that calls it. *)
let scale_edits text =
  let digit i d =
    let at = after text "x + " (after text (Printf.sprintf "PROCEDURE P%d ()" i) 0) in
    (at, at + 1, string_of_int d)
  in
  let retarget j t =
    let start =
      after text "x := x + 1;\n"
        (after text (Printf.sprintf "PROCEDURE L%d (VAR x: INTEGER) =" j) 0)
    in
    let stop = find_from text (Printf.sprintf "  END L%d;" j) start in
    (start, stop, Printf.sprintf "    g%d := NEW (T%d);\n    g%d.a := x;\n" t t t)
  in
  [ digit 17 7; digit 150 3; retarget 5 40 ]
