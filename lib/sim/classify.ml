open Support
open Ir

type category = Encapsulated | Conditional | Breakup | Alias | Rest

let category_to_string = function
  | Encapsulated -> "Encapsulated"
  | Conditional -> "Conditional"
  | Breakup -> "Breakup"
  | Alias -> "Alias"
  | Rest -> "Rest"

let all_categories = [ Encapsulated; Conditional; Breakup; Alias; Rest ]

type breakdown = (category * int) list

(* RLE's availability over one procedure under one kill rule, with its
   block-entry facts; [None] when the procedure has no expression. *)
let build_avail tenv proc ~confluence ~kills =
  Option.map
    (fun av -> (av, (Opt.Rle.solve proc av.Opt.Rle.av_transfers confluence).Dataflow.inn))
    (Opt.Rle.availability tenv proc ~kills)

(* Is [expr] available just before instruction [index] of block [bid]? The
   saved kill sets are replayed up to the instruction. *)
let avail_at avail proc ~bid ~index expr =
  match avail with
  | None -> false
  | Some (av, inn) -> (
    match Apath.Tbl.find_opt av.Opt.Rle.av_ids expr with
    | None -> false
    | Some e ->
      let before =
        Opt.Rle.replay av.Opt.Rle.av_transfers (Cfg.block proc bid) inn.(bid)
          (fun fact _ -> Bitset.mem fact e)
      in
      Option.value (List.nth_opt before index) ~default:false)

let classify program oracle modref limit : breakdown =
  let counts = Hashtbl.create 8 in
  let add cat n =
    Hashtbl.replace counts cat (n + Option.value (Hashtbl.find_opt counts cat) ~default:0)
  in
  (* Per-procedure caches of the two availability analyses. *)
  let may_cache = Hashtbl.create 16 in
  let perfect_cache = Hashtbl.create 16 in
  let may_avail proc =
    let key = Ident.id proc.Cfg.pr_name in
    match Hashtbl.find_opt may_cache key with
    | Some a -> a
    | None ->
      let a =
        build_avail program.Cfg.tenv proc ~confluence:Dataflow.May
          ~kills:(Opt.Rle.kill_set oracle modref)
      in
      Hashtbl.replace may_cache key a;
      a
  in
  let perfect_avail proc =
    let key = Ident.id proc.Cfg.pr_name in
    match Hashtbl.find_opt perfect_cache key with
    | Some a -> a
    | None ->
      let a =
        (* Perfect alias analysis: only a redefinition of a variable the
           expression reads kills it; stores and calls never do. *)
        build_avail program.Cfg.tenv proc ~confluence:Dataflow.Must
          ~kills:Opt.Rle.def_kill_set
      in
      Hashtbl.replace perfect_cache key a;
      a
  in
  List.iter
    (fun (stat : Limit.site_stat) ->
      if stat.Limit.ss_redundant > 0 then begin
        let site = stat.Limit.ss_site in
        match site.Interp.site_kind with
        | Interp.Sdope _ | Interp.Snumber | Interp.Sdispatch ->
          add Encapsulated stat.Limit.ss_redundant
        | Interp.Sexplicit (ap, k) -> (
          let expr = Apath.truncate ap k in
          match Cfg.find_proc_opt program site.Interp.site_proc with
          | None -> add Rest stat.Limit.ss_redundant
          | Some proc ->
            if
              Apath.is_memory_ref expr
              && avail_at (may_avail proc) proc ~bid:site.Interp.site_block
                   ~index:site.Interp.site_index expr
            then add Conditional stat.Limit.ss_redundant
            else if
              Apath.is_memory_ref expr
              && avail_at (perfect_avail proc) proc ~bid:site.Interp.site_block
                   ~index:site.Interp.site_index expr
            then add Alias stat.Limit.ss_redundant
            else if 2 * stat.Limit.ss_breakup_prev >= stat.Limit.ss_redundant
            then add Breakup stat.Limit.ss_redundant
            else add Rest stat.Limit.ss_redundant)
      end)
    (Limit.sites limit);
  List.map
    (fun cat -> (cat, Option.value (Hashtbl.find_opt counts cat) ~default:0))
    all_categories
