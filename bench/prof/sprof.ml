(* A sampling profiler for the optimizing compile, for boxes without perf.

     dune exec bench/prof/sprof.exe -- [scale | pool | WORKLOAD] [SECONDS]

   Compiles the 200-worker Gen.Scale document, the generated pool
   ([Gen.Generator.generate ~size:3], seeds 10-109) or one named workload
   back to back under the end-to-end bench's full schedule (every pass,
   SMFieldTypeRefs, closed world, one job) for SECONDS (default 10) of
   CPU time. A SIGPROF timer fires every 0.5 ms of CPU time; each tick
   records the OCaml call stack at the next safe point. Prints the
   functions by inclusive share (on the stack), by self share (top frame)
   and the commonest three-frame leaf chains. Needs debug info (dune's
   default profile has it). *)

let config =
  { Opt.Pass_manager.Config.devirt_inline = true; licm = true; pre = true;
    slf = true; rle = true; copyprop = true; dse = true; local_cse = true }

let schedule = Opt.Pass_manager.schedule config

let compile source =
  let program = Ir.Lower.lower_string ~file:"prof" source in
  let ctx =
    Opt.Pass.create ~world:Tbaa.World.Closed
      ~oracle_kind:Opt.Pass.Osm_field_type_refs ~jobs:1 ()
  in
  ignore (Opt.Pass.analysis ctx program);
  ignore (Opt.Pass_manager.run ctx program schedule)

let sources = function
  | "scale" -> [ Gen.Scale.source 200 ]
  | "pool" ->
    List.init 100 (fun i ->
        (Gen.Generator.generate ~size:3 (10 + i)).Gen.Generator.source)
  | w -> [ (Workloads.Suite.find w).Workloads.Workload.source ]

(* One sample: the stack's frame names, innermost first, minus the
   profiler's own frames. *)
let samples : string list list ref = ref []

let frame slot =
  match Printexc.Slot.name slot with
  | Some n -> n
  | None -> (
    match Printexc.Slot.location slot with
    | Some l -> Printf.sprintf "%s:%d" l.Printexc.filename l.Printexc.line_number
    | None -> "?")

let record _ =
  match Printexc.backtrace_slots (Printexc.get_callstack 200) with
  | None -> ()
  | Some slots ->
    let names = Array.to_list (Array.map frame slots) in
    let mine n = String.starts_with ~prefix:"Dune__exe__Sprof" n in
    samples := List.filter (fun n -> not (mine n)) names :: !samples

let table title total counts =
  let rows = Hashtbl.fold (fun k n acc -> (n, k) :: acc) counts [] in
  let rows = List.sort (fun (a, _) (b, _) -> compare b a) rows in
  Printf.printf "\n%s (%d samples)\n" title total;
  List.iteri
    (fun i (n, k) ->
      if i < 30 then
        Printf.printf "%6.1f%%  %s\n" (100. *. float n /. float total) k)
    rows

let bump tbl k =
  Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)

let () =
  let what = if Array.length Sys.argv > 1 then Sys.argv.(1) else "scale" in
  let seconds =
    if Array.length Sys.argv > 2 then float_of_string Sys.argv.(2) else 10.
  in
  let srcs = sources what in
  List.iter compile srcs (* warm-up, unsampled *);
  Sys.set_signal Sys.sigprof (Sys.Signal_handle record);
  let tick = { Unix.it_interval = 0.0005; it_value = 0.0005 } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  let t0 = Sys.time () and compiles = ref 0 in
  while Sys.time () -. t0 < seconds do
    List.iter compile srcs;
    incr compiles
  done;
  ignore (Unix.setitimer Unix.ITIMER_PROF { tick with it_value = 0. });
  let total = List.length !samples in
  let incl = Hashtbl.create 256 and self = Hashtbl.create 256 in
  let chains = Hashtbl.create 256 in
  List.iter
    (fun st ->
      List.iter (bump incl) (List.sort_uniq compare st);
      match st with
      | a :: _ ->
        bump self a;
        bump chains (String.concat " < " (List.filteri (fun i _ -> i < 3) st))
      | [] -> ())
    !samples;
  Printf.printf "%s: %d rounds of %d compile(s), %.1f s CPU\n" what !compiles
    (List.length srcs) (Sys.time () -. t0);
  table "inclusive" total incl;
  table "self" total self;
  table "leaf chains" total chains
