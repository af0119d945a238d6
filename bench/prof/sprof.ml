(* A sampling profiler for the optimizing compile, the simulator and the
   daemon's query path, for boxes without perf.

     dune exec bench/prof/sprof.exe -- [scale | pool | paper | ide | WORKLOAD
                                        | sim-scale | sim-pool | sim-paper
                                        | sim-WORKLOAD] [SECONDS]

   Compiles the 200-worker Gen.Scale document, the generated pool
   ([Gen.Generator.generate ~size:3], seeds 10-109), the ten paper
   workloads or one named workload back to back under the end-to-end
   bench's full schedule (every pass, SMFieldTypeRefs, closed world, one
   job) for SECONDS (default 10) of CPU time. A [sim-] prefix optimizes
   the same programs once, unsampled, and then samples only
   [Sim.Interp.run] over them. [ide] instead serves ide-session-shaped
   requests through [Server.Dispatch.handle_line] on the Gen.Scale
   document: rounds of ten queries (four 500-pair alias batches to one
   modref) and one change edit. A SIGPROF timer fires every 0.5 ms of CPU
   time; each tick records the OCaml call stack at the next safe point.
   Prints the functions by inclusive share (on the stack), by self share
   (top frame) and the commonest three-frame leaf chains. Needs debug
   info (dune's default profile has it).

   Safe points are where the code allocates or polls, so frames that
   allocate are over-weighted and tight non-allocating loops are charged
   to the next allocating frame. Read a share as a lead, not as a cost:
   this sampler has put Rle.kill_set at 28.7% of the pool and the
   simulator's resident_list at 27.5% of a simulated paper workload, and
   rewriting either moved nothing end to end. Confirm with a timed
   ablation before optimizing a frame. *)

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
  ignore (Opt.Pass_manager.run ctx program schedule);
  program

let sources = function
  | "scale" -> [ Gen.Scale.source 200 ]
  | "pool" ->
    List.init 100 (fun i ->
        (Gen.Generator.generate ~size:3 (10 + i)).Gen.Generator.source)
  | "paper" ->
    List.map (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.source)
      Workloads.Suite.all
  | w -> [ (Workloads.Suite.find w).Workloads.Workload.source ]

(* The daemon's query path: a dispatcher configured like ide-session's
   (serialized, re-optimizing every revision) holding the Gen.Scale
   document. The request lines are built before sampling starts. Each
   edit rewrites the constant digit of one worker's [g.a := x + d], so
   every edit line stays valid against the text the ones before it left.
   Returns one round: ten queries, then an edit. *)
let ide_round () =
  let open Support in
  let workers = 200 and doc = "scale" in
  let rpc id meth params =
    Json.to_string
      (Json.Obj
         [ ("jsonrpc", Json.String "2.0"); ("id", Json.Int id);
           ("method", Json.String meth); ("params", Json.Obj params) ])
  in
  let source = Gen.Scale.source workers in
  let d =
    Server.Dispatch.create
      ~config:{ Server.Dispatch.default_config with workers = 0; optimize = true }
      ()
  in
  let serve line =
    let response = Server.Dispatch.handle_line d line in
    match Json.member "result" (Json.of_string response) with
    | Some r -> r
    | None -> failwith ("error response: " ^ response)
  in
  (* Sampled rounds do not decode their responses, which would show up
     in the profile; the first, unsampled round checks them all. *)
  let checked = ref false in
  let send line =
    if !checked then ignore (Server.Dispatch.handle_line d line)
    else ignore (serve line)
  in
  let memrefs =
    match
      Json.member "memrefs"
        (serve (rpc 0 "open" [ ("name", Json.String doc); ("source", Json.String source) ]))
    with
    | Some (Json.Int n) -> n
    | _ -> failwith "open returned no memrefs"
  in
  let rng = Prng.create 1L in
  let query k =
    if k mod 5 <> 4 then
      rpc k "alias"
        [ ("doc", Json.String doc);
          ( "pairs",
            Json.List
              (List.init 500 (fun _ ->
                   Json.List
                     [ Json.Int (Prng.int rng memrefs); Json.Int (Prng.int rng memrefs) ])) ) ]
    else
      rpc k "modref"
        [ ("doc", Json.String doc);
          ("proc", Json.String (Printf.sprintf "P%d" (Prng.int rng workers))) ]
  in
  let queries = Array.init 100 query in
  let after pat from =
    let m = String.length pat in
    let rec go i = if String.sub source i m = pat then i + m else go (i + 1) in
    go from
  in
  let edit k =
    let at = after "x + " (after (Printf.sprintf "PROCEDURE P%d ()" (Prng.int rng workers)) 0) in
    rpc (1000 + k) "change"
      [ ("name", Json.String doc);
        ( "edits",
          Json.List
            [ Json.Obj
                [ ("start", Json.Int at); ("end", Json.Int (at + 1));
                  ("text", Json.String (string_of_int (Prng.int rng 10))) ] ] ) ]
  in
  let edits = Array.init 50 edit in
  let round = ref 0 in
  fun () ->
    let r = !round in
    incr round;
    for k = 0 to 9 do
      send queries.(((10 * r) + k) mod Array.length queries)
    done;
    send edits.(r mod Array.length edits);
    checked := true

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
  let label, round =
    match what with
    | "ide" -> ("ide-session round", ide_round ())
    | _ when String.starts_with ~prefix:"sim-" what ->
      let programs =
        List.map compile (sources (String.sub what 4 (String.length what - 4)))
      in
      ( Printf.sprintf "%d simulated run(s)" (List.length programs),
        fun () -> List.iter (fun p -> ignore (Sim.Interp.run p)) programs )
    | _ ->
      let srcs = sources what in
      ( Printf.sprintf "%d compile(s)" (List.length srcs),
        fun () -> List.iter (fun s -> ignore (compile s)) srcs )
  in
  round () (* warm-up, unsampled *);
  Sys.set_signal Sys.sigprof (Sys.Signal_handle record);
  let tick = { Unix.it_interval = 0.0005; it_value = 0.0005 } in
  ignore (Unix.setitimer Unix.ITIMER_PROF tick);
  let t0 = Sys.time () and rounds = ref 0 in
  while Sys.time () -. t0 < seconds do
    round ();
    incr rounds
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
  Printf.printf "%s: %d rounds of %s, %.1f s CPU\n" what !rounds label
    (Sys.time () -. t0);
  table "inclusive" total incl;
  table "self" total self;
  table "leaf chains" total chains
