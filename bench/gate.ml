(* The bench-smoke harness: one clock, one sampler, one snapshot file and
   one gate rule for every leg of bench/smoke.ml.

   A leg times one production-path operation. A sample runs the
   operation until [sample_ms] of it has been timed (Span.now, the
   monotonic clock), with a run of bench/e2e's kernel (E2e.Calib) every
   [chunk_ms] or so; each stretch of operations is scaled by the kernel
   runs either side of it (E2e.Calib.between) to the time it would take
   on a box where the kernel takes [Calib.reference_ms]. The box's speed
   moves within a second, so a kernel run before a long sample does not
   describe the whole sample. The legs are sampled in [samples] rounds,
   one sample of every leg per round, so each leg's samples span the
   whole run (of its phase, see [next_phase]) and a slow stretch of the
   box reaches every leg alike. A
   leg reads the median of its samples; its spread is the quartile
   distance over the median (E2e.Stats).

   A kernel run right after a leg's operations runs on the garbage they
   left: on this 2-core box, in one run, the last such run of a sample
   read 0.93-1.09 times a run on a collected heap, by leg (the
   allocating traced simulator at 1.09). A leg that came to allocate
   more would slow its own scale factor and hide part of its
   regression. A collection before each kernel run costs about 150 ms
   with every leg's subject live, so instead each sample ends with a
   collected run (E2e.Calib.collected) right after the last plain one,
   which also begins the next sample; their ratio is the sample's bias,
   and the leg's median is multiplied by its median bias. The table
   prints that bias per leg.

   The gate rule: [--check] fails a leg whose median exceeds the median
   recorded in BENCH_smoke.json by more than the leg's bound, twice the
   recorded spread floored at 10%. A leg below its recorded median by
   more than its bound does not fail, but [--check] and the plain run
   print it as "below record" and count such legs at the end: a snapshot
   recorded before a speed-up no longer guards that leg. A bound must stay under 25%, so that
   a 25% slowdown fails the gate: [--write] doubles a leg's sample length
   (at most three times) until its spread allows that, records the
   length it settled on for [--check] to use, and refuses to write a leg
   it cannot bring under 25%.
   Outside [--write], the timed legs must be exactly the snapshot's
   legs: one row names any leg the snapshot lacks and any snapshot entry
   no leg times, and fails.
   Old/new ratios are not gated: a faster baseline would read as a
   regression. The recorded medians hold for the binary and the box that
   wrote them.

   Two gates need no snapshot: a layer's log-log slope between two corpus
   sizes (the paper's near-linear cost claim), and, on a machine with at
   least four cores, a parallel operation's speedup over its sequential
   form. Without an argument nothing timed is gated.

   The untimed checks run once, after the samples; a check fails by
   raising and is reported as a failing gate in every mode. Every
   failing gate and check is reported before the exit status is set; an
   exception while the legs are set up stops the run before any report. *)

open Support

let snapshot_file = "BENCH_smoke.json"
let samples = 11
let chunk_ms = 10.0
let min_bound = 0.10
let max_bound = 0.25
let max_doublings = 3
let parallel_cores = 4

type mode = Print | Write | Check

let mode =
  match List.tl (Array.to_list Sys.argv) with
  | [] -> Print
  | [ "--write" ] -> Write
  | [ "--check" ] -> Check
  | _ ->
    prerr_endline "usage: smoke.exe [--write | --check]";
    exit 2

type recorded = { median_ms : float; bound : float; sample_ms : float }

let recorded =
  if not (Sys.file_exists snapshot_file) then []
  else
    let text = In_channel.with_open_bin snapshot_file In_channel.input_all in
    match Json.member "legs" (Json.of_string text) with
    | Some (Json.List legs) ->
      List.filter_map
        (fun leg ->
          let num k = Option.bind (Json.member k leg) Json.to_float in
          match
            (Json.member "name" leg, num "median_ms", num "bound",
             num "sample_ms")
          with
          | Some (Json.String name), Some median_ms, Some bound, Some sample_ms
            ->
            Some (name, { median_ms; bound; sample_ms })
          | _ -> None)
        legs
    | _ -> []

type leg = {
  mutable next : unit -> unit -> unit;
      (** sets up one operation off the clock and returns it; dropped
          once the leg's phase is sampled *)
  snapshot : bool;
  phase : int;
  mutable sample_ms : float;
  mutable scaled : float array;  (** scaled ms per operation, per sample *)
  mutable bias : float array;
      (** per sample, the last kernel run beside the operations over the
          collected one right after it *)
}

let legs = ref []
let timed = ref []  (* the names of the snapshot legs, newest first *)
let checks = ref []
let gates = ref []
let phase = ref 0

(* Legs registered after this call are sampled in rounds of their own,
   once the earlier legs are sampled and their operations (which hold
   their subjects) dropped: a phase whose subjects are large does not
   slow the others' operations through the collector. *)
let next_phase () = incr phase

let leg ?(snapshot = false) ~sample_ms next =
  let l =
    { next; snapshot; phase = !phase; sample_ms; scaled = [||]; bias = [||] }
  in
  legs := l :: !legs;
  l

(* [f] runs once every leg is sampled: an untimed check on the state the
   operations left, or a teardown. It fails by raising, and its failure
   is reported as a failing gate. *)
let check name f = checks := (name, f) :: !checks

(* One sample, begun on a collected heap whose kernel run took
   [kernel_ms]: operations, each set up off the clock, in chunks of at
   least [chunk_ms] between kernel runs, until [sample_ms] of them have
   been timed. Each chunk is scaled by the kernel runs either side of it
   (E2e.Calib.between). The mean scaled ms per operation, and the last
   kernel run's ms. *)
let sample l ~kernel_ms =
  let spent = ref 0.0 and ops = ref 0 and scaled = ref 0.0 in
  let kernel_ms = ref kernel_ms in
  while !ops = 0 || !spent < l.sample_ms do
    let chunk = ref 0 in
    while !chunk = 0 || E2e.Span.ms_of_ns !chunk < chunk_ms do
      let op = l.next () in
      let t0 = E2e.Span.now () in
      op ();
      chunk := !chunk + (E2e.Span.now () - t0);
      incr ops
    done;
    let after = E2e.Calib.time () in
    let chunk_ms = E2e.Span.ms_of_ns !chunk in
    spent := !spent +. chunk_ms;
    scaled := !scaled +. E2e.Calib.between !kernel_ms after chunk_ms;
    kernel_ms := after
  done;
  (!scaled /. float_of_int !ops, !kernel_ms)

(* An untimed warm-up operation per leg, then the rounds. A kernel run
   on a collected heap (E2e.Calib.collected) ends every sample and
   begins the next; the sample's bias is its last kernel run over that
   collected one. *)
let sample_rounds legs =
  List.iter (fun l -> l.next () ()) legs;
  let readings = List.map (fun l -> (l, ref [])) legs in
  let collected = ref (E2e.Calib.collected ()) in
  for _ = 1 to samples do
    List.iter
      (fun (l, xs) ->
        let ms, last = sample l ~kernel_ms:!collected in
        collected := E2e.Calib.collected ();
        xs := (ms, last /. !collected) :: !xs)
      readings
  done;
  List.iter
    (fun (l, xs) ->
      l.scaled <- Array.of_list (List.map fst !xs);
      l.bias <- Array.of_list (List.map snd !xs))
    readings

(* A leg's reading: its median scaled sample times its median bias, the
   time it would read had every kernel run beside it been on a collected
   heap. *)
let bias l = E2e.Stats.median l.bias
let median l = E2e.Stats.median l.scaled *. bias l
let spread l = E2e.Stats.spread l.scaled
let bound l = Float.max min_bound (2.0 *. spread l)
let failed = ref []
let below = ref []
let written = ref []

let row name value limit status =
  Printf.printf "%-40s %-28s %-34s %s\n%!" name value limit status

let report name ~value ~limit ~ok =
  row name value limit (if ok then "ok" else "FAIL");
  if not ok then failed := name :: !failed

let ms x = Printf.sprintf "%.4g ms" x
let pct x = Printf.sprintf "%.0f%%" (100.0 *. x)

(* A leg that reads below its record by more than its bound is not a
   failure, but its snapshot no longer guards it: a regression back to
   the recorded time would pass. *)
let below_record name m r =
  let floor = r.median_ms *. (1.0 -. r.bound) in
  if m < floor then begin
    below := name :: !below;
    row name (ms m)
      (Printf.sprintf ">= %s (%s -%s)" (ms floor) (ms r.median_ms)
         (pct r.bound))
      "below record"
  end

let time name ~sample_ms next =
  let sample_ms =
    match List.assoc_opt name recorded with
    | Some r when mode <> Write -> r.sample_ms
    | _ -> sample_ms
  in
  let l = leg ~snapshot:true ~sample_ms next in
  timed := name :: !timed;
  gates :=
    (fun () ->
      let m = median l in
      let value =
        Printf.sprintf "%s ±%s bias %.2f" (ms m) (pct (spread l)) (bias l)
      in
      match (mode, List.assoc_opt name recorded) with
      | Write, _ ->
        written :=
          (name, { median_ms = m; bound = bound l; sample_ms = l.sample_ms })
          :: !written;
        report name ~value
          ~limit:
            (Printf.sprintf "bound %s (%g ms samples)" (pct (bound l))
               l.sample_ms)
          ~ok:(bound l < max_bound)
      | Check, None ->
        report name ~value ~limit:("not in " ^ snapshot_file) ~ok:false
      | Check, Some r ->
        let limit = r.median_ms *. (1.0 +. r.bound) in
        report name ~value
          ~limit:
            (Printf.sprintf "<= %s (%s +%s)" (ms limit) (ms r.median_ms)
               (pct r.bound))
          ~ok:(m <= limit);
        below_record name m r
      | Print, r ->
        report name ~value
          ~limit:
            (match r with Some r -> "recorded " ^ ms r.median_ms | None -> "-")
          ~ok:true;
        Option.iter (below_record name m) r)
    :: !gates

(* [next size] sets up the subject of one size and returns its
   operations. The slope is read between the two sizes' medians. *)
let slope name ~at_most ~sample_ms (small, large) next =
  (* The subjects are built when the phase's sampling begins. *)
  let deferred size =
    let op = lazy (next size) in
    fun () -> Lazy.force op ()
  in
  let l_small = leg ~sample_ms (deferred small) in
  let l_large = leg ~sample_ms (deferred large) in
  gates :=
    (fun () ->
      let t_small = median l_small and t_large = median l_large in
      let s =
        Float.log (t_large /. t_small)
        /. Float.log (float_of_int large /. float_of_int small)
      in
      report name
        ~value:(Printf.sprintf "slope %.2f" s)
        ~limit:
          (Printf.sprintf "<= %.2f (%s at %d, %s at %d)" at_most (ms t_small)
             small (ms t_large) large)
        ~ok:(mode <> Check || s <= at_most))
    :: !gates

(* [setup ()] returns the sequential and the parallel operations and a
   teardown; it runs only when the machine has the cores. *)
let speedup name ~at_least ~sample_ms setup =
  let cores = Domain_pool.available () in
  if cores < parallel_cores then
    Printf.printf "%-40s skipped: %d core%s, the gate needs %d\n%!" name cores
      (if cores = 1 then "" else "s")
      parallel_cores
  else begin
    let sequential, parallel, teardown = setup () in
    let l_seq = leg ~sample_ms sequential in
    let l_par = leg ~sample_ms parallel in
    check (name ^ "/teardown") teardown;
    gates :=
      (fun () ->
        let r = median l_seq /. median l_par in
        report name
          ~value:(Printf.sprintf "%.1fx" r)
          ~limit:(Printf.sprintf ">= %.1fx" at_least)
          ~ok:(mode <> Check || r >= at_least))
      :: !gates
  end

(* Outside [--write], the timed legs must be the snapshot's legs: a leg
   missing from it would pass unchecked in Print mode, and a snapshot
   entry whose leg was deleted would be ignored. *)
let check_names () =
  let missing = List.filter (fun n -> not (List.mem_assoc n recorded)) !timed
  and stale =
    List.filter (fun (n, _) -> not (List.mem n !timed)) recorded |> List.map fst
  in
  let names what = function
    | [] -> []
    | ns -> [ what ^ " " ^ String.concat ", " ns ]
  in
  report "legs = snapshot"
    ~value:
      (match names "missing" (List.rev missing) @ names "stale" stale with
      | [] -> Printf.sprintf "%d legs" (List.length !timed)
      | diffs -> String.concat "; " diffs)
    ~limit:("the legs of " ^ snapshot_file)
    ~ok:(missing = [] && stale = [])

let run_check (name, f) =
  match f () with
  | () -> report name ~value:"passed" ~limit:"-" ~ok:true
  | exception e ->
    report name ~value:(Printexc.to_string e) ~limit:"-" ~ok:false

let write () =
  let leg (name, r) =
    Json.Obj
      [ ("name", Json.String name); ("median_ms", Json.Float r.median_ms);
        ("bound", Json.Float r.bound); ("sample_ms", Json.Float r.sample_ms) ]
  in
  Out_channel.with_open_bin snapshot_file (fun oc ->
      output_string oc
        (Json.to_string
           (Json.envelope
              [ ("microbench", Json.String "bench-smoke");
                ("reference_ms", Json.Float E2e.Calib.reference_ms);
                ("legs", Json.List (List.rev_map leg !written)) ]));
      output_char oc '\n');
  Printf.printf "(snapshot written to %s)\n" snapshot_file

(* Sample every leg, phase by phase, run the untimed checks, then report
   every gate.
   [--write] lengthens the samples of a leg too spread to record and
   runs every round again, so that each recorded leg is sampled among the
   same rounds a check runs; a leg already narrow enough keeps its
   samples. *)
let run () =
  let wide l = l.snapshot && bound l >= max_bound in
  let rec go legs doublings =
    let settled =
      List.filter_map
        (fun l ->
          if l.scaled = [||] || wide l then None
          else Some (l, (l.scaled, l.bias)))
        legs
    in
    sample_rounds legs;
    List.iter
      (fun (l, (scaled, bias)) ->
        l.scaled <- scaled;
        l.bias <- bias)
      settled;
    let wide = List.filter wide legs in
    if mode = Write && wide <> [] && doublings < max_doublings then begin
      List.iter (fun l -> l.sample_ms <- 2.0 *. l.sample_ms) wide;
      go legs (doublings + 1)
    end
  in
  for p = 0 to !phase do
    let legs = List.filter (fun l -> l.phase = p) (List.rev !legs) in
    go legs 0;
    List.iter (fun l -> l.next <- (fun () () -> ())) legs
  done;
  List.iter run_check (List.rev !checks);
  if mode <> Write then check_names ();
  List.iter (fun g -> g ()) (List.rev !gates);
  (match List.rev !below with
  | [] -> ()
  | names ->
    Printf.printf
      "bench-smoke: %d leg%s below record (%s): the snapshot no longer \
       guards %s; re-record it with --write\n"
      (List.length names)
      (if List.length names = 1 then "" else "s")
      (String.concat ", " names)
      (if List.length names = 1 then "it" else "them"));
  if !failed <> [] then begin
    List.iter
      (fun name -> prerr_endline ("bench-smoke FAIL: " ^ name))
      (List.rev !failed);
    if mode = Write then
      Printf.eprintf "%s not written\n" snapshot_file;
    exit 1
  end;
  match mode with
  | Print -> print_endline "bench-smoke: every untimed check passed"
  | Write -> write ()
  | Check -> print_endline "bench-smoke: every gate within bounds"
