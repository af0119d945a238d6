(* Unit tests of the benchmark's own machinery: order statistics, the
   speed-kernel scaling, span self time, the queue reconstruction, the
   trace format, the ide-session edits, and the agreement of
   BENCHMARK.json with the definitions. *)

open Support
open E2e

let close = Alcotest.float 1e-9

let test_percentiles () =
  let tail n = Stats.tail_percentile n in
  Alcotest.(check (option (float 0.0))) "19 samples" None (tail 19);
  Alcotest.(check (option (float 0.0))) "20 samples" (Some 50.0) (tail 20);
  Alcotest.(check (option (float 0.0))) "99 samples" (Some 50.0) (tail 99);
  Alcotest.(check (option (float 0.0))) "100 samples" (Some 90.0) (tail 100);
  Alcotest.(check (option (float 0.0))) "999 samples" (Some 90.0) (tail 999);
  Alcotest.(check (option (float 0.0))) "1000 samples" (Some 99.0) (tail 1000);
  Alcotest.(check (option (float 0.0))) "10000 samples" (Some 99.9) (tail 10000);
  let xs = Array.init 10 (fun i -> float_of_int (10 - i)) in
  Alcotest.check close "p50 interpolates" 5.5 (Stats.percentile xs 50.0);
  Alcotest.check close "p90 interpolates" 9.1 (Stats.percentile xs 90.0)

(* Reference values from Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  let check name xs (a, b, c) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close (name ^ " q1") a q1;
    Alcotest.check close (name ^ " q2") b q2;
    Alcotest.check close (name ^ " q3") c q3
  in
  check "ten" (Array.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check "three" [| 3.5; 1.25; 9.0 |] (1.25, 3.5, 9.0);
  check "two" [| 4.0; 2.0 |] (1.5, 3.0, 4.5)

let test_as_passes () =
  let passes =
    Stats.as_passes [ [| 1.0; 2.0; 3.0 |]; [||]; [| 30.0; 10.0; 20.0 |] ]
  in
  Alcotest.(check (array close)) "both scaled to a pass of 22"
    [| 11.0; 22.0; 33.0; 33.0; 11.0; 22.0 |] passes;
  Alcotest.check close "p50 is the sum of the medians" 22.0 (Stats.median passes)

let test_kernel_scaling () =
  Alcotest.check close "at the reference speed" 100.0
    (Calib.scale ~kernel_ms:Calib.reference_ms 100.0);
  let at_10ms = 100.0 *. Calib.reference_ms /. 10.0 in
  Alcotest.check close "by the slower kernel around it" at_10ms
    (Calib.between 7.5 10.0 100.0);
  Alcotest.check close "either side" at_10ms (Calib.between 10.0 5.0 100.0)

let test_verdicts () =
  let v ?(bound = Some 0.1) a b =
    Stats.verdict_name (Stats.verdict ~lower_better:true ~bound a b)
  in
  let parent = [| 100.0; 101.0; 99.0; 100.5; 99.5 |] in
  Alcotest.(check string) "faster" "better"
    (v parent [| 80.0; 81.0; 79.0; 80.5; 79.5 |]);
  Alcotest.(check string) "slower" "worse"
    (v parent [| 120.0; 121.0; 119.0; 120.5; 119.5 |]);
  Alcotest.(check string) "same" "within bound"
    (v parent [| 100.2; 100.9; 99.1; 100.4; 99.6 |]);
  Alcotest.(check string) "noisy" "unresolved"
    (v parent [| 60.0; 140.0; 100.0; 70.0; 130.0 |]);
  Alcotest.(check string) "per-layer, no change" "-"
    (v ~bound:None parent parent)

let span id name parent start stop = { Span.id; name; parent; op = 0; start; stop }

(* A parent with an inner child that has its own child, two children
   that overlap each other, and one that runs past the parent's end. *)
let test_self_time () =
  let spans =
    [ span 0 "root" (-1) 0 100; span 1 "a" 0 10 40; span 2 "a.inner" 1 15 20;
      span 3 "b" 0 30 60; span 4 "c" 0 90 120 ]
  in
  let self = Span.self_times spans in
  let of_id id = snd (List.find (fun ((s : Span.t), _) -> s.id = id) self) in
  Alcotest.(check int) "root: minus the union [10,60] and [90,100]" 40 (of_id 0);
  Alcotest.(check int) "a: minus its inner child" 25 (of_id 1);
  Alcotest.(check int) "inner" 5 (of_id 2);
  Alcotest.(check int) "b" 30 (of_id 3);
  Alcotest.(check int) "c" 30 (of_id 4);
  let by_name = Span.self_by_name spans in
  Alcotest.(check int) "by name" 25 (Hashtbl.find by_name "a")

let test_single_worker () =
  (* (due, service), not in due order *)
  let reqs = [| (30.0, 5.0); (5.0, 8.0); (0.0, 10.0); (12.0, 1.0) |] in
  let waits = Span.single_worker reqs in
  Alcotest.check close "starts when due" 0.0 waits.(2);
  Alcotest.check close "waits for the previous" 5.0 waits.(1);
  Alcotest.check close "waits for the queue" 6.0 waits.(3);
  Alcotest.check close "idle worker" 0.0 waits.(0)

let test_trace_round_trip () =
  let spans =
    [ span 0 "build" (-1) 1_000_000_123 1_009_000_456;
      span 1 "parse" 0 1_000_000_500 1_002_000_001;
      span 2 "opt.rle" 0 1_003_000_000 1_008_999_999 ]
  in
  let text = Json.to_string (Span.to_chrome spans) in
  Alcotest.(check bool) "same spans after a round trip" true
    (Span.of_chrome (Json.of_string text) = spans)

let test_edits_typecheck () =
  let rng = Prng.create 42L in
  let workers = 60 in
  let text = ref (Gen.Scale.source workers) in
  for k = 0 to 49 do
    let before = !text in
    text := Edits.apply before (Edits.next rng ~workers k before);
    if !text = before then Alcotest.failf "edit %d changed nothing" k;
    match Minim3.Typecheck.check_string_all ~file:"scale" !text with
    | Ok _ -> ()
    | Error (d :: _) -> Alcotest.failf "edit %d: %s" k (Diag.to_string d)
    | Error [] -> Alcotest.failf "edit %d rejected" k
  done

let test_benchmark_json () =
  let file = "../../../BENCHMARK.json" in
  let json = Json.of_string (In_channel.with_open_text file In_channel.input_all) in
  let str k o =
    match Json.member k o with Some (Json.String s) -> s | _ -> Alcotest.failf "no %s" k
  in
  let list k =
    match Json.member k json with Some (Json.List l) -> l | _ -> Alcotest.failf "no %s" k
  in
  Alcotest.(check (list (pair string string))) "workloads" Spec.workloads
    (List.map (fun w -> (str "name" w, str "why" w)) (list "workloads"));
  let metric o =
    ( str "name" o, str "unit" o, str "better" o,
      Option.bind (Json.member "bound" o) Json.to_float )
  in
  let spec (m : Spec.metric) = (m.name, m.unit, Spec.better_name m.better, m.bound) in
  let t = Alcotest.(list (pair string (pair string (pair string (option (float 0.0)))))) in
  let flat (a, b, c, d) = (a, (b, (c, d))) in
  Alcotest.check t "end_to_end" (List.map (fun m -> flat (spec m)) Spec.end_to_end)
    (List.map (fun o -> flat (metric o)) (list "end_to_end"));
  Alcotest.check t "per_layer" (List.map (fun m -> flat (spec m)) Spec.per_layer)
    (List.map (fun o -> flat (metric o)) (list "per_layer"))

let () =
  Alcotest.run "e2e"
    [ ( "stats",
        [ Alcotest.test_case "percentile rule" `Quick test_percentiles;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles;
          Alcotest.test_case "ops as passes" `Quick test_as_passes;
          Alcotest.test_case "speed kernel scaling" `Quick test_kernel_scaling;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts ] );
      ( "span",
        [ Alcotest.test_case "self time" `Quick test_self_time;
          Alcotest.test_case "single-worker queue" `Quick test_single_worker;
          Alcotest.test_case "trace JSON round trip" `Quick test_trace_round_trip ] );
      ( "workloads",
        [ Alcotest.test_case "ide edits typecheck" `Quick test_edits_typecheck;
          Alcotest.test_case "BENCHMARK.json agrees" `Quick test_benchmark_json ] ) ]
