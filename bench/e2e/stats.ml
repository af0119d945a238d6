(* Order statistics over samples, and the rule that compares two sets of
   runs of the benchmark. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Linear interpolation between the closest ranks; nan when empty. *)
let percentile xs p =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else
    let pos = p /. 100.0 *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median xs = percentile xs 50.0

let mean xs =
  if Array.length xs = 0 then nan
  else Array.fold_left ( +. ) 0.0 xs /. float_of_int (Array.length xs)

(* Op times of a few fixed programs of very different sizes, as times of
   a pass over all of them. Pooled raw times would put a percentile in
   the gap between two programs' times, where it follows the slowest op
   of one and the fastest of the next. Instead each program's times are
   scaled by the sum of every program's median over its own median: the
   p50 is about the sum of the medians, and every op adds to the tail.
   Programs without samples are left out. *)
let as_passes per_prog =
  let per_prog = List.filter (fun xs -> xs <> [||]) per_prog in
  let medians = List.map median per_prog in
  let pass = List.fold_left ( +. ) 0.0 medians in
  Array.concat
    (List.map2 (fun xs m -> Array.map (fun x -> x *. pass /. m) xs) per_prog medians)

(* The highest of p99.9, p99, p90 and p50 with at least ten of [n]
   samples beyond it — the tail a sample of that size can support.
   Per-mille integers keep 100 samples' p90 exact. *)
let tail_percentile n =
  List.find_opt
    (fun pm -> n * (1000 - pm) / 1000 >= 10)
    [ 999; 990; 900; 500 ]
  |> Option.map (fun pm -> float_of_int pm /. 10.0)

(* Python's [statistics.quantiles xs ~n:4] (method "exclusive"): the
   quartiles the benchmark's spread rule is stated in. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then (nan, nan, nan)
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 2, q 3)

(* Quartile distance as a share of the median. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  (q3 -. q1) /. Float.abs (median xs)

type verdict = Better | Worse | Within_bound | Unresolved | No_change

let verdict_name = function
  | Better -> "better"
  | Worse -> "worse"
  | Within_bound -> "within bound"
  | Unresolved -> "unresolved"
  | No_change -> "-"

(* [verdict ~lower_better ~bound parent change]:
   - better: the change wins at least nine tenths of the runs paired by
     index (ties count for neither) and the medians differ by more than
     the parent's own quartile distance;
   - unresolved: the spread of either side is wider than the bound and
     not every change run beats every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound;
   - within bound otherwise. Without a bound (per-layer metrics) the
     gain rule is applied both ways and anything else is no change. *)
let verdict ~lower_better ~bound parent change =
  let beats x y = if lower_better then x < y else x > y in
  let gain a b =
    let pairs = min (Array.length a) (Array.length b) in
    let wins = ref 0 in
    for i = 0 to pairs - 1 do
      if beats b.(i) a.(i) then incr wins
    done;
    let q1, _, q3 = quartiles a in
    pairs > 0
    && float_of_int !wins >= 0.9 *. float_of_int pairs
    && Float.abs (median b -. median a) > q3 -. q1
  in
  if gain parent change then Better
  else
    match bound with
    | None -> if gain change parent then Worse else No_change
    | Some bound ->
      let ma = median parent and mb = median change in
      let worse_by =
        (if lower_better then mb -. ma else ma -. mb) /. Float.abs ma
      in
      let all_beat =
        Array.for_all (fun b -> Array.for_all (fun a -> beats b a) parent)
          change
      in
      if Float.max (spread parent) (spread change) > bound && not all_beat
      then Unresolved
      else if worse_by > bound then Worse
      else Within_bound
