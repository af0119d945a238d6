(* The box's speed, read from a fixed kernel, so that reported times do
   not follow the box's own drift.

   On a shared 2-core virtual machine the same code runs up to 1.7 times
   slower from one stretch of minutes to the next, and in bursts of a few
   hundred ms. A kernel timed in the same process next to each op slows
   with it; one that runs in another process does not. The slow stretches
   do not slow all code alike, so the kernel has two halves of about the
   same time: one that allocates like the compiler, and one that
   dispatches like an interpreter. Scaled by the first half alone, some
   workloads' times spread half as much again over runs as by both.
   README.md gives the measured spreads with and without the scaling.

   A timing is reported as [ms *. reference_ms /. kernel_ms]: its time on
   a box where the kernel takes [reference_ms], about this box when it is
   quiet. The kernel is stdlib code. In the closed loops a full major
   collection runs before it ([collected]), so the compiler's garbage
   does not reach it: without one, the kernel ran 7% slower after a scale
   compile than after another kernel; with one, within 1%. *)

module M = Map.Make (Int)

let reference_ms = 7.0

(* A small register machine: eight registers and 4096 memory cells. *)
type instr =
  | Set of int * int  (** register, constant *)
  | Add of int * int * int  (** destination, operands *)
  | Load of int * int  (** destination, address register *)
  | Store of int * int  (** address register, value register *)
  | Below of int * int * int  (** operands, target: jump if less *)
  | Halt

(* [rounds] rounds of: add a memory cell into r3, store the sum back. *)
let program rounds =
  [| Set (0, 0); Set (1, rounds); Set (2, 1); Set (3, 0);
     Load (4, 0); Add (3, 3, 4); Add (5, 3, 0); Store (0, 5); Add (0, 0, 2);
     Below (0, 1, 4); Halt |]

let interpret code =
  let mem = Array.make 4096 1 and reg = Array.make 8 0 in
  let rec go pc =
    match code.(pc) with
    | Set (r, v) -> reg.(r) <- v; go (pc + 1)
    | Add (d, a, b) -> reg.(d) <- reg.(a) + reg.(b); go (pc + 1)
    | Load (d, a) -> reg.(d) <- mem.(reg.(a) land 4095); go (pc + 1)
    | Store (a, v) -> mem.(reg.(a) land 4095) <- reg.(v) land 0xff; go (pc + 1)
    | Below (a, b, t) -> go (if reg.(a) < reg.(b) then t else pc + 1)
    | Halt -> reg.(3)
  in
  go 0

let rounds = program 190_000

(* 10 000 inserts of pseudo-random keys into an [Int] map, most of it
   allocation, promotion and major collection; then 190 000 rounds of the
   register machine. About 3 ms each. *)
let kernel () =
  let m = ref M.empty and x = ref 12345 in
  for _ = 1 to 10_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    m := M.add (!x land 0xffff) !x !m
  done;
  ignore (Sys.opaque_identity !m);
  ignore (Sys.opaque_identity (interpret rounds))

(* The kernel's time, in ms. *)
let time () =
  let t0 = Span.now () in
  kernel ();
  Span.ms_of_ns (Span.now () - t0)

(* A full major collection, untimed, then the kernel's time. *)
let collected () =
  Gc.full_major ();
  time ()

let scale ~kernel_ms ms = ms *. reference_ms /. kernel_ms

(* An op timed between two kernel runs is scaled by the slower of the
   two, since a burst that slowed either reached into the op. *)
let between k1 k2 ms = scale ~kernel_ms:(Float.max k1 k2) ms
