(* Span recording for the traced run, self-time accounting, the Chrome
   trace-event export, and the single-worker queue reconstruction.

   Every timestamp in the benchmark comes from [now]: CLOCK_MONOTONIC in
   nanoseconds. Spans are recorded from the main thread only, around the
   benchmark's own calls into each layer, and kept in memory. *)

open Support

let now () = Int64.to_int (Monotonic_clock.now ())
let ms_of_ns ns = float_of_int ns /. 1e6

type t = {
  id : int;
  name : string;
  parent : int;  (** the enclosing span's id; -1 for an op's root *)
  op : int;  (** shared by every span of one operation *)
  start : int;  (** ns *)
  stop : int;
}

let enabled = ref false
let recorded = ref []
let next_id = ref 0
let current = ref (-1)
let current_op = ref (-1)

let spans () = List.rev !recorded

let add ~name ~parent ~op ~start ~stop =
  let id = !next_id in
  incr next_id;
  recorded := { id; name; parent; op; start; stop } :: !recorded;
  id

(* [run name f]: [f ()] inside a span named [name], a child of the span
   that is open. A no-op wrapper when recording is off. *)
let run name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = !current in
    current := id;
    let start = now () in
    let close () =
      let stop = now () in
      current := parent;
      recorded :=
        { id; name; parent; op = !current_op; start; stop } :: !recorded
    in
    match f () with
    | v ->
      close ();
      v
    | exception e ->
      close ();
      raise e
  end

(* [op name f]: a root span opening a new operation. *)
let op name f =
  if !enabled then current_op := !next_id;
  run name f

(* Self time: each span's duration minus the part of it that its
   children cover. Children may overlap each other (work on other
   threads); their union is clipped to the parent before subtracting. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.add children s.parent s) spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun c ->
               let a = max c.start s.start and b = min c.stop s.stop in
               if a < b then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (sum, reach) (a, b) ->
            let a = max a reach in
            if b > a then (sum + (b - a), b) else (sum, reach))
          (0, min_int) ivs
      in
      (s, s.stop - s.start - covered))
    spans

(* Total self time per span name, in ns. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      let prev = Option.value (Hashtbl.find_opt tbl s.name) ~default:0 in
      Hashtbl.replace tbl s.name (prev + self))
    (self_times spans);
  tbl

(* Chrome trace-event JSON, which Perfetto opens: one complete ("X")
   event per span, [ts]/[dur] in whole microseconds from the first span,
   the exact nanosecond bounds and the span tree in [args]. *)
let to_chrome spans =
  let base = List.fold_left (fun m s -> min m s.start) max_int spans in
  (* Rounding both ends the same way keeps children inside parents. *)
  let us ns = (ns - base) / 1000 in
  let event s =
    Json.Obj
      [ ("name", Json.String s.name); ("cat", Json.String "tbaabench");
        ("ph", Json.String "X"); ("pid", Json.Int 1); ("tid", Json.Int 1);
        ("ts", Json.Int (us s.start));
        ("dur", Json.Int (us s.stop - us s.start));
        ( "args",
          Json.Obj
            [ ("id", Json.Int s.id); ("parent", Json.Int s.parent);
              ("op", Json.Int s.op); ("start_ns", Json.Int s.start);
              ("stop_ns", Json.Int s.stop) ] ) ]
  in
  Json.Obj
    [ ("traceEvents", Json.List (List.map event spans));
      ("displayTimeUnit", Json.String "ms") ]

let of_chrome json =
  let int k o =
    match Json.member k o with
    | Some (Json.Int v) -> v
    | _ -> failwith ("trace event without integer " ^ k)
  in
  match Json.member "traceEvents" json with
  | Some (Json.List events) ->
    List.map
      (fun e ->
        let args =
          match Json.member "args" e with
          | Some a -> a
          | None -> failwith "trace event without args"
        in
        let name =
          match Json.member "name" e with
          | Some (Json.String n) -> n
          | _ -> failwith "trace event without name"
        in
        { id = int "id" args; name; parent = int "parent" args;
          op = int "op" args; start = int "start_ns" args;
          stop = int "stop_ns" args })
      events
  | _ -> failwith "not a Chrome trace: no traceEvents list"

(* One worker serves requests one at a time in the order they are due, so
   a request starts at the later of its due time and the previous
   request's end. Given each request's (due, service) times, returns how
   long it waited, in input order. *)
let single_worker reqs =
  let order = Array.init (Array.length reqs) Fun.id in
  Array.stable_sort (fun i j -> Float.compare (fst reqs.(i)) (fst reqs.(j))) order;
  let waits = Array.make (Array.length reqs) 0.0 in
  let free = ref neg_infinity in
  Array.iter
    (fun i ->
      let due, service = reqs.(i) in
      let start = Float.max due !free in
      waits.(i) <- start -. due;
      free := start +. service)
    order;
  waits
