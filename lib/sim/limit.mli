(** The ATOM-style dynamic redundant-load detector (paper §3.5).

    "A redundant load is when two consecutive loads of the same address
    load the same value in the same procedure activation." The tracer
    hooks the interpreter's heap loads, remembers the last load of each
    address, and attributes each detected redundancy to the static site of
    the *later* load. It also records whether the earlier load came from a
    syntactically different access path — evidence for the Breakup
    category of the classification. *)

type site_stat = {
  ss_site : Interp.site;
  mutable ss_loads : int;
  mutable ss_redundant : int;
  mutable ss_breakup_prev : int;
      (** redundancies whose earlier load used a different path *)
}

type t

val create : unit -> t

val on_load : t -> Interp.load_event -> unit
(** Pass as the interpreter's [on_load] callback. *)

val total_heap_loads : t -> int
val total_redundant : t -> int

val sites : t -> site_stat list
(** Sites with at least one load, in increasing [site_id] order. *)
