(** One regeneration function per table and figure of the paper's
    evaluation (plus the ablations DESIGN.md calls out). Each returns the
    structured rows and can render itself as an ASCII table; [run_all]
    prints everything in paper order. *)

open Workloads

(** Table 4: benchmark descriptions and dynamic load mix. *)
module Table4 : sig
  type row = {
    name : string;
    lines : int;
    instructions : int option;  (* None for the interactive programs *)
    heap_load_pct : float option;
    other_load_pct : float option;
  }

  val compute : unit -> row list
  val render : unit -> string
end

(** Table 5: static local/global alias pairs under the three analyses. *)
module Table5 : sig
  type row = {
    name : string;
    references : int;
    td : Tbaa.Alias_pairs.counts;
    ftd : Tbaa.Alias_pairs.counts;
    sm : Tbaa.Alias_pairs.counts;
  }

  val compute : unit -> row list
  val render : unit -> string
end

(** Table 6: redundant loads removed statically by RLE per analysis. *)
module Table6 : sig
  type row = { name : string; td : int; ftd : int; sm : int }

  val compute : unit -> row list
  val render : unit -> string
end

(** Figure 8: simulated running time (percent of base) per analysis. *)
module Figure8 : sig
  type row = { name : string; td : float; ftd : float; sm : float }

  val compute : unit -> row list
  val render : unit -> string
end

(** Figure 9: dynamically redundant heap loads, before and after TBAA+RLE,
    as fractions of the original heap loads. *)
module Figure9 : sig
  type row = { name : string; before : float; after : float }

  val compute : unit -> row list
  val render : unit -> string
end

(** Figure 10: classification of the redundancy remaining after TBAA+RLE,
    as fractions of the original heap loads. *)
module Figure10 : sig
  type row = {
    name : string;
    fractions : (Sim.Classify.category * float) list;
  }

  val compute : unit -> row list
  val render : unit -> string
end

(** Figure 11: cumulative impact — RLE, Minv+Inlining, and both. *)
module Figure11 : sig
  type row = { name : string; rle : float; minv : float; both : float }

  val compute : unit -> row list
  val render : unit -> string
end

(** Figure 12: RLE under the closed- vs open-world assumption. *)
module Figure12 : sig
  type row = { name : string; closed : float; opened : float }

  val compute : unit -> row list
  val render : unit -> string
end

(** ABL1: grouped vs per-type selective merging (footnote 2). *)
module Ablation_merge : sig
  type row = {
    name : string;
    grouped_local : int;
    per_type_local : int;
    grouped_global : int;
    per_type_global : int;
  }

  val compute : unit -> row list
  val render : unit -> string
end

(** ABL3: RLE with and without interprocedural mod-ref. *)
module Ablation_modref : sig
  type row = { name : string; with_modref : int; without_modref : int }

  val compute : unit -> row list
  val render : unit -> string
end

(** Extension (paper §3.7/§6 future work): PRE + copy propagation applied
    after TBAA+RLE — how much residual redundancy they recover and at what
    running-time cost. *)
module Extension_future_work : sig
  type row = {
    name : string;
    rle_after : float;
    ext_after : float;
    rle_cycles : int;
    ext_cycles : int;
  }

  val compute : unit -> row list
  val render : unit -> string
end

val dynamic_seven : Workload.t list
(** The seven programs of Table 6 / Figures 8, 11, 12. *)

val run_all : Format.formatter -> unit
(** Render every table and figure, in paper order. *)
