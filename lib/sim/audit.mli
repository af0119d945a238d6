(** Dynamic soundness auditor: cross-checks the optimizer's static
    "these paths never overlap" bets against the concrete addresses the
    program actually touches.

    The optimizer exports its bets as a {!Tbaa.Claims.t} ledger (every
    may-alias / class-kills answer RLE relied on, keyed by witness access
    paths). The auditor observes every explicit memory access during
    simulation via {!Interp.run}'s [on_access] hook, records which
    concrete cells each access path touched, and afterwards intersects
    the cell sets of every claimed-disjoint pair. A non-empty
    intersection is a soundness violation: the oracle said two paths
    could never name the same storage, and at runtime they did.

    Cells are keyed per activation (static and stack addresses are
    reused across frames, and the intra-procedural optimizations only
    exploit claims within one activation), and paths rooted at RLE home
    temporaries are canonicalized back to the source-level paths they
    materialize before comparison. A clean program under a sound oracle
    reports zero violations; a fault-injected oracle
    ({!Tbaa.Oracle_fault}) should be caught here. *)

open Support
open Ir
open Tbaa

type violation = {
  vi_p1 : Apath.t;
  vi_p2 : Apath.t;
  vi_addr : int;  (** one witness address both paths touched *)
  vi_activation : int;
  vi_hits : int;  (** total cells shared by the pair *)
  vi_oracle : string;
  vi_kinds : string list;
      (** which clients bet on the pair ("rle", "dse", "slf", "licm") *)
}

type t

val create : Claims.t -> t

val on_access : t -> Interp.access -> unit
(** Pass [on_access t] to {!Interp.run}. *)

val n_accesses : t -> int
val n_paths : t -> int
(** Distinct canonical paths observed touching memory. *)

val check : t -> violation list
(** Run after simulation: one violation per claimed-disjoint pair whose
    observed cell sets intersect. Empty means every bet the optimizer
    made was consistent with this execution. *)

val violation_to_string : violation -> string

val report_json : t -> violation list -> Json.t
(** Full audit report: ledger sizes, access counts, and violations. *)
