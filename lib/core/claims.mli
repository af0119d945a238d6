(** Machine-readable ledger of the alias/kill answers the optimizer
    relied on, exported for the dynamic soundness auditor
    ([Sim.Audit]).

    RLE records one claim per oracle query it makes while deciding
    whether a store (or call, or register def) kills a tracked load
    expression. A claim is a pair of access paths plus the answer; pairs
    whose answers were always "no" are the optimizer's bets that the two
    paths never overlap at runtime — exactly what the auditor
    cross-checks against concrete addresses. *)

open Ir

type t

val create : oracle:string -> t
(** Fresh ledger; [oracle] names the oracle the answers came from (used
    in violation reports). *)

val oracle_name : t -> string

val record : ?kind:string -> t -> Apath.t -> Apath.t -> bool -> unit
(** [record t p1 p2 answer] logs one oracle answer about the pair
    (order-insensitive): [true] = may alias / may kill. [kind] names the
    client making the bet (default ["rle"]; the other clients pass
    ["dse"], ["slf"], ["licm"]) so the auditor can attribute a violated
    claim to the pass that relied on it. *)

val absorb : into:t -> t -> unit
(** [absorb ~into src] folds [src]'s cells and home registrations into
    [into]: per-pair yes/no counts add, client-kind sets union, homes
    replace. Used by the per-procedure pass engine to merge per-procedure
    ledgers (in program order) into the caller's ledger; every derived
    count is order-insensitive, so parallel and sequential execution
    produce identical merged ledgers. *)

val kinds : t -> Apath.t -> Apath.t -> string list
(** The clients that recorded answers about the pair, sorted. Empty for a
    never-queried pair. *)

val note_home : t -> Reg.var -> Apath.t -> unit
(** Register a scalar home temp introduced by RLE/LICM together with the
    access path it materializes, so the auditor can canonicalize paths
    rooted at rewritten temps back to source-level paths. *)

val home : t -> int -> Apath.t option
(** Look up the materialized path of a home temp by variable id. *)

val n_pairs : t -> int
(** Distinct path pairs queried. *)

val n_records : t -> int
(** Total answers recorded. *)

val disjoint_pairs : t -> (Apath.t * Apath.t) list
(** The pairs the optimizer treated as never-overlapping: at least one
    "no" answer, zero "yes" answers, structurally distinct paths. *)

val to_json : t -> Support.Json.t
(** The full ledger as a JSON audit log. *)
