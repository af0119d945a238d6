(** Per-procedure analysis summaries — the unit the incremental engine
    caches, keyed by a structural fingerprint (the {!Ir.Fingerprint}
    idiom).

    A summary bundles everything one procedure contributes to the
    whole-program analysis: its fact contribution ({!Facts.contrib}), the
    canonical projection of it the oracle constructors consume
    ({!Facts.oracle_inputs}), its callee set (the dependency-graph edges),
    and the fingerprints that govern reuse. A summary stays valid for a
    new version of the program iff the procedure's own fingerprint is
    unchanged *and* every callee it recorded still resolves the same way
    with the same signature (callers read only a callee's formal
    types/modes and return type), under a physically unchanged type
    environment — which the engine checks separately. *)

open Support
open Ir

type t = {
  sp_name : Ident.t;
  sp_fingerprint : int;  (** {!Fingerprint.proc} of the summarized body *)
  sp_signature : int;  (** {!Fingerprint.signature} — what callers see *)
  sp_callees : Ident.Set.t;  (** dependency edges (virtuals resolved) *)
  sp_callee_sigs : (Ident.t * int option) list;
      (** per callee (sorted): its signature, or [None] when it had no
          body — the view revalidated by {!reusable} *)
  sp_contrib : Facts.contrib;
  sp_inputs : Facts.oracle_inputs;
}

val compute : Cfg.program -> Cfg.proc -> fingerprint:int -> t
(** Summarize one procedure, resolving callees through
    [Cfg.find_proc_opt]. [fingerprint] is the procedure's
    {!Fingerprint.proc}, which the caller has already computed for its
    reuse check. Pure; safe to call concurrently on distinct
    procedures. *)

val signature_of : Cfg.program -> Ident.t -> int option
(** A callee's current signature fingerprint, [None] when it has no body.
    Callers validating many summaries should memoize this per update —
    every caller of a procedure re-reads the same signature. *)

val reusable :
  t -> fingerprint:int -> signature_of:(Ident.t -> int option) -> bool
(** May this summary stand for a procedure whose {!Fingerprint.proc} is
    [fingerprint], in the program described by [signature_of]? True iff
    the fingerprint matches and the recorded callee-signature view still
    holds. Caller guarantees the type environment is physically
    unchanged. *)
