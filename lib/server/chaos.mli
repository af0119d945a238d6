(** The chaos harness: drive a server through a seeded storm of hostile
    traffic and check the robustness invariants the daemon promises.

    The op mix covers every failure class in the issue: malformed JSON,
    broken envelopes, unknown methods, ill-typed documents, out-of-range
    and oversized batches, deadline-busting slow queries, and documents
    whose engines are fault-injected ({!Store.inject}) to flip answers or
    crash mid-query and mid-rebuild.

    Invariants checked, all violations collected into the report:

    - {b No crashes}: every request line yields exactly one structured
      JSON-RPC response ([result] or an [error] with a known code) and
      [handle_line] never raises.
    - {b Soundness of degradation}: on documents with no fault injection,
      alias answers must be byte-identical to a fresh from-scratch engine
      over the document's last successfully built source — whether the
      document is Fresh or Stale. A Conservative document must answer
      MayAlias for every pair.
    - {b Recovery}: after the storm, one clean rebuild per surviving
      document must return it to Fresh with answers byte-identical to a
      fresh engine — including documents that spent the storm flipping,
      crashing, or quarantined.
    - {b Partial edits}: a [change] request with ranged edits must leave
      the document answering exactly like a whole-source [update] to the
      same target text. Body-local edits (one digit inside a procedure
      body, some of them cancelled at once) drive the store's fast path,
      which must be taken at least once when any was accepted.
    - {b Cancellation}: a cancel storm against in-flight slow queries
      must only ever produce full answers or structured [Cancelled]
      rejections with a partial [completed] count, and the target
      document must keep answering afterwards.
    - {b Sleeps, not spins}: injected per-query latency must not burn
      CPU (asserted by comparing process CPU time to wall time across a
      batch of slow queries).

    Deterministic for a given [workers] count: the same (workers, seed,
    ops) replays the same storm, except that with [workers > 0] whether a
    cancel beats the request it targets depends on timing, and a body
    edit that a cancel did not stop changes the rest of the storm. *)

type report = {
  ops : int;  (** requests sent *)
  oks : int;  (** result responses *)
  errors : int;  (** structured error responses *)
  by_code : (string * int) list;  (** error responses per code name *)
  checked_answers : int;  (** alias answers compared against an oracle *)
  recovered_docs : int;  (** documents that passed the recovery sweep *)
  workers : int;  (** worker-pool size the storm ran with *)
  cancelled : int;  (** structured [Cancelled] rejections observed *)
  partial_edits : int;  (** [change] requests verified against splices *)
  body_edits : int;
      (** of those, edits of one digit inside a procedure body *)
  fast_edits : int;
      (** of those, the ones the store re-read alone ({!Store.edits_fast});
          a storm with body edits and none of these is a violation *)
  violations : string list;  (** empty iff every invariant held *)
}

val run : ?workers:int -> seed:int -> ops:int -> unit -> report
(** Build a fault-injection-enabled server (small limits, so capacity
    shedding actually triggers) and storm it. With [workers > 0] the
    async legs ([cancel] storms, interleaved edit/query traffic) run
    through the concurrent {!Dispatch.submit} path; the pool is joined
    before the report is returned. Default [workers = 0]. *)

val report_json : report -> Support.Json.t
