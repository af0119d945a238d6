(** The alias-query daemon's request dispatcher — transport-free.

    One {!t} hosts a {!Store.t} and serves line-delimited JSON-RPC:
    {!handle_line} maps one request line to exactly one response line and
    never raises, whatever the input — malformed JSON, a bad envelope, an
    unknown method, an ill-typed document, an engine that crashes
    mid-query — every failure becomes a structured {!Rpc} error response.
    Transports (stdio, socket, the in-process chaos harness and tests)
    stay dumb byte movers.

    Methods: [open], [update] (aliases — both upsert a document),
    [change] (incremental didChange: ranged partial edits spliced into
    the last-good source), [alias] (batched may-alias over memref-index
    pairs), [modref], [paths], [stats], [health], [close], [cancel],
    [shutdown].

    Robustness knobs in {!config}: per-request deadlines (checked between
    queries inside a batch, the interpreter's fuel idiom applied to
    serving — on the monotonic-clamped {!Support.Clock}), a batch-size
    cap and a request-byte cap (both shed with [Overloaded] rather than
    slow everyone down), and a document-store capacity cap.

    {b Concurrent dispatch.} With [workers > 0], {!submit} routes lines
    to a persistent {!Support.Domain_pool} through per-client FIFO
    actors: one client's lines are answered strictly in submission order
    (identical streams to serialized dispatch on healthy documents),
    while different clients' requests run in parallel under the store's
    per-document reader/writer locks. Each submitted line carries a
    cancellation token, registered per request id from submission until
    response, that a [cancel] request (same client, [{"id": <target>}]
    param) flips; cancellation is checked at the same points as
    deadlines and answers a structured [Cancelled] rejection carrying a
    [completed] count, mirroring the [timeout] shape. *)

type config = {
  max_batch : int;  (** max query pairs per request (default 4096) *)
  max_pending : int;
      (** max requests queued per client before shedding (default 64;
          enforced by {!submit} and serialized transports, advertised by
          [health]) *)
  max_request_bytes : int;  (** max request line length (default 8 MiB) *)
  max_docs : int;  (** document-store capacity (default 64) *)
  default_deadline_ms : float;
      (** per-request deadline when the client sends none (default 2000) *)
  allow_inject : bool;
      (** honour fault-injection params (chaos harness only) *)
  optimize : bool;
      (** incrementally re-optimize every installed revision on the side
          ({!Store.create}'s [optimize]); stats surface under
          ["optimizer"] in [stats] and [health] (default false) *)
  workers : int;
      (** worker domains for concurrent dispatch (default 0: no pool is
          spawned and {!submit} processes on the calling thread) *)
}

val default_config : config

type t

val create : ?config:config -> unit -> t
(** Spawns the worker pool when [config.workers > 0]; call {!stop} to
    join it. *)

val config : t -> config
val store : t -> Store.t

val workers : t -> int
(** Actual worker-pool size (0 when dispatch is serialized). *)

val shutting_down : t -> bool
(** Set once a [shutdown] request was served; transports drain and exit. *)

val handle_line : t -> string -> string
(** One request line in, one compact JSON response line out (no trailing
    newline). Never raises. Processes on the calling thread regardless
    of [workers] — the serialized entry point. *)

val submit : t -> client:string -> string -> respond:(string -> unit) -> unit
(** Concurrent entry point: parse [line], then either answer immediately
    on the calling thread (parse errors, oversized lines, queue-full
    shedding, and lone [cancel] requests — which must be able to
    overtake the work they target) or enqueue it on [client]'s FIFO for
    the worker pool. [respond] is called exactly once per submitted
    line, possibly from a worker domain and after this call returned —
    it must be thread-safe. Order of [respond] calls is the submission
    order within one client; no ordering holds across clients. With
    [workers = 0] everything runs on the calling thread before [submit]
    returns. *)

val client_idle : t -> string -> bool
(** No queued or running work for this client — e.g. safe to tear its
    connection down. *)

val quiesce : t -> unit
(** Block until every client's queue is drained and no actor is running.
    Only sensible once submitters have stopped. *)

val stop : t -> unit
(** {!quiesce}, then shut the worker pool down (if any). The dispatcher
    remains usable for serialized {!handle_line} calls afterwards. *)

val shed_line : t -> reason:string -> string
(** A pre-built [Overloaded] response for transports shedding a request
    they refuse to parse (queue overflow, oversized line). Counted. *)
