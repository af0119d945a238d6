(** JSON-RPC 2.0 framing for the alias-query daemon.

    One request or response per line of compact JSON. This module owns the
    envelope only — parsing a request out of a {!Support.Json.t}, the
    structured error-code vocabulary, and response construction. Every
    failure mode a client can trigger has a distinct code, so the chaos
    harness (and real clients) can assert on classes of failure rather
    than message strings. *)

open Support

type code =
  | Parse_error  (** -32700: the request line was not valid JSON *)
  | Invalid_request  (** -32600: valid JSON, not a valid request envelope *)
  | Method_not_found  (** -32601 *)
  | Invalid_params  (** -32602: wrong/missing params for the method *)
  | Timeout  (** -32000: the per-request deadline expired mid-service *)
  | Overloaded  (** -32001: shed — queue/batch/store capacity exceeded *)
  | Document_error  (** -32002: the submitted source failed to compile *)
  | Quarantined  (** -32003: the document's analysis crashed; degraded *)
  | Internal_error  (** -32004: unexpected exception (always caught) *)
  | Cancelled  (** -32005: the client cancelled the request mid-service *)

val code_number : code -> int
val code_name : code -> string

type request = {
  rq_id : Json.t;  (** [Int], [String] or [Null] (a notification) *)
  rq_method : string;
  rq_params : Json.t;  (** always an [Obj] (defaults to empty) *)
}

exception Reject of Json.t * code * string * (string * Json.t) list
(** Internal control flow for handlers: caught by the dispatcher and
    turned into an error response — never escapes the server. *)

val reject :
  ?id:Json.t -> ?data:(string * Json.t) list -> code -> string -> 'a

val rejectf :
  ?id:Json.t ->
  ?data:(string * Json.t) list ->
  code ->
  ('a, unit, string, 'b) format4 ->
  'a

val request_of_json : Json.t -> request
(** Validate the envelope. Raises {!Reject} (with the request's id when
    one could be recovered) on a malformed envelope. *)

val response_ok : Json.t -> Json.t -> Json.t
(** [response_ok id result]. *)

val response_error :
  Json.t -> code -> string -> (string * Json.t) list -> Json.t
(** [response_error id code message data]; [data] may be empty. *)

(** {1 Typed parameter accessors} — all raise {!Reject} with
    [Invalid_params] naming the offending member. *)

val param : request -> string -> Json.t option
(** The raw value of a param member, for the rare polymorphic one (e.g.
    [cancel]'s [id], which mirrors the int-or-string request id). *)

val str_param : request -> string -> string
val str_param_opt : request -> string -> string option
val int_param_opt : request -> string -> int option
val float_param_opt : request -> string -> float option
val list_param_opt : request -> string -> Json.t list option
