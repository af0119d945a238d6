(** Compiler diagnostics.

    All front-end and analysis errors are reported through this module so
    that tests can assert on structured errors rather than strings. *)

type severity = Error | Warning

type t = { severity : severity; loc : Loc.t; message : string }

exception Compile_error of t
(** Raised by phases that cannot continue. *)

val error : ?loc:Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [error ~loc fmt ...] raises {!Compile_error} with a formatted message. *)

val errorf_at : Loc.t -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Like {!error} with a mandatory location. *)

val to_string : t -> string

(** {1 Multi-error collection}

    Phases that can recover from an error (the typechecker recovers per
    statement and per declaration) accumulate diagnostics in a collector
    instead of stopping at the first {!Compile_error}. *)

type collector

val collector : unit -> collector

val add : collector -> t -> unit

val has_errors : collector -> bool
(** At least one [Error]-severity diagnostic was recorded. *)

val diags : collector -> t list
(** All recorded diagnostics, in the order they were reported. *)
