(** Source locations for MiniM3 programs.

    A location is a [line, column] pair pointing into a named compilation
    unit; a span covers a half-open range of characters. Locations are only
    used for diagnostics, never for semantics. *)

type t = {
  file : string;  (** compilation unit name *)
  line : int;  (** 1-based line *)
  col : int;  (** 1-based column *)
}

val dummy : t
(** Placeholder for synthesized nodes. *)

val make : file:string -> line:int -> col:int -> t

val pp : Format.formatter -> t -> unit
(** Renders as ["file:line:col"]. *)
