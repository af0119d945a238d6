(** ASCII table rendering for the experiment harness.

    Every paper table/figure is re-emitted as rows of cells; this module
    lines columns up so the bench output is readable in a terminal and easy
    to diff across runs. *)

type align = Left | Right

type t

val create : headers:string list -> t
(** A table whose column count is fixed by [headers]. *)

val add_row : t -> string list -> unit
(** Append a row. Raises [Invalid_argument] on column-count mismatch. *)

val render : ?aligns:align list -> t -> string
(** Render with one space of padding; numeric-looking columns default to
    right alignment unless [aligns] overrides. *)
