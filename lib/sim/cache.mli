(** Direct-mapped data-cache simulator.

    Stands in for the validated Alpha 21064 memory system of the paper's
    experiments; the paper itself enlarged the primary cache to 32 KiB to
    suppress conflict-miss noise, and that is the default geometry here
    (32 KiB, 32-byte lines, direct-mapped, write-allocate). *)

type t

val create : ?size_bytes:int -> ?line_bytes:int -> unit -> t
(** Raises {!Support.Diag.Compile_error} unless both [size_bytes] and
    [line_bytes] are powers of two with [size_bytes >= line_bytes] — the
    set mask and line shift are only exact for power-of-two geometry. *)

val access : t -> int -> bool
(** [access t byte_addr] touches one address and returns [true] on a hit.
    Loads and stores behave identically (write-allocate). *)

val reset : t -> unit
(** Empty every line and zero the counts: the state {!create} returns. *)

val hits : t -> int
val misses : t -> int
