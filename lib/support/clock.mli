(** Monotonic-clamped wall clock.

    All daemon deadline and duration math reads time through {!now_ms}
    instead of [Unix.gettimeofday]: the raw system clock can step
    backwards under NTP slew, which would make in-flight deadlines
    recede (never expire) and measured durations negative. {!now_ms}
    clamps raw readings against a process-wide high-water mark, so it
    never decreases within a process. Safe to call from any domain. *)

val now_ms : unit -> float
(** Milliseconds since the epoch, clamped non-decreasing. *)

val with_raw : (unit -> float) -> (unit -> 'a) -> 'a
(** [with_raw source f] runs [f] with [source] as the raw clock and the
    clamp watermark reset — the regression lever for injecting a
    non-monotonic clock. Restores the system source afterwards. Tests
    only; not safe against concurrent callers expecting system time. *)
