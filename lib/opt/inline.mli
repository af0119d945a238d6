(** Procedure inlining of direct calls (paper §3.7 pairs it with method
    resolution).

    A direct call is inlined when the callee is known, non-recursive, not
    the synthesized main, and no larger than 60 IR instructions; a
    caller's growth is capped at 3000 instructions so pathological call
    chains cannot explode. Cloned by-reference formals become address
    temporaries, so every AddressTaken and access-path fact remains
    representable. Calls exposed by earlier inlining are themselves
    considered (the scan visits blocks appended during surgery). *)

val pass : Pass.t
(** [changed] iff any call site was inlined. Stats: [inlined]. *)
