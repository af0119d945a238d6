(** Type-based method invocation resolution (paper §3.7; Diwan, Moss &
    McKinley, OOPSLA '96).

    A virtual call on a receiver of static type [T] dispatches to
    [method_impl] of the receiver's dynamic type. The dynamic type must lie
    in the analysis' TypeRefsTable for [T] (the types an access path of
    declared type [T] can actually reference, per selective type merging).
    When every candidate resolves to the same procedure the call site is
    rewritten to a direct call — which is also what unlocks inlining. *)

val pass : Pass.t
(** Resolves over the context's TypeRefsTable; [changed] iff any call site
    was rewritten. Stats: [resolved], [unresolved]. *)
