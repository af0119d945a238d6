(** Loop-invariant load motion as a standalone TBAA client: RLE's Figure-6
    hoister ({!Rle.hoist_loops}) over whole paths.

    A load whose access path is invariant in a loop — no base or index
    variable redefined in the body, no store in the body may write any
    prefix of the path (per the alias oracle), no call in the body may
    write it (per the callees' transitive {!Tbaa.Effects} mod summaries)
    — and whose block executes on every iteration is hoisted to the loop
    preheader; in-loop occurrences become register copies from the
    hoisted home temporary.

    Unlike RLE, which hoists the longest invariant scalar prefix, this
    moves only whole paths, so its [hoisted] count isolates the pure
    loop-invariance opportunity the oracle's precision buys. With
    [claims], every alias/no-mod answer relied on is logged under kind
    ["licm"], and the home temporaries are registered for the dynamic
    auditor's canonicalization. *)

val pass : Pass.t
(** A per-procedure pass over the context's oracle and engine-backed
    mod-ref view; preheader homes come from the laced allocator.
    [changed] and [mutated] iff any load was hoisted. Stats: [hoisted]. *)
