(** Intraprocedural copy propagation.

    The paper attributes the Breakup bucket of Figure 10 to its optimizer
    doing no copy propagation: when a pointer flows through a variable
    ([p := t] then [p.val]), the access paths [p.val] and [t.val] are
    syntactically different and RLE cannot connect them. This pass
    replaces uses of a variable with its (transitively) available copy
    source, canonicalizing path bases so a second RLE pass can. A copy
    into a variable every use of which it rewrote is then deleted (and,
    in turn, a copy whose only reader that deletion removed).

    Only register-resident variables participate: globals and variables
    whose bare address is taken can change behind the compiler's back and
    are excluded from both sides of a copy.

    Only copies between variables of the same static type propagate.
    A NIL dereference reads the null zone of the path's static type
    (DESIGN.md §5), so rewriting [v.f] into [u.f] with [u] of a proper
    subtype of [v]'s type would read another zone on a faulting path. With
    the guard every rewrite keeps each path's static type, and every
    assignment's type pair — hence SMFieldTypeRefs' merges — is
    unchanged. *)

val pass : Pass.t
(** An {!Pass.Enabling} pass: base canonicalization keeps finding cosmetic
    copies round after round, so its [changed] flag must not drive
    fixed-point convergence — only what it unlocks for RLE counts.
    [changed] and [mutated] iff a use was rewritten (a deletion needs
    one). Stats: [replaced]. *)
