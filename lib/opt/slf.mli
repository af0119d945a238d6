(** Store-to-load forwarding — the dual of RLE.

    Tracks the (path, stored atom) bindings established by stores and
    replaces a later load of the same path with a register copy of the
    stored atom when the binding is available on every intervening path:
    no store may alias a prefix of the path, no call may write its cells
    (per the callees' transitive mod summaries), and neither the path's
    variables nor the stored atom's variable are redefined. Forward
    must-availability over {!Ir.Dataflow}, one solve per procedure.

    With [claims], every alias/no-mod answer relied on is logged under
    kind ["slf"] for the dynamic soundness auditor. *)

val pass : Pass.t
(** A per-procedure pass over the context's oracle and engine-backed
    mod-ref view.
    [changed] and [mutated] iff any load was forwarded. Stats:
    [forwarded]. *)
