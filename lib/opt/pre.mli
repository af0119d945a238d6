(** Partial redundancy elimination for loads — the paper's stated future
    work ("we plan to implement and evaluate partial redundancy elimination
    of memory expressions"), targeting the Conditional bucket of Figure 10.

    The transformation makes partially available load expressions *fully*
    available by inserting the load on the incoming edges that lack it
    (splitting critical edges as needed); a subsequent {!Rle} pass then
    eliminates the now-fully-redundant original. Under MiniM3's total
    semantics the inserted loads are unconditionally safe — they cannot
    trap — so no down-safety (anticipability) analysis is required for
    correctness; it would only guard profitability, which the ABL-PRE
    experiment measures instead. *)

val pass : Pass.t
(** Insertion only — schedule an {!Rle.pass} after it to harvest. Inserted
    loads get their destinations from the laced allocator. Stats:
    [inserted] (loads materialized on edges), [edges_split]. *)
