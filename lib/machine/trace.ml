(** Counters of the deleted superblock engine.

    This record exists only so the host-cost ledger ([bench/ledger])
    can keep emitting its [trace.*] columns; {!Sb_sgx.Memsys.trace_stats}
    always returns {!zero}. The ledger-consolidation item removes it
    together with those columns. *)

type stats = {
  superblocks : int;
  fused : int;
  breaks : int;
  invalidations : int;
}

let zero = { superblocks = 0; fused = 0; breaks = 0; invalidations = 0 }
