(** The §8 "EPC Size" refinement: tagged pointers for address spaces
    wider than half the word.

    SGX v1 architecturally allows 36-bit enclave address spaces, which
    would leave only 28 bits for the upper bound in a 64-bit word. The
    paper's fix: "SGXBounds could be refined to allow 36-bit pointers,
    hinged on the correct alignment of newly allocated objects" — if
    every object (and thus every metadata area) is 8-byte aligned, the
    upper bound's low 3 bits are always zero and [UB >> 3] fits the
    shrunken tag field.

    This module implements that codec generically: addresses span the
    full simulated space, the tag field is [Sb_vmem.Vmem.addr_bits - 3]
    bits wide, and upper bounds must be 8-byte aligned (which the
    allocator guarantees by padding the object + footer to 8 bytes).
    Properties mirror {!Sgxbounds.Tagged}: round-trips are exact for aligned
    bounds, and pointer arithmetic cannot touch the tag. *)

let align = 8
let shift = Sb_vmem.Vmem.addr_bits
let mask = (1 lsl shift) - 1

(** [make ~addr ~ub] — [ub] must be [align]-aligned.
    @raise Invalid_argument on a misaligned upper bound. *)
let make ~addr ~ub =
  if ub land (align - 1) <> 0 then invalid_arg "Tagged_wide.make: unaligned upper bound";
  ((ub lsr 3) lsl shift) lor (addr land mask)

let addr_of t = t land mask
let ub_of t = (t lsr shift) lsl 3
let with_addr t a = (t land lnot mask) lor (a land mask)
let untagged t = t lsr shift = 0

(** Round an upper bound up to the codec's alignment (what the §8
    refinement asks of the allocator). *)
let align_ub ub = Sb_machine.Util.align_up ub align
