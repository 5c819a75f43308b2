let shift = Sb_vmem.Vmem.addr_bits
let mask = (1 lsl shift) - 1

let make ~addr ~ub = (ub lsl shift) lor (addr land mask)
let addr_of t = t land mask
let ub_of t = (t lsr shift) land mask
let with_addr t a = (t land lnot mask) lor (a land mask)
let untagged t = t lsr shift = 0
