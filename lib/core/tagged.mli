(** Tagged-pointer encoding (the paper's Figure 5).

    A 64-bit pointer word holds the address in its low half and the
    referent object's upper bound (which doubles as the address of the
    object's metadata area) in its high half. In the simulation the word
    is one OCaml [int] and the halves are {!Sb_vmem.Vmem.addr_bits} = 31
    bits wide; the mechanism — and crucially the *atomicity* of updating
    pointer and bound together (§4.1) — is identical.

    All functions are pure bit manipulation; the caller charges the ALU
    cost. *)

val shift : int
val mask : int

(** [make ~addr ~ub] builds the tagged word [(ub << shift) | addr].
    The paper's [specify_bounds] without the LB store. *)
val make : addr:int -> ub:int -> int

(** [extract_p]: the low half — the raw pointer. *)
val addr_of : int -> int

(** [extract_UB]: the high half — the upper bound / metadata address. *)
val ub_of : int -> int

(** [with_addr t a] replaces the address half, keeping the tag: this is
    the instrumented pointer arithmetic of §3.2 — an overflowing [a]
    cannot corrupt the upper bound. *)
val with_addr : int -> int -> int

(** True if the word carries no tag (e.g. NULL or a foreign integer). *)
val untagged : int -> bool
