(** Simulated application pointers: one immediate word each.

    A pointer is an OCaml [int], so building, moving and loading one
    allocates nothing — as on the paper's hardware, where a pointer is a
    single 64-bit register (SGXBounds' tagged word, Figure 5).

    {b Without register bounds} a pointer is its machine word, bit for
    bit: the address for the native baseline, AddressSanitizer, Baggy
    Bounds and Intel MPX; the tagged word [ub << 31 | addr] for
    SGXBounds. Words loaded from simulated memory lie in [[0, 2^62)];
    pointer arithmetic may take an address below 0. Every int in
    [[-2^61, 2^62)] is such a pointer.

    {b With register bounds} — every Intel MPX pointer after [bndmk] or a
    matching [bndldx], an SGXBounds pointer after [narrow] — bit 62 is
    set and bit 61 clear. Bits 33–60 index the scheme's register-bounds
    {!table} and bits 0–32 hold the address in two's complement: any
    address in [[-2^32, 2^32)] — the 2 GiB address space and far past
    either end of it — keeps its exact value. Such a pointer is a
    negative int, and for an address in the 2 GiB space the low 31 bits
    of either form are the address. A table entry holds the bounds
    [[lo, hi)] and the high half the word carries when it is spilled to
    memory: 0 for MPX, the upper bound for SGXBounds. The bounds never
    travel in the pointer: like a BNDx register they belong to the
    scheme instance. *)

type t [@@immediate]

(** {1 Pointers without register bounds} *)

(** [of_word w]: the pointer whose machine word is [w] and that carries
    no register bounds. [w] must lie in [[-2^61, 2^62)]. *)
external of_word : int -> t = "%identity"

(** [raw p]: the int that represents [p]. For a pointer without register
    bounds it is the machine word; schemes that never attach register
    bounds (native, ASan, Baggy) use it as the address. *)
external raw : t -> int = "%identity"

(** {1 Either form} *)

(** Whether [p] carries register bounds. *)
val has_bounds : t -> bool

(** [addr p]: the address a pointer with register bounds carries, and
    [raw p] for a pointer without them (the address wherever the word
    is the address). *)
val addr : t -> int

(** [move p d]: [p] moved by [d] bytes: {!with_addr} for a pointer with
    register bounds, the word plus [d] otherwise. *)
val move : t -> int -> t

(** {1 Pointers with register bounds} *)

(** [with_addr p a]: [p] moved to address [a], same bounds. [a] is kept
    modulo 2^33, sign-extended. *)
val with_addr : t -> int -> t

(** {1 The register-bounds table} *)

(** Per scheme instance: entries are interned by [(lo, hi, high)], so a
    table grows with the distinct bounds a run creates, not with the
    number of pointers. Not shared between domains. *)
type table

val table : unit -> table

(** [bounded t ~lo ~hi ~high a]: a pointer at [a] with register bounds
    [[lo, hi)] that spills as [high << 31 | a]. Adds an entry only if
    [t] has none for [(lo, hi, high)]; allocates nothing otherwise.
    @raise Failure when the table already holds {!max_index}[ + 1]
    distinct entries. *)
val bounded : table -> lo:int -> hi:int -> high:int -> int -> t

(** Lower bound and upper bound (exclusive) of a pointer with register
    bounds. *)
val lo : table -> t -> int

val hi : table -> t -> int

(** [within t p w]: whether the [w] bytes at [p], a pointer with
    register bounds, lie inside its bounds — the bounds check. *)
val within : table -> t -> int -> bool

(** [word t p]: the machine word [store_ptr] writes for [p]: [raw p]
    without register bounds, [high << 31 | addr p] with them. *)
val word : table -> t -> int

(** Distinct entries in the table. *)
val entries : table -> int

(** {1 Encoding} *)

(** The largest table index a pointer can carry (2^28 - 1). *)
val max_index : int

(** The table index of a pointer with register bounds. *)
val index : t -> int

(** [at_index i a]: the pointer at [a] carrying entry [i], without
    consulting a table (for encoding tests). *)
val at_index : int -> int -> t
