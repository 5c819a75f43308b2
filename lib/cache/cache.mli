(** A single set-associative cache with LRU replacement.

    Only tags are modelled (data lives in {!Sb_vmem.Vmem}); an access
    either hits or misses and updates recency. This is enough to
    reproduce the cache-pollution effects that drive the paper's
    AddressSanitizer results (shadow-memory accesses evicting application
    data) and Intel MPX results (bounds-table accesses doing the same). *)

type t

(** [create ~size ~assoc ~line_size] — [size] bytes total, [assoc] ways,
    [line_size]-byte lines. [size] is rounded so there is at least one
    set. *)
val create : size:int -> assoc:int -> line_size:int -> t

(** [access t ~line] touches cache line number [line] (address divided by
    line size); returns [true] on hit. On miss the LRU way of the set is
    replaced. *)
val access : t -> line:int -> bool

(** Record a hit without probing. Caller contract: the line must be at
    way 0 of its set (true immediately after any [access] of it with no
    intervening access to the cache). Equivalent to [access] on such a
    line — counts the hit, recency already correct. Used by the memory
    system's last-line fast path. *)
val count_mru_hits : t -> int -> unit

(** [promote t ~line] records a hit on [line] without probing. Caller
    contract: [line] sits at way 0 or way 1 of its set, which holds for
    the line accessed just before the most recent access when the cache
    has at least two ways (the most recent line took way 0 of its own
    set). Equivalent to [access] on such a line: the hit is counted, and
    ways 0 and 1 swap when [line] is at way 1. *)
val promote : t -> line:int -> unit

(** Invalidate everything (e.g. between experiment runs). *)
val flush : t -> unit

val hits : t -> int
val misses : t -> int
val reset_stats : t -> unit
