(** The enclave heap: a size-class free-list allocator.

    Stands in for the dlmalloc inside SCONE's libc. Properties the
    evaluation depends on:
    - bump placement inside segments → adjacent allocations are adjacent
      in memory (heap-overflow attacks corrupt the next object);
    - 16-byte chunk headers written to simulated memory → allocator
      traffic is visible to the cache/EPC model;
    - prompt reuse through exact-fit free lists → the native baseline
      keeps a small footprint even under churn (the paper's swaptions),
      so AddressSanitizer's quarantine blow-up shows against it.

    Payload addresses are 16-byte aligned.

    Host layout: every chunk ever carved is one int (payload, class,
    live bit) in a table sorted by payload, cut into blocks of 256 ints.
    Chunks are never destroyed, so the table never deletes: bump carving
    appends while segments come in address order, and a segment mapped
    below an earlier one inserts its chunks in the middle. [free],
    [is_live] and [chunk_size] bisect the table behind a one-entry memo.
    Each class keeps its free chunks' indices on an int stack, so reuse
    is last freed, first reused (LIFO per class).

    What allocates: carving a chunk costs one word of table (plus a
    256-int block every 256 chunks); the first free of a class, and a
    class stack deeper than ever before, grow that stack. Reusing a
    chunk and freeing one into a stack with room allocate nothing. *)

type t

val create : Sb_sgx.Memsys.t -> t

(** [alloc t size] returns the payload address of a fresh chunk of at
    least [size] bytes. Charges allocator cycles and header traffic.
    @raise Sb_vmem.Vmem.Enclave_oom when the heap cannot grow. *)
val alloc : t -> int -> int

(** Size class actually reserved for the payload at [addr] (>= requested). *)
val chunk_size : t -> int -> int

(** Return a chunk to its size-class free list.
    @raise Invalid_argument on a pointer not live in this heap (double
    free or wild free). *)
val free : t -> int -> unit

(** [is_live t addr] — is [addr] the payload address of an allocated
    chunk? *)
val is_live : t -> int -> bool

(** Live payload bytes currently allocated. *)
val live_bytes : t -> int

(** Number of live chunks. *)
val live_chunks : t -> int

(** Total bytes ever allocated (cumulative). *)
val total_allocated : t -> int
