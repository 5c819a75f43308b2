(** Deterministic cooperative multithreading.

    Replaces the pthreads of the paper's 1/4/8-thread experiments. Each
    simulated thread runs as an OCaml effect fiber; the memory system
    performs a yield every few accesses, and the scheduler always resumes
    the runnable thread with the *smallest cycle clock* — so threads
    advance together in simulated time, shared caches and the EPC see a
    realistically interleaved access stream, and the elapsed time of the
    region is the max over thread clocks, like a real parallel section.

    The fine-grained interleaving is also what exposes Intel MPX's
    non-atomic pointer/bounds updates (§4.1): a data store and its bndstx
    can be separated by another thread's accesses.

    Cost: each thread runs under one deep effect handler, built with the
    thread's other per-region state when [run] starts. A yield captures
    one continuation (the runtime allocates it, about 2 words), and the
    scheduler stores it in a per-thread array, scans the thread clocks
    and resumes the next thread without allocating anything else. On a
    2-vCPU x86-64 host a yield between 8 threads costs 115–140 ns, most
    of it the runtime's two stack switches. *)

type t = Sb_sgx.Memsys.t

(** [run ms fns] executes all thunks as parallel threads (thread ids
    [0..n-1]); returns when all finished. Thread 0's clock afterwards
    holds the elapsed time of the region. Exceptions from any thread
    propagate (after deactivating the scheduler). Must not be nested. *)
val run : t -> (unit -> unit) array -> unit

(** [parallel_for ms ~threads ~lo ~hi f] — run [f i] for [i] in
    [lo, hi), statically partitioned over [threads] threads. *)
val parallel_for : t -> threads:int -> lo:int -> hi:int -> (int -> unit) -> unit

(** Explicit yield point (for race demonstrations and servers). No-op
    outside [run]. *)
val yield : unit -> unit

(** Install (or clear) a domain-local observer called with the thread
    count at the start of every parallel region on this domain. Used by
    the instrumentation auditor ({!Sb_analysis}) to fork its
    happens-before vector clocks; one observer per domain. *)
val set_region_tracer : (int -> unit) option -> unit
