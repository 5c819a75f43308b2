(** Enclave Page Cache model.

    The EPC is a fixed-size set of physical pages protected by the memory
    encryption engine. When the enclave touches a page that is not
    resident, the OS paging path evicts a victim (re-encrypting it) and
    loads + decrypts the requested page — the paper's §2.1 puts this at
    2x for sequential and up to 2000x for random access patterns; we
    charge a flat [epc_fault] cycle cost which lands in that band once
    cache effects are added on top.

    Eviction is CLOCK (second chance), a good stand-in for the Linux SGX
    driver's LRU-approximating behaviour. *)

type t

(** Paging events, for the telemetry event ring. An eviction always
    implies the re-encryption of the victim page (SGX pages leave the
    EPC encrypted); the fault that triggered it follows immediately. *)
type event =
  | Fault of { page : int }              (** page loaded + decrypted into the EPC *)
  | Evict of { page : int; slot : int }  (** victim re-encrypted and written back *)

(** [create ?num_pages ~capacity_pages ()] builds an EPC with
    [capacity_pages] slots. [num_pages] is the size of the simulated
    address space in pages. When it is given and the fast engine is
    active, pages in [[0, num_pages)] are indexed only by a
    direct-mapped page table of that size: a hit is two array reads,
    and a fault or eviction allocates nothing (once the table leaf it
    lands in exists) unless a tracer is installed. A hashtable serves
    the other pages (garbage addresses reach the EPC before the virtual
    memory faults them) and, with no table at all, the naive engine;
    that hashtable-only EPC is the reference the table is tested
    against, with the same faults, evictions and victims. *)
val create : ?num_pages:int -> capacity_pages:int -> unit -> t

(** Install (or remove, with [None]) an event callback. The memory
    system wires this to its telemetry hub only when tracing is on, so
    the paging fast path stays callback-free by default. *)
val set_tracer : t -> (event -> unit) option -> unit

(** [touch t ~page] notes an access to virtual page number [page].
    Returns [true] if it was resident (no fault). On a fault the page
    becomes resident, evicting a victim if the EPC is full. *)
val touch : t -> page:int -> bool

val faults : t -> int
val evictions : t -> int
val resident_pages : t -> int
val capacity_pages : t -> int
val reset_stats : t -> unit

(** Drop all residency state (between experiments). *)
val clear : t -> unit
