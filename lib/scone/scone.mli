(** SCONE model: the shielded-execution substrate the paper builds on
    (§2.1, [Arnautov et al., OSDI'16]).

    SCONE confines the application's address space to enclave memory and
    mediates every interaction with the outside world through a narrow
    system-call interface:

    - system calls do not exit the enclave synchronously; arguments and
      results are *copied* between enclave memory and lock-free queues
      serviced by outside syscall threads (asynchronous system calls).
      The copies and the queue round-trip are the costs modelled here —
      they are the reason the paper's Nginx pays for its 200 KiB page
      twice and why SGX Apache can even beat native (no ring switches on
      the critical path);
    - *shields* transparently protect data crossing the enclave
      boundary: file shields encrypt/authenticate file contents, network
      shields wrap sockets in TLS. Shielded channels pay an extra
      per-byte cost inside the enclave;
    - the libc is SCONE's own, statically linked — which is what lets
      SGXBounds wrap it completely (§3.2).

    Outside the enclave ([Outside_enclave] machines), syscalls cost a
    plain kernel transition and shields are off: the same application
    model runs in both environments, like a SCONE binary vs a native
    one. *)

type t

(** A descriptor for a simulated byte-stream endpoint (file or socket);
    plain small integers, like POSIX fds. *)
type fd = int

type shield = No_shield | Encrypted  (** file/network shield on the channel *)

val create : Sb_protection.Scheme.t -> t

(** The scheme this world was built on. *)
val scheme : t -> Sb_protection.Scheme.t

(** {2 Endpoints} *)

(** [open_channel t ~shield] creates an endpoint (socket accept / file
    open). Reads consume bytes previously written by [feed]. *)
val open_channel : t -> shield:shield -> fd

(** Push outside-world bytes into the endpoint's receive queue (what the
    untrusted OS would deliver). The queue is a string and a read
    cursor: feeding a drained endpoint keeps [bytes] itself (no copy),
    and only a feed onto unread bytes joins the two. *)
val feed : t -> fd -> string -> unit

(** Bytes the application has sent on this endpoint, as seen by the
    outside world (after shield decryption — i.e. the plaintext the peer
    would read). *)
val sent : t -> fd -> string

(** Clear the sent-bytes log, keeping its capacity: a connection that
    clears after every response stops allocating for its writes. *)
val clear_sent : t -> fd -> unit

(** {2 System calls}

    Each call charges: syscall-queue round trip, the argument copy from
    application buffer to the (enclave) syscall buffer, the shield
    transform when the channel is encrypted, and the outside copy. *)

(** [read t fd ~buf ~len] reads up to [len] bytes into the
    application buffer [buf] (bounds-checked through the scheme's libc
    wrapper, like SCONE libc does before copying). Returns bytes read.
    The bytes are copied from the receive queue into simulated memory
    in place and consumed by advancing the read cursor; a short read
    leaves the rest for the next one, and a read that raises consumes
    nothing. *)
val read : t -> fd -> buf:Sb_protection.Types.ptr -> len:int -> int

(** [write t fd ~buf ~len] sends [len] bytes from [buf], appending them
    to the sent-bytes log straight from simulated memory. Returns [len].
    @raise Sb_protection.Types.Violation if the buffer is smaller than
    [len] under a checking scheme (the wrapper check). *)
val write : t -> fd -> buf:Sb_protection.Types.ptr -> len:int -> int

(** Number of syscalls issued so far (both directions). *)
val syscalls : t -> int

(** {2 Enclave lifecycle costs}

    Charged (in cycles) when a fleet instance is torn down and relaunched
    mid-run: EPC page removal plus rebuild of the replacement enclave,
    and the remote-attestation round trip before clients trust it again.
    Deliberately orders of magnitude above any single request — failover
    is expensive, which is what the fleet experiments measure. *)

val enclave_teardown : int
val enclave_attest : int
