(** Common types of the protection-scheme interface. *)

(** A simulated application pointer: one immediate word, so pointer
    arithmetic and pointer loads allocate nothing. See {!Ptr} for the
    encoding.

    A pointer is the scheme's machine word — the plain address for the
    native baseline, AddressSanitizer, Baggy Bounds and Intel MPX, and
    for SGXBounds the tagged word of the paper's Figure 5 (upper bound
    in the high half, address in the low half) — unless it carries
    bounds in *registers* next to it: Intel MPX's BNDx contents, or
    SGXBounds' narrowed field bounds. Those live in the scheme's
    register-bounds table ({!Scheme.t.bounds}), and they deliberately do
    NOT survive a trip through memory: [store_ptr] writes {!Ptr.word},
    and loading it back goes through bndldx under MPX, which is where
    MPX's multithreading troubles live. *)
type ptr = Ptr.t

type access = Read | Write

(** A detected memory-safety violation (the hardened program would print
    a diagnostic and abort). *)
type violation = {
  scheme : string;
  addr : int;          (** untagged offending address *)
  access : access;
  width : int;
  lo : int;            (** referent lower bound if known, else 0 *)
  hi : int;            (** referent upper bound if known, else 0 *)
  reason : string;
}

exception Violation of violation

(** The application died for a reason other than a detected violation —
    e.g. Intel MPX exhausting enclave memory with bounds tables, or a
    native segfault surfacing from the MMU. *)
exception App_crash of string

(** Per-scheme counters surfaced into experiment results. *)
type extras = {
  mutable bts_allocated : int;        (** MPX bounds tables created *)
  mutable quarantine_bytes : int;     (** ASan quarantine footprint *)
  mutable redzone_bytes : int;        (** ASan redzone footprint *)
  mutable boundless_reads : int;      (** SGXBounds overlay reads *)
  mutable boundless_writes : int;     (** SGXBounds overlay writes *)
  mutable violations : int;           (** violations observed (boundless mode) *)
  mutable checks_elided : int;        (** checks removed by optimizations *)
  mutable checks_done : int;          (** bounds checks executed *)
  mutable checks_hoisted : int;       (** range checks hoisted out of loops (§4.4) *)
}

let fresh_extras () = {
  bts_allocated = 0;
  quarantine_bytes = 0;
  redzone_bytes = 0;
  boundless_reads = 0;
  boundless_writes = 0;
  violations = 0;
  checks_elided = 0;
  checks_done = 0;
  checks_hoisted = 0;
}

let pp_access ppf = function
  | Read -> Fmt.string ppf "read"
  | Write -> Fmt.string ppf "write"

let pp_violation ppf v =
  Fmt.pf ppf "%s: out-of-bounds %a of %d byte(s) at 0x%x (object [0x%x,0x%x)): %s"
    v.scheme pp_access v.access v.width v.addr v.lo v.hi v.reason
