(** Three-level cache hierarchy (L1 / L2 / shared LLC) with cycle costs.

    Matches the paper's testbed: private 32 KiB L1 and 256 KiB L2 per
    core, one shared 8 MiB L3 — scaled per {!Sb_machine.Config}. *)

type t

(** Where an access was served. [Dram] means it missed every level; the
    caller (the SGX memory system) decides whether that costs plain DRAM
    or MEE-encrypted DRAM plus possible EPC paging. *)
type served = L1 | L2 | Llc | Dram

val create : Sb_machine.Config.t -> t

(** [access t ~addr] walks the hierarchy for the line containing [addr]
    and returns where it was served; inserts the line into every level it
    missed. It is [Cache.access (l1 t)] on the line number, then
    [below_l1] on a miss. *)
val access : t -> addr:int -> served

(** The L1 cache, for a caller that probes it directly and keeps its
    own memo of L1 contents (the memory system's line memos). *)
val l1 : t -> Cache.t

(** [below_l1 t ~line] finishes an access to line number [line] (address
    divided by line size) that missed L1: probes L2, then the LLC, and
    returns where it was served — never [L1]. *)
val below_l1 : t -> line:int -> served

(** Cycles charged for a hit at the given level ([Dram] returns 0 — the
    memory system adds the DRAM/EPC cost itself). *)
val hit_cost : t -> served -> int

(** [hit_cost t L1] without constructing a [served]. *)
val l1_hit_cost : t -> int

val llc_misses : t -> int

(** Per-level hit/miss counters since the last [reset_stats]. A miss at
    one level is retried (and counted again) at the next, so e.g. LLC
    accesses = L2 misses. *)
type level_stats = { hits : int; misses : int }

(** [("L1", _); ("L2", _); ("LLC", _)], innermost first. *)
val stats : t -> (string * level_stats) list

val flush : t -> unit
val reset_stats : t -> unit
