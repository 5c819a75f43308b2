(** Memcached model (§7, Figure 13a): slab-allocated items, a chained
    hash table and an LRU list — all pointers in simulated memory, which
    is why Intel MPX's bounds tables blow its working set past the EPC
    ("abysmal drop in throughput", 100x more page faults).

    Item layout:
      0  : hash-chain next pointer (8)
      8  : LRU prev (8)
      16 : LRU next (8)
      24 : key (8)
      32 : expiry deadline in simulated cycles, 0 = never (8)
      40 : value bytes

    The memaslap-like driver issues a 9:1 get:set mix over a skewed key
    popularity distribution.

    [handle_binary_packet] reproduces CVE-2011-4971: a negative body
    length in the binary protocol header becomes a huge unsigned copy
    length. *)

module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Rng = Sb_machine.Rng
module Libc = Sb_libc.Simlibc
open Sb_protection.Types
open Sb_workloads.Wctx

let item_header = 40
let expiry_off = 32
let slab_bytes = 64 * 1024

type t = {
  ctx : Sb_workloads.Wctx.t;
  nbuckets : int;
  buckets : ptr;
  value_bytes : int;
  max_items : int;             (* the -m memory cap, in items *)
  (* slab free lists per run: one item size class for simplicity *)
  mutable slab_free : ptr list;
  mutable items : int;
  (* intrusive LRU list: most-recently-used at the head *)
  mutable lru_head : ptr;
  mutable lru_tail : ptr;
  mutable evictions : int;
  mutable found : ptr;         (* the item [chain_find] last found *)
  (* the SCONE world: requests arrive and responses leave through the
     shielded syscall interface *)
  world : Sb_scone.Scone.t;
  conn : Sb_scone.Scone.fd;
  conn_buf : ptr;
}

let request_bytes = 32

(* every request's wire bytes: the model never looks inside them *)
let request = String.make request_bytes 'r'

let null = Sb_protection.Ptr.of_word 0

let create ?(nbuckets = 8192) ?(value_bytes = 96) ?(max_items = max_int) ctx =
  let world = Sb_scone.Scone.create ctx.s in
  {
    ctx;
    nbuckets;
    buckets = ctx.s.Scheme.calloc nbuckets 8;
    value_bytes;
    max_items;
    slab_free = [];
    items = 0;
    lru_head = null;
    lru_tail = null;
    evictions = 0;
    found = null;
    world;
    conn = Sb_scone.Scone.open_channel world ~shield:Sb_scone.Scone.No_shield;
    conn_buf = ctx.s.Scheme.malloc 1024;
  }

let item_bytes t = item_header + t.value_bytes

(* Carve a fresh 64 KiB slab into items, like memcached's slabber. *)
let grow_slab t =
  let per_slab = slab_bytes / item_bytes t in
  let slab = t.ctx.s.Scheme.malloc (per_slab * item_bytes t) in
  for i = per_slab - 1 downto 0 do
    t.slab_free <- t.ctx.s.Scheme.offset slab (i * item_bytes t) :: t.slab_free
  done

let alloc_item t =
  (match t.slab_free with [] -> grow_slab t | _ :: _ -> ());
  match t.slab_free with
  | it :: rest ->
    t.slab_free <- rest;
    it
  | [] -> assert false

let hash t key =
  work t.ctx 10;
  (key * 2654435761) land (t.nbuckets - 1)

let bucket t key = t.ctx.s.Scheme.offset t.buckets (hash t key * 8)

(* --- intrusive LRU list over item fields [8]=prev, [16]=next --- *)

let lru_prev t it = t.ctx.s.Scheme.load_ptr (t.ctx.s.Scheme.offset it 8)
let lru_next t it = t.ctx.s.Scheme.load_ptr (t.ctx.s.Scheme.offset it 16)
let set_lru_prev t it p = t.ctx.s.Scheme.store_ptr (t.ctx.s.Scheme.offset it 8) p
let set_lru_next t it p = t.ctx.s.Scheme.store_ptr (t.ctx.s.Scheme.offset it 16) p

(* Pointer identity: the same machine word. *)
let same t p q = Scheme.word t.ctx.s p = Scheme.word t.ctx.s q

let lru_unlink t it =
  let p = lru_prev t it and n = lru_next t it in
  if not (is_null t.ctx p) then set_lru_next t p n;
  if not (is_null t.ctx n) then set_lru_prev t n p;
  if same t t.lru_head it then t.lru_head <- n;
  if same t t.lru_tail it then t.lru_tail <- p

let lru_push_head t it =
  set_lru_prev t it null;
  set_lru_next t it t.lru_head;
  if not (is_null t.ctx t.lru_head) then set_lru_prev t t.lru_head it;
  t.lru_head <- it;
  if is_null t.ctx t.lru_tail then t.lru_tail <- it

(* item_touch: move to the MRU position (memcached does this on get) *)
let lru_touch t it =
  if not (same t t.lru_head it) then begin
    lru_unlink t it;
    lru_push_head t it
  end

(* Walk a hash chain from [node] for [key]; on a hit the item is left
   in [t.found], so a lookup allocates no option. *)
let rec chain_find t node key =
  if is_null t.ctx node then false
  else begin
    work t.ctx 2;
    if t.ctx.s.Scheme.safe_load (t.ctx.s.Scheme.offset node 24) 8 = key then begin
      t.found <- node;
      true
    end
    else chain_find t (t.ctx.s.Scheme.load_ptr node) key
  end

(* Unlink [it] from its hash chain (used by eviction); the chain-next
   pointer is the item's first field. *)
let chain_unlink t key it =
  let b = bucket t key in
  let rec go link =
    let node = t.ctx.s.Scheme.load_ptr link in
    if is_null t.ctx node then ()
    else if same t node it then
      t.ctx.s.Scheme.store_ptr link (t.ctx.s.Scheme.load_ptr node)
    else go node
  in
  go b

(* Evict the least recently used item: unlink from LRU and hash chain,
   return it to the slab class (memcached's -m cap behaviour). *)
let evict_lru t =
  let victim = t.lru_tail in
  if not (is_null t.ctx victim) then begin
    let key = t.ctx.s.Scheme.safe_load (t.ctx.s.Scheme.offset victim 24) 8 in
    lru_unlink t victim;
    chain_unlink t key victim;
    t.slab_free <- victim :: t.slab_free;
    t.items <- t.items - 1;
    t.evictions <- t.evictions + 1;
    work t.ctx 40
  end

let now t = Memsys.get_clock t.ctx.ms (Memsys.current_thread t.ctx.ms)

(* Lazy expiration, as in the real memcached: an expired item is only
   reclaimed when a get trips over it. *)
let expired t it =
  let deadline = t.ctx.s.Scheme.safe_load (t.ctx.s.Scheme.offset it expiry_off) 8 in
  deadline <> 0 && now t >= deadline

let reclaim_expired t key it =
  lru_unlink t it;
  chain_unlink t key it;
  t.slab_free <- it :: t.slab_free;
  t.items <- t.items - 1;
  work t.ctx 40

(** GET: hash, chain walk, expiry check, LRU touch, then stream the
    value out (touching it the way the response path would). *)
let get t key =
  let b = bucket t key in
  if not (chain_find t (t.ctx.s.Scheme.load_ptr b) key) then false
  else
    (* read [found] before the next simulated access: one may yield to
       another thread's lookup *)
    let it = t.found in
    if expired t it then begin
      reclaim_expired t key it;
      false
    end
    else begin
      lru_touch t it;
      let v = t.ctx.s.Scheme.offset it item_header in
      t.ctx.s.Scheme.check_range v t.value_bytes Read;
      let i = ref 0 in
      while !i < t.value_bytes do
        ignore (t.ctx.s.Scheme.load_unchecked (t.ctx.s.Scheme.offset v !i) 8);
        i := !i + 8
      done;
      work t.ctx 20;
      true
    end

(** SET: insert or overwrite; fresh items also join the LRU list head
    (two more pointer stores, as in the real item_link). [ttl] is a
    relative lifetime in simulated cycles (0 = never expires, the
    default); sets always refresh the deadline. *)
let set_kv ?(ttl = 0) t key seed =
  let b = bucket t key in
  let it =
    if chain_find t (t.ctx.s.Scheme.load_ptr b) key then t.found
    else begin
      if t.items >= t.max_items then evict_lru t;
      let it = alloc_item t in
      t.ctx.s.Scheme.store (t.ctx.s.Scheme.offset it 24) 8 key;
      (* hash chain push *)
      t.ctx.s.Scheme.store_ptr it (t.ctx.s.Scheme.load_ptr b);
      t.ctx.s.Scheme.store_ptr b it;
      lru_push_head t it;
      t.items <- t.items + 1;
      it
    end
  in
  t.ctx.s.Scheme.safe_store
    (t.ctx.s.Scheme.offset it expiry_off) 8
    (if ttl > 0 then now t + ttl else 0);
  let v = t.ctx.s.Scheme.offset it item_header in
  t.ctx.s.Scheme.check_range v t.value_bytes Write;
  let i = ref 0 in
  while !i < t.value_bytes do
    t.ctx.s.Scheme.store_unchecked (t.ctx.s.Scheme.offset v !i) 8 (seed + !i);
    i := !i + 8
  done;
  work t.ctx 25

(** memaslap-like driver: preload [keys] items, then [ops] operations
    (90% get, 10% set) over a skewed distribution, spread across the
    context's threads. Returns (elapsed cycles, ops completed). *)
let memaslap t ~keys ~ops =
  for k = 0 to keys - 1 do
    set_kv t k k
  done;
  let start = Memsys.get_clock t.ctx.ms 0 in
  parallel t.ctx ops (fun _tid lo hi ->
      for _op = lo to hi - 1 do
        (* the request arrives through the syscall interface... *)
        Sb_scone.Scone.feed t.world t.conn request;
        ignore (Sb_scone.Scone.read t.world t.conn ~buf:t.conn_buf ~len:request_bytes);
        (* memaslap draws keys ~uniformly over the whole set *)
        let key = Rng.int t.ctx.rng (max 1 (keys * 10 / 8)) in
        (if Rng.bernoulli t.ctx.rng 0.9 then ignore (get t key) else set_kv t key key);
        (* ...and the response leaves the same way *)
        ignore (Sb_scone.Scone.write t.world t.conn ~buf:t.conn_buf ~len:t.value_bytes)
      done);
  let elapsed = Memsys.get_clock t.ctx.ms 0 - start in
  (elapsed, ops)

let item_count t = t.items
let eviction_count t = t.evictions

(** Open a dedicated client connection for a service worker. *)
let open_conn ?(shield = Sb_scone.Scone.No_shield) t =
  Sb_scone.Scone.open_channel t.world ~shield

(** Serve one memaslap-style operation on a worker's own connection:
    request in through the syscall interface, one get or set, response
    out. [buf] must hold at least [request_bytes] and the value size. *)
let serve_request t ~conn ~buf ~key ~is_get =
  Sb_scone.Scone.feed t.world conn request;
  ignore (Sb_scone.Scone.read t.world conn ~buf ~len:request_bytes);
  (if is_get then ignore (get t key) else set_kv t key key);
  ignore (Sb_scone.Scone.write t.world conn ~buf ~len:t.value_bytes)

(** CVE-2011-4971: binary-protocol packet with a negative (sign-extended)
    body length. The unsigned copy length becomes enormous and the copy
    runs off the 1 KiB connection buffer. Returns what happened. *)
type packet_outcome =
  | Processed          (** benign packet handled *)
  | Corrupted          (** native: the copy trampled adjacent memory *)
  | Detected_dropped   (** a wrapper/check flagged it; request dropped *)
  | Crashed_segfault   (** the runaway copy hit an unmapped page *)
  | Survived_looping
      (** boundless memory: the overflowed content was discarded (reads
          and writes went to the overlay), but the program's subsequent
          logic spins on the bogus length — the paper's §7 observation
          ("went into an infinite loop due to a subsequent bug"). The
          simulation bounds the spin at the socket-read limit. *)

let handle_binary_packet t ~body_len =
  Sb_scone.Scone.feed t.world t.conn (String.make 24 'h');
  ignore (Sb_scone.Scone.read t.world t.conn ~buf:t.conn_buf ~len:24);
  let conn_buf = t.ctx.s.Scheme.malloc 1024 in
  let scratch = t.ctx.s.Scheme.malloc 1024 in
  let victim = t.ctx.s.Scheme.malloc 64 in
  t.ctx.s.Scheme.store victim 8 0x5AFE;
  (* the bug: body_len arrives as a signed 32-bit field and is used as an
     unsigned length by the inlined copy loop *)
  let len = if body_len < 0 then body_len land 0xFFFFFFFF else body_len in
  (* each socket read delivers at most this much before the loop re-polls *)
  let recv_bound = 256 * 1024 in
  let violations_before = t.ctx.s.Scheme.extras.violations in
  let outcome =
    match
      let i = ref 0 in
      while !i < min len recv_bound do
        let v = t.ctx.s.Scheme.load (t.ctx.s.Scheme.offset conn_buf !i) 8 in
        t.ctx.s.Scheme.store (t.ctx.s.Scheme.offset scratch !i) 8 v;
        i := !i + 8
      done
    with
    | () ->
      if t.ctx.s.Scheme.load victim 8 <> 0x5AFE then Corrupted
      else if t.ctx.s.Scheme.extras.violations > violations_before then
        Survived_looping (* boundless: redirected, nothing corrupted *)
      else if len > 1024 then Corrupted
      else Processed
    | exception Violation _ -> Detected_dropped
    | exception Sb_vmem.Vmem.Fault _ ->
      (* the runaway copy ran off the mapped heap segment *)
      let corrupted =
        Sb_vmem.Vmem.load (Memsys.vmem t.ctx.ms)
          ~addr:(t.ctx.s.Scheme.addr_of victim) ~width:8 <> 0x5AFE
      in
      if corrupted then Corrupted else Crashed_segfault
  in
  outcome
