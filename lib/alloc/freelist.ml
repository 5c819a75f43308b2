module Memsys = Sb_sgx.Memsys
module Util = Sb_machine.Util

let header_size = 16
let min_segment = 64 * 1024

(* Size classes: multiples of 16 up to 512 bytes, then 256-byte
   granularity, then page granularity for large chunks (as dlmalloc's
   mmap path does). Exact-fit reuse within a class keeps footprints
   tight under churn, and large allocations waste at most one page — so
   a 4-byte footer never doubles an allocation. *)
let class_size size =
  if size <= 512 then Util.align_up (max size 16) 16
  else if size <= 65536 then Util.align_up size 256
  else Util.align_up size 4096

(* A chunk is one int: payload address in the high bits, class / 16
   below it, and the live bit at the bottom. Payloads are below
   2^Vmem.addr_bits, so the entries sort by payload. *)
let pay_shift = Sb_vmem.Vmem.addr_bits
let live_bit = 1
let entry payload cls = (payload lsl pay_shift) lor ((cls lsr 4) lsl 1)
let payload_of e = e lsr pay_shift
let cls_of e = ((e lsr 1) land ((1 lsl (pay_shift - 1)) - 1)) lsl 4

(* The chunk table is cut into blocks of 256 ints, the largest array
   the runtime still allocates in the minor heap: growing it never
   copies, and costs one word per chunk. *)
let block_bits = 8
let block_mask = (1 lsl block_bits) - 1

(* Free-list slots: one per class up to 64 KiB (32 of 16 bytes, then
   254 of 256 bytes), then one per page-granular class in first-free
   order, found through [big]. *)
let small_slots = 286
let small_slot cls = if cls <= 512 then (cls lsr 4) - 1 else 31 + ((cls - 512) lsr 8)

module Int_tbl = Hashtbl.Make (struct
    type t = int

    let equal (a : int) b = a = b
    let hash (c : int) = c lsr 12
  end)

type t = {
  ms : Memsys.t;
  mutable blocks : int array array;  (* every chunk ever carved, ascending payload *)
  mutable n : int;
  mutable carve_at : int;      (* index the next carved chunk takes *)
  mutable memo_addr : int;     (* last payload found, and its index *)
  mutable memo_idx : int;
  (* slot -> stack of free chunk indices: [st.(0)] entries in
     [st.(1) ..], the newest last. Empty until the first free. *)
  mutable stacks : int array array;
  mutable slots : int;
  big : int Int_tbl.t;         (* page-granular class -> slot *)
  mutable seg_cur : int;       (* bump pointer in current segment *)
  mutable seg_end : int;
  mutable live_bytes : int;
  mutable live_chunks : int;
  mutable total_allocated : int;
}

let create ms =
  {
    ms;
    blocks = [||];
    n = 0;
    carve_at = 0;
    memo_addr = -1;
    memo_idx = -1;
    stacks = [||];
    slots = small_slots;
    big = Int_tbl.create 8;
    seg_cur = 0;
    seg_end = 0;
    live_bytes = 0;
    live_chunks = 0;
    total_allocated = 0;
  }

let get t i = t.blocks.(i lsr block_bits).(i land block_mask)
let set t i e = t.blocks.(i lsr block_bits).(i land block_mask) <- e

(* The free-list slot of [cls], or -1 for a page-granular class that
   was never freed. *)
let slot t cls =
  if cls <= 65536 then small_slot cls
  else match Int_tbl.find t.big cls with s -> s | exception Not_found -> -1

let new_slot t cls =
  let s = t.slots in
  t.slots <- s + 1;
  Int_tbl.add t.big cls s;
  s

let depth st = if Array.length st = 0 then 0 else st.(0)

(* Pop the newest free chunk of slot [s]: its index, or -1. *)
let pop t s =
  if s < 0 || s >= Array.length t.stacks then -1
  else
    let st = t.stacks.(s) in
    let k = depth st in
    if k = 0 then -1
    else begin
      st.(0) <- k - 1;
      st.(k)
    end

let push t s i =
  if s >= Array.length t.stacks then begin
    let stacks = Array.make (max small_slots (2 * s)) [||] in
    Array.blit t.stacks 0 stacks 0 (Array.length t.stacks);
    t.stacks <- stacks
  end;
  let st = t.stacks.(s) in
  let k = depth st in
  let st =
    if k + 1 < Array.length st then st
    else begin
      let st' = Array.make (max 8 (2 * (k + 1))) 0 in
      Array.blit st 0 st' 0 (Array.length st);
      t.stacks.(s) <- st';
      st'
    end
  in
  st.(k + 1) <- i;
  st.(0) <- k + 1

(* Index of the chunk with payload [addr] in [lo, hi), or -1. *)
let rec search t (addr : int) lo hi =
  if lo >= hi then -1
  else
    let mid = (lo + hi) lsr 1 in
    let p = payload_of (get t mid) in
    if p = addr then mid else if p < addr then search t addr (mid + 1) hi else search t addr lo mid

(* First index in [lo, hi) whose payload is at or above [addr]. *)
let rec lower_bound t (addr : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if payload_of (get t mid) < addr then lower_bound t addr (mid + 1) hi
    else lower_bound t addr lo mid

let find t addr =
  if addr = t.memo_addr then t.memo_idx
  else begin
    let i = search t addr 0 t.n in
    if i >= 0 then begin
      t.memo_addr <- addr;
      t.memo_idx <- i
    end;
    i
  end

(* Put a carved chunk at [carve_at]: an append while segments come in
   address order. A segment below an earlier one inserts in the middle,
   which shifts the chunks above it, so the free-list indices at or
   above the gap move up with them. *)
let insert t e =
  let i = t.carve_at and n = t.n in
  let b = n lsr block_bits in
  if b = Array.length t.blocks then begin
    let blocks = Array.make (max 4 (2 * b)) [||] in
    Array.blit t.blocks 0 blocks 0 b;
    t.blocks <- blocks
  end;
  if n land block_mask = 0 then t.blocks.(b) <- Array.make (1 lsl block_bits) 0;
  if i < n then begin
    for j = n - 1 downto i do
      set t (j + 1) (get t j)
    done;
    for s = 0 to Array.length t.stacks - 1 do
      let st = t.stacks.(s) in
      for j = 1 to depth st do
        if st.(j) >= i then st.(j) <- st.(j) + 1
      done
    done;
    t.memo_addr <- -1;
    t.memo_idx <- -1
  end;
  set t i e;
  t.n <- n + 1;
  t.carve_at <- i + 1

let grow t need =
  let len = max min_segment (Util.align_up (need + header_size) Sb_vmem.Vmem.page_size) in
  let addr = Sb_vmem.Vmem.map (Memsys.vmem t.ms) ~len ~perm:Sb_vmem.Vmem.Read_write () in
  (* A fresh segment may not be contiguous with the previous one; the
     leftover tail of the old segment is abandoned (real mallocs keep it
     on a free list; the waste is bounded by one class size). *)
  t.seg_cur <- addr;
  t.seg_end <- addr + len;
  t.carve_at <- lower_bound t addr 0 t.n

let alloc t size =
  if size <= 0 then invalid_arg "Freelist.alloc: size <= 0";
  let cls = class_size size in
  Memsys.charge_alu t.ms 40;
  let i = pop t (slot t cls) in
  let payload =
    if i >= 0 then begin
      let e = get t i in
      set t i (e lor live_bit);
      payload_of e
    end
    else begin
      let need = header_size + cls in
      if t.seg_cur + need > t.seg_end then grow t need;
      let hdr = t.seg_cur in
      t.seg_cur <- t.seg_cur + need;
      let payload = hdr + header_size in
      insert t (entry payload cls lor live_bit);
      payload
    end
  in
  (* Write the chunk header (size word) for cache realism. *)
  Memsys.store t.ms ~addr:(payload - header_size) ~width:8 cls;
  t.live_bytes <- t.live_bytes + cls;
  t.live_chunks <- t.live_chunks + 1;
  t.total_allocated <- t.total_allocated + cls;
  payload

let live_index t addr =
  let i = find t addr in
  if i >= 0 && get t i land live_bit <> 0 then i else -1

let chunk_size t addr =
  let i = live_index t addr in
  if i < 0 then invalid_arg "Freelist.chunk_size: not a live chunk";
  cls_of (get t i)

let free t addr =
  let i = live_index t addr in
  if i < 0 then invalid_arg "Freelist.free: not a live chunk";
  let e = get t i in
  let size = cls_of e in
  Memsys.charge_alu t.ms 25;
  Memsys.touch t.ms ~addr:(addr - header_size) ~width:8;
  set t i (e land lnot live_bit);
  t.live_bytes <- t.live_bytes - size;
  t.live_chunks <- t.live_chunks - 1;
  let s = slot t size in
  push t (if s >= 0 then s else new_slot t size) i

let is_live t addr = live_index t addr >= 0
let live_bytes t = t.live_bytes
let live_chunks t = t.live_chunks
let total_allocated t = t.total_allocated
