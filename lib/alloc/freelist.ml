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

type t = {
  ms : Memsys.t;
  live : (int, int) Hashtbl.t;          (* payload addr -> class size *)
  freelists : (int, int list ref) Hashtbl.t;  (* class size -> payload addrs *)
  mutable seg_cur : int;                (* bump pointer in current segment *)
  mutable seg_end : int;
  mutable live_bytes : int;
  mutable total_allocated : int;
}

let create ms =
  {
    ms;
    live = Hashtbl.create 4096;
    freelists = Hashtbl.create 64;
    seg_cur = 0;
    seg_end = 0;
    live_bytes = 0;
    total_allocated = 0;
  }

let freelist t cls =
  match Hashtbl.find t.freelists cls with
  | l -> l
  | exception Not_found ->
    let l = ref [] in
    Hashtbl.replace t.freelists cls l;
    l

let grow t need =
  let len = max min_segment (Util.align_up (need + header_size) Sb_vmem.Vmem.page_size) in
  let addr = Sb_vmem.Vmem.map (Memsys.vmem t.ms) ~len ~perm:Sb_vmem.Vmem.Read_write () in
  (* A fresh segment may not be contiguous with the previous one; the
     leftover tail of the old segment is abandoned (real mallocs keep it
     on a free list; the waste is bounded by one class size). *)
  t.seg_cur <- addr;
  t.seg_end <- addr + len

let alloc t size =
  if size <= 0 then invalid_arg "Freelist.alloc: size <= 0";
  let cls = class_size size in
  Memsys.charge_alu t.ms 40;
  let payload =
    let fl = freelist t cls in
    match !fl with
    | addr :: rest ->
      fl := rest;
      addr
    | [] ->
      let need = header_size + cls in
      if t.seg_cur + need > t.seg_end then grow t need;
      let hdr = t.seg_cur in
      t.seg_cur <- t.seg_cur + need;
      hdr + header_size
  in
  (* Write the chunk header (size word) for cache realism. *)
  Memsys.store t.ms ~addr:(payload - header_size) ~width:8 cls;
  Hashtbl.replace t.live payload cls;
  t.live_bytes <- t.live_bytes + cls;
  t.total_allocated <- t.total_allocated + cls;
  payload

let chunk_size t addr =
  match Hashtbl.find t.live addr with
  | size -> size
  | exception Not_found -> invalid_arg "Freelist.chunk_size: not a live chunk"

let free t addr =
  match Hashtbl.find t.live addr with
  | exception Not_found -> invalid_arg "Freelist.free: not a live chunk"
  | size ->
    Memsys.charge_alu t.ms 25;
    Memsys.touch t.ms ~addr:(addr - header_size) ~width:8;
    Hashtbl.remove t.live addr;
    t.live_bytes <- t.live_bytes - size;
    let fl = freelist t size in
    fl := addr :: !fl

let is_live t addr = Hashtbl.mem t.live addr
let live_bytes t = t.live_bytes
let live_chunks t = Hashtbl.length t.live
let total_allocated t = t.total_allocated
