(* The simulated enclave address space: a sparse two-level page table of
   4 KiB pages with per-page permissions. Every access walks the table
   (see Translation below); nothing is memoized, so [unmap] and
   [protect] have no translation state to invalidate. The engines differ
   only in the codecs: the fast engine composes wide values from unboxed
   16-bit reads and copies strings a page at a time. *)

let addr_bits = 31
let addr_mask = (1 lsl addr_bits) - 1
let page_size = 4096
let page_shift = 12
let num_pages = 1 lsl (addr_bits - page_shift)

type perm = Read_only | Read_write | Guard

type fault_kind = Unmapped | Guard_hit | Write_to_ro

exception Fault of { addr : int; kind : fault_kind }
exception Enclave_oom of { requested : int; reserved : int; limit : int }

(* A mapped page's [data] starts as the shared [zero] buffer and gets
   its own bytes on its first write ([own_data]): a mapped page costs
   host memory only once it is written. [zero] is never written — every
   write path goes through [get_page_wr], which calls [own_data] before
   handing the bytes out — so sharing it across all address spaces (and
   domains) is safe. *)
type page = { mutable data : Bytes.t; mutable perm : perm }

let zero = Bytes.make page_size '\000'

(* The shared sentinel stands for "unmapped" in the page table: every
   access path discriminates on [perm] first, so giving it [Guard]
   folds the unmapped test into the same branch that guard pages already
   pay — the common (mapped) case does no option match and no extra
   compare. Identified by physical equality; its perm is never mutated
   and its data never touched. *)
let sentinel = { data = zero; perm = Guard }

let own_data p = if p.data == zero then p.data <- Bytes.make page_size '\000'

(* Two-level page table: a directory of [leaf_size]-page leaves. Every
   directory slot starts on the shared [empty_leaf] (all [sentinel],
   never written), and [map] gives a slot its own leaf on first use, so
   an address space costs host memory in proportion to what it maps. *)
let leaf_bits = 10
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1
let empty_leaf = Array.make leaf_size sentinel

type t = {
  dir : page array array;
  limit : int;
  mutable reserved : int;
  mutable peak : int;
  (* Next-fit cursor for address-space placement of anonymous mappings.
     Page index, never reset below its start so address reuse after unmap
     only happens via explicit [addr]. We start at page 16 to keep a null
     guard zone, mirroring the paper's vm.mmap_min_addr = 0 setup where
     the enclave starts at 0 but page 0 is still never handed out. *)
  mutable cursor : int;
  (* Fast engine: unboxed codecs and page-chunked string copies. *)
  fast : bool;
  (* [blit]'s staging buffer, grown to the longest copy so far: a copy
     allocates only when it is longer than every earlier one. *)
  mutable stage : Bytes.t;
}

let create (cfg : Sb_machine.Config.t) =
  {
    dir = Array.make (num_pages lsr leaf_bits) empty_leaf;
    limit = cfg.enclave_mem_limit;
    reserved = 0;
    peak = 0;
    cursor = 16;
    fast = Sb_machine.Fastpath.is_enabled ();
    stage = Bytes.empty;
  }

let reserved_bytes t = t.reserved
let peak_reserved_bytes t = t.peak
let headroom t = t.limit - t.reserved

(* Page [idx]'s entry. Bounds-checked on the directory, so an index past
   the top of the address space raises [Invalid_argument]; the access
   paths range-check the address first and use [page_unsafe]. *)
let page t idx = t.dir.(idx lsr leaf_bits).(idx land leaf_mask)

let page_unsafe t idx =
  Array.unsafe_get (Array.unsafe_get t.dir (idx lsr leaf_bits)) (idx land leaf_mask)

let is_mapped t addr =
  addr >= 0 && addr <= addr_mask && page_unsafe t (addr lsr page_shift) != sentinel

let fault addr kind = raise (Fault { addr; kind })

let pages_of_len len = (len + page_size - 1) lsr page_shift

let range_free t page0 npages =
  let rec go i = i >= npages || (page t (page0 + i) == sentinel && go (i + 1)) in
  page0 + npages <= num_pages && go 0

let find_gap t npages =
  (* Next-fit from the cursor, wrapping once past the top. [tries]
     counts candidate start positions examined — one per step — so the
     scan provably visits every feasible start before giving up. (An
     earlier version advanced [tries] by [npages] per step, which
     overcounted and raised Enclave_oom while free gaps remained behind
     a long mapped run.) *)
  let rec scan start tries =
    if tries > num_pages then
      raise
        (Enclave_oom { requested = npages * page_size; reserved = t.reserved; limit = t.limit })
    else if start + npages > num_pages then scan 16 (tries + 1)
    else if range_free t start npages then start
    else scan (start + 1) (tries + 1)
  in
  scan t.cursor 0

let map t ?addr ~len ~perm () =
  if len <= 0 then invalid_arg "Vmem.map: len <= 0";
  let npages = pages_of_len len in
  let bytes = npages * page_size in
  if t.reserved + bytes > t.limit then
    raise (Enclave_oom { requested = bytes; reserved = t.reserved; limit = t.limit });
  let page0 =
    match addr with
    | None ->
      let p = find_gap t npages in
      t.cursor <- p + npages;
      p
    | Some a ->
      if a land (page_size - 1) <> 0 then invalid_arg "Vmem.map: addr not page-aligned";
      let p = a lsr page_shift in
      if not (range_free t p npages) then invalid_arg "Vmem.map: overlap";
      p
  in
  for i = page0 to page0 + npages - 1 do
    let d = i lsr leaf_bits in
    if t.dir.(d) == empty_leaf then t.dir.(d) <- Array.make leaf_size sentinel;
    t.dir.(d).(i land leaf_mask) <- { data = zero; perm }
  done;
  t.reserved <- t.reserved + bytes;
  if t.reserved > t.peak then t.peak <- t.reserved;
  page0 lsl page_shift

let unmap t ~addr ~len =
  let page0 = addr lsr page_shift and npages = pages_of_len len in
  for i = page0 to page0 + npages - 1 do
    if page t i != sentinel then begin
      t.dir.(i lsr leaf_bits).(i land leaf_mask) <- sentinel;
      t.reserved <- t.reserved - page_size
    end
  done

let protect t ~addr ~len ~perm =
  let page0 = addr lsr page_shift and npages = pages_of_len len in
  for i = page0 to page0 + npages - 1 do
    let p = page t i in
    if p == sentinel then fault (i lsl page_shift) Unmapped else p.perm <- perm
  done

(* Translation: one range-checked, permission-checked walk of the two
   table levels, the same on both engines. There is no page memo: a
   checked access alternates between a data page and a metadata page
   (an SGXBounds footer, an ASan shadow byte), so a one-page memo
   mostly missed, and every miss stored a pointer into the record (a
   [caml_modify]). [addr lsr addr_bits <> 0] is the range check: it is
   true for every negative [addr] and every [addr] above [addr_mask]. *)

let get_page_rd t addr =
  if addr lsr addr_bits <> 0 then fault addr Unmapped;
  let p = page_unsafe t (addr lsr page_shift) in
  match p.perm with
  | Guard -> if p == sentinel then fault addr Unmapped else fault addr Guard_hit
  | Read_only | Read_write -> p

let get_page_wr t addr =
  if addr lsr addr_bits <> 0 then fault addr Unmapped;
  let p = page_unsafe t (addr lsr page_shift) in
  match p.perm with
  | Read_write ->
    own_data p;
    p
  | Guard -> if p == sentinel then fault addr Unmapped else fault addr Guard_hit
  | Read_only -> fault addr Write_to_ro

let off addr = addr land (page_size - 1)

(* Unsafe 16-bit native-order accessors for the fast codec below: the
   enclosing [o + width <= page_size] test has already proven the span
   in-bounds of the page's [page_size] backing bytes, so the runtime
   bounds checks of [Bytes.get_uint16_le] are pure overhead. Byte order
   is normalized to little-endian like the checked accessors. *)
external get_16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set_16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let swap16 v = ((v land 0xff) lsl 8) lor (v lsr 8)
let[@inline always] get16le b o = if Sys.big_endian then swap16 (get_16u b o) else get_16u b o
let[@inline always] set16le b o v = set_16u b o (if Sys.big_endian then swap16 v else v)

(* Slow byte-at-a-time paths for accesses that straddle a page. *)
let load_bytes_slow t addr width =
  let v = ref 0 in
  for i = width - 1 downto 0 do
    let a = addr + i in
    let p = get_page_rd t a in
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get p.data (off a))
  done;
  !v

let store_bytes_slow t addr width v =
  for i = 0 to width - 1 do
    let a = addr + i in
    let p = get_page_wr t a in
    Bytes.unsafe_set p.data (off a) (Char.unsafe_chr ((v lsr (8 * i)) land 0xff))
  done

let load t ~addr ~width =
  let o = off addr in
  if o + width <= page_size then begin
    let p = get_page_rd t addr in
    if t.fast then
      (* Unboxed codec: compose wide loads from uint16 reads instead of
         the boxing Int32/Int64 primitives — value-identical (width 8
         keeps the low 62 bits, as Int64.to_int land max_int did). *)
      match width with
      | 1 -> Bytes.unsafe_get p.data o |> Char.code
      | 2 -> get16le p.data o
      | 4 -> get16le p.data o lor (get16le p.data (o + 2) lsl 16)
      | 8 ->
        (get16le p.data o
         lor (get16le p.data (o + 2) lsl 16)
         lor (get16le p.data (o + 4) lsl 32)
         lor (get16le p.data (o + 6) lsl 48))
        land max_int
      | _ -> invalid_arg "Vmem.load: width"
    else
      match width with
      | 1 -> Bytes.get_uint8 p.data o
      | 2 -> Bytes.get_uint16_le p.data o
      | 4 -> Int32.to_int (Bytes.get_int32_le p.data o) land 0xFFFFFFFF
      | 8 -> Int64.to_int (Bytes.get_int64_le p.data o) land max_int
      | _ -> invalid_arg "Vmem.load: width"
  end
  else load_bytes_slow t addr width

let store t ~addr ~width v =
  let o = off addr in
  if o + width <= page_size then begin
    let p = get_page_wr t addr in
    if t.fast then
      (* Unboxed codec; the top chunk of width 8 uses [asr] so the sign
         bit replicates into bit 63 exactly like Int64.of_int did. *)
      match width with
      | 1 -> Bytes.unsafe_set p.data o (Char.unsafe_chr (v land 0xff))
      | 2 -> set16le p.data o (v land 0xffff)
      | 4 ->
        set16le p.data o (v land 0xffff);
        set16le p.data (o + 2) ((v lsr 16) land 0xffff)
      | 8 ->
        set16le p.data o (v land 0xffff);
        set16le p.data (o + 2) ((v lsr 16) land 0xffff);
        set16le p.data (o + 4) ((v lsr 32) land 0xffff);
        set16le p.data (o + 6) ((v asr 48) land 0xffff)
      | _ -> invalid_arg "Vmem.store: width"
    else
      match width with
      | 1 -> Bytes.set_uint8 p.data o (v land 0xff)
      | 2 -> Bytes.set_uint16_le p.data o (v land 0xffff)
      | 4 -> Bytes.set_int32_le p.data o (Int32.of_int v)
      | 8 -> Bytes.set_int64_le p.data o (Int64.of_int v)
      | _ -> invalid_arg "Vmem.store: width"
  end
  else store_bytes_slow t addr width v

let blit t ~src ~dst ~len =
  if len > 0 then begin
    (* Read the whole source into the staging buffer, then write it out:
       overlap-safe like memmove, and a fault on the source leaves the
       destination untouched. *)
    if Bytes.length t.stage < len then
      t.stage <- Bytes.create (max len (2 * Bytes.length t.stage));
    let buf = t.stage in
    let i = ref 0 in
    while !i < len do
      let a = src + !i in
      let p = get_page_rd t a in
      let chunk = min (len - !i) (page_size - off a) in
      Bytes.blit p.data (off a) buf !i chunk;
      i := !i + chunk
    done;
    let i = ref 0 in
    while !i < len do
      let a = dst + !i in
      let p = get_page_wr t a in
      let chunk = min (len - !i) (page_size - off a) in
      Bytes.blit buf !i p.data (off a) chunk;
      i := !i + chunk
    done
  end

let write_substring t ~addr s ~off:pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Vmem.write_substring";
  if t.fast then begin
    (* Page-chunked: one translation + one blit per page instead of one
       per byte. *)
    let i = ref 0 in
    while !i < len do
      let a = addr + !i in
      let p = get_page_wr t a in
      let chunk = min (len - !i) (page_size - off a) in
      Bytes.blit_string s (pos + !i) p.data (off a) chunk;
      i := !i + chunk
    done
  end
  else
    for i = 0 to len - 1 do
      store t ~addr:(addr + i) ~width:1 (Char.code (String.unsafe_get s (pos + i)))
    done

let write_string t ~addr s = write_substring t ~addr s ~off:0 ~len:(String.length s)

let add_to_buffer t buf ~addr ~len =
  let start = Buffer.length buf in
  try
    if t.fast then begin
      let i = ref 0 in
      while !i < len do
        let a = addr + !i in
        let p = get_page_rd t a in
        let chunk = min (len - !i) (page_size - off a) in
        Buffer.add_subbytes buf p.data (off a) chunk;
        i := !i + chunk
      done
    end
    else
      for i = 0 to len - 1 do
        Buffer.add_char buf (Char.unsafe_chr (load t ~addr:(addr + i) ~width:1))
      done
  with Fault _ as e ->
    Buffer.truncate buf start;
    raise e

let read_string_slow t ~addr ~len =
  String.init len (fun i -> Char.chr (load t ~addr:(addr + i) ~width:1))

let read_string t ~addr ~len =
  if t.fast then begin
    let buf = Bytes.create len in
    let i = ref 0 in
    while !i < len do
      let a = addr + !i in
      let p = get_page_rd t a in
      let chunk = min (len - !i) (page_size - off a) in
      Bytes.blit p.data (off a) buf !i chunk;
      i := !i + chunk
    done;
    Bytes.unsafe_to_string buf
  end
  else read_string_slow t ~addr ~len

let fill t ~addr ~len ~byte =
  let i = ref 0 in
  while !i < len do
    let a = addr + !i in
    let p = get_page_wr t a in
    let chunk = min (len - !i) (page_size - off a) in
    Bytes.fill p.data (off a) chunk (Char.chr (byte land 0xff));
    i := !i + chunk
  done
