(** AddressSanitizer model (§2.2, Figure 3a/4b), as adapted for SGX
    enclaves in §5.2 of the paper:

    - shadow memory: one shadow byte per 8 application bytes, at
      [shadow_base + (addr >> 3)]; the 32-bit mode's fixed 512 MiB
      (scaled) shadow arena is reserved at start-up — exactly the
      constant memory overhead the paper charges ASan with;
    - every check performs a *real* load of the shadow byte through the
      cache/EPC model — the cache pollution and EPC thrashing that the
      evaluation attributes to ASan arise from this traffic;
    - redzones around every object, poisoned in shadow;
    - a size-capped quarantine delays reuse of freed chunks (detecting
      use-after-free and double free, and inflating footprints under
      churn — the paper's swaptions blow-up);
    - libc interceptors check the whole buffer range (so ASan catches
      strcpy/memcpy overflows, unlike the paper's MPX setup);
    - leak detection is disabled (as in the paper's SCONE port).

    Shadow byte values: 0 addressable; 1..7 first-k-bytes addressable;
    0xFA redzone; 0xFD freed. *)

module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Scheme = Sb_protection.Scheme
module Ptr = Sb_protection.Ptr
module Base = Sb_protection.Base
open Sb_protection.Types

let sh_rz = 0xFA
let sh_freed = 0xFD

(** Run-time flags (ASAN_OPTIONS analogues). [redzone]: bytes of poison
    on each side of every object. [quarantine_cap]: *real-world* bytes
    of freed memory held back from reuse (scaled by the machine config;
    0 disables the quarantine — and with it use-after-free detection,
    the classic tradeoff). Leak detection is permanently off, as in the
    paper's SCONE port (§5.2). *)
type opts = {
  redzone : int;
  quarantine_cap : int;
}

let default_opts = { redzone = 16; quarantine_cap = 256 * 1024 * 1024 }

type shadow = {
  ms : Memsys.t;
  base : int;              (* shadow arena base address *)
  covered : int;           (* app bytes covered by the eager arena *)
  mutable lazy_pages : int; (* extra shadow pages mapped beyond the arena *)
}

let shadow_addr sh addr = sh.base + (addr lsr 3)

(* Map shadow pages beyond the eager arena on demand (the arena covers
   the configured enclave limit already, so this is a rare safety net for
   high addresses such as the guard page). *)
let ensure sh addr =
  if addr >= sh.covered then begin
    let sa = shadow_addr sh addr in
    let vm = Memsys.vmem sh.ms in
    if not (Vmem.is_mapped vm sa) then begin
      let page = sa land lnot (Vmem.page_size - 1) in
      ignore (Vmem.map vm ~addr:page ~len:Vmem.page_size ~perm:Vmem.Read_write ());
      sh.lazy_pages <- sh.lazy_pages + 1
    end
  end

let shadow_load sh addr =
  ensure sh addr;
  Memsys.load ~cls:Memsys.Shadow sh.ms ~addr:(shadow_addr sh addr) ~width:1

let shadow_cls = Some Memsys.Shadow

(* Set the shadow of [len] app bytes to [byte]; costed as shadow-range
   traffic. [cls] lets the free path attribute its poisoning to the
   quarantine instead. The option is forwarded as it came (a constant
   at every call site), so no [Some] is built per call. *)
let poison_range ?cls sh addr len byte =
  let cls = match cls with None -> shadow_cls | Some _ -> cls in
  if len > 0 then begin
    ensure sh addr;
    ensure sh (addr + len - 1);
    let s0 = shadow_addr sh addr and s1 = shadow_addr sh (addr + len - 1) in
    Memsys.touch_range ?cls sh.ms ~addr:s0 ~len:(s1 - s0 + 1);
    let vm = Memsys.vmem sh.ms in
    for a = s0 to s1 do
      Vmem.store vm ~addr:a ~width:1 byte
    done
  end

(* Unpoison an object of [size] bytes: full granules 0, trailing partial
   granule holds the number of addressable bytes. *)
let unpoison_object sh addr size =
  poison_range sh addr size 0;
  if size land 7 <> 0 then begin
    let last = addr + (size land lnot 7) in
    ensure sh last;
    Vmem.store (Memsys.vmem sh.ms) ~addr:(shadow_addr sh last) ~width:1 (size land 7)
  end

(* Freed chunks in free order: a ring of (payload addr, chunk bytes)
   pairs, entry [k] at [ring.(2k)] and [ring.(2k + 1)]. *)
type quarantine = {
  mutable ring : int array;
  mutable head : int;
  mutable count : int;
  mutable bytes : int;
  cap : int;
}

let quarantine_push q payload bytes =
  let slots = Array.length q.ring / 2 in
  if q.count = slots then begin
    let ring = Array.make (2 * max 32 (2 * slots)) 0 in
    for k = 0 to q.count - 1 do
      let j = (q.head + k) mod slots in
      ring.(2 * k) <- q.ring.(2 * j);
      ring.((2 * k) + 1) <- q.ring.((2 * j) + 1)
    done;
    q.ring <- ring;
    q.head <- 0
  end;
  let j = (q.head + q.count) mod (Array.length q.ring / 2) in
  q.ring.(2 * j) <- payload;
  q.ring.((2 * j) + 1) <- bytes;
  q.count <- q.count + 1;
  q.bytes <- q.bytes + bytes

(* Remove the oldest entry and return its payload address. *)
let quarantine_pop q =
  let j = q.head in
  q.head <- (j + 1) mod (Array.length q.ring / 2);
  q.count <- q.count - 1;
  q.bytes <- q.bytes - q.ring.((2 * j) + 1);
  q.ring.(2 * j)

let make ?(opts = default_opts) ms : Scheme.t =
  let cfg = Memsys.cfg ms in
  let redzone = max 8 (Sb_machine.Util.align_up opts.redzone 8) in
  let base = Base.create ms in
  let heap = base.Base.heap in
  let extras = fresh_extras () in
  let vm = Memsys.vmem ms in
  (* The fixed 512 MiB (scaled) shadow arena of 32-bit ASan. It covers
     app addresses up to 8x its size, i.e. the whole enclave limit. *)
  let arena = Sb_machine.Config.scaled cfg (512 * 1024 * 1024) in
  let arena = Sb_machine.Util.align_up arena Vmem.page_size in
  let sh_base = Vmem.map vm ~len:arena ~perm:Vmem.Read_write () in
  let sh = { ms; base = sh_base; covered = arena * 8; lazy_pages = 0 } in
  let quar =
    { ring = [||]; head = 0; count = 0; bytes = 0;
      cap = (if opts.quarantine_cap = 0 then 0 else Sb_machine.Config.scaled cfg opts.quarantine_cap) }
  in

  let report addr access width reason =
    raise (Violation { scheme = "asan"; addr; access; width; lo = 0; hi = 0; reason })
  in

  (* One shadow-byte check covers an 8-byte granule; accesses that cross
     a granule check the last byte too. *)
  let check addr width access =
    extras.checks_done <- extras.checks_done + 1;
    Memsys.charge_alu ms 2;
    let s = shadow_load sh addr in
    let bad s k =
      (* nonzero shadow: partial granule allows first s bytes *)
      s >= 8 || k >= s
    in
    if s <> 0 && bad s ((addr land 7) + width - 1) then
      report addr access width
        (if s = sh_freed then "use after free" else "redzone/poisoned access")
    else if (addr land 7) + width > 8 then begin
      let last = addr + width - 1 in
      let s2 = shadow_load sh last in
      Memsys.charge_alu ms 1;
      if s2 <> 0 && bad s2 (last land 7) then
        report addr access width
          (if s2 = sh_freed then "use after free" else "redzone/poisoned access")
    end
  in

  (* Poison both redzones of the [size]-byte object in the chunk at [a]
     and unpoison the object; returns the payload address. *)
  let place a size =
    let payload = a + redzone in
    poison_range sh a redzone sh_rz;
    (* The right redzone's poison starts at the next granule boundary;
       the shared tail granule keeps the object's partial-byte count. *)
    let rz_start = Sb_machine.Util.align_up (payload + size) 8 in
    poison_range sh rz_start (payload + size + redzone - rz_start) sh_rz;
    unpoison_object sh payload size;
    extras.redzone_bytes <- extras.redzone_bytes + (2 * redzone);
    payload
  in
  let malloc size =
    Ptr.of_word (place (Sb_alloc.Freelist.alloc heap (size + (2 * redzone))) size)
  in
  let really_free payload =
    let chunk = payload - redzone in
    if Sb_alloc.Freelist.is_live heap chunk then Sb_alloc.Freelist.free heap chunk
  in
  let free p =
    let payload = Ptr.raw p in
    let chunk = payload - redzone in
    if not (Sb_alloc.Freelist.is_live heap chunk) then
      report payload Write 0 "invalid free (wild pointer or double free)"
    else begin
      let s = shadow_load sh payload in
      if s = sh_freed then report payload Write 0 "double free"
      else begin
        let size = Sb_alloc.Freelist.chunk_size heap chunk - (2 * redzone) in
        poison_range ~cls:Memsys.Quarantine sh payload size sh_freed;
        (* Quarantine: delay the real free; evict oldest beyond the cap. *)
        quarantine_push quar payload (size + (2 * redzone));
        extras.quarantine_bytes <- quar.bytes;
        while quar.bytes > quar.cap && quar.count > 0 do
          really_free (quarantine_pop quar)
        done
      end
    end
  in
  let calloc n size =
    let p = malloc (n * size) in
    Memsys.fill ms ~addr:(Ptr.raw p) ~len:(n * size) ~byte:0;
    p
  in
  let realloc p size =
    if Ptr.raw p = 0 then malloc size
    else begin
      let old_size = Sb_alloc.Freelist.chunk_size heap (Ptr.raw p - redzone) - (2 * redzone) in
      let q = malloc size in
      Memsys.blit ms ~src:(Ptr.raw p) ~dst:(Ptr.raw q) ~len:(min old_size size);
      free p;
      q
    end
  in
  let load p width =
    check (Ptr.raw p) width Read;
    Memsys.load ms ~addr:(Ptr.raw p) ~width
  in
  let store p width v =
    check (Ptr.raw p) width Write;
    Memsys.store ms ~addr:(Ptr.raw p) ~width v
  in
  let raw_load p width = Memsys.load ms ~addr:(Ptr.raw p) ~width in
  let raw_store p width v = Memsys.store ms ~addr:(Ptr.raw p) ~width v in
  let libc_check p len access =
    (* Interceptor checks the whole range through shadow. *)
    if len > 0 then begin
      extras.checks_done <- extras.checks_done + 1;
      let s0 = shadow_addr sh (Ptr.raw p) and s1 = shadow_addr sh (Ptr.raw p + len - 1) in
      ensure sh (Ptr.raw p);
      ensure sh (Ptr.raw p + len - 1);
      Memsys.touch_range ~cls:Memsys.Shadow ms ~addr:s0 ~len:(s1 - s0 + 1);
      Memsys.charge_alu ms ((s1 - s0 + 1) / 8 + 2);
      let vm = Memsys.vmem ms in
      for a = Ptr.raw p to Ptr.raw p + len - 1 do
        let s = Vmem.load vm ~addr:(shadow_addr sh a) ~width:1 in
        if s <> 0 && (s >= 8 || a land 7 >= s) then
          raise
            (Violation
               { scheme = "asan"; addr = a; access; width = len; lo = 0; hi = 0;
                 reason = "interceptor: poisoned byte in buffer range" })
      done
    end
  in
  let stack_frames : (int * (int * int) list ref) list ref = ref [] in
  {
    Scheme.name = "asan";
    ms;
    extras;
    bounds = Ptr.table ();
    malloc;
    calloc;
    realloc;
    free;
    global =
      (fun size ->
         Ptr.of_word (place (Sb_alloc.Bump.alloc base.Base.globals (size + (2 * redzone))) size));
    stack_push =
      (fun () ->
         let tok = Sb_alloc.Stackmem.push_frame (Base.stack base) in
         stack_frames := (tok, ref []) :: !stack_frames;
         tok);
    stack_alloc =
      (fun size ->
         let a = Sb_alloc.Stackmem.alloc (Base.stack base) (size + (2 * redzone)) in
         let payload = place a size in
         (match !stack_frames with
          | (_, vars) :: _ -> vars := (a, size + (2 * redzone)) :: !vars
          | [] -> ());
         Ptr.of_word payload);
    stack_pop =
      (fun tok ->
         (* Unpoison the frame's shadow so reused stack memory is clean. *)
         (match !stack_frames with
          | (t, vars) :: rest when t = tok ->
            List.iter (fun (a, len) -> poison_range sh a len 0) !vars;
            stack_frames := rest
          | _ -> ());
         Sb_alloc.Stackmem.pop_frame (Base.stack base) tok);
    offset = (fun p delta -> Ptr.of_word (Ptr.raw p + delta));
    addr_of = (fun p -> Ptr.raw p);
    load;
    store;
    safe_load =
      (fun p width ->
         extras.checks_elided <- extras.checks_elided + 1;
         raw_load p width);
    safe_store =
      (fun p width v ->
         extras.checks_elided <- extras.checks_elided + 1;
         raw_store p width v);
    (* No per-object bounds: ASan cannot hoist checks out of loops. *)
    check_range = (fun _ _ _ -> ());
    load_unchecked = load;
    store_unchecked = store;
    load_ptr =
      (fun p ->
         check (Ptr.raw p) 8 Read;
         Ptr.of_word (Memsys.load ms ~addr:(Ptr.raw p) ~width:8));
    store_ptr =
      (fun p q ->
         check (Ptr.raw p) 8 Write;
         Memsys.store ms ~addr:(Ptr.raw p) ~width:8 (Ptr.raw q));
    load_ptr_unchecked =
      (fun p ->
         check (Ptr.raw p) 8 Read;
         Ptr.of_word (Memsys.load ms ~addr:(Ptr.raw p) ~width:8));
    store_ptr_unchecked =
      (fun p q ->
         check (Ptr.raw p) 8 Write;
         Memsys.store ms ~addr:(Ptr.raw p) ~width:8 (Ptr.raw q));
    libc_check;
    libc_touch = Scheme.no_touch;
  }
