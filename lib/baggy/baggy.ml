(** Baggy Bounds baseline (§2.2 of the paper).

    Baggy Bounds Checking enforces *allocation* bounds: the buddy
    allocator makes every object a power-of-two block aligned to its own
    size, and a compact size table (one byte of log2-size per 16-byte
    slot) lets the check derive base and bounds from the pointer alone.
    Consequences faithfully modelled:

    - checks read one size-table byte through the cache (less traffic
      than ASan's shadow, more than SGXBounds' in-object footer);
    - out-of-bounds accesses that stay within the block's power-of-two
      padding are *not* detected (allocation-bounds, not object-bounds);
    - internal fragmentation plus the 1/16 table give the ~12% memory
      overhead the paper quotes.

    The paper could not compare against the real implementation (not
    public); this model serves as the "tagged-scheme outside SGX"
    reference point for Figure 12 discussions. *)

module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Scheme = Sb_protection.Scheme
module Ptr = Sb_protection.Ptr
open Sb_protection.Types

let slot = 16

let make ?(region_bytes = 8 * 1024 * 1024) ms : Scheme.t =
  let extras = fresh_extras () in
  let buddy = Sb_alloc.Buddy.create ms ~region_bytes in
  (* The size table: one byte per 16-byte slot of the buddy region. *)
  let region = Sb_machine.Util.next_pow2 region_bytes in
  let heap_base =
    (* Buddy mapped its region first; derive its base via a probe alloc. *)
    let p = Sb_alloc.Buddy.alloc buddy slot in
    let b = p in
    Sb_alloc.Buddy.free buddy p;
    b
  in
  let table_base = Vmem.map (Memsys.vmem ms) ~len:(region / slot) ~perm:Vmem.Read_write () in
  let table_addr addr = table_base + ((addr - heap_base) / slot) in
  let set_size addr size =
    let order = Sb_machine.Util.log2_floor size in
    let n = Sb_machine.Util.ceil_div size slot in
    Memsys.touch_range ~cls:Memsys.Bounds_table ms ~addr:(table_addr addr) ~len:n;
    let vm = Memsys.vmem ms in
    for i = 0 to n - 1 do
      Vmem.store vm ~addr:(table_addr addr + i) ~width:1 order
    done
  in
  let stacks_and_globals_block size =
    (* Baggy's prototype covers heap (and stack in the 2017 paper); we
       allocate globals and stack from the same buddy region so bounds
       derivation stays uniform. *)
    let a = Sb_alloc.Buddy.alloc buddy (max size slot) in
    set_size a (Sb_alloc.Buddy.block_size buddy a);
    Ptr.of_word a
  in
  let check p width access =
    extras.checks_done <- extras.checks_done + 1;
    Memsys.charge_alu ms 3;
    let order = Memsys.load ~cls:Memsys.Bounds_table ms ~addr:(table_addr (Ptr.raw p)) ~width:1 in
    if order = 0 then
      raise
        (Violation
           { scheme = "baggy"; addr = Ptr.raw p; access; width; lo = 0; hi = 0;
             reason = "no allocation covers this address" })
    else begin
      let size = 1 lsl order in
      let base = Ptr.raw p land lnot (size - 1) in
      if Ptr.raw p + width > base + size then
        raise
          (Violation
             { scheme = "baggy"; addr = Ptr.raw p; access; width; lo = base; hi = base + size;
               reason = "allocation bounds violated" })
    end
  in
  let malloc size =
    let a = Sb_alloc.Buddy.alloc buddy (max size slot) in
    set_size a (Sb_alloc.Buddy.block_size buddy a);
    Ptr.of_word a
  in
  let free p =
    if Sb_alloc.Buddy.is_live buddy (Ptr.raw p) then begin
      let size = Sb_alloc.Buddy.block_size buddy (Ptr.raw p) in
      let n = Sb_machine.Util.ceil_div size slot in
      let vm = Memsys.vmem ms in
      for i = 0 to n - 1 do
        Vmem.store vm ~addr:(table_addr (Ptr.raw p) + i) ~width:1 0
      done;
      Sb_alloc.Buddy.free buddy (Ptr.raw p)
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
      let old_size = Sb_alloc.Buddy.block_size buddy (Ptr.raw p) in
      let q = malloc size in
      Memsys.blit ms ~src:(Ptr.raw p) ~dst:(Ptr.raw q) ~len:(min old_size size);
      free p;
      q
    end
  in
  let load p width =
    check p width Read;
    Memsys.load ms ~addr:(Ptr.raw p) ~width
  in
  let store p width v =
    check p width Write;
    Memsys.store ms ~addr:(Ptr.raw p) ~width v
  in
  let frames : (int list ref * int) list ref = ref [] in
  {
    Scheme.name = "baggy";
    ms;
    extras;
    bounds = Ptr.table ();
    malloc;
    calloc;
    realloc;
    free;
    global = stacks_and_globals_block;
    stack_push =
      (fun () ->
         let tok = List.length !frames in
         frames := (ref [], tok) :: !frames;
         tok);
    stack_alloc =
      (fun size ->
         let p = stacks_and_globals_block size in
         (match !frames with
          | (vars, _) :: _ -> vars := Ptr.raw p :: !vars
          | [] -> ());
         p);
    stack_pop =
      (fun tok ->
         match !frames with
         | (vars, t) :: rest when t = tok ->
           List.iter (fun a -> free (Ptr.of_word a)) !vars;
           frames := rest
         | _ -> ());
    offset =
      (fun p delta ->
         Memsys.charge_alu ms 1;
         Ptr.of_word (Ptr.raw p + delta));
    addr_of = (fun p -> Ptr.raw p);
    load;
    store;
    safe_load =
      (fun p width ->
         extras.checks_elided <- extras.checks_elided + 1;
         Memsys.load ms ~addr:(Ptr.raw p) ~width);
    safe_store =
      (fun p width v ->
         extras.checks_elided <- extras.checks_elided + 1;
         Memsys.store ms ~addr:(Ptr.raw p) ~width v);
    check_range = (fun _ _ _ -> ());
    load_unchecked = load;
    store_unchecked = store;
    load_ptr =
      (fun p ->
         check p 8 Read;
         Ptr.of_word (Memsys.load ms ~addr:(Ptr.raw p) ~width:8));
    store_ptr =
      (fun p q ->
         check p 8 Write;
         Memsys.store ms ~addr:(Ptr.raw p) ~width:8 (Ptr.raw q));
    load_ptr_unchecked =
      (fun p -> Ptr.of_word (Memsys.load ms ~addr:(Ptr.raw p) ~width:8));
    store_ptr_unchecked =
      (fun p q -> Memsys.store ms ~addr:(Ptr.raw p) ~width:8 (Ptr.raw q));
    libc_check = (fun p len access -> if len > 0 then check p len access);
    libc_touch = Scheme.no_touch;
  }
