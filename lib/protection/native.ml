(** The uninstrumented baseline ("native SGX" in the paper): no checks,
    no metadata — and no protection. Out-of-bounds accesses silently read
    or corrupt whatever is mapped there; only the MMU ({!Sb_vmem.Vmem})
    stops accesses to unmapped or guard pages, as on real hardware. *)

open Types
module Memsys = Sb_sgx.Memsys

let make ms : Scheme.t =
  let base = Base.create ms in
  let heap = base.Base.heap in
  let extras = fresh_extras () in
  let malloc size = Ptr.of_word (Sb_alloc.Freelist.alloc heap size) in
  let free p =
    (* Freeing a dead or wild pointer is undefined behaviour; the native
       run ignores it silently, like glibc often appears to. *)
    if Sb_alloc.Freelist.is_live heap (Ptr.raw p) then Sb_alloc.Freelist.free heap (Ptr.raw p)
  in
  let calloc n size =
    let p = malloc (n * size) in
    Memsys.fill ms ~addr:(Ptr.raw p) ~len:(n * size) ~byte:0;
    p
  in
  let realloc p size =
    if Ptr.raw p = 0 then malloc size
    else begin
      let old_size = Sb_alloc.Freelist.chunk_size heap (Ptr.raw p) in
      let q = malloc size in
      Memsys.blit ms ~src:(Ptr.raw p) ~dst:(Ptr.raw q) ~len:(min old_size size);
      free p;
      q
    end
  in
  let load p width = Memsys.load ms ~addr:(Ptr.raw p) ~width in
  let store p width v = Memsys.store ms ~addr:(Ptr.raw p) ~width v in
  let load_ptr p = Ptr.of_word (Memsys.load ms ~addr:(Ptr.raw p) ~width:8) in
  let store_ptr p q = Memsys.store ms ~addr:(Ptr.raw p) ~width:8 (Ptr.raw q) in
  {
    Scheme.name = "native";
    ms;
    extras;
    bounds = Ptr.table ();
    malloc;
    calloc;
    realloc;
    free;
    global = (fun size -> Ptr.of_word (Sb_alloc.Bump.alloc base.Base.globals size));
    stack_push = (fun () -> Sb_alloc.Stackmem.push_frame (Base.stack base));
    stack_alloc = (fun size -> Ptr.of_word (Sb_alloc.Stackmem.alloc (Base.stack base) size));
    stack_pop = (fun tok -> Sb_alloc.Stackmem.pop_frame (Base.stack base) tok);
    offset = (fun p delta -> Ptr.of_word (Ptr.raw p + delta));
    addr_of = (fun p -> Ptr.raw p);
    load;
    store;
    safe_load = load;
    safe_store = store;
    check_range = (fun _ _ _ -> ());
    load_unchecked = load;
    store_unchecked = store;
    load_ptr;
    store_ptr;
    load_ptr_unchecked = load_ptr;
    store_ptr_unchecked = store_ptr;
    libc_check = (fun _ _ _ -> ());
    libc_touch = Scheme.no_touch;
  }
