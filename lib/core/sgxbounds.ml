(** SGXBounds: memory safety for shielded execution (EuroSys'17).

    This module is the library entry point. It implements the paper's
    instrumentation as a {!Sb_protection.Scheme.t}:

    - tagged pointers: address in the low half of the word, upper bound
      in the high half ({!Tagged}, Figure 5);
    - the lower bound in a 4-byte footer right after the object (§3.1),
      extended by optional metadata plugins ({!Meta}, §4.3);
    - run-time checks before every load/store (§3.2), with the §4.4
      optimizations (safe-access elision and loop-check hoisting);
    - instrumented pointer arithmetic confined to the address half, so
      integer overflows cannot corrupt the tag (§3.2);
    - boundless-memory mode ({!Boundless}, §4.2) that survives
      out-of-bounds accesses failure-obliviously instead of crashing;
    - libc-wrapper semantics: wrappers check the whole buffer argument
      once and never fall back to boundless redirection — they surface
      an error to the application instead (§5.1), which is how the
      Memcached case study drops the CVE-2011-4971 packet. *)

module Tagged = Tagged
module Tagged_wide = Tagged_wide
module Boundless = Boundless
module Meta = Meta

module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Base = Sb_protection.Base
module Ptr = Sb_protection.Ptr
open Sb_protection.Types

(** §4.4 optimizations. [safe_elision]: drop checks (and pointer-
    arithmetic instrumentation) on accesses the compiler proves safe.
    [hoisting]: replace per-iteration checks of simple loops by one range
    check outside the loop. *)
type opts = {
  safe_elision : bool;
  hoisting : bool;
}

let all_opts = { safe_elision = true; hoisting = true }
let no_opts = { safe_elision = false; hoisting = false }

(** Out-of-bounds handling: crash with a diagnostic, or redirect through
    the boundless-memory overlay. *)
type mode = Fail_stop | Boundless_mode

let lb_slot_bytes = 4

(** [make ?opts ?mode ?plugins ms] builds the hardened execution
    environment. Defaults: all optimizations on, fail-stop, no plugins. *)
let make ?(opts = all_opts) ?(mode = Fail_stop) ?(plugins = []) ms : Scheme.t =
  let base = Base.create ms in
  let heap = base.Base.heap in
  let extras = fresh_extras () in
  (* narrowed field bounds (see [narrow]) *)
  let bounds = Ptr.table () in
  let overlay = Boundless.create () in
  let meta_bytes =
    lb_slot_bytes + List.fold_left (fun a (p : Meta.plugin) -> a + p.slot_bytes) 0 plugins
  in
  (* The last page of the enclave address space is unaddressable; together
     with confining pointer arithmetic to the address half this protects
     hoisted checks against counter over/underflow (§4.4). *)
  let top_guard = (1 lsl Sb_vmem.Vmem.addr_bits) - Sb_vmem.Vmem.page_size in
  (match Sb_vmem.Vmem.map (Memsys.vmem ms) ~addr:top_guard ~len:Sb_vmem.Vmem.page_size
           ~perm:Sb_vmem.Vmem.Guard ()
   with
   | (_ : int) -> ()
   | exception Invalid_argument _ -> () (* another scheme instance mapped it *));

  (* The plugin hooks, each given its slot after the LB footer. Defined
     once here, so a malloc or free allocates no closure. *)
  let rec create_hooks (ps : Meta.plugin list) addr size slot =
    match ps with
    | [] -> ()
    | p :: rest ->
      p.hooks.on_create ~ms ~objbase:addr ~objsize:size ~meta_addr:slot;
      create_hooks rest addr size (slot + p.slot_bytes)
  in
  let rec delete_hooks (ps : Meta.plugin list) slot =
    match ps with
    | [] -> ()
    | p :: rest ->
      p.hooks.on_delete ~ms ~meta_addr:slot;
      delete_hooks rest (slot + p.slot_bytes)
  in
  (* specify_bounds of §3.2: write the LB footer, run plugin on_create
     hooks, and return the tagged word. *)
  let specify_bounds addr size =
    let ub = addr + size in
    Memsys.store ~cls:Memsys.Footer_meta ms ~addr:ub ~width:4 addr;
    Memsys.charge_alu ms 2;
    create_hooks plugins addr size (ub + lb_slot_bytes);
    Ptr.of_word (Tagged.make ~addr ~ub)
  in
  (* A narrowed pointer keeps its address in the pointer and its tag in
     the bounds table. It is a negative int, which no tagged word is, so
     the common pointer costs a sign test here rather than a call; and
     the low half of either form is the address. *)
  let[@inline] narrowed p = Ptr.raw p < 0 && Ptr.has_bounds p in
  let word p = if narrowed p then Ptr.word bounds p else Ptr.raw p in
  let addr_of p = Tagged.addr_of (Ptr.raw p) in

  let violate ~addr ~access ~width ~lo ~hi reason =
    extras.violations <- extras.violations + 1;
    match mode with
    | Fail_stop ->
      raise (Violation { scheme = "sgxbounds"; addr; access; width; lo; hi; reason })
    | Boundless_mode -> ()
  in

  (* The §3.2 check sequence: extract p and UB (register moves), load LB
     through the cache (it sits in the object's footer, typically the
     same or the next cache line), compare. Returns the raw address, or
     its complement (a negative int) when the access must be redirected
     to the overlay: one int, so the check allocates nothing. *)
  let check p width access =
    extras.checks_done <- extras.checks_done + 1;
    (* extract + compare + branch: 3 uops that co-issue with the access
       on an out-of-order core; ~2 cycles of critical path *)
    Memsys.charge_alu ms 2;
    if narrowed p then begin
      (* §8 "catching intra-object overflows": narrowed field bounds are
         carried in registers next to the pointer (see [narrow]); no LB
         load is needed, the register pair is authoritative *)
      let a = Ptr.addr p in
      if Ptr.within bounds p width then a
      else begin
        violate ~addr:a ~access ~width ~lo:(Ptr.lo bounds p) ~hi:(Ptr.hi bounds p)
          "narrowed field bounds violated";
        lnot a
      end
    end
    else begin
      let w = Ptr.raw p in
      let a = Tagged.addr_of w and ub = Tagged.ub_of w in
      if ub = 0 then begin
        violate ~addr:a ~access ~width ~lo:0 ~hi:0 "dereference of untagged pointer";
        lnot a
      end
      else begin
        let lb = Memsys.load ~cls:Memsys.Footer_meta ms ~addr:ub ~width:4 in
        Memsys.charge_alu ms 1;
        if a < lb || a + width > ub then begin
          violate ~addr:a ~access ~width ~lo:lb ~hi:ub "bounds violated";
          lnot a
        end
        else a
      end
    end
  in

  let redirect_load a width =
    extras.boundless_reads <- extras.boundless_reads + 1;
    Memsys.charge_alu ~cls:Memsys.Overlay ms 150; (* global lock + hash lookup: slow path *)
    Boundless.read overlay ~addr:a ~width
  in
  let redirect_store a width v =
    extras.boundless_writes <- extras.boundless_writes + 1;
    Memsys.charge_alu ~cls:Memsys.Overlay ms 150;
    Boundless.write overlay ~addr:a ~width v
  in

  let load p width =
    let a = check p width Read in
    if a < 0 then redirect_load (lnot a) width else Memsys.load ms ~addr:a ~width
  in
  let store p width v =
    let a = check p width Write in
    if a < 0 then redirect_store (lnot a) width v else Memsys.store ms ~addr:a ~width v
  in
  let raw_load p width = Memsys.load ms ~addr:(addr_of p) ~width in
  let raw_store p width v = Memsys.store ms ~addr:(addr_of p) ~width v in
  let safe_load =
    if opts.safe_elision then
      (fun p width ->
         extras.checks_elided <- extras.checks_elided + 1;
         raw_load p width)
    else load
  in
  let safe_store =
    if opts.safe_elision then
      (fun p width v ->
         extras.checks_elided <- extras.checks_elided + 1;
         raw_store p width v)
    else store
  in
  (* Hoisted range check: verify [p, p+len) once; the loop body then uses
     the unchecked accessors. Without the optimization the range check
     disappears and the "unchecked" accessors keep their checks, so the
     protection level is unchanged (§4.4). *)
  let check_range =
    if opts.hoisting then
      (fun p len access ->
        if len > 0 then begin
        extras.checks_done <- extras.checks_done + 1;
        extras.checks_hoisted <- extras.checks_hoisted + 1;
        Memsys.charge_alu ms 4;
        let w = word p in
        let a = Tagged.addr_of w and ub = Tagged.ub_of w in
        if ub = 0 then
          violate ~addr:a ~access ~width:len ~lo:0 ~hi:0 "dereference of untagged pointer"
        else begin
          let lb = Memsys.load ~cls:Memsys.Footer_meta ms ~addr:ub ~width:4 in
          if a < lb || a + len > ub then
            violate ~addr:a ~access ~width:len ~lo:lb ~hi:ub "hoisted bounds check failed"
        end
      end)
    else fun _ _ _ -> ()
  in
  let load_unchecked =
    if opts.hoisting then
      (fun p width ->
         extras.checks_elided <- extras.checks_elided + 1;
         raw_load p width)
    else load
  in
  let store_unchecked =
    if opts.hoisting then
      (fun p width v ->
         extras.checks_elided <- extras.checks_elided + 1;
         raw_store p width v)
    else store
  in

  let malloc size =
    let addr = Sb_alloc.Freelist.alloc heap (size + meta_bytes) in
    specify_bounds addr size
  in
  let object_size p =
    let w = word p in
    Tagged.ub_of w - Tagged.addr_of w
  in
  let free p =
    let w = word p in
    let addr = Tagged.addr_of w and ub = Tagged.ub_of w in
    delete_hooks plugins (ub + lb_slot_bytes);
    (* The 4-byte footer vanishes with the chunk itself: free needs no
       instrumentation beyond the plugin hooks (§3.2). *)
    if Sb_alloc.Freelist.is_live heap addr then Sb_alloc.Freelist.free heap addr
  in
  let calloc n size =
    let p = malloc (n * size) in
    Memsys.fill ms ~addr:(addr_of p) ~len:(n * size) ~byte:0;
    p
  in
  let realloc p size =
    if addr_of p = 0 then malloc size
    else begin
      let q = malloc size in
      let n = min (object_size p) size in
      Memsys.blit ms ~src:(addr_of p) ~dst:(addr_of q) ~len:n;
      free p;
      q
    end
  in
  let libc_check p len access =
    (* Wrapper pattern of §3.2/§5.1: extract, check the whole buffer,
       then the real libc runs uninstrumented. Never boundless — the
       wrapper reports an error (errno-style) via the exception, letting
       servers drop the offending request. *)
    if len > 0 then begin
      extras.checks_done <- extras.checks_done + 1;
      Memsys.charge_alu ms 4;
      let w = word p in
      let a = Tagged.addr_of w and ub = Tagged.ub_of w in
      let lb = if ub = 0 then 0 else Memsys.load ~cls:Memsys.Footer_meta ms ~addr:ub ~width:4 in
      if ub = 0 || a < lb || a + len > ub then begin
        extras.violations <- extras.violations + 1;
        raise
          (Violation
             { scheme = "sgxbounds"; addr = a; access; width = len; lo = lb; hi = ub;
               reason = "libc wrapper bounds check failed (EINVAL)" })
      end
    end
  in
  let checked_load_ptr p =
    (* The loaded word carries its own tag: bounds metadata travels with
       the pointer through memory, no bndldx analogue needed. *)
    let a = check p 8 Read in
    Ptr.of_word (if a < 0 then redirect_load (lnot a) 8 else Memsys.load ms ~addr:a ~width:8)
  in
  let checked_store_ptr p q =
    let a = check p 8 Write in
    if a < 0 then redirect_store (lnot a) 8 (word q) else Memsys.store ms ~addr:a ~width:8 (word q)
  in
  {
    Scheme.name = "sgxbounds";
    ms;
    extras;
    bounds;
    malloc;
    calloc;
    realloc;
    free;
    global =
      (fun size ->
         (* Globals are wrapped in a padded struct and registered at
            program initialization (§3.2). *)
         let addr = Sb_alloc.Bump.alloc base.Base.globals (size + meta_bytes) in
         specify_bounds addr size);
    stack_push = (fun () -> Sb_alloc.Stackmem.push_frame (Base.stack base));
    stack_alloc =
      (fun size ->
         let addr = Sb_alloc.Stackmem.alloc (Base.stack base) (size + meta_bytes) in
         specify_bounds addr size);
    stack_pop = (fun tok -> Sb_alloc.Stackmem.pop_frame (Base.stack base) tok);
    offset =
      (fun p delta ->
         (* Instrumented pointer arithmetic: mask + or, co-issued. *)
         Memsys.charge_alu ms 1;
         if narrowed p then Ptr.with_addr p ((Ptr.addr p + delta) land Tagged.mask)
         else
           let w = Ptr.raw p in
           Ptr.of_word (Tagged.with_addr w (Tagged.addr_of w + delta)));
    addr_of;
    load;
    store;
    safe_load;
    safe_store;
    check_range;
    load_unchecked;
    store_unchecked;
    load_ptr = checked_load_ptr;
    store_ptr = checked_store_ptr;
    load_ptr_unchecked =
      (if opts.hoisting then fun p ->
         (* the tag travels in the loaded word: no metadata lookup at all *)
         extras.checks_elided <- extras.checks_elided + 1;
         Ptr.of_word (Memsys.load ms ~addr:(addr_of p) ~width:8)
       else checked_load_ptr);
    store_ptr_unchecked =
      (if opts.hoisting then fun p q ->
         extras.checks_elided <- extras.checks_elided + 1;
         Memsys.store ms ~addr:(addr_of p) ~width:8 (word q)
       else checked_store_ptr);
    libc_check;
    libc_touch = Scheme.no_touch;
  }

(** Intra-object bounds narrowing (§8, "catching intra-object
    overflows"). [narrow s p ~len] returns a pointer restricted to the
    [len]-byte field at [p]: subsequent checked accesses through the
    result are confined to the field, so overflowing a buffer inside a
    struct into a sibling member is detected — the 8 RIPE attacks that
    object-granularity schemes miss (Table 4).

    The narrowed bounds live in registers next to the pointer (the
    paper's prototype direction: per-field lower-bound metadata kept out
    of the object). They do not survive a trip through memory —
    [store_ptr]/[load_ptr] revert to the object's tagged bounds — and
    they never *widen*: narrowing an already-narrowed pointer intersects
    the ranges. *)
let narrow (s : Scheme.t) p ~len =
  Memsys.charge_alu s.Scheme.ms 2;
  let bounds = s.Scheme.bounds in
  let w = Ptr.word bounds p in
  let a = Tagged.addr_of w in
  let narrowed = Ptr.has_bounds p in
  let lo = if narrowed then max a (Ptr.lo bounds p) else a in
  let hi = if narrowed then min (a + len) (Ptr.hi bounds p) else a + len in
  Ptr.bounded bounds ~lo ~hi ~high:(Tagged.ub_of w) a
