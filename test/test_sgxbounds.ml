open Helpers
module Tagged = Sgxbounds.Tagged
module Boundless = Sgxbounds.Boundless
open Sb_protection.Types

(* --- tagged-pointer encoding --- *)

let test_tagged_roundtrip () =
  let t = Tagged.make ~addr:0x1234 ~ub:0x5678 in
  Alcotest.(check int) "addr" 0x1234 (Tagged.addr_of t);
  Alcotest.(check int) "ub" 0x5678 (Tagged.ub_of t)

let test_tagged_arith_preserves_tag () =
  let t = Tagged.make ~addr:100 ~ub:0x7000 in
  let t' = Tagged.with_addr t (Tagged.addr_of t + 44) in
  Alcotest.(check int) "addr moved" 144 (Tagged.addr_of t');
  Alcotest.(check int) "tag intact" 0x7000 (Tagged.ub_of t')

let test_tagged_overflow_confined () =
  (* A malicious 2^31-scale increment must wrap in the address half and
     never touch the upper bound (§3.2 pointer arithmetic). *)
  let t = Tagged.make ~addr:10 ~ub:0x4242 in
  let t' = Tagged.with_addr t (Tagged.addr_of t + (1 lsl Tagged.shift) + 5) in
  Alcotest.(check int) "address wrapped" 15 (Tagged.addr_of t');
  Alcotest.(check int) "UB untouched" 0x4242 (Tagged.ub_of t')

let prop_tagged_roundtrip =
  QCheck.Test.make ~name:"tagged make/extract roundtrip" ~count:500
    QCheck.(pair (int_bound Tagged.mask) (int_bound Tagged.mask))
    (fun (addr, ub) ->
       let t = Tagged.make ~addr ~ub in
       Tagged.addr_of t = addr && Tagged.ub_of t = ub)

let prop_arith_never_corrupts_ub =
  QCheck.Test.make ~name:"pointer arithmetic never corrupts UB" ~count:500
    QCheck.(triple (int_bound Tagged.mask) (int_bound Tagged.mask) int)
    (fun (addr, ub, delta) ->
       let t = Tagged.make ~addr ~ub in
       Tagged.ub_of (Tagged.with_addr t (Tagged.addr_of t + delta)) = ub)

(* --- the scheme --- *)

let test_inbounds_ok () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 64 in
  check_allows "in-bounds" (fun () ->
      for i = 0 to 63 do
        s.Scheme.store (s.Scheme.offset p i) 1 i
      done;
      for i = 0 to 63 do
        assert (s.Scheme.load (s.Scheme.offset p i) 1 = i)
      done)

let test_off_by_one_detected () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 64 in
  check_detects "off-by-one write" (fun () -> s.Scheme.store (s.Scheme.offset p 64) 1 0)

let test_width_accounted () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 64 in
  check_allows "8-byte load at 56" (fun () -> ignore (s.Scheme.load (s.Scheme.offset p 56) 8));
  check_detects "8-byte load at 57 crosses UB" (fun () ->
      ignore (s.Scheme.load (s.Scheme.offset p 57) 8))

let test_lower_bound_detected () =
  let _, s = fresh sgxb in
  let _pad = s.Scheme.malloc 64 in
  let p = s.Scheme.malloc 64 in
  check_detects "underflow read" (fun () -> ignore (s.Scheme.load (s.Scheme.offset p (-8)) 4))

let test_footer_holds_lower_bound () =
  let m, s = fresh sgxb in
  let p = s.Scheme.malloc 32 in
  let a = s.Scheme.addr_of p in
  let lb = Sb_vmem.Vmem.load (Memsys.vmem m) ~addr:(a + 32) ~width:4 in
  Alcotest.(check int) "LB footer = object base" a lb

let test_metadata_overhead_is_4_bytes () =
  let _, s = fresh sgxb in
  (* 60-byte request + 4-byte footer fits exactly in the 64-byte class:
     zero net allocator overhead. *)
  let p = s.Scheme.malloc 60 in
  check_allows "full object usable" (fun () -> s.Scheme.store (s.Scheme.offset p 59) 1 1);
  let q = s.Scheme.malloc 64 in
  Alcotest.(check int) "60+4 packed into one 64-byte class"
    (s.Scheme.addr_of p + 64 + 16) (s.Scheme.addr_of q)

let test_stack_and_globals_protected () =
  let _, s = fresh sgxb in
  let g = s.Scheme.global 16 in
  check_detects "global overflow" (fun () -> s.Scheme.store (s.Scheme.offset g 16) 1 0);
  let tok = s.Scheme.stack_push () in
  let b = s.Scheme.stack_alloc 16 in
  check_detects "stack buffer overflow" (fun () -> s.Scheme.store (s.Scheme.offset b 16) 1 0);
  s.Scheme.stack_pop tok

let test_pointer_through_memory_keeps_bounds () =
  (* The paper's key multithreading/type-cast property: the tag travels
     with the word through memory. *)
  let _, s = fresh sgxb in
  let slot = s.Scheme.malloc 8 in
  let obj = s.Scheme.malloc 16 in
  s.Scheme.store_ptr slot obj;
  let obj' = s.Scheme.load_ptr slot in
  check_allows "loaded pointer usable" (fun () -> s.Scheme.store obj' 1 7);
  check_detects "loaded pointer still bounded" (fun () ->
      s.Scheme.store (s.Scheme.offset obj' 16) 1 7)

let test_int_cast_roundtrip () =
  (* ptr -> int -> ptr: the integer carries the tag (§3.2 type casts). *)
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 16 in
  let as_int = Scheme.word s p in
  let p' = Ptr.of_word as_int in
  check_allows "cast-back pointer works" (fun () -> ignore (s.Scheme.load p' 1));
  check_detects "cast-back pointer still checked" (fun () ->
      ignore (s.Scheme.load (s.Scheme.offset p' 20) 1))

let test_untagged_deref_detected () =
  let _, s = fresh sgxb in
  check_detects "untagged pointer" (fun () -> ignore (s.Scheme.load (Ptr.of_word 0x4000) 4))

let test_realloc_preserves_data_and_bounds () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 16 in
  s.Scheme.store p 4 0xFEED;
  let q = s.Scheme.realloc p 64 in
  Alcotest.(check int) "data preserved" 0xFEED (s.Scheme.load q 4);
  check_allows "grown region usable" (fun () -> s.Scheme.store (s.Scheme.offset q 60) 4 1);
  check_detects "new bound enforced" (fun () -> s.Scheme.store (s.Scheme.offset q 64) 1 1)

let test_calloc_zeroes () =
  let _, s = fresh sgxb in
  let p = s.Scheme.calloc 8 4 in
  for i = 0 to 7 do
    Alcotest.(check int) "zeroed" 0 (s.Scheme.load (s.Scheme.offset p (i * 4)) 4)
  done

let test_unopt_checks_every_access () =
  let _, s = fresh sgxb_noopt in
  let p = s.Scheme.malloc 64 in
  let before = s.Scheme.extras.checks_done in
  for i = 0 to 9 do
    ignore (s.Scheme.safe_load (s.Scheme.offset p i) 1)
  done;
  Alcotest.(check int) "safe accesses still checked without the opt" (before + 10)
    s.Scheme.extras.checks_done

let test_opt_elides_safe_accesses () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 64 in
  let before = s.Scheme.extras.checks_done in
  for i = 0 to 9 do
    ignore (s.Scheme.safe_load (s.Scheme.offset p i) 1)
  done;
  Alcotest.(check int) "no checks" before s.Scheme.extras.checks_done;
  Alcotest.(check bool) "elisions counted" true (s.Scheme.extras.checks_elided >= 10)

let test_hoisting_checks_once () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 256 in
  let before = s.Scheme.extras.checks_done in
  s.Scheme.check_range p 256 Read;
  for i = 0 to 255 do
    ignore (s.Scheme.load_unchecked (s.Scheme.offset p i) 1)
  done;
  Alcotest.(check int) "one range check" (before + 1) s.Scheme.extras.checks_done

let test_hoisted_range_check_detects () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 256 in
  check_detects "overlong range" (fun () -> s.Scheme.check_range p 257 Write)

let test_no_hoisting_keeps_per_access_checks () =
  let _, s = fresh sgxb_noopt in
  let p = s.Scheme.malloc 16 in
  s.Scheme.check_range p 9999 Read; (* no-op without the optimization *)
  check_detects "unchecked accessor still checks" (fun () ->
      ignore (s.Scheme.load_unchecked (s.Scheme.offset p 20) 1))

let test_free_is_uninstrumented () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 32 in
  s.Scheme.free p;
  (* No footer cleanup needed; a fresh allocation reuses the chunk. *)
  let q = s.Scheme.malloc 32 in
  Alcotest.(check int) "chunk reused" (s.Scheme.addr_of p) (s.Scheme.addr_of q)

let test_libc_wrapper_detects () =
  let _, s = fresh sgxb in
  let p = s.Scheme.malloc 32 in
  check_detects "wrapper rejects 33-byte claim" (fun () -> s.Scheme.libc_check p 33 Read);
  check_allows "wrapper accepts 32" (fun () -> s.Scheme.libc_check p 32 Read)

(* --- boundless memory --- *)

let test_boundless_survives_oob () =
  let _, s = fresh sgxb_boundless in
  let p = s.Scheme.malloc 16 in
  check_allows "oob write survives" (fun () -> s.Scheme.store (s.Scheme.offset p 100) 4 0xCAFE);
  Alcotest.(check int) "overlay readback" 0xCAFE (s.Scheme.load (s.Scheme.offset p 100) 4);
  Alcotest.(check int) "virgin oob reads zero" 0 (s.Scheme.load (s.Scheme.offset p 500) 4);
  Alcotest.(check bool) "violations counted" true (s.Scheme.extras.violations >= 2)

let test_boundless_does_not_corrupt_neighbours () =
  let _, s = fresh sgxb_boundless in
  let a = s.Scheme.malloc 16 in
  let b = s.Scheme.malloc 16 in
  s.Scheme.store b 4 0x1111;
  (* Overflow [a] far enough to land inside [b] natively. *)
  s.Scheme.store (s.Scheme.offset a 20) 4 0xBAD;
  Alcotest.(check int) "neighbour intact" 0x1111 (s.Scheme.load b 4)

let test_overlay_lru_cache () =
  let c = Boundless.create ~chunk_bytes:64 ~capacity_bytes:256 () in
  (* 4-chunk capacity; touch 6 chunks. *)
  for i = 0 to 5 do
    Boundless.write c ~addr:(i * 64) ~width:4 (i + 1)
  done;
  Alcotest.(check int) "bounded chunks" 4 (Boundless.chunks c);
  Alcotest.(check int) "evictions happened" 2 (Boundless.evictions c);
  Alcotest.(check int) "recent chunk survives" 6 (Boundless.read c ~addr:(5 * 64) ~width:4);
  Alcotest.(check int) "evicted chunk reads zero" 0 (Boundless.read c ~addr:0 ~width:4)

let test_overlay_cross_chunk_write () =
  let c = Boundless.create ~chunk_bytes:64 ~capacity_bytes:1024 () in
  Boundless.write c ~addr:62 ~width:4 0x04030201;
  Alcotest.(check int) "cross-chunk readback" 0x04030201 (Boundless.read c ~addr:62 ~width:4)

(* --- metadata API --- *)

let test_double_free_guard () =
  let m = ms () in
  let s = Sgxbounds.make ~plugins:[ Sgxbounds.Meta.double_free_guard ] m in
  let p = s.Scheme.malloc 32 in
  s.Scheme.free p;
  check_detects "double free flagged" (fun () -> s.Scheme.free p)

let test_origin_tracker_records_site () =
  let m = ms () in
  let s = Sgxbounds.make ~plugins:[ Sgxbounds.Meta.origin_tracker ~site:777 ] m in
  let p = s.Scheme.malloc 32 in
  let ub = Tagged.ub_of (Scheme.word s p) in
  let site = Sb_vmem.Vmem.load (Memsys.vmem m) ~addr:(ub + 4) ~width:4 in
  Alcotest.(check int) "site recorded after LB slot" 777 site

let suite =
  [
    Alcotest.test_case "tagged roundtrip" `Quick test_tagged_roundtrip;
    Alcotest.test_case "tagged arithmetic preserves tag" `Quick test_tagged_arith_preserves_tag;
    Alcotest.test_case "tagged overflow confined to address half" `Quick test_tagged_overflow_confined;
    qtest prop_tagged_roundtrip;
    qtest prop_arith_never_corrupts_ub;
    Alcotest.test_case "in-bounds accesses pass" `Quick test_inbounds_ok;
    Alcotest.test_case "off-by-one detected" `Quick test_off_by_one_detected;
    Alcotest.test_case "access width accounted" `Quick test_width_accounted;
    Alcotest.test_case "lower-bound violation detected" `Quick test_lower_bound_detected;
    Alcotest.test_case "LB footer after object" `Quick test_footer_holds_lower_bound;
    Alcotest.test_case "4-byte metadata fits the class" `Quick test_metadata_overhead_is_4_bytes;
    Alcotest.test_case "stack and globals protected" `Quick test_stack_and_globals_protected;
    Alcotest.test_case "bounds travel through memory" `Quick test_pointer_through_memory_keeps_bounds;
    Alcotest.test_case "int cast roundtrip keeps protection" `Quick test_int_cast_roundtrip;
    Alcotest.test_case "untagged dereference detected" `Quick test_untagged_deref_detected;
    Alcotest.test_case "realloc preserves data and bounds" `Quick test_realloc_preserves_data_and_bounds;
    Alcotest.test_case "calloc zeroes" `Quick test_calloc_zeroes;
    Alcotest.test_case "no-opt: safe accesses checked" `Quick test_unopt_checks_every_access;
    Alcotest.test_case "opt: safe accesses elided" `Quick test_opt_elides_safe_accesses;
    Alcotest.test_case "hoisting checks once per loop" `Quick test_hoisting_checks_once;
    Alcotest.test_case "hoisted check detects overlong range" `Quick test_hoisted_range_check_detects;
    Alcotest.test_case "no hoisting: per-access checks remain" `Quick test_no_hoisting_keeps_per_access_checks;
    Alcotest.test_case "free needs no instrumentation" `Quick test_free_is_uninstrumented;
    Alcotest.test_case "libc wrapper bounds check" `Quick test_libc_wrapper_detects;
    Alcotest.test_case "boundless survives OOB" `Quick test_boundless_survives_oob;
    Alcotest.test_case "boundless protects neighbours" `Quick test_boundless_does_not_corrupt_neighbours;
    Alcotest.test_case "overlay is a bounded LRU" `Quick test_overlay_lru_cache;
    Alcotest.test_case "overlay cross-chunk write" `Quick test_overlay_cross_chunk_write;
    Alcotest.test_case "metadata API: double-free guard" `Quick test_double_free_guard;
    Alcotest.test_case "metadata API: origin tracker" `Quick test_origin_tracker_records_site;
  ]

(* --- the §8 wide-address refinement codec --- *)

module Tw = Sgxbounds.Tagged_wide

let test_wide_roundtrip () =
  let t = Tw.make ~addr:0x1235 ~ub:0x5678 in
  Alcotest.(check int) "addr" 0x1235 (Tw.addr_of t);
  Alcotest.(check int) "ub" 0x5678 (Tw.ub_of t)

let test_wide_rejects_unaligned () =
  match Tw.make ~addr:0 ~ub:0x5677 with
  | _ -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_wide_align_ub () =
  Alcotest.(check int) "rounds up" 0x18 (Tw.align_ub 0x11);
  Alcotest.(check int) "keeps aligned" 0x18 (Tw.align_ub 0x18)

let prop_wide_roundtrip =
  QCheck.Test.make ~name:"wide codec roundtrip (aligned bounds)" ~count:300
    QCheck.(pair (int_bound Tw.mask) (int_bound (Tw.mask / 8)))
    (fun (addr, ub8) ->
       let ub = ub8 * 8 in
       let t = Tw.make ~addr ~ub in
       Tw.addr_of t = addr && Tw.ub_of t = ub)

let prop_wide_arith_confined =
  QCheck.Test.make ~name:"wide codec arithmetic never corrupts UB" ~count:300
    QCheck.(triple (int_bound Tw.mask) (int_bound (Tw.mask / 8)) int)
    (fun (addr, ub8, delta) ->
       let t = Tw.make ~addr ~ub:(ub8 * 8) in
       Tw.ub_of (Tw.with_addr t (Tw.addr_of t + delta)) = ub8 * 8)

let wide_suite =
  [
    Alcotest.test_case "wide codec roundtrip" `Quick test_wide_roundtrip;
    Alcotest.test_case "wide codec rejects unaligned UB" `Quick test_wide_rejects_unaligned;
    Alcotest.test_case "wide codec align_ub" `Quick test_wide_align_ub;
    qtest prop_wide_roundtrip;
    qtest prop_wide_arith_confined;
  ]

let suite = suite @ wide_suite
