open Helpers
open Sb_protection.Types
module Memsys = Sb_sgx.Memsys

let test_inbounds_ok () =
  let _, s = fresh mpx in
  let p = s.Scheme.malloc 64 in
  check_allows "in-bounds" (fun () ->
      for i = 0 to 63 do
        s.Scheme.store (s.Scheme.offset p i) 1 i
      done)

let test_off_by_one_detected () =
  let _, s = fresh mpx in
  let p = s.Scheme.malloc 64 in
  check_detects "bndcu" (fun () -> s.Scheme.store (s.Scheme.offset p 64) 1 0)

let test_underflow_detected () =
  let _, s = fresh mpx in
  let p = s.Scheme.malloc 64 in
  check_detects "bndcl" (fun () -> ignore (s.Scheme.load (s.Scheme.offset p (-1)) 1))

let test_bounds_survive_spill_fill () =
  let _, s = fresh mpx in
  let slot = s.Scheme.malloc 8 in
  let obj = s.Scheme.malloc 16 in
  s.Scheme.store_ptr slot obj;            (* store + bndstx *)
  let obj' = s.Scheme.load_ptr slot in    (* load + bndldx *)
  Alcotest.(check bool) "bounds restored" true (Ptr.has_bounds obj');
  check_detects "restored bounds enforced" (fun () ->
      s.Scheme.store (s.Scheme.offset obj' 16) 1 0)

let test_foreign_pointer_gets_infinite_bounds () =
  (* A pointer value written by uninstrumented code (plain store, no
     bndstx): bndldx sees the value mismatch and returns INIT bounds. *)
  let _, s = fresh mpx in
  let slot = s.Scheme.malloc 8 in
  let obj = s.Scheme.malloc 16 in
  s.Scheme.store slot 8 (Scheme.word s obj);            (* raw data store, no bndstx *)
  let obj' = s.Scheme.load_ptr slot in
  Alcotest.(check bool) "no bounds (INIT)" true (not (Ptr.has_bounds obj'));
  check_allows "unchecked thereafter (false negative)" (fun () ->
      s.Scheme.store (s.Scheme.offset obj' 16) 1 0)

let test_bt_allocated_on_demand () =
  let _, s = fresh mpx in
  let before = s.Scheme.extras.bts_allocated in
  let slot = s.Scheme.malloc 8 in
  let obj = s.Scheme.malloc 16 in
  s.Scheme.store_ptr slot obj;
  Alcotest.(check int) "one BT for the heap region" (before + 1) s.Scheme.extras.bts_allocated;
  let slot2 = s.Scheme.malloc 8 in
  s.Scheme.store_ptr slot2 obj;
  Alcotest.(check int) "same region, no new BT" (before + 1) s.Scheme.extras.bts_allocated

let test_bt_memory_counted () =
  let m, s = fresh mpx in
  let vm = Memsys.vmem m in
  let before = Sb_vmem.Vmem.reserved_bytes vm in
  let slot = s.Scheme.malloc 8 in
  let obj = s.Scheme.malloc 16 in
  s.Scheme.store_ptr slot obj;
  let bt = Sb_machine.Config.scaled (Memsys.cfg m) (4 * 1024 * 1024) in
  Alcotest.(check bool) "BT reservation visible" true
    (Sb_vmem.Vmem.reserved_bytes vm >= before + bt)

let test_oom_on_bt_flood () =
  (* Pointer stores scattered across many BT regions force a bounds table
     each until the enclave dies — the paper's Figure 1 crash. *)
  let m, s = fresh mpx in
  let vm = Memsys.vmem m in
  (match
     let obj = s.Scheme.malloc 16 in
     for i = 0 to 3999 do
       let region = (i + 512) lsl (Sb_vmem.Vmem.addr_bits - 12) in
       let a = Sb_vmem.Vmem.map vm ~addr:region ~len:4096 ~perm:Sb_vmem.Vmem.Read_write () in
       s.Scheme.store_ptr (Ptr.of_word a) obj
     done
   with
   | () -> Alcotest.fail "expected the enclave to die of OOM"
   | exception App_crash _ -> ()
   | exception Sb_vmem.Vmem.Enclave_oom _ -> ());
  Alcotest.(check bool) "bounds tables were the flood" true
    (s.Scheme.extras.bts_allocated > 20)

let test_intra_object_missed () =
  (* Narrowing disabled: an overflow inside one allocation (struct
     member into sibling member) passes. *)
  let _, s = fresh mpx in
  let st = s.Scheme.malloc 64 in        (* struct { char buf[32]; fnptr f; } *)
  check_allows "in-struct overflow missed" (fun () ->
      s.Scheme.store (s.Scheme.offset st 40) 8 0xBAD)

let test_libc_not_checked () =
  let _, s = fresh mpx in
  let p = s.Scheme.malloc 16 in
  check_allows "weak libc wrappers" (fun () -> s.Scheme.libc_check p 1000 Write)

let test_race_desyncs_bounds () =
  (* §4.1: two threads store different pointers to the same location;
     the data store and bndstx of thread A interleave with thread B's.
     Afterwards the BT entry does not match the memory value, so the
     loaded pointer escapes checking — an undetected-attack window that
     SGXBounds closes by construction. *)
  let m, s = fresh mpx in
  let slot = s.Scheme.malloc 8 in
  let obj1 = s.Scheme.malloc 16 in
  let obj2 = s.Scheme.malloc 32 in
  let store_interleaved q () =
    Memsys.store m ~addr:(s.Scheme.addr_of slot) ~width:8 (Scheme.word s q);
    Sb_mt.Mt.yield ();
    (* bndstx half, after the other thread ran *)
    s.Scheme.store_ptr slot q
  in
  Sb_mt.Mt.run m [| store_interleaved obj1; store_interleaved obj2 |];
  let final = s.Scheme.load_ptr slot in
  (* Whichever interleaving won, prove that a desync is possible: run the
     classic bad schedule deterministically. *)
  ignore final;
  Memsys.store m ~addr:(s.Scheme.addr_of slot) ~width:8 (Scheme.word s obj2); (* A: data store *)
  s.Scheme.store_ptr slot obj1;                                  (* B: full update *)
  let p = s.Scheme.load_ptr slot in
  (* Memory holds obj1 (B's data store came last in store_ptr)... make
     the desync explicit instead: *)
  Memsys.store m ~addr:(s.Scheme.addr_of slot) ~width:8 (Scheme.word s obj2);  (* A's late data store *)
  let p2 = s.Scheme.load_ptr slot in
  Alcotest.(check bool) "desync: value is obj2 but bounds entry is obj1's"
    true ((not (Ptr.has_bounds p2)) && Ptr.has_bounds p)

let prop_inbounds_never_flagged =
  QCheck.Test.make ~name:"mpx: in-bounds accesses never flagged" ~count:100
    QCheck.(pair (int_range 1 200) (int_range 0 199))
    (fun (size, off) ->
       QCheck.assume (off < size);
       let _, s = fresh mpx in
       let p = s.Scheme.malloc size in
       match s.Scheme.store (s.Scheme.offset p off) 1 1 with
       | () -> true
       | exception Violation _ -> false)

let suite =
  [
    Alcotest.test_case "in-bounds accesses pass" `Quick test_inbounds_ok;
    Alcotest.test_case "off-by-one detected (bndcu)" `Quick test_off_by_one_detected;
    Alcotest.test_case "underflow detected (bndcl)" `Quick test_underflow_detected;
    Alcotest.test_case "bounds survive spill/fill" `Quick test_bounds_survive_spill_fill;
    Alcotest.test_case "foreign pointer gets INIT bounds" `Quick test_foreign_pointer_gets_infinite_bounds;
    Alcotest.test_case "bounds tables allocated on demand" `Quick test_bt_allocated_on_demand;
    Alcotest.test_case "BT reservation counted as memory" `Quick test_bt_memory_counted;
    Alcotest.test_case "BT flood kills the enclave (OOM)" `Quick test_oom_on_bt_flood;
    Alcotest.test_case "intra-object overflow missed" `Quick test_intra_object_missed;
    Alcotest.test_case "weak libc wrappers" `Quick test_libc_not_checked;
    Alcotest.test_case "race desyncs pointer and bounds" `Quick test_race_desyncs_bounds;
    qtest prop_inbounds_never_flagged;
  ]
