open Helpers
module Epc = Sb_sgx.Epc
module Config = Sb_machine.Config
module Vmem = Sb_vmem.Vmem

let test_epc_hit_after_fault () =
  let e = Epc.create ~capacity_pages:4 () in
  Alcotest.(check bool) "first touch faults" false (Epc.touch e ~page:1);
  Alcotest.(check bool) "then resident" true (Epc.touch e ~page:1)

let test_epc_capacity_respected () =
  let e = Epc.create ~capacity_pages:4 () in
  for p = 0 to 9 do
    ignore (Epc.touch e ~page:p)
  done;
  Alcotest.(check int) "resident never exceeds capacity" 4 (Epc.resident_pages e)

let test_epc_eviction_cycles () =
  let e = Epc.create ~capacity_pages:2 () in
  ignore (Epc.touch e ~page:1);
  ignore (Epc.touch e ~page:2);
  ignore (Epc.touch e ~page:3);            (* evicts someone *)
  Alcotest.(check int) "three faults so far" 3 (Epc.faults e);
  (* Touching all three again must fault at least once. *)
  ignore (Epc.touch e ~page:1);
  ignore (Epc.touch e ~page:2);
  ignore (Epc.touch e ~page:3);
  Alcotest.(check bool) "thrash faults" true (Epc.faults e > 3)

let test_epc_clear () =
  let e = Epc.create ~capacity_pages:2 () in
  ignore (Epc.touch e ~page:1);
  Epc.clear e;
  Alcotest.(check int) "cleared" 0 (Epc.resident_pages e);
  Alcotest.(check bool) "faults again" false (Epc.touch e ~page:1)

(* A fault on the fast engine's table-indexed pages allocates nothing:
   no hashtable, no event record without a tracer, no sweep closure.
   Cycling over twice the capacity makes CLOCK evict on every touch.
   The first lap runs before the window and makes the table leaves. *)
let test_epc_fault_allocates_nothing () =
  Sb_machine.Fastpath.with_kind Sb_machine.Fastpath.Fast @@ fun () ->
  let cap = 64 in
  let e = Epc.create ~num_pages:(4 * cap) ~capacity_pages:cap () in
  let lap () =
    for p = 0 to (2 * cap) - 1 do
      ignore (Epc.touch e ~page:p)
    done
  in
  lap ();
  let f0 = Epc.faults e and e0 = Epc.evictions e in
  let w0 = Gc.minor_words () in
  for _ = 1 to 80 do
    lap ()
  done;
  let w = Gc.minor_words () -. w0 in
  let faults = Epc.faults e - f0 in
  Alcotest.(check bool) ">= 10 000 faults" true (faults >= 10_000);
  Alcotest.(check int) "evicts on every fault" faults (Epc.evictions e - e0);
  if w > 0. then Alcotest.failf "%.0f minor words over %d faults" w faults

let test_memsys_inside_pays_more_than_outside () =
  (* A working set far beyond every cache: inside the enclave each DRAM
     access pays the MEE premium. *)
  let run env =
    let m = ms ~env () in
    let vm = Memsys.vmem m in
    let len = 4 * 1024 * 1024 in
    let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
    for i = 0 to (len / 64) - 1 do
      ignore (Memsys.load m ~addr:(a + (i * 64)) ~width:4)
    done;
    (Memsys.snapshot m).Memsys.cycles
  in
  let inside = run Config.Inside_enclave and outside = run Config.Outside_enclave in
  Alcotest.(check bool) "MEE premium" true (inside > outside * 3 / 2)

let test_memsys_epc_thrashing_counts_faults () =
  let m = ms () in
  let c = Memsys.cfg m in
  let vm = Memsys.vmem m in
  (* Working set = 2x EPC, random-ish strided sweep, twice. *)
  let len = 2 * c.Config.epc_bytes in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  for _pass = 1 to 2 do
    let i = ref 0 in
    while !i < len do
      ignore (Memsys.load m ~addr:(a + !i) ~width:4);
      i := !i + 4096
    done
  done;
  Alcotest.(check bool) "EPC faults observed" true (Memsys.epc_faults m > len / 4096)

let test_memsys_small_ws_no_faults_after_warmup () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  for _ = 1 to 100 do
    ignore (Memsys.load m ~addr:a ~width:8)
  done;
  Alcotest.(check int) "one fault only (warmup)" 1 (Memsys.epc_faults m)

let test_memsys_outside_never_faults () =
  let m = ms ~env:Config.Outside_enclave () in
  let vm = Memsys.vmem m in
  let len = 8 * 1024 * 1024 in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  let i = ref 0 in
  while !i < len do
    ignore (Memsys.load m ~addr:(a + !i) ~width:4);
    i := !i + 4096
  done;
  Alcotest.(check int) "no EPC outside" 0 (Memsys.epc_faults m)

let test_charge_alu_advances_clock () =
  let m = ms () in
  let before = (Memsys.snapshot m).Memsys.cycles in
  Memsys.charge_alu m 123;
  let after = (Memsys.snapshot m).Memsys.cycles in
  Alcotest.(check int) "cycles advance" 123 (after - before);
  Alcotest.(check int) "instrs counted" 123 (Memsys.snapshot m).Memsys.instrs

let test_thread_clocks_independent () =
  let m = ms () in
  Memsys.set_thread m 1;
  Memsys.charge_alu m 50;
  Memsys.set_thread m 2;
  Memsys.charge_alu m 80;
  Alcotest.(check int) "thread 1 clock" 50 (Memsys.get_clock m 1);
  Alcotest.(check int) "thread 2 clock" 80 (Memsys.get_clock m 2);
  Alcotest.(check int) "elapsed is max" 80 (Memsys.snapshot m).Memsys.cycles

let test_touch_line_crossing_costs_two () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Memsys.reset m;
  (* Warm both lines. *)
  Memsys.touch m ~addr:(a + 60) ~width:8;
  let c0 = Memsys.get_clock m 0 in
  Memsys.touch m ~addr:(a + 60) ~width:8;   (* crosses lines 0 and 1, both warm *)
  let cost_crossing = Memsys.get_clock m 0 - c0 in
  Memsys.touch m ~addr:a ~width:8;
  let cost_single = Memsys.get_clock m 0 - c0 - cost_crossing in
  Alcotest.(check int) "two L1 hits vs one" (2 * cost_single) cost_crossing

let test_reset_clears_stats_not_data () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  ignore (Memsys.store m ~addr:a ~width:4 42);
  Memsys.reset m;
  Alcotest.(check int) "stats cleared" 0 (Memsys.snapshot m).Memsys.mem_accesses;
  Alcotest.(check int) "data survives" 42 (Vmem.load vm ~addr:a ~width:4)

let suite =
  [
    Alcotest.test_case "EPC: hit after fault" `Quick test_epc_hit_after_fault;
    Alcotest.test_case "EPC: capacity respected" `Quick test_epc_capacity_respected;
    Alcotest.test_case "EPC: eviction under pressure" `Quick test_epc_eviction_cycles;
    Alcotest.test_case "EPC: clear" `Quick test_epc_clear;
    Alcotest.test_case "EPC: a fault allocates nothing" `Quick test_epc_fault_allocates_nothing;
    Alcotest.test_case "inside enclave pays MEE premium" `Quick test_memsys_inside_pays_more_than_outside;
    Alcotest.test_case "EPC thrashing counts faults" `Quick test_memsys_epc_thrashing_counts_faults;
    Alcotest.test_case "small working set: warmup faults only" `Quick test_memsys_small_ws_no_faults_after_warmup;
    Alcotest.test_case "outside enclave never EPC-faults" `Quick test_memsys_outside_never_faults;
    Alcotest.test_case "charge_alu advances clock" `Quick test_charge_alu_advances_clock;
    Alcotest.test_case "thread clocks independent; elapsed is max" `Quick test_thread_clocks_independent;
    Alcotest.test_case "line-crossing access costs two lines" `Quick test_touch_line_crossing_costs_two;
    Alcotest.test_case "reset clears stats, keeps data" `Quick test_reset_clears_stats_not_data;
  ]

let test_touch_range_counts_lines () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  Memsys.reset m;
  Memsys.touch_range m ~addr:a ~len:640; (* exactly 10 lines *)
  Alcotest.(check int) "one access event per line" 10 (Memsys.snapshot m).Memsys.mem_accesses

let test_blit_costs_both_sides () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  Memsys.reset m;
  Memsys.blit m ~src:a ~dst:(a + 4096) ~len:256;
  Alcotest.(check int) "4 src + 4 dst lines" 8 (Memsys.snapshot m).Memsys.mem_accesses

let extra_suite =
  [
    Alcotest.test_case "touch_range counts lines" `Quick test_touch_range_counts_lines;
    Alcotest.test_case "blit costs both sides" `Quick test_blit_costs_both_sides;
  ]

let suite = suite @ extra_suite
