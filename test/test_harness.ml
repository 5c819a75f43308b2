module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Config = Sb_machine.Config

let test_run_one_completes () =
  let w = Registry.find "histogram" in
  let r = Harness.run_one ~n:1024 ~scheme:"sgxbounds" w in
  match r.Harness.outcome with
  | Harness.Completed m ->
    Alcotest.(check bool) "cycles positive" true (m.Harness.cycles > 0);
    Alcotest.(check bool) "peak vm positive" true (m.Harness.peak_vm > 0)
  | Harness.Crashed msg -> Alcotest.failf "unexpected crash: %s" msg

let test_run_one_reports_crash () =
  let w = Registry.find "dedup" in
  let r = Harness.run_one ~scheme:"mpx" w in
  match r.Harness.outcome with
  | Harness.Crashed _ -> ()
  | Harness.Completed _ -> Alcotest.fail "dedup under MPX must die of OOM"

let test_all_makers_resolve () =
  List.iter
    (fun (name, _) ->
       let (_ : Sb_sgx.Memsys.t -> Sb_protection.Scheme.t) = Harness.maker name in
       ())
    Harness.makers;
  match Harness.maker "notascheme" with
  | (_ : Sb_sgx.Memsys.t -> Sb_protection.Scheme.t) -> Alcotest.fail "expected rejection"
  | exception Invalid_argument _ -> ()

let test_ratios () =
  let w = Registry.find "histogram" in
  let base = Harness.run_one ~n:2048 ~scheme:"native" w in
  let r = Harness.run_one ~n:2048 ~scheme:"asan" w in
  match base.Harness.outcome with
  | Harness.Crashed _ -> Alcotest.fail "native crashed"
  | Harness.Completed b ->
    (match Harness.perf_ratio ~baseline:b r with
     | Some x -> Alcotest.(check bool) "asan slower than native" true (x > 1.0)
     | None -> Alcotest.fail "no ratio");
    (match Harness.mem_ratio ~baseline:b r with
     | Some x -> Alcotest.(check bool) "asan uses more memory" true (x > 1.0)
     | None -> Alcotest.fail "no mem ratio")

let test_env_plumbs_through () =
  let w = Registry.find "lbm" in
  let inside = Harness.run_one ~n:8192 ~env:Config.Inside_enclave ~scheme:"native" w in
  let outside = Harness.run_one ~n:8192 ~env:Config.Outside_enclave ~scheme:"native" w in
  match (inside.Harness.outcome, outside.Harness.outcome) with
  | Harness.Completed i, Harness.Completed o ->
    Alcotest.(check bool) "inside has EPC faults" true (i.Harness.epc_faults > 0);
    Alcotest.(check int) "outside has none" 0 o.Harness.epc_faults;
    Alcotest.(check bool) "inside slower" true (i.Harness.cycles > o.Harness.cycles)
  | _ -> Alcotest.fail "runs crashed"

let test_fresh_machine_per_run () =
  (* two runs of the same cell are bit-identical: no state leaks *)
  let w = Registry.find "milc" in
  let one () =
    match (Harness.run_one ~n:1024 ~scheme:"sgxbounds" w).Harness.outcome with
    | Harness.Completed m -> m.Harness.cycles
    | Harness.Crashed _ -> -1
  in
  Alcotest.(check int) "identical" (one ()) (one ())

let test_sgxbounds_variants_ordered () =
  (* with all optimizations the run is never slower than without *)
  let w = Registry.find "kmeans" in
  let cycles scheme =
    match (Harness.run_one ~n:2048 ~scheme w).Harness.outcome with
    | Harness.Completed m -> m.Harness.cycles
    | Harness.Crashed _ -> max_int
  in
  Alcotest.(check bool) "opt <= noopt" true (cycles "sgxbounds" <= cycles "sgxbounds-noopt")

(* A machine costs what it maps and writes, not the size of its address
   space (a dense 2^19-entry page table alone is 512 K words). The minor
   collection makes the counters include the minor heap. *)
let test_machine_cost () =
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let build scheme = ignore (Harness.maker scheme (Sb_sgx.Memsys.create (Config.default ()))) in
  List.iter
    (fun scheme ->
       build scheme;
       let before = words () in
       build scheme;
       let w = int_of_float (words () -. before) in
       if w >= 65536 then Alcotest.failf "%s: a machine allocated %d words" scheme w)
    Sb_schemes.Scheme_info.headline_names

let suite =
  [
    Alcotest.test_case "run_one completes with metrics" `Quick test_run_one_completes;
    Alcotest.test_case "run_one reports crashes" `Quick test_run_one_reports_crash;
    Alcotest.test_case "all makers resolve; unknown rejected" `Quick test_all_makers_resolve;
    Alcotest.test_case "perf/mem ratios computed" `Quick test_ratios;
    Alcotest.test_case "environment plumbs through" `Quick test_env_plumbs_through;
    Alcotest.test_case "fresh machine per run" `Quick test_fresh_machine_per_run;
    Alcotest.test_case "optimizations never hurt" `Quick test_sgxbounds_variants_ordered;
    Alcotest.test_case "machine construction allocates < 64K words" `Quick test_machine_cost;
  ]
