module Reproduce = Sb_reproduce.Reproduce
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Registry = Sb_workloads.Registry
module Optimizer = Sb_analysis.Optimizer
module Config = Sb_machine.Config

(* ---------- overhead tables ---------- *)

let metrics ~cycles ~epc_faults =
  {
    Harness.cycles;
    instrs = 0;
    mem_accesses = 0;
    llc_misses = 10;
    epc_faults;
    epc_evictions = 0;
    peak_vm = 4096;
    bts = 0;
    quarantine = 0;
    attribution = [];
    compute_cycles = 0;
    cache = [];
    checks_done = 0;
    checks_elided = 0;
    checks_hoisted = 0;
    violations = 0;
  }

let result scheme outcome =
  { Harness.scheme; workload = "w"; n = 1; threads = 1; env = Config.Inside_enclave; outcome }

let data_lines tsv =
  match List.filter (( <> ) "") (String.split_on_char '\n' tsv) with
  | header :: rows ->
    Alcotest.(check string) "header" Reproduce.overhead_tsv_header header;
    List.map (String.split_on_char '\t') rows
  | [] -> Alcotest.fail "empty table"

let test_crash_renders_dash () =
  let rows =
    Parallel_runner.run_grid ~schemes:[ "native"; "mpx" ]
      ~workloads:[ Registry.find "dedup" ] ()
  in
  Alcotest.(check (list (list string)))
    "mpx runs dedup out of enclave memory" [ [ "dedup"; "mpx"; "-"; "-"; "-"; "-" ] ]
    (data_lines (Reproduce.overhead_tsv rows))

let test_ratios () =
  let rows =
    [
      ( "w",
        [
          ("native", result "native" (Harness.Completed (metrics ~cycles:400 ~epc_faults:0)));
          ( "sgxbounds",
            result "sgxbounds" (Harness.Completed (metrics ~cycles:500 ~epc_faults:3)) );
        ] );
    ]
  in
  (* perf_x is cycles over native cycles; a zero baseline divides by 1 *)
  Alcotest.(check (list (list string)))
    "ratios" [ [ "w"; "sgxbounds"; "1.2500"; "1.0000"; "1.0000"; "3.0000" ] ]
    (data_lines (Reproduce.overhead_tsv rows))

let test_crashed_baseline_drops_row () =
  let rows =
    [
      ( "w",
        [
          ("native", result "native" (Harness.Crashed "oom"));
          ("mpx", result "mpx" (Harness.Completed (metrics ~cycles:1 ~epc_faults:0)));
        ] );
    ]
  in
  Alcotest.(check int) "no data rows" 0 (List.length (data_lines (Reproduce.overhead_tsv rows)))

(* ---------- claims ---------- *)

let row ?(before = 100) ?(after = 50) ~scheme pct =
  {
    Optimizer.r_workload = "w";
    r_scheme = scheme;
    r_n = 1;
    r_sites = 1;
    r_hoist_sites = 0;
    r_elim_sites = 0;
    r_checks_before = before;
    r_checks_after = after;
    r_elided = 0;
    r_hoisted = 0;
    r_fallbacks = 0;
    r_removed_pct = pct;
    r_cycles_before = 0;
    r_cycles_after = 0;
    r_delta_pct = 0.;
    r_certs_bad = 0;
    r_sound = true;
    r_detail = "";
  }

let strong = List.init 3 (fun _ -> row ~scheme:"sgxbounds" 20.0)

let problems = Alcotest.(check int)

let test_elision_claims () =
  problems "three sgxbounds rows at 20% hold" 0 (List.length (Reproduce.elision_claims strong));
  problems "two are not enough" 1
    (List.length
       (Reproduce.elision_claims
          [ row ~scheme:"sgxbounds" 20.0; row ~scheme:"sgxbounds" 25.0;
            row ~scheme:"mpx" 90.0; row ~scheme:"sgxbounds" 19.9 ]));
  problems "checks_after > checks_before" 1
    (List.length
       (Reproduce.elision_claims (row ~before:5 ~after:6 ~scheme:"asan" 0. :: strong)));
  problems "removed_pct out of range" 2
    (List.length
       (Reproduce.elision_claims
          (row ~scheme:"asan" (-1.) :: row ~scheme:"asan" 100.5 :: strong)))

let test_fleet_claims () =
  problems "shards >= 1 holds" 0
    (List.length (Reproduce.fleet_claims [ ("mpx", 1); ("asan", 8) ]));
  problems "a zero-shard cell" 1
    (List.length (Reproduce.fleet_claims [ ("mpx", 1); ("sgxbounds", 0) ]))

(* ---------- byte-compare ---------- *)

let read path = In_channel.with_open_bin path In_channel.input_all

let test_reconcile () =
  let dir = Filename.temp_dir "sgxbounds-reproduce" "" in
  let write name s =
    Out_channel.with_open_bin (Filename.concat dir name) (fun oc -> output_string oc s)
  in
  write "a.tsv" "abc\n";
  write "b.tsv" "xyz\n";
  write "orphan.json" "{}";
  write "plot.gp" "plot";
  let statuses, orphans =
    Reproduce.reconcile ~dir [ ("a.tsv", "abc\n"); ("b.tsv", "xyZ\n"); ("new.tsv", "n\n") ]
  in
  Alcotest.(check bool) "same, one byte differs, missing" true
    (statuses
     = [ ("a.tsv", Reproduce.Same); ("b.tsv", Reproduce.Differs);
         ("new.tsv", Reproduce.Missing) ]);
  Alcotest.(check (list string)) "only the unproduced data file is an orphan"
    [ "orphan.json" ] orphans;
  Alcotest.(check string) "differing file rewritten" "xyZ\n"
    (read (Filename.concat dir "b.tsv"));
  Alcotest.(check string) "missing file written" "n\n" (read (Filename.concat dir "new.tsv"));
  let statuses, _ = Reproduce.reconcile ~dir [ ("b.tsv", "xyZ\n") ] in
  Alcotest.(check bool) "second pass is clean" true (statuses = [ ("b.tsv", Reproduce.Same) ])

let suite =
  [
    Alcotest.test_case "crashed cell renders dashes (mpx/dedup)" `Quick test_crash_renders_dash;
    Alcotest.test_case "ratios over native, max 1 denominators" `Quick test_ratios;
    Alcotest.test_case "crashed baseline drops the row" `Quick test_crashed_baseline_drops_row;
    Alcotest.test_case "elision claims reject bad rows" `Quick test_elision_claims;
    Alcotest.test_case "fleet claims reject zero shards" `Quick test_fleet_claims;
    Alcotest.test_case "reconcile: same, differs, missing, orphan" `Quick test_reconcile;
  ]
