(* The instrumentation auditor: §4.4 contract verification and the
   vector-clock race detector over Mt regions.

   Covers the seeded scenarios (MPX bounds-table race, annotation
   mutants), soundness corner cases (use-after-free, read checks not
   licensing writes, check extents), precision corner cases that bit us
   on real workloads (allocator address reuse across threads), the
   pure-observation guarantee (audited metrics bit-identical), and
   regression pins: every workload the auditor caught racing stays
   clean at 4 threads after its fork/join restructuring. *)

module Audit = Sb_analysis.Audit
module Analyze = Sb_analysis.Analyze
module Finding = Sb_analysis.Finding
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Memsys = Sb_sgx.Memsys
module Config = Sb_machine.Config
module Scheme = Sb_protection.Scheme
module Mt = Sb_mt.Mt
open Sb_protection.Types

let with_audited ?(track_races = false) scheme f =
  let ms = Memsys.create (Config.default ()) in
  let s = Harness.maker scheme ms in
  let s', a = Audit.wrap ~track_races s in
  Fun.protect ~finally:Audit.unhook (fun () -> f s' a)

(* ---- seeded scenarios (the CLI's --selftest, run under Alcotest) ---- *)

let test_selftests () =
  List.iter
    (fun st ->
       Alcotest.(check bool)
         (st.Analyze.st_name ^ ": " ^ st.Analyze.st_detail)
         true st.Analyze.st_pass)
    (Analyze.selftests ())

(* ---- contract soundness ---- *)

let test_use_after_free_flagged () =
  with_audited "native" (fun s a ->
      let p = s.Scheme.malloc 64 in
      s.Scheme.check_range p 64 Read;
      ignore (s.Scheme.load_unchecked p 4);
      Alcotest.(check int) "in-bounds while live" 0 (Audit.total a);
      s.Scheme.free p;
      ignore (s.Scheme.load_unchecked p 4);
      Alcotest.(check bool) "access after free flagged" true
        (Audit.count a Finding.Unchecked_uncovered > 0))

let test_check_does_not_survive_realloc () =
  with_audited "native" (fun s a ->
      let p = s.Scheme.malloc 64 in
      s.Scheme.check_range p 64 Write;
      let q = s.Scheme.realloc p 128 in
      ignore (s.Scheme.load_unchecked q 4);
      Alcotest.(check bool) "stale check does not cover the new object"
        true
        (Audit.count a Finding.Unchecked_uncovered > 0);
      s.Scheme.free q)

let test_read_check_does_not_license_writes () =
  with_audited "native" (fun s a ->
      let p = s.Scheme.malloc 64 in
      s.Scheme.check_range p 64 Read;
      ignore (s.Scheme.load_unchecked p 4);
      Alcotest.(check int) "read under read check is fine" 0 (Audit.total a);
      s.Scheme.store_unchecked p 4 7;
      Alcotest.(check bool) "write under read-only check flagged" true
        (Audit.count a Finding.Unchecked_uncovered > 0);
      s.Scheme.free p)

let test_write_check_licenses_reads () =
  with_audited "native" (fun s a ->
      let p = s.Scheme.malloc 64 in
      s.Scheme.check_range p 64 Write;
      s.Scheme.store_unchecked p 4 7;
      ignore (s.Scheme.load_unchecked p 4);
      Alcotest.(check int) "write check covers both directions" 0
        (Audit.total a);
      s.Scheme.free p)

let test_check_oob_flagged () =
  with_audited "native" (fun s a ->
      let p = s.Scheme.malloc 64 in
      s.Scheme.check_range p 80 Read;
      Alcotest.(check bool) "over-long check_range flagged" true
        (Audit.count a Finding.Check_oob > 0);
      s.Scheme.free p)

let test_stack_frame_lifetime () =
  with_audited "native" (fun s a ->
      let tok = s.Scheme.stack_push () in
      let p = s.Scheme.stack_alloc 32 in
      s.Scheme.check_range p 32 Read;
      ignore (s.Scheme.load_unchecked p 4);
      Alcotest.(check int) "live frame is fine" 0 (Audit.total a);
      s.Scheme.stack_pop tok;
      ignore (s.Scheme.load_unchecked p 4);
      Alcotest.(check bool) "access into popped frame flagged" true
        (Audit.count a Finding.Unchecked_uncovered > 0))

(* ---- race-detector precision ---- *)

let test_disjoint_parallel_writes_clean () =
  with_audited ~track_races:true "native" (fun s a ->
      let p = s.Scheme.malloc 256 in
      s.Scheme.check_range p 256 Write;
      Mt.run s.Scheme.ms
        [|
          (fun () ->
             for i = 0 to 7 do
               s.Scheme.store_unchecked (s.Scheme.offset p (i * 4)) 4 i;
               Mt.yield ()
             done);
          (fun () ->
             for i = 8 to 15 do
               s.Scheme.store_unchecked (s.Scheme.offset p (i * 4)) 4 i;
               Mt.yield ()
             done);
        |];
      Alcotest.(check int) "disjoint halves do not race" 0 (Audit.total a);
      s.Scheme.free p)

let test_sequential_between_regions_clean () =
  (* region 1 writes, the join publishes, region 2 reads: no race *)
  with_audited ~track_races:true "native" (fun s a ->
      let p = s.Scheme.malloc 64 in
      s.Scheme.check_range p 64 Write;
      Mt.run s.Scheme.ms
        [| (fun () -> s.Scheme.store_unchecked p 4 1); (fun () -> Mt.yield ()) |];
      s.Scheme.store_unchecked p 4 2;
      Mt.run s.Scheme.ms
        [|
          (fun () -> ignore (s.Scheme.load_unchecked p 4));
          (fun () -> ignore (s.Scheme.load_unchecked (s.Scheme.offset p 8) 4));
        |];
      Alcotest.(check int) "fork/join is synchronization" 0 (Audit.total a);
      s.Scheme.free p)

let test_address_reuse_not_a_race () =
  (* The swaptions false positive: thread A frees its block, a later
     allocation by thread B recycles the address. The allocator
     serializes the handoff, so the prior owner's accesses must not be
     read as conflicts. *)
  with_audited ~track_races:true "native" (fun s a ->
      let slots = Array.make 2 None in
      Mt.run s.Scheme.ms
        [|
          (fun () ->
             let p = s.Scheme.malloc 32 in
             s.Scheme.store p 4 1;
             s.Scheme.free p;
             slots.(0) <- Some (s.Scheme.addr_of p);
             Mt.yield ());
          (fun () ->
             Mt.yield ();
             let q = s.Scheme.malloc 32 in
             s.Scheme.store q 4 2;
             slots.(1) <- Some (s.Scheme.addr_of q);
             s.Scheme.free q);
        |];
      Alcotest.(check (option int))
        "the test is only meaningful if the address was recycled" slots.(0)
        slots.(1);
      Alcotest.(check int) "allocator handoff is synchronization" 0
        (Audit.total a))

let test_true_sharing_is_a_race () =
  with_audited ~track_races:true "native" (fun s a ->
      let p = s.Scheme.malloc 8 in
      Mt.run s.Scheme.ms
        [|
          (fun () -> s.Scheme.store p 4 1; Mt.yield ());
          (fun () -> s.Scheme.store p 4 2; Mt.yield ());
        |];
      Alcotest.(check bool) "same-word writes race" true
        (Audit.count a Finding.Data_race > 0);
      s.Scheme.free p)

(* ---- pure observation: audited metrics are bit-identical ---- *)

let test_audit_does_not_perturb_metrics () =
  List.iter
    (fun scheme ->
       let w = Registry.find "histogram" in
       let plain = Harness.run_one ~scheme ~n:256 w in
       let wrap s = fst (Audit.wrap ~track_races:true s) in
       let audited =
         Fun.protect ~finally:Audit.unhook (fun () ->
             Harness.run_one ~wrap ~scheme ~n:256 w)
       in
       Alcotest.(check bool)
         (scheme ^ ": audited metrics bit-identical")
         true
         (Harness.metrics_exn plain = Harness.metrics_exn audited))
    [ "native"; "sgxbounds"; "mpx" ]

(* ---- regression pins: the workloads the auditor caught ---- *)

let test_fixed_workloads_audit_clean () =
  (* wordcount mutated shared bucket chains from the map phase; dedup
     committed to the shared store from inside the region; fluidanimate
     wrote the halo field its neighbours were reading; swaptions was an
     auditor false positive (address reuse). All must stay clean at 4
     threads under a metadata-bearing scheme and a plain one. *)
  List.iter
    (fun name ->
       let w = Registry.find name in
       List.iter
         (fun scheme ->
            let c = Analyze.run_cell ~threads:4 ~scheme w in
            Alcotest.(check (option string))
              (name ^ "/" ^ scheme ^ " completes") None c.Analyze.c_crashed;
            Alcotest.(check int)
              (name ^ "/" ^ scheme ^ " audits clean at t=4")
              0 c.Analyze.c_total)
         [ "sgxbounds"; "mpx" ])
    [ "wordcount"; "fluidanimate"; "dedup"; "swaptions" ]

let test_sweep_smoke () =
  let cells =
    Analyze.sweep ~schemes:[ "native"; "sgxbounds" ]
      [ Registry.find "histogram"; Registry.find "mcf" ]
  in
  Alcotest.(check int) "4 cells" 4 (List.length cells);
  Alcotest.(check int) "no findings" 0 (Analyze.cells_findings cells);
  Alcotest.(check int) "no crashes" 0 (Analyze.cells_crashed cells);
  List.iter
    (fun c ->
       Alcotest.(check bool) "audited some operations" true (c.Analyze.c_ops > 0))
    cells

(* ---- the sweep: domains and pinned outputs ---- *)

(* [json_of_cell] digests of a cheap subset, as bench/ledger's
   audit-opt pins them. *)
let pinned_cells =
  [
    ("string_match", "native", "4f47f1679f6681b86b9b819e574a16a2");
    ("string_match", "sgxbounds", "00d2a4058510f2cd5caf495aabdca771");
    ("string_match", "asan", "d75750a5d351850ecab7442bc5e57852");
    ("string_match", "mpx", "51ee64f0545a10fd033342707a169cdc");
    ("dedup", "native", "8846910d2b0c416fa39795170fba607c");
    ("dedup", "sgxbounds", "654fdc8bc5cd68d57a5bd56b569c556e");
    ("dedup", "asan", "2ee16ea96bfa3351a790d2ffb23f4e1a");
    ("dedup", "mpx", "42e3162edc4226efafe1c12f8d5ef453");
    ("mcf", "native", "5c390fb3ca006d36e5adca6d120c8967");
    ("mcf", "sgxbounds", "d8cc762e3a2b0d3af00a6760edd8af9f");
    ("mcf", "asan", "3218740650e3bc20ed6a136ffe56f9e2");
    ("mcf", "mpx", "ec71bec55b758696cf271b5c79fb026a");
    ("xalancbmk", "native", "2ef8510a87d3f97e5b2ac24fcec8aa59");
    ("xalancbmk", "sgxbounds", "b8a504c44d04e4a4f22fff89252cf5da");
    ("xalancbmk", "asan", "7dc2d95c1690cead7aa7b1e0a665ec46");
    ("xalancbmk", "mpx", "9ddfc29bc17e804f14d794846082958e");
  ]

(* [analyze --json] under -j 1 and -j 2 is the same document, and its
   cells are the pinned ones. *)
let test_sweep_jobs_and_digests () =
  let workloads = List.map Registry.find [ "string_match"; "dedup"; "mcf"; "xalancbmk" ] in
  let sweep jobs = Analyze.sweep ~jobs ~schemes:Analyze.default_schemes workloads in
  let c1 = sweep 1 and c2 = sweep 2 in
  let doc cells = Sb_telemetry.Json.to_string (Analyze.json_report cells) in
  Alcotest.(check string) "--jobs 1 = --jobs 2" (doc c1) (doc c2);
  Alcotest.(check int) "every cell" (List.length pinned_cells) (List.length c1);
  List.iter
    (fun (c : Analyze.cell) ->
       let want =
         List.find_map
           (fun (w, s, d) ->
              if w = c.Analyze.c_workload && s = c.Analyze.c_scheme then Some d else None)
           pinned_cells
       in
       let got =
         Digest.to_hex (Digest.string (Sb_telemetry.Json.to_string (Analyze.json_of_cell c)))
       in
       Alcotest.(check (option string))
         (c.Analyze.c_workload ^ "/" ^ c.Analyze.c_scheme)
         want (Some got))
    c1

(* ---- libc checks awaiting their touch ---- *)

(* The pending libc checks against the list they once were: the 16
   newest, a touch matching the newest check at its address and in its
   direction and removing it. Seeded runs over a few addresses of one
   object must raise the same Libc_unchecked and Libc_mismatch counts. *)
let test_libc_pending_model () =
  for seed = 1 to 8 do
    with_audited "native" (fun s a ->
        let rng = Random.State.make [| seed |] in
        let p = s.Scheme.malloc 256 in
        let pending = ref [] and unchecked = ref 0 and mismatch = ref 0 in
        for _ = 1 to 2000 do
          let off = 8 * Random.State.int rng 24 in
          let len = [| 4; 8; 16 |].(Random.State.int rng 3) in
          let dir = if Random.State.bool rng then Read else Write in
          let q = s.Scheme.offset p off and addr = Scheme.addr s p + off in
          if Random.State.int rng 3 > 0 then begin
            s.Scheme.libc_check q len dir;
            pending := List.filteri (fun i _ -> i < 16) ((addr, len, dir) :: !pending)
          end
          else begin
            s.Scheme.libc_touch "memcpy" q len dir;
            let rec take acc = function
              | [] -> incr unchecked; List.rev acc
              | (a', l, d) :: rest when a' = addr && d = dir ->
                if l <> len then incr mismatch;
                List.rev_append acc rest
              | e :: rest -> take (e :: acc) rest
            in
            pending := take [] !pending
          end
        done;
        let ctx what = Printf.sprintf "seed %d: %s" seed what in
        Alcotest.(check bool) (ctx "the run reaches both findings") true
          (!unchecked > 0 && !mismatch > 0);
        Alcotest.(check int) (ctx "Libc_unchecked") !unchecked
          (Audit.count a Finding.Libc_unchecked);
        Alcotest.(check int) (ctx "Libc_mismatch") !mismatch
          (Audit.count a Finding.Libc_mismatch))
  done

(* A libc check and its touch go through the ring and the live table
   without allocating (on the fast engine: the naive one allocates per
   simulated access). *)
let test_libc_pairs_do_not_allocate () =
  Sb_machine.Fastpath.with_kind Sb_machine.Fastpath.Fast @@ fun () ->
  with_audited "native" (fun s a ->
      let p = s.Scheme.malloc 256 in
      let pairs () =
        for i = 0 to 999 do
          let q = s.Scheme.offset p (8 * (i land 15)) in
          s.Scheme.libc_check q 64 Read;
          s.Scheme.libc_touch "memcpy" q 64 Read
        done
      in
      pairs ();
      let words = Helpers.minor_words pairs in
      Alcotest.(check int) "no findings" 0 (Audit.total a);
      Alcotest.(check (float 0.)) "minor words of 1000 check/touch pairs" 0. words)

let suite =
  [
    Alcotest.test_case "selftests: seeded race and mutants" `Quick test_selftests;
    Alcotest.test_case "use-after-free access flagged" `Quick
      test_use_after_free_flagged;
    Alcotest.test_case "checks die with their object (realloc)" `Quick
      test_check_does_not_survive_realloc;
    Alcotest.test_case "read check does not license writes" `Quick
      test_read_check_does_not_license_writes;
    Alcotest.test_case "write check licenses reads" `Quick
      test_write_check_licenses_reads;
    Alcotest.test_case "over-long check_range flagged" `Quick test_check_oob_flagged;
    Alcotest.test_case "libc: pending checks match a list model" `Quick
      test_libc_pending_model;
    Alcotest.test_case "libc: check/touch pairs allocate nothing" `Quick
      test_libc_pairs_do_not_allocate;
    Alcotest.test_case "stack frames bound object lifetime" `Quick
      test_stack_frame_lifetime;
    Alcotest.test_case "races: disjoint parallel writes clean" `Quick
      test_disjoint_parallel_writes_clean;
    Alcotest.test_case "races: fork/join synchronizes" `Quick
      test_sequential_between_regions_clean;
    Alcotest.test_case "races: address reuse is not a race" `Quick
      test_address_reuse_not_a_race;
    Alcotest.test_case "races: true sharing is a race" `Quick
      test_true_sharing_is_a_race;
    Alcotest.test_case "audit is pure observation (metrics identical)" `Slow
      test_audit_does_not_perturb_metrics;
    Alcotest.test_case "fixed workloads audit clean at t=4" `Slow
      test_fixed_workloads_audit_clean;
    Alcotest.test_case "sweep smoke" `Slow test_sweep_smoke;
    Alcotest.test_case "sweep: --jobs invariant, pinned cell digests" `Quick
      test_sweep_jobs_and_digests;
  ]
