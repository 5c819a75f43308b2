(** Trace-engine (superblock fusion) differential tests (PR 7).

    The trace engine records hot strided access sequences and replays
    their accounting through compiled per-site flush closures
    ({!Sb_machine.Trace}, [Sb_sgx.Memsys]). Its contract: every
    simulated observable — cycles, per-class attribution, cache
    hit/miss counts, EPC faults, loaded values, crash identity, thread
    clocks — is bit-for-bit the naive interpreter's at every
    observation point. These tests drive the recorder's edge cases
    (promotion, pattern breaks, interposed probes, remap invalidation,
    thread switches, cooperative yields, telemetry/profiler fallback,
    consecutive machines, demand-zero pages) under all three engines
    and insist on structural equality. *)

module Fastpath = Sb_machine.Fastpath
module Trace = Sb_machine.Trace
module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Scheme = Sb_protection.Scheme
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Profile = Sb_telemetry.Profile

let engines = [ (Fastpath.Naive, "naive"); (Fastpath.Fast, "fast"); (Fastpath.Trace, "trace") ]

(* Run [f] under every engine; check all results structurally equal to
   the naive one via [check name naive other]. *)
let tri ~check f =
  let naive = Fastpath.with_kind Fastpath.Naive f in
  List.iter
    (fun (kind, name) ->
       if kind <> Fastpath.Naive then check name naive (Fastpath.with_kind kind f))
    engines

let check_int = Alcotest.(check int)

type probe = {
  snap : Memsys.snapshot;
  attr : (Memsys.access_class * Memsys.class_stat) list;
  cache : (string * Sb_cache.Hierarchy.level_stats) list;
  clocks : int * int;
  compute : int;
}

let probe ms =
  {
    snap = Memsys.snapshot ms;
    attr = Memsys.attribution ms;
    cache = Memsys.cache_stats ms;
    clocks = (Memsys.get_clock ms 0, Memsys.get_clock ms 1);
    compute = Memsys.compute_cycles ms;
  }

let check_probe where (n : probe) (o : probe) =
  check_int (where ^ " cycles") n.snap.Memsys.cycles o.snap.Memsys.cycles;
  check_int (where ^ " instrs") n.snap.Memsys.instrs o.snap.Memsys.instrs;
  check_int (where ^ " mem_accesses") n.snap.Memsys.mem_accesses o.snap.Memsys.mem_accesses;
  check_int (where ^ " llc_misses") n.snap.Memsys.llc_misses o.snap.Memsys.llc_misses;
  check_int (where ^ " epc_faults") n.snap.Memsys.epc_faults o.snap.Memsys.epc_faults;
  check_int (where ^ " clock0") (fst n.clocks) (fst o.clocks);
  check_int (where ^ " clock1") (snd n.clocks) (snd o.clocks);
  check_int (where ^ " compute") n.compute o.compute;
  List.iter2
    (fun (c, (s1 : Memsys.class_stat)) (_, (s2 : Memsys.class_stat)) ->
       check_int (where ^ " attr:" ^ Memsys.class_name c) s1.Memsys.accesses s2.Memsys.accesses;
       check_int (where ^ " attr-cyc:" ^ Memsys.class_name c) s1.Memsys.cycles s2.Memsys.cycles)
    n.attr o.attr;
  List.iter2
    (fun (l, (s1 : Sb_cache.Hierarchy.level_stats))
      (_, (s2 : Sb_cache.Hierarchy.level_stats)) ->
      check_int (where ^ " " ^ l ^ " hits") s1.Sb_cache.Hierarchy.hits s2.Sb_cache.Hierarchy.hits;
      check_int (where ^ " " ^ l ^ " misses") s1.Sb_cache.Hierarchy.misses
        s2.Sb_cache.Hierarchy.misses)
    n.cache o.cache

let check_run where name (pn, dn) (po, d) =
  let where = where ^ "/" ^ name in
  check_int (where ^ " digest") dn d;
  List.iteri (fun i (a, b) -> check_probe (Printf.sprintf "%s #%d" where i) a b)
    (List.combine pn po)

(* ------------------------------------------------------------------ *)
(* Stride patterns: promotion, splits, breaks, interposed probes       *)
(* ------------------------------------------------------------------ *)

(* Every shape the recorder distinguishes: contiguous scans at all
   widths (aligned and unaligned, so accesses straddle cache lines
   mid-run), larger strides with per-access splits, backward scans,
   stride-0 hammering, abrupt pattern breaks, and probes that must kill
   a live run ([touch_range]/[blit]/[fill]/class switches). *)
let pattern_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let len = 64 * 1024 in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  let probes = ref [] in
  let checkpoint () = probes := probe ms :: !probes in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  (* seed memory *)
  for i = 0 to (len / 8) - 1 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 (i * 2654435761)
  done;
  checkpoint ();
  (* contiguous scans, all widths, aligned *)
  List.iter
    (fun w ->
       let i = ref 0 in
       while !i + w <= 4096 do
         note (Memsys.load ms ~addr:(a + !i) ~width:w);
         i := !i + w
       done)
    [ 1; 2; 4; 8 ];
  checkpoint ();
  (* unaligned scans: width 4 at stride 4 from a+1, width 8 at stride 8
     from a+5 — some accesses split across lines inside a run *)
  let i = ref 1 in
  while !i + 4 <= 2048 do
    note (Memsys.load ms ~addr:(a + !i) ~width:4);
    i := !i + 4
  done;
  let i = ref 5 in
  while !i + 8 <= 2048 do
    note (Memsys.load ms ~addr:(a + !i) ~width:8);
    i := !i + 8
  done;
  checkpoint ();
  (* strided with splits: stride 12 width 8; stride 48 width 4 *)
  let i = ref 0 in
  while !i + 8 <= 8192 do
    note (Memsys.load ms ~addr:(a + !i) ~width:8);
    i := !i + 12
  done;
  let i = ref 2 in
  while !i + 4 <= 8192 do
    note (Memsys.load ms ~addr:(a + !i) ~width:4);
    i := !i + 48
  done;
  checkpoint ();
  (* backward scan *)
  let i = ref (4096 - 8) in
  while !i >= 0 do
    note (Memsys.load ms ~addr:(a + !i) ~width:8);
    i := !i - 8
  done;
  checkpoint ();
  (* stride-0 hammer, split by a mid-stream class switch *)
  for k = 1 to 600 do
    Memsys.store ms ~addr:(a + 128) ~width:8 k;
    note (Memsys.load ms ~addr:(a + 128) ~width:8);
    if k = 300 then Memsys.touch ~cls:Memsys.Shadow ms ~addr:(a + 128) ~width:1
  done;
  checkpoint ();
  (* pattern breaks: alternate two interleaved scans so the stride
     detector sees a break on every access *)
  for k = 0 to 255 do
    note (Memsys.load ms ~addr:(a + (k * 8)) ~width:8);
    note (Memsys.load ms ~addr:(a + 16384 + (k * 16)) ~width:8)
  done;
  checkpoint ();
  (* interposed probes must kill live runs with exact accounting *)
  let i = ref 0 in
  while !i + 8 <= 4096 do
    note (Memsys.load ms ~addr:(a + !i) ~width:8);
    (match !i with
     | 1024 -> Memsys.touch_range ms ~addr:(a + 20000) ~len:300
     | 2048 -> Memsys.blit ms ~src:a ~dst:(a + 32768) ~len:256
     | 3072 -> Memsys.fill ms ~addr:(a + 24000) ~len:128 ~byte:0x5A
     | 1536 -> Memsys.charge_alu ms 7
     | _ -> ());
    i := !i + 8
  done;
  checkpoint ();
  (* metadata-class runs: footer loads at stride 8 *)
  for k = 0 to 255 do
    Memsys.touch ~cls:Memsys.Footer_meta ms ~addr:(a + 40960 + (k * 8)) ~width:4
  done;
  checkpoint ();
  (List.rev !probes, !digest)

let test_patterns () = tri ~check:(check_run "patterns") pattern_kernel

(* ------------------------------------------------------------------ *)
(* Remap invalidation: unmap / protect / scheme free / realloc         *)
(* ------------------------------------------------------------------ *)

let remap_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:16384 ~perm:Vmem.Read_write () in
  let b = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  let probes = ref [] in
  let checkpoint () = probes := probe ms :: !probes in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  for i = 0 to 1023 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i;
    Memsys.store ms ~addr:(b + (i * 4)) ~width:4 i
  done;
  (* scan [a]; unmap [b] mid-run — the remap hook fires while a run over
     [a] is live and must flush (not lose) its pending accounting *)
  for i = 0 to 511 do
    note (Memsys.load ms ~addr:(a + (i * 8)) ~width:8);
    if i = 300 then Vmem.unmap vm ~addr:b ~len:8192
  done;
  checkpoint ();
  (* protect to read-only mid-run, then fault on store: the fused data
     window over [a] must die with the protect, and the fault must land
     at the same access with identical pre-fault accounting *)
  let faulted = ref (-1) in
  (try
     for i = 0 to 511 do
       Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i;
       if i = 200 then Vmem.protect vm ~addr:a ~len:4096 ~perm:Vmem.Read_only
     done
   with Vmem.Fault { addr; _ } -> faulted := addr - a);
  note !faulted;
  checkpoint ();
  (List.rev !probes, !digest)

let test_remap () = tri ~check:(check_run "remap") remap_kernel

(* free/realloc during hot scans, through a real scheme's allocator *)
let alloc_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let s : Scheme.t = Sgxbounds.make ms in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  let p = s.Scheme.calloc 1 4096 in
  let q = s.Scheme.calloc 1 2048 in
  for i = 0 to 4095 do
    s.Scheme.store (s.Scheme.offset p i) 1 (i land 0xff)
  done;
  (* scan [p]; free [q] mid-run *)
  for i = 0 to 4088 do
    note (s.Scheme.load (s.Scheme.offset p i) 1);
    if i = 2000 then s.Scheme.free q
  done;
  (* realloc [p] mid-scan: the object may move; subsequent accesses go
     through the new mapping and any cached window must be dead *)
  let p = ref p in
  for i = 0 to 1023 do
    note (s.Scheme.load (s.Scheme.offset !p i) 1);
    if i = 512 then p := s.Scheme.realloc !p 8192
  done;
  let snap = Memsys.snapshot ms in
  (!digest, snap.Memsys.cycles, snap.Memsys.mem_accesses, snap.Memsys.llc_misses)

let test_alloc_invalidation () =
  tri
    ~check:(fun name n o ->
      let dn, cn, mn, ln = n and d, c, m, l = o in
      check_int (name ^ " digest") dn d;
      check_int (name ^ " cycles") cn c;
      check_int (name ^ " mem_accesses") mn m;
      check_int (name ^ " llc_misses") ln l)
    alloc_kernel

(* ------------------------------------------------------------------ *)
(* Thread switches and cooperative yields mid-run                      *)
(* ------------------------------------------------------------------ *)

let thread_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:16384 ~perm:Vmem.Read_write () in
  for i = 0 to 2047 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
  done;
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  (* switch threads in the middle of a hot scan: pending superblock
     accounting must land on the thread that issued it, never migrate *)
  for i = 0 to 2047 do
    note (Memsys.load ms ~addr:(a + (i * 8)) ~width:8);
    if i = 1000 then Memsys.set_thread ms 1;
    if i = 1500 then Memsys.set_thread ms 0
  done;
  ([ probe ms ], !digest)

let test_thread_switch () = tri ~check:(check_run "thread-switch") thread_kernel

(* Simulated multithreading: the cooperative scheduler's interleaving
   derives from yield points and simulated clocks, so equality across
   engines proves fusion preserves both exactly (a superblock must not
   defer a yield). *)
let test_mt_workload () =
  let run () =
    let w = Registry.find "pca" in
    let n = max 16 (w.Registry.default_n / 8) in
    (Harness.run_one ~threads:4 ~n ~scheme:"sgxbounds" w).Harness.outcome
  in
  tri
    ~check:(fun name n o ->
      match (n, o) with
      | Harness.Completed a, Harness.Completed b ->
        check_int (name ^ " cycles") a.Harness.cycles b.Harness.cycles;
        check_int (name ^ " instrs") a.Harness.instrs b.Harness.instrs;
        check_int (name ^ " mem_accesses") a.Harness.mem_accesses b.Harness.mem_accesses;
        check_int (name ^ " llc_misses") a.Harness.llc_misses b.Harness.llc_misses;
        check_int (name ^ " epc_faults") a.Harness.epc_faults b.Harness.epc_faults;
        check_int (name ^ " checks_done") a.Harness.checks_done b.Harness.checks_done
      | Harness.Crashed a, Harness.Crashed b -> Alcotest.(check string) name a b
      | _ -> Alcotest.failf "%s: outcome shape differs from naive" name)
    run

(* ------------------------------------------------------------------ *)
(* Telemetry and profiler fallback                                     *)
(* ------------------------------------------------------------------ *)

(* With a telemetry hub enabled the recorder must stay off (each access
   is observed individually) — and the simulated stats must still equal
   the naive engine's. *)
let test_telemetry_fallback () =
  let kernel () =
    let tel = Sb_telemetry.Telemetry.create ~enabled:true () in
    let ms = Memsys.create ~tel (Config.default ()) in
    let vm = Memsys.vmem ms in
    let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
    let digest = ref 0 in
    for i = 0 to 1023 do
      Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
    done;
    for i = 0 to 1023 do
      digest := (!digest * 31) + Memsys.load ms ~addr:(a + (i * 8)) ~width:8
    done;
    let p = probe ms in
    let ts = Memsys.trace_stats ms in
    (p, !digest, ts)
  in
  let naive, _, _ = Fastpath.with_kind Fastpath.Naive kernel in
  let tr_p, tr_d, ts = Fastpath.with_kind Fastpath.Trace kernel in
  check_probe "telemetry-fallback" naive tr_p;
  check_int "telemetry digest"
    (let _, d, _ = Fastpath.with_kind Fastpath.Naive kernel in d) tr_d;
  check_int "recorder off: superblocks" 0 ts.Trace.superblocks;
  check_int "recorder off: fused" 0 ts.Trace.fused;
  check_int "recorder off: sites" 0 ts.Trace.sites

(* Attaching a profiler mid-run kills the live superblock and disables
   promotion until detach; simulated stats stay bit-identical and the
   profiler sees every post-attach charge. *)
let profiler_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  let prof = Profile.create ~buckets:Memsys.profile_buckets () in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  for i = 0 to 1023 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
  done;
  for i = 0 to 1023 do
    note (Memsys.load ms ~addr:(a + (i * 8)) ~width:8);
    if i = 400 then Memsys.attach_profiler ms prof;
    if i = 800 then Memsys.detach_profiler ms
  done;
  let p = probe ms in
  let profiled =
    List.fold_left (fun acc (r : Profile.row) -> acc + r.Profile.r_self) 0
      (Profile.rows prof)
  in
  ([ p ], (!digest * 31) + profiled)

let test_profiler_attach () = tri ~check:(check_run "profiler-attach") profiler_kernel

(* ------------------------------------------------------------------ *)
(* Consecutive machines                                                *)
(* ------------------------------------------------------------------ *)

(* A later machine must behave exactly like the first, and compiled
   site closures must never leak across machines (they capture their
   machine). Run the same kernel on three consecutive machines per
   engine and require identical results each time. *)
let test_consecutive_machines () =
  let kernel () =
    let ms = Memsys.create (Config.default ()) in
    let vm = Memsys.vmem ms in
    let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
    let digest = ref 0 in
    for i = 0 to 1023 do
      Memsys.store ms ~addr:(a + (i * 8)) ~width:8 (i * 17)
    done;
    for i = 0 to 1023 do
      digest := (!digest * 31) + Memsys.load ms ~addr:(a + (i * 8)) ~width:8
    done;
    let ts = Memsys.trace_stats ms in
    let p = probe ms in
    (p, !digest, ts.Trace.superblocks, ts.Trace.fused)
  in
  let runs3 () =
    let a = kernel () and b = kernel () and c = kernel () in
    [ a; b; c ]
  in
  tri
    ~check:(fun name ns os ->
      List.iteri
        (fun i ((pn, dn, _, _), (po, d, _, _)) ->
           check_int (Printf.sprintf "%s run%d digest" name i) dn d;
           check_probe (Printf.sprintf "%s run%d" name i) pn po)
        (List.combine ns os))
    runs3;
  (* under the trace engine, every new machine re-records *)
  Fastpath.with_kind Fastpath.Trace (fun () ->
    let (_, _, sb1, fu1) = kernel () in
    let (_, _, sb2, fu2) = kernel () in
    Alcotest.(check bool) "superblocks promoted on a second machine" true (sb2 > 0);
    check_int "same superblocks across machines" sb1 sb2;
    check_int "same fused count across machines" fu1 fu2)

(* ------------------------------------------------------------------ *)
(* Recorder observability                                              *)
(* ------------------------------------------------------------------ *)

let test_trace_stats () =
  (* under fast/naive the recorder must never engage *)
  List.iter
    (fun kind ->
       Fastpath.with_kind kind (fun () ->
         let ms = Memsys.create (Config.default ()) in
         let vm = Memsys.vmem ms in
         let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
         for i = 0 to 511 do
           Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
         done;
         let ts = Memsys.trace_stats ms in
         check_int "no superblocks" 0 ts.Trace.superblocks;
         check_int "no fused" 0 ts.Trace.fused))
    [ Fastpath.Naive; Fastpath.Fast ];
  (* under trace: promotion, breaks and invalidations all observable *)
  Fastpath.with_kind Fastpath.Trace (fun () ->
    let ms = Memsys.create (Config.default ()) in
    let vm = Memsys.vmem ms in
    let a = Vmem.map vm ~len:16384 ~perm:Vmem.Read_write () in
    let b = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
    for i = 0 to 1023 do
      Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
    done;
    let ts = Memsys.trace_stats ms in
    Alcotest.(check bool) "superblocks > 0" true (ts.Trace.superblocks > 0);
    Alcotest.(check bool) "fused > 0" true (ts.Trace.fused > 0);
    Alcotest.(check bool) "sites > 0" true (ts.Trace.sites > 0);
    (* interposed bulk probe breaks the live run *)
    ignore (Memsys.load ms ~addr:a ~width:8);
    ignore (Memsys.load ms ~addr:(a + 8) ~width:8);
    ignore (Memsys.load ms ~addr:(a + 16) ~width:8);
    ignore (Memsys.load ms ~addr:(a + 24) ~width:8);
    Memsys.touch_range ms ~addr:(a + 8192) ~len:256;
    let ts2 = Memsys.trace_stats ms in
    Alcotest.(check bool) "breaks recorded" true (ts2.Trace.breaks > ts.Trace.breaks);
    (* remap during a live run is an invalidation *)
    ignore (Memsys.load ms ~addr:(a + 512) ~width:8);
    ignore (Memsys.load ms ~addr:(a + 520) ~width:8);
    ignore (Memsys.load ms ~addr:(a + 528) ~width:8);
    ignore (Memsys.load ms ~addr:(a + 536) ~width:8);
    Vmem.unmap (Memsys.vmem ms) ~addr:b ~len:4096;
    let ts3 = Memsys.trace_stats ms in
    Alcotest.(check bool) "invalidations recorded" true
      (ts3.Trace.invalidations > ts2.Trace.invalidations);
    (* reset clears counters but keeps the engine armed *)
    Memsys.reset ms;
    let ts4 = Memsys.trace_stats ms in
    check_int "reset superblocks" 0 ts4.Trace.superblocks;
    for i = 0 to 255 do
      Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
    done;
    let ts5 = Memsys.trace_stats ms in
    Alcotest.(check bool) "re-promotes after reset" true (ts5.Trace.superblocks > 0))

(* ------------------------------------------------------------------ *)
(* Demand-zero pages under fused runs                                  *)
(* ------------------------------------------------------------------ *)

(* A fused run over a never-written [Read_write] page caches a data
   window, which must be the page's own bytes: a run is keyed on
   address, width and class, so the stores mixed into it write through
   that window and must never reach the shared zero buffer. *)
let demand_zero_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:16384 ~perm:Vmem.Read_write () in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  let scan base n =
    for i = 0 to n - 1 do note (Memsys.load ms ~addr:(base + (i * 8)) ~width:8) done
  in
  for i = 0 to 2047 do
    let addr = a + (i * 8) in
    if i land 3 = 3 then Memsys.store ms ~addr ~width:8 (i + 1)
    else note (Memsys.load ms ~addr ~width:8)
  done;
  scan a 2048;
  (* a fresh mapping still reads zeros *)
  scan (Vmem.map vm ~len:8192 ~perm:Vmem.Read_write ()) 1024;
  if Fastpath.trace_enabled () then
    Alcotest.(check bool) "runs fused" true ((Memsys.trace_stats ms).Trace.fused > 0);
  ([ probe ms ], !digest)

let test_demand_zero () = tri ~check:(check_run "demand-zero") demand_zero_kernel

let suite =
  [
    Alcotest.test_case "tri-engine: stride patterns, breaks, probes" `Quick test_patterns;
    Alcotest.test_case "tri-engine: unmap/protect invalidation mid-run" `Quick test_remap;
    Alcotest.test_case "tri-engine: free/realloc through a scheme" `Quick
      test_alloc_invalidation;
    Alcotest.test_case "tri-engine: thread switch mid-superblock" `Quick test_thread_switch;
    Alcotest.test_case "tri-engine: multithreaded workload (yields)" `Slow test_mt_workload;
    Alcotest.test_case "telemetry hub forces interpreter, stats invariant" `Quick
      test_telemetry_fallback;
    Alcotest.test_case "profiler attach mid-run, stats invariant" `Quick
      test_profiler_attach;
    Alcotest.test_case "consecutive machines re-record identically" `Quick
      test_consecutive_machines;
    Alcotest.test_case "tri-engine: demand-zero pages under fused runs" `Quick
      test_demand_zero;
    Alcotest.test_case "trace_stats observability" `Quick test_trace_stats;
  ]
