(** Differential tests for the fast memory engine: under the [Fast] and
    [Naive] engines ({!Sb_machine.Fastpath}), every *simulated* result
    must be bit-for-bit identical — cycles, instruction counts,
    per-class attribution, per-level cache stats, EPC faults/evictions,
    thread clocks, loaded values, crash messages. The fast engine may
    only change host wall-clock time.

    Besides whole workloads, the kernels below drive the edges of the
    fast engine's same-line batching: every point where a pending streak
    must be flushed (class switches, bulk probes, remaps, faults, thread
    switches, yields, profiler attach) and the cases where batching is
    off (telemetry, an attached profiler). *)

module Fastpath = Sb_machine.Fastpath
module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Scheme = Sb_protection.Scheme
module Profile = Sb_telemetry.Profile

let both f = (Fastpath.with_kind Fastpath.Fast f, Fastpath.with_kind Fastpath.Naive f)

let check_int name a b = Alcotest.(check int) name b a

let check_metrics where (f : Harness.metrics) (n : Harness.metrics) =
  let at field = where ^ "." ^ field in
  check_int (at "cycles") f.Harness.cycles n.Harness.cycles;
  check_int (at "instrs") f.Harness.instrs n.Harness.instrs;
  check_int (at "mem_accesses") f.Harness.mem_accesses n.Harness.mem_accesses;
  check_int (at "llc_misses") f.Harness.llc_misses n.Harness.llc_misses;
  check_int (at "epc_faults") f.Harness.epc_faults n.Harness.epc_faults;
  check_int (at "epc_evictions") f.Harness.epc_evictions n.Harness.epc_evictions;
  check_int (at "peak_vm") f.Harness.peak_vm n.Harness.peak_vm;
  check_int (at "bts") f.Harness.bts n.Harness.bts;
  check_int (at "quarantine") f.Harness.quarantine n.Harness.quarantine;
  check_int (at "compute_cycles") f.Harness.compute_cycles n.Harness.compute_cycles;
  check_int (at "checks_done") f.Harness.checks_done n.Harness.checks_done;
  check_int (at "checks_elided") f.Harness.checks_elided n.Harness.checks_elided;
  check_int (at "checks_hoisted") f.Harness.checks_hoisted n.Harness.checks_hoisted;
  check_int (at "violations") f.Harness.violations n.Harness.violations;
  List.iter2
    (fun (c1, (s1 : Memsys.class_stat)) (c2, (s2 : Memsys.class_stat)) ->
       let cls = Memsys.class_name c1 in
       Alcotest.(check string) (at "attr class") (Memsys.class_name c2) cls;
       check_int (at ("attr accesses:" ^ cls)) s1.Memsys.accesses s2.Memsys.accesses;
       check_int (at ("attr cycles:" ^ cls)) s1.Memsys.cycles s2.Memsys.cycles)
    f.Harness.attribution n.Harness.attribution;
  List.iter2
    (fun (l1, (s1 : Sb_cache.Hierarchy.level_stats))
      (l2, (s2 : Sb_cache.Hierarchy.level_stats)) ->
      Alcotest.(check string) (at "cache level") l2 l1;
      check_int (at (l1 ^ " hits")) s1.Sb_cache.Hierarchy.hits s2.Sb_cache.Hierarchy.hits;
      check_int (at (l1 ^ " misses")) s1.Sb_cache.Hierarchy.misses
        s2.Sb_cache.Hierarchy.misses)
    f.Harness.cache n.Harness.cache

let check_outcome where fast naive =
  match (fast, naive) with
  | Harness.Completed f, Harness.Completed n -> check_metrics where f n
  | Harness.Crashed f, Harness.Crashed n ->
    Alcotest.(check string) (where ^ " crash message") n f
  | Harness.Completed _, Harness.Crashed m ->
    Alcotest.failf "%s: fast completed but naive crashed (%s)" where m
  | Harness.Crashed m, Harness.Completed _ ->
    Alcotest.failf "%s: fast crashed (%s) but naive completed" where m

(* ------------------------------------------------------------------ *)
(* Harness-level: full workloads under every scheme                    *)
(* ------------------------------------------------------------------ *)

let run_workload ~scheme ~threads w =
  let n = max 16 (w.Registry.default_n / 8) in
  (Harness.run_one ~threads ~n ~scheme w).Harness.outcome

let test_workloads () =
  List.iter
    (fun scheme ->
       List.iter
         (fun wname ->
            let w = Registry.find wname in
            let fast, naive = both (fun () -> run_workload ~scheme ~threads:1 w) in
            check_outcome (scheme ^ "/" ^ wname) fast naive)
         [ "kmeans"; "wordcount"; "mcf" ])
    [ "native"; "sgxbounds"; "sgxbounds-noopt"; "asan"; "mpx"; "baggy" ]

let test_workloads_mt () =
  (* Multithreaded run: the cooperative scheduler's interleaving depends
     on simulated clocks and yield points, so equality here proves the
     fast engine preserves both exactly. *)
  List.iter
    (fun scheme ->
       let w = Registry.find "pca" in
       let fast, naive = both (fun () -> run_workload ~scheme ~threads:4 w) in
       check_outcome (scheme ^ "/pca(t=4)") fast naive)
    [ "native"; "sgxbounds"; "asan" ]

let test_workloads_mt_yields () =
  (* Pointer-intensive workloads at other thread counts under the
     bounds-checking schemes: more cooperative yields per run, and
     scheme-side metadata accesses interleaved across threads. *)
  List.iter
    (fun scheme ->
       List.iter
         (fun (wname, threads) ->
            let w = Registry.find wname in
            let fast, naive = both (fun () -> run_workload ~scheme ~threads w) in
            check_outcome (Printf.sprintf "%s/%s(t=%d)" scheme wname threads) fast naive)
         [ ("kmeans", 2); ("wordcount", 8) ])
    [ "sgxbounds"; "mpx"; "baggy" ]

(* ------------------------------------------------------------------ *)
(* Memsys-level: access microkernel incl. EPC thrash                   *)
(* ------------------------------------------------------------------ *)

type probe = {
  snap : Memsys.snapshot;
  attr : (Memsys.access_class * Memsys.class_stat) list;
  cache : (string * Sb_cache.Hierarchy.level_stats) list;
  evictions : int;
  clocks : int * int;
  compute : int;
}

let probe ms =
  {
    snap = Memsys.snapshot ms;
    attr = Memsys.attribution ms;
    cache = Memsys.cache_stats ms;
    evictions = Memsys.epc_evictions ms;
    clocks = (Memsys.get_clock ms 0, Memsys.get_clock ms 1);
    compute = Memsys.compute_cycles ms;
  }

let check_probe where (f : probe) (n : probe) =
  check_int (where ^ " cycles") f.snap.Memsys.cycles n.snap.Memsys.cycles;
  check_int (where ^ " instrs") f.snap.Memsys.instrs n.snap.Memsys.instrs;
  check_int (where ^ " mem_accesses") f.snap.Memsys.mem_accesses
    n.snap.Memsys.mem_accesses;
  check_int (where ^ " llc_misses") f.snap.Memsys.llc_misses n.snap.Memsys.llc_misses;
  check_int (where ^ " epc_faults") f.snap.Memsys.epc_faults n.snap.Memsys.epc_faults;
  check_int (where ^ " epc_evictions") f.evictions n.evictions;
  check_int (where ^ " clock0") (fst f.clocks) (fst n.clocks);
  check_int (where ^ " clock1") (snd f.clocks) (snd n.clocks);
  check_int (where ^ " compute") f.compute n.compute;
  List.iter2
    (fun (c, (s1 : Memsys.class_stat)) (_, (s2 : Memsys.class_stat)) ->
       check_int (where ^ " attr " ^ Memsys.class_name c) s1.Memsys.accesses
         s2.Memsys.accesses;
       check_int (where ^ " attr-cyc " ^ Memsys.class_name c) s1.Memsys.cycles
         s2.Memsys.cycles)
    f.attr n.attr;
  List.iter2
    (fun (l, (s1 : Sb_cache.Hierarchy.level_stats))
      (_, (s2 : Sb_cache.Hierarchy.level_stats)) ->
      check_int (where ^ " " ^ l ^ " hits") s1.Sb_cache.Hierarchy.hits
        s2.Sb_cache.Hierarchy.hits;
      check_int (where ^ " " ^ l ^ " misses") s1.Sb_cache.Hierarchy.misses
        s2.Sb_cache.Hierarchy.misses)
    f.cache n.cache

(* A microkernel touching every Memsys entry point, with an EPC smaller
   than the working set so paging and eviction run. Returns checkpoints
   (stats probes) and a digest of every value loaded. *)
let memsys_kernel () =
  (* 16 pages of EPC vs a 48-page working set: guaranteed thrash. *)
  let ms = Memsys.create (Config.default ~epc_bytes:(16 * 4096) ()) in
  let vm = Memsys.vmem ms in
  let len = 48 * 4096 in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  let probes = ref [] in
  let checkpoint () = probes := probe ms :: !probes in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  (* hot-line hammer with class switches mid-streak *)
  for i = 1 to 500 do
    Memsys.store ms ~addr:a ~width:8 i;
    note (Memsys.load ms ~addr:a ~width:8);
    if i mod 7 = 0 then
      note (Memsys.load ~cls:Memsys.Footer_meta ms ~addr:a ~width:4)
  done;
  checkpoint ();
  (* sequential scan, all widths, including line-straddling accesses *)
  let off = ref 0 in
  while !off + 8 <= len do
    Memsys.store ms ~addr:(a + !off) ~width:4 (!off land 0xFFFF);
    note (Memsys.load ms ~addr:(a + !off) ~width:2);
    (* unaligned width-8 access straddling a line boundary every 64 B *)
    if !off mod 64 = 60 then note (Memsys.load ms ~addr:(a + !off) ~width:8);
    off := !off + 12
  done;
  checkpoint ();
  (* random loads across the whole (EPC-thrashing) working set *)
  let rng = Sb_machine.Rng.create 99 in
  for _ = 1 to 2000 do
    let o = Sb_machine.Rng.int rng (len - 8) in
    note (Memsys.load ms ~addr:(a + o) ~width:1)
  done;
  checkpoint ();
  (* bulk ops + reset + reuse *)
  Memsys.fill ms ~addr:a ~len:(len / 2) ~byte:0xAB;
  Memsys.blit ms ~src:a ~dst:(a + (len / 2)) ~len:(len / 4);
  note (Memsys.load ms ~addr:(a + (len / 2) + 100) ~width:8);
  checkpoint ();
  Memsys.reset ms;
  for i = 0 to 200 do
    Memsys.store ms ~addr:(a + (i * 64)) ~width:8 (i * 3);
    note (Memsys.load ms ~addr:(a + (i * 64)) ~width:8)
  done;
  checkpoint ();
  (List.rev !probes, !digest)

(* Run a kernel returning (checkpoints, loaded-value digest) under both
   engines and compare every checkpoint. *)
let check_kernel where kernel =
  let (pf, df), (pn, dn) = both kernel in
  check_int (where ^ " digest") df dn;
  check_int (where ^ " checkpoints") (List.length pf) (List.length pn);
  List.iteri
    (fun i (f, n) -> check_probe (Printf.sprintf "%s checkpoint %d" where i) f n)
    (List.combine pf pn)

let test_memsys_kernel () = check_kernel "memsys" memsys_kernel

(* ------------------------------------------------------------------ *)
(* Epc-level: the direct-mapped residency table vs the hashtable       *)
(* ------------------------------------------------------------------ *)

module Epc = Sb_sgx.Epc

(* One page stream over all three index ranges — in-table pages
   (spanning several table leaves), pages at or past [num_pages] and
   negative pages — with same-page streaks for the last-page memo and a
   capacity small enough that every range evicts every other. *)
let epc_stream ~num_pages ~len =
  let rng = Sb_machine.Rng.create 7 in
  let page = ref 0 in
  Array.init len (fun _ ->
      (match Sb_machine.Rng.int rng 8 with
       | 0 -> ()
       | 1 -> page := num_pages + Sb_machine.Rng.int rng 40
       | 2 -> page := -1 - Sb_machine.Rng.int rng 40
       | _ -> page := Sb_machine.Rng.int rng num_pages);
      !page)

(* At every step the fast EPC (table for in-range pages), a fast EPC
   without a table and the naive reference agree on the touch result,
   faults, evictions and residency — also across a [clear]. *)
let test_epc_index () =
  let num_pages = 3000 and capacity_pages = 24 in
  let table = Fastpath.with_kind Fastpath.Fast (fun () ->
      Epc.create ~num_pages ~capacity_pages ()) in
  let memo_only = Fastpath.with_kind Fastpath.Fast (fun () ->
      Epc.create ~capacity_pages ()) in
  let reference = Fastpath.with_kind Fastpath.Naive (fun () ->
      Epc.create ~num_pages ~capacity_pages ()) in
  let stream = epc_stream ~num_pages ~len:20_000 in
  let check where (e : Epc.t) =
    check_int (where ^ " faults") (Epc.faults e) (Epc.faults reference);
    check_int (where ^ " evictions") (Epc.evictions e) (Epc.evictions reference);
    check_int (where ^ " resident") (Epc.resident_pages e) (Epc.resident_pages reference)
  in
  Array.iteri
    (fun i page ->
       if i = 12_000 then List.iter Epc.clear [ table; memo_only; reference ];
       let r = Epc.touch reference ~page in
       List.iter
         (fun (name, e) ->
            let where = Printf.sprintf "%s step %d page %d" name i page in
            Alcotest.(check bool) (where ^ " touch") r (Epc.touch e ~page);
            check where e)
         [ ("table", table); ("memo-only", memo_only) ])
    stream;
  Alcotest.(check bool) "stream evicts" true (Epc.evictions reference > 5_000)

(* With a tracer installed both engines report the same event sequence:
   one event per fault and per eviction, each eviction just before the
   fault that caused it. *)
let test_epc_tracer () =
  let num_pages = 3000 in
  let stream = epc_stream ~num_pages ~len:5_000 in
  let run () =
    let e = Epc.create ~num_pages ~capacity_pages:24 () in
    let events = ref [] in
    Epc.set_tracer e (Some (fun ev -> events := ev :: !events));
    Array.iter (fun page -> ignore (Epc.touch e ~page)) stream;
    (List.rev !events, Epc.faults e, Epc.evictions e)
  in
  let (ef, faults, evictions), (en, _, _) = both run in
  check_int "events = faults + evictions" (List.length ef) (faults + evictions);
  Alcotest.(check bool) "fast = naive events" true (ef = en);
  let rec pairs = function
    | Epc.Evict _ :: (Epc.Fault _ :: _ as rest) -> pairs rest
    | Epc.Evict _ :: _ -> Alcotest.fail "Evict not followed by its Fault"
    | Epc.Fault _ :: rest -> pairs rest
    | [] -> ()
  in
  pairs ef

(* Every access shape the same-line batching distinguishes: contiguous
   scans at all widths (aligned and unaligned, so accesses straddle
   cache lines), larger strides with per-access splits, backward scans,
   same-address hammering split by a class switch, interleaved scans
   that break every streak, and probes that must flush a pending streak
   ([touch_range]/[blit]/[fill]/[charge_alu]/class switches). *)
let pattern_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let len = 64 * 1024 in
  let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
  let probes = ref [] in
  let checkpoint () = probes := probe ms :: !probes in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
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
     from a+5 — some accesses split across lines *)
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
  (* same-address hammer, split by a mid-stream class switch *)
  for k = 1 to 600 do
    Memsys.store ms ~addr:(a + 128) ~width:8 k;
    note (Memsys.load ms ~addr:(a + 128) ~width:8);
    if k = 300 then Memsys.touch ~cls:Memsys.Shadow ms ~addr:(a + 128) ~width:1
  done;
  checkpoint ();
  (* two interleaved scans: every access leaves the previous line *)
  for k = 0 to 255 do
    note (Memsys.load ms ~addr:(a + (k * 8)) ~width:8);
    note (Memsys.load ms ~addr:(a + 16384 + (k * 16)) ~width:8)
  done;
  checkpoint ();
  (* interposed probes must flush a pending streak with exact accounting *)
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
  (* metadata-class streaks: footer touches at stride 8 *)
  for k = 0 to 255 do
    Memsys.touch ~cls:Memsys.Footer_meta ms ~addr:(a + 40960 + (k * 8)) ~width:4
  done;
  checkpoint ();
  (List.rev !probes, !digest)

let test_patterns () = check_kernel "patterns" pattern_kernel

(* Unmap and protect mid-stream: every access after the change must see
   it, and a store fault must land at the same access with identical
   pre-fault accounting. *)
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
  for i = 0 to 511 do
    note (Memsys.load ms ~addr:(a + (i * 8)) ~width:8);
    if i = 300 then Vmem.unmap vm ~addr:b ~len:8192
  done;
  checkpoint ();
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

let test_remap () = check_kernel "remap" remap_kernel

(* Metadata alternation: a checked access touches a data line and then
   a metadata line — an SGXBounds footer on the object's page, or an
   ASan shadow byte on another page — so the fast engine's two line
   memos serve the pair in turn. Objects are visited in pseudo-random
   order; split accesses, bulk probes, returns to the data line before
   the last, footer stores and thread switches land mid-streak, then
   [reset], and [protect]/[unmap] of the shadow page. [l1] is the L1
   geometry: with one way the second memo must stay off. *)
let alternation_kernel (l1 : Config.cache_geometry) () =
  let ms = Memsys.create { (Config.default ()) with Config.l1 } in
  let vm = Memsys.vmem ms in
  let data_len = 4 * 4096 in
  let data = Vmem.map vm ~len:data_len ~perm:Vmem.Read_write () in
  let shadow = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  let probes = ref [] in
  let checkpoint () = probes := probe ms :: !probes in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  let rng = Sb_machine.Rng.create 42 in
  let rand n = Sb_machine.Rng.int rng n in
  let last_data = ref data and last_split = ref (data + 60) in
  (* one object: a few data accesses, each followed by its metadata *)
  let visit ~meta ~shadow_store =
    let size = 64 * (1 + rand 4) in
    let o = data + (8 * rand ((data_len - size - 8) / 8)) in
    for j = 0 to rand 6 do
      let addr = o + (8 * j mod size) in
      if rand 4 = 0 then Memsys.store ms ~addr ~width:8 (j + o)
      else note (Memsys.load ms ~addr ~width:8);
      (match meta with
       | `Footer -> note (Memsys.load ~cls:Memsys.Footer_meta ms ~addr:(o + size) ~width:4)
       | `Shadow ->
         let sh = shadow + ((addr - data) lsr 3) in
         if shadow_store then Memsys.store ~cls:Memsys.Shadow ms ~addr:sh ~width:1 j
         else note (Memsys.load ~cls:Memsys.Shadow ms ~addr:sh ~width:1));
      (match rand 40 with
       | 0 ->
         (* a split access on some other line pair *)
         last_split := data + (64 * rand ((data_len / 64) - 1)) + 60;
         note (Memsys.load ms ~addr:!last_split ~width:8)
       | 1 -> Memsys.touch_range ms ~addr:o ~len:(64 * (1 + rand 8))
       | 2 -> Memsys.set_thread ms (rand 2)
       | 3 -> note (Memsys.load ms ~addr:!last_data ~width:4)
       | 4 -> Memsys.store ~cls:Memsys.Footer_meta ms ~addr:(o + size) ~width:4 o
       | 5 -> note (Memsys.load ms ~addr:!last_split ~width:4)
       | _ -> ());
      last_data := addr
    done
  in
  let phase ?(shadow_store = false) n meta =
    for _ = 1 to n do
      let meta =
        match meta with
        | `Mixed -> if rand 2 = 0 then `Footer else `Shadow
        | (`Footer | `Shadow) as m -> m
      in
      visit ~meta ~shadow_store
    done
  in
  phase 800 `Footer;
  checkpoint ();
  phase 800 `Shadow;
  checkpoint ();
  phase 800 `Mixed;
  checkpoint ();
  (* [reset] flushes the caches: a line memoized before it must miss *)
  note (Memsys.load ms ~addr:data ~width:8);
  note (Memsys.load ~cls:Memsys.Footer_meta ms ~addr:(data + 64) ~width:4);
  Memsys.reset ms;
  note (Memsys.load ms ~addr:data ~width:8);
  phase 300 `Mixed;
  checkpoint ();
  let faulting f =
    try
      for i = 1 to 400 do
        if i = 200 then f ();
        phase 1 `Shadow ~shadow_store:true
      done;
      note (-1)
    with Vmem.Fault { addr; _ } -> note (addr - shadow)
  in
  faulting (fun () -> Vmem.protect vm ~addr:shadow ~len:4096 ~perm:Vmem.Read_only);
  checkpoint ();
  Vmem.protect vm ~addr:shadow ~len:4096 ~perm:Vmem.Read_write;
  faulting (fun () -> Vmem.unmap vm ~addr:shadow ~len:4096);
  checkpoint ();
  (List.rev !probes, !digest)

(* 1 set x 8 ways (the default), several sets x 2 ways, and 1 way. *)
let test_alternation () =
  List.iter
    (fun (size, assoc) ->
       check_kernel
         (Printf.sprintf "alternation(%dB,%d-way)" size assoc)
         (alternation_kernel { Config.size; assoc }))
    [ (512, 8); (512, 2); (2048, 2); (512, 1) ]

(* free/realloc during hot scans, through a real scheme's allocator:
   the object may move, and later accesses must go through the new
   mapping. *)
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
  for i = 0 to 4088 do
    note (s.Scheme.load (s.Scheme.offset p i) 1);
    if i = 2000 then s.Scheme.free q
  done;
  let p = ref p in
  for i = 0 to 1023 do
    note (s.Scheme.load (s.Scheme.offset !p i) 1);
    if i = 512 then p := s.Scheme.realloc !p 8192
  done;
  ([ probe ms ], !digest)

let test_alloc () = check_kernel "free/realloc" alloc_kernel

(* A thread switch in the middle of a streak: the pending accounting
   must land on the thread that issued it, never migrate. *)
let thread_kernel () =
  let ms = Memsys.create (Config.default ()) in
  let vm = Memsys.vmem ms in
  let a = Vmem.map vm ~len:16384 ~perm:Vmem.Read_write () in
  for i = 0 to 2047 do
    Memsys.store ms ~addr:(a + (i * 8)) ~width:8 i
  done;
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  for i = 0 to 2047 do
    note (Memsys.load ms ~addr:(a + (i * 8)) ~width:8);
    if i = 1000 then Memsys.set_thread ms 1;
    if i = 1500 then Memsys.set_thread ms 0
  done;
  ([ probe ms ], !digest)

let test_thread_switch () = check_kernel "thread-switch" thread_kernel

(* With a telemetry hub enabled the fast engine must not batch (each
   access is observed individually), and the simulated stats must still
   equal the naive engine's. *)
let telemetry_kernel () =
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
  ([ probe ms ], !digest)

let test_telemetry () = check_kernel "telemetry" telemetry_kernel

(* Attaching a profiler mid-stream flushes the pending streak and turns
   batching off until detach; simulated stats stay bit-identical and the
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

let test_profiler_attach () = check_kernel "profiler-attach" profiler_kernel

(* A later machine must behave exactly like the first: the same kernel
   on three consecutive machines per engine. *)
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
    (probe ms, !digest)
  in
  check_kernel "consecutive" (fun () ->
    let runs = [ kernel (); kernel (); kernel () ] in
    (List.map fst runs, List.fold_left (fun h (_, d) -> (h * 31) + d) 0 runs))

(* Demand-zero pages: stores mixed into a scan of a never-written page
   must give the page its own bytes and never reach the shared zero
   buffer, so a fresh mapping still reads zeros. *)
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
  scan (Vmem.map vm ~len:8192 ~perm:Vmem.Read_write ()) 1024;
  ([ probe ms ], !digest)

let test_demand_zero () = check_kernel "demand-zero" demand_zero_kernel

(* ------------------------------------------------------------------ *)
(* Vmem-level: values, faults and accounting                           *)
(* ------------------------------------------------------------------ *)

let vmem_kernel () =
  let vm = Vmem.create (Config.default ()) in
  let digest = ref 0 in
  let note v = digest := (!digest * 31) + v in
  let a = Vmem.map vm ~len:(3 * 4096) ~perm:Vmem.Read_write () in
  (* all widths, signed values, page-straddling accesses *)
  Vmem.store vm ~addr:a ~width:8 (-1);
  note (Vmem.load vm ~addr:a ~width:8);
  Vmem.store vm ~addr:(a + 4094) ~width:8 0x1122334455667788;
  note (Vmem.load vm ~addr:(a + 4094) ~width:8);
  Vmem.store vm ~addr:(a + 13) ~width:4 0xCAFEBABE;
  note (Vmem.load vm ~addr:(a + 13) ~width:4);
  Vmem.store vm ~addr:(a + 21) ~width:2 0xBEEF;
  note (Vmem.load vm ~addr:(a + 21) ~width:2);
  Vmem.store vm ~addr:(a + 23) ~width:1 0x7F;
  note (Vmem.load vm ~addr:(a + 23) ~width:1);
  (* min_int exercises the sign bit through the store codec *)
  Vmem.store vm ~addr:(a + 64) ~width:8 min_int;
  note (Vmem.load vm ~addr:(a + 64) ~width:8);
  (* string round-trip across a page boundary *)
  let s = String.init 300 (fun i -> Char.chr (i land 0xff)) in
  Vmem.write_string vm ~addr:(a + 4000) s;
  note (Hashtbl.hash (Vmem.read_string vm ~addr:(a + 4000) ~len:300));
  (* unmap middle page, check fault + accounting *)
  Vmem.unmap vm ~addr:(a + 4096) ~len:4096;
  note (Vmem.reserved_bytes vm);
  note (if Vmem.is_mapped vm (a + 4096) then 1 else 0);
  (match Vmem.load vm ~addr:(a + 4096) ~width:1 with
   | v -> note v
   | exception Vmem.Fault _ -> note 4242);
  (* write to a read-only page faults identically *)
  let ro = Vmem.map vm ~len:4096 ~perm:Vmem.Read_only () in
  (match Vmem.store vm ~addr:ro ~width:1 1 with
   | () -> note 0
   | exception Vmem.Fault _ -> note 777);
  note (Vmem.reserved_bytes vm);
  !digest

let test_vmem_kernel () =
  let df, dn = both vmem_kernel in
  check_int "vmem digest" df dn

let suite =
  [
    Alcotest.test_case "fast = naive: workloads x schemes" `Slow test_workloads;
    Alcotest.test_case "fast = naive: multithreaded pca" `Slow test_workloads_mt;
    Alcotest.test_case "fast = naive: multithreaded workload (yields)" `Slow
      test_workloads_mt_yields;
    Alcotest.test_case "fast = naive: memsys microkernel (EPC thrash)" `Quick
      test_memsys_kernel;
    Alcotest.test_case "fast = naive: vmem codecs, faults, accounting" `Quick
      test_vmem_kernel;
    Alcotest.test_case "fast = naive: EPC index, out-of-range and negative pages"
      `Quick test_epc_index;
    Alcotest.test_case "fast = naive: EPC tracer events" `Quick test_epc_tracer;
    Alcotest.test_case "fast = naive: stride patterns, breaks, probes" `Quick test_patterns;
    Alcotest.test_case "fast = naive: unmap/protect mid-stream" `Quick test_remap;
    Alcotest.test_case "fast = naive: data/metadata alternation, L1 geometries" `Quick
      test_alternation;
    Alcotest.test_case "fast = naive: free/realloc through a scheme" `Quick test_alloc;
    Alcotest.test_case "fast = naive: thread switch mid-streak" `Quick test_thread_switch;
    Alcotest.test_case "fast = naive: telemetry hub disables batching" `Quick
      test_telemetry;
    Alcotest.test_case "fast = naive: profiler attach mid-run" `Quick test_profiler_attach;
    Alcotest.test_case "fast = naive: consecutive machines" `Quick
      test_consecutive_machines;
    Alcotest.test_case "fast = naive: demand-zero pages" `Quick test_demand_zero;
  ]
