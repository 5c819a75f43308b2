(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§1 Figure 1, §6 Figures 7-12 + Tables 3-4, §7 Figure 13)
    on the simulated SGX machine.

    Usage:
      dune exec bench/main.exe            # everything
      dune exec bench/main.exe fig7 fig8  # selected experiments
      dune exec bench/main.exe -- -j 4 fig7        # grid cells across 4 domains
      dune exec bench/main.exe -- -j 2 reproduce   # rewrite + byte-compare results/
      dune exec bench/main.exe -- -j 2 engines     # fast engine == naive engine
      dune exec bench/main.exe -- --smoke --baseline BENCH.json score

    Flags: [-j N | --jobs N] fan independent (scheme x workload) cells of
    the figure sweeps across N OCaml domains (results are bit-for-bit
    those of -j 1); [--smoke] shrinks fig13curves, fleetcap and the
    score kernels; [--out FILE] redirects the score document (default
    BENCH.json); [--baseline FILE], [--tolerance PCT] and [--label L]
    drive the score gate. Host time is measured by the ledger
    (bench/ledger), not here.

    Absolute numbers are simulation cycles, not Skylake cycles; what is
    expected to match the paper is the *shape*: who wins, by what rough
    factor, where the crossovers fall (see EXPERIMENTS.md). *)

module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Registry = Sb_workloads.Registry
module Wctx = Sb_workloads.Wctx
module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Util = Sb_machine.Util
module Fastpath = Sb_machine.Fastpath
module Json = Sb_telemetry.Json

(* Runner options, set by the CLI flags (--jobs N, --smoke, --out FILE,
   --baseline FILE, --tolerance PCT, --label L) before any experiment
   runs. *)
let jobs = ref 1
let smoke = ref false
let out_file = ref "BENCH.json"
let baseline_file : string option ref = ref None
let tolerance = ref 25
let label = ref "HEAD"

let header title =
  Fmt.pr "@.===============================================================@.";
  Fmt.pr "%s@." title;
  Fmt.pr "===============================================================@."

let pp_x ppf = function
  | None -> Fmt.string ppf "  CRASH"
  | Some r -> Fmt.pf ppf "%6.2fx" r

let pp_mb ppf bytes = Fmt.pf ppf "%6.2fMB" (float_of_int bytes /. 1048576.)

(* ------------------------------------------------------------------ *)
(* Figure 1: SQLite speedtest with increasing working set             *)
(* ------------------------------------------------------------------ *)

let run_sqlite ~scheme ~env items =
  let ms = Memsys.create (Config.default ~env ()) in
  let s = Harness.maker scheme ms in
  let ctx = Wctx.make s in
  match Sb_apps.Sqlite_sim.speedtest ctx ~items with
  | () ->
    let snap = Memsys.snapshot ms in
    Some (snap.Memsys.cycles, Scheme.peak_vm s)
  | exception Sb_protection.Types.App_crash _ -> None
  | exception Sb_vmem.Vmem.Enclave_oom _ -> None

let fig1 () =
  header
    "Figure 1: SQLite speedtest inside SGX — performance (normalized to\n\
     native SGX) and peak virtual memory, with increasing working set";
  let sizes = [ 1000; 2000; 5000; 10000; 20000; 40000; 80000 ] in
  let schemes = [ "sgxbounds"; "asan"; "mpx" ] in
  Fmt.pr "%-8s %10s" "items" "nativeVM";
  List.iter (fun s -> Fmt.pr "%10s %10s" (s ^ "-x") (s ^ "-VM")) schemes;
  Fmt.pr "@.";
  List.iter
    (fun items ->
       match run_sqlite ~scheme:"native" ~env:Config.Inside_enclave items with
       | None -> Fmt.pr "%-8d   (native crashed)@." items
       | Some (base_cycles, base_vm) ->
         Fmt.pr "%-8d %a" items pp_mb base_vm;
         List.iter
           (fun scheme ->
              match run_sqlite ~scheme ~env:Config.Inside_enclave items with
              | None -> Fmt.pr "%10s %10s" "CRASH" "-"
              | Some (cycles, vm) ->
                Fmt.pr "   %a %a" pp_x
                  (Some (float_of_int cycles /. float_of_int base_cycles))
                  pp_mb vm)
           schemes;
         Fmt.pr "@.")
    sizes;
  Fmt.pr
    "@.Paper shape: MPX runs out of enclave memory at small working sets\n\
     (bounds tables), ASan costs up to ~3x with a large constant memory\n\
     footprint, SGXBounds stays within ~35%% at near-zero extra memory.@."

(* ------------------------------------------------------------------ *)
(* Figure 2: memory-hierarchy cost model                               *)
(* ------------------------------------------------------------------ *)

let fig2 () =
  header "Figure 2: relative cost of the memory hierarchy (measured on the model)";
  let measure ~env ~ws_bytes ~label =
    let ms = Memsys.create (Config.default ~env ()) in
    let vm = Memsys.vmem ms in
    let a = Sb_vmem.Vmem.map vm ~len:ws_bytes ~perm:Sb_vmem.Vmem.Read_write () in
    let accesses = 200_000 in
    (* warm *)
    let lines = ws_bytes / 64 in
    for i = 0 to lines - 1 do
      ignore (Memsys.load ms ~addr:(a + (i * 64)) ~width:8)
    done;
    Memsys.reset ms;
    let rng = Sb_machine.Rng.create 7 in
    for _ = 1 to accesses do
      let i = Sb_machine.Rng.int rng lines in
      ignore (Memsys.load ms ~addr:(a + (i * 64)) ~width:8)
    done;
    let c = (Memsys.snapshot ms).Memsys.cycles in
    (label, float_of_int c /. float_of_int accesses)
  in
  let rows =
    [
      measure ~env:Config.Outside_enclave ~ws_bytes:256 ~label:"L1 hit (native)";
      measure ~env:Config.Inside_enclave ~ws_bytes:256 ~label:"L1 hit (enclave)";
      measure ~env:Config.Outside_enclave ~ws_bytes:(1 lsl 20) ~label:"DRAM (native)";
      measure ~env:Config.Inside_enclave ~ws_bytes:(1 lsl 20) ~label:"DRAM+MEE (enclave)";
      measure ~env:Config.Inside_enclave ~ws_bytes:(4 lsl 20) ~label:"EPC paging (enclave)";
    ]
  in
  let base = match rows with (_, c) :: _ -> c | [] -> 1.0 in
  List.iter
    (fun (label, c) -> Fmt.pr "%-24s %8.1f cycles/access  (%6.1fx)@." label c (c /. base))
    rows;
  Fmt.pr "@.Paper shape: caches ~1x, in-enclave DRAM a small factor more\n\
          expensive (MEE), EPC paging 2x-2000x.@."

(* ------------------------------------------------------------------ *)
(* Figures 7/9/10: Phoenix + PARSEC                                    *)
(* ------------------------------------------------------------------ *)

let phoenix_parsec =
  Registry.of_suite Registry.Phoenix @ Registry.of_suite Registry.Parsec

let collect ~schemes ~threads ~workloads =
  Parallel_runner.run_grid ~jobs:!jobs ~threads ~schemes ~workloads ()

let ratio_of ~base r =
  match (base, r) with
  | Harness.Completed b, Harness.Completed m ->
    Some (float_of_int m.Harness.cycles /. float_of_int b.Harness.cycles)
  | _ -> None

let memratio_of ~base r =
  match (base, r) with
  | Harness.Completed b, Harness.Completed m ->
    Some (float_of_int m.Harness.peak_vm /. float_of_int b.Harness.peak_vm)
  | _ -> None

let print_overhead_tables ~title ~rows ~schemes ~metric () =
  Fmt.pr "@.%s@." title;
  Fmt.pr "%-18s" "";
  List.iter (fun s -> Fmt.pr "%10s" s) schemes;
  Fmt.pr "@.";
  let acc = Hashtbl.create 8 in
  List.iter
    (fun (name, results) ->
       Fmt.pr "%-18s" name;
       let base = (List.assoc "native" results).Harness.outcome in
       List.iter
         (fun scheme ->
            let r = (List.assoc scheme results).Harness.outcome in
            let v = metric ~base r in
            (match v with
             | Some x ->
               let l = try Hashtbl.find acc scheme with Not_found -> [] in
               Hashtbl.replace acc scheme (x :: l)
             | None -> ());
            Fmt.pr "   %a" pp_x v)
         schemes;
       Fmt.pr "@.")
    rows;
  Fmt.pr "%-18s" "gmean";
  List.iter
    (fun scheme ->
       let xs = try Hashtbl.find acc scheme with Not_found -> [] in
       Fmt.pr "   %a" pp_x (if xs = [] then None else Some (Util.geomean xs)))
    schemes;
  Fmt.pr "@."

(* The Figure 7 grid; [reproduce] renders the same rows as
   results/fig7_phoenix_parsec.tsv. *)
let fig7_rows () =
  collect ~schemes:[ "native"; "mpx"; "asan"; "sgxbounds" ] ~threads:8
    ~workloads:phoenix_parsec

let fig7 () =
  header
    "Figure 7: Phoenix + PARSEC with 8 threads — performance (top) and\n\
     memory (bottom) overheads over native SGX";
  let rows = fig7_rows () in
  print_overhead_tables ~title:"Performance overhead (x over native SGX)" ~rows
    ~schemes:[ "mpx"; "asan"; "sgxbounds" ] ~metric:ratio_of ();
  print_overhead_tables ~title:"Peak virtual memory overhead (x over native SGX)" ~rows
    ~schemes:[ "mpx"; "asan"; "sgxbounds" ] ~metric:memratio_of ();
  Fmt.pr
    "@.Paper shape: SGXBounds ~1.17x perf / ~1.001x memory on average;\n\
     ASan ~1.51x / ~8x; MPX ~1.75x / ~1.95x with crashes (dedup) and\n\
     blow-ups on pointer-intensive programs (pca, wordcount, x264).@."

let fig9 () =
  header "Figure 9: effect of multithreading (1 vs 4 threads) — ASan vs SGXBounds";
  let schemes = [ "native"; "asan"; "sgxbounds" ] in
  List.iter
    (fun threads ->
       let rows = collect ~schemes ~threads ~workloads:phoenix_parsec in
       print_overhead_tables
         ~title:(Fmt.str "Performance overhead with %d thread(s)" threads)
         ~rows ~schemes:[ "asan"; "sgxbounds" ] ~metric:ratio_of ())
    [ 1; 4 ];
  Fmt.pr
    "@.Paper shape: SGXBounds stays ~17%% at any thread count; ASan's\n\
     average grows with threads (35%% -> 49%%), driven by cache-locality\n\
     breakers like matrixmul and swaptions.@."

let fig10 () =
  header "Figure 10: SGXBounds optimizations ablation (8 threads)";
  let schemes =
    [ "native"; "sgxbounds-noopt"; "sgxbounds-safe"; "sgxbounds-hoist"; "sgxbounds" ]
  in
  let rows = collect ~schemes ~threads:8 ~workloads:phoenix_parsec in
  (* the static optimizer's column: its certified elision plan applied on
     top of full sgxbounds, recorded and replayed at the same size and
     thread count as the manual-annotation columns *)
  let opt_results =
    Parallel_runner.map_list ~jobs:!jobs
      (fun (w : Registry.spec) ->
         ( w.Registry.name,
           Sb_analysis.Optimizer.opt_result ~threads:8 ~n:w.Registry.default_n w ))
      phoenix_parsec
  in
  let rows =
    List.map
      (fun (name, results) ->
         match List.assoc_opt name opt_results with
         | Some r -> (name, results @ [ ("sgxbounds-opt", r) ])
         | None -> (name, results))
      rows
  in
  print_overhead_tables ~title:"Performance overhead (x over native SGX)" ~rows
    ~schemes:
      [ "sgxbounds-noopt"; "sgxbounds-safe"; "sgxbounds-hoist"; "sgxbounds";
        "sgxbounds-opt" ]
    ~metric:ratio_of ();
  Fmt.pr
    "@.Paper shape: ~2%% average gain from all optimizations, but up to\n\
     ~20%% for hoisting-friendly kernels (kmeans, matrixmul) and for\n\
     safe-access elision (x264). The sgxbounds-opt column replaces the\n\
     manual annotations with the proof-carrying static optimizer: it\n\
     should match or beat full sgxbounds wherever its certificates\n\
     cover the hot loops.@."

(* ------------------------------------------------------------------ *)
(* Figure 8 + Table 3: increasing working sets                         *)
(* ------------------------------------------------------------------ *)

let fig8_sizes =
  [
    ("kmeans", [ 9216; 18432; 36864; 73728; 147456 ]);
    ("matrixmul", [ 64; 96; 128; 192; 256 ]);
    ("wordcount", [ 8192; 16384; 32768; 65536; 131072 ]);
    ("linear_regression", [ 65536; 131072; 262144; 524288; 1048576 ]);
  ]

let size_names = [ "XS"; "S"; "M"; "L"; "XL" ]

let fig8 () =
  header
    "Figure 8 + Table 3: increasing working sets (XS..XL) — overhead over\n\
     SGXBounds (the paper normalizes this experiment to SGXBounds)";
  List.iter
    (fun (wname, sizes) ->
       let w = Registry.find wname in
       Fmt.pr "@.%s@." wname;
       Fmt.pr "%-4s %10s %10s %10s %10s %12s %8s %8s@." "size" "ws" "asan-x" "mpx-x"
         "native-x" "llcMiss(a/s)" "pf(a/s)" "BTs";
       List.iter2
         (fun sz n ->
            let sgxb = Harness.run_one ~threads:8 ~n ~scheme:"sgxbounds" w in
            let asan = Harness.run_one ~threads:8 ~n ~scheme:"asan" w in
            let mpxr = Harness.run_one ~threads:8 ~n ~scheme:"mpx" w in
            let nat = Harness.run_one ~threads:8 ~n ~scheme:"native" w in
            match sgxb.Harness.outcome with
            | Harness.Crashed _ -> Fmt.pr "%-4s sgxbounds crashed@." sz
            | Harness.Completed s ->
              let rat r = ratio_of ~base:sgxb.Harness.outcome r.Harness.outcome in
              let llc r =
                match r.Harness.outcome with
                | Harness.Completed m ->
                  Fmt.str "%.1f%%"
                    (100.
                     *. (float_of_int m.Harness.llc_misses -. float_of_int s.Harness.llc_misses)
                     /. float_of_int (max 1 s.Harness.llc_misses))
                | Harness.Crashed _ -> "-"
              in
              let pf r =
                match r.Harness.outcome with
                | Harness.Completed m ->
                  Fmt.str "%.1fx"
                    (float_of_int m.Harness.epc_faults
                     /. float_of_int (max 1 s.Harness.epc_faults))
                | Harness.Crashed _ -> "-"
              in
              let bts =
                match mpxr.Harness.outcome with
                | Harness.Completed m -> string_of_int m.Harness.bts
                | Harness.Crashed _ -> "-"
              in
              Fmt.pr "%-4s %a   %a    %a    %a %12s %8s %8s@." sz pp_mb s.Harness.peak_vm
                pp_x (rat asan) pp_x (rat mpxr) pp_x (rat nat) (llc asan) (pf asan) bts)
         size_names sizes)
    fig8_sizes;
  Fmt.pr
    "@.Paper shape: overheads peak where the instrumented working set\n\
     spills out of the EPC while SGXBounds' still fits (kmeans M/L), and\n\
     converge once everything thrashes (XL). matrixmul stays sequential\n\
     (no EPC thrash) but ASan's shadow breaks cache locality at XL.@."

(* ------------------------------------------------------------------ *)
(* Table 4: RIPE                                                       *)
(* ------------------------------------------------------------------ *)

let table4 () =
  header "Table 4: RIPE security benchmark (16 attacks survive the SGX port)";
  Fmt.pr "Attack-form funnel (paper §6.6): %d claimed by RIPE -> %d viable on\n\
          the native testbed -> %d viable under SCONE/SGX (shellcode dies on\n\
          the int instruction).@.@."
    (Sb_ripe.Funnel.count Sb_ripe.Funnel.claimed)
    (Sb_ripe.Funnel.count Sb_ripe.Funnel.native_viable)
    (Sb_ripe.Funnel.count Sb_ripe.Funnel.sgx_viable);
  List.iter
    (fun scheme ->
       let ms = Memsys.create (Config.default ()) in
       let s = Harness.maker scheme ms in
       let results = Sb_ripe.Ripe.run_all s in
       let prevented = Sb_ripe.Ripe.count_prevented results in
       let succeeded = Sb_ripe.Ripe.count_succeeded results in
       Fmt.pr "%-12s prevented %2d/16   succeeded %2d/16@." scheme prevented succeeded;
       if scheme <> "native" then
         List.iter
           (fun ((a : Sb_ripe.Ripe.attack), o) ->
              if o = Sb_ripe.Ripe.Succeeded then
                Fmt.pr "             escaped: %s@." (Sb_ripe.Ripe.name a))
           results)
    [ "native"; "mpx"; "asan"; "sgxbounds" ];
  Fmt.pr
    "@.Paper: MPX 2/16 (only direct stack smashing of an adjacent\n\
     function pointer), ASan and SGXBounds 8/16 (in-struct overflows are\n\
     invisible to object-granularity bounds).@."

(* ------------------------------------------------------------------ *)
(* Figures 11/12: SPEC CPU2006 inside and outside the enclave          *)
(* ------------------------------------------------------------------ *)

let spec_rows ~env =
  Parallel_runner.run_grid ~jobs:!jobs ~env ~threads:1
    ~schemes:[ "native"; "mpx"; "asan"; "sgxbounds" ]
    ~workloads:(Registry.of_suite Registry.Spec) ()

let fig11 () =
  header "Figure 11: SPEC CPU2006 inside the SGX enclave";
  let rows = spec_rows ~env:Config.Inside_enclave in
  print_overhead_tables ~title:"Performance overhead (x over native SGX)" ~rows
    ~schemes:[ "mpx"; "asan"; "sgxbounds" ] ~metric:ratio_of ();
  print_overhead_tables ~title:"Peak virtual memory overhead (x over native SGX)" ~rows
    ~schemes:[ "mpx"; "asan"; "sgxbounds" ] ~metric:memratio_of ();
  Fmt.pr
    "@.Paper shape: SGXBounds lowest on average (~1.41x perf, ~1.004x\n\
     memory); ASan ~1.76x/<=10x; MPX ~1.52x/~2.1x but dies of OOM on\n\
     astar, mcf and xalancbmk; mcf is the starkest gap (ASan 2.4x vs\n\
     SGXBounds 1.01x, EPC thrashing).@."

let fig12 () =
  header "Figure 12: SPEC CPU2006 outside the enclave (unconstrained memory)";
  let rows = spec_rows ~env:Config.Outside_enclave in
  print_overhead_tables ~title:"Performance overhead (x over native)" ~rows
    ~schemes:[ "mpx"; "asan"; "sgxbounds" ] ~metric:ratio_of ();
  Fmt.pr
    "@.Paper shape: outside the enclave SGXBounds loses its edge (~1.55x)\n\
     and ASan is cheaper (~1.38x) — the cache-friendly layout no longer\n\
     buys anything when memory is unconstrained.@."

(* ------------------------------------------------------------------ *)
(* Figure 13: case studies                                             *)
(* ------------------------------------------------------------------ *)

type tl_point = { throughput : float; latency : float }

let tl_run ~scheme ~env ~clients run_app =
  let ms = Memsys.create (Config.default ~env ()) in
  let s = Harness.maker scheme ms in
  let ctx = Wctx.make ~threads:(min clients 8) s in
  match run_app ctx ~clients with
  | exception Sb_protection.Types.App_crash _ -> None
  | exception Sb_vmem.Vmem.Enclave_oom _ -> None
  | cycles, ops ->
    if cycles <= 0 then None
    else
      (* cycles -> "seconds" at 1 GHz-of-simulation; latency includes
         queueing: clients in flight share the server *)
      let thr = float_of_int ops /. (float_of_int cycles /. 1e9) in
      let lat = float_of_int cycles /. float_of_int ops *. float_of_int clients /. 1e3 in
      Some ({ throughput = thr; latency = lat }, Scheme.peak_vm s)

(* Figure 13's columns, closed-loop here and open-loop in fig13curves *)
let fig13_schemes =
  [ ("native(out)", "native", Config.Outside_enclave);
    ("SGX", "native", Config.Inside_enclave);
    ("SGXBounds", "sgxbounds", Config.Inside_enclave);
    ("ASan", "asan", Config.Inside_enclave);
    ("MPX", "mpx", Config.Inside_enclave) ]

let fig13_app name run_app =
  Fmt.pr "@.--- %s: throughput (kops/s) / latency (us) per concurrency@." name;
  Fmt.pr "%-12s" "clients";
  List.iter (fun (l, _, _) -> Fmt.pr "%18s" l) fig13_schemes;
  Fmt.pr "@.";
  let peaks = Hashtbl.create 8 in
  List.iter
    (fun clients ->
       Fmt.pr "%-12d" clients;
       List.iter
         (fun (label, scheme, env) ->
            match tl_run ~scheme ~env ~clients run_app with
            | None -> Fmt.pr "%18s" "CRASH"
            | Some (p, vm) ->
              Hashtbl.replace peaks label vm;
              Fmt.pr "%12.0f/%5.2f" (p.throughput /. 1000.) p.latency)
         fig13_schemes;
       Fmt.pr "@.")
    [ 1; 2; 4; 8; 16 ];
  Fmt.pr "peak memory:";
  List.iter
    (fun (label, _, _) ->
       match Hashtbl.find_opt peaks label with
       | Some vm -> Fmt.pr "  %s=%a" label pp_mb vm
       | None -> Fmt.pr "  %s=CRASH" label)
    fig13_schemes;
  Fmt.pr "@."

let fig13 () =
  header "Figure 13: case studies — Memcached, Apache, Nginx";
  fig13_app "Memcached (memaslap 9:1 get/set)" (fun ctx ~clients ->
      let t = Sb_apps.Memcached_sim.create ctx in
      Sb_apps.Memcached_sim.memaslap t ~keys:4096 ~ops:(clients * 2500));
  fig13_app "Apache (ab, per-connection pools)" (fun ctx ~clients ->
      Sb_apps.Http_sim.apache_bench ctx ~clients ~requests:(clients * 40));
  fig13_app "Nginx (ab, single-threaded)" (fun ctx ~clients:_ ->
      Sb_apps.Http_sim.nginx_bench ctx ~requests:320);
  Fmt.pr
    "@.Paper shape: SGX below native (MEE + copies); SGXBounds close to\n\
     SGX; ASan lower; MPX collapses on Memcached (bounds tables push the\n\
     working set out of the EPC) and degrades with clients on Apache.@."

(* ------------------------------------------------------------------ *)
(* Figure 13 (curves): open-loop throughput-latency sweep              *)
(* ------------------------------------------------------------------ *)

module Service = Sb_service.Service
module Sexp = Sb_service.Experiment
module Drivers = Sb_service.Drivers
module Latency = Sb_service.Latency
module Score = Sb_service.Score

let fig13_workers = 4

(** The open-loop version of Figure 13: for each app, measure the
    native-SGX closed-loop capacity, then sweep the offered rate from
    well under to past that capacity for every scheme. Each point is an
    independent (machine, scheme, schedule) cell, fanned across [--jobs]
    domains. Per app: [None] when the capacity run crashed, else the
    capacity and, per fraction of it, one point per scheme. *)
let fig13_sweep () =
  let requests = if !smoke then 240 else 2000 in
  let fractions = if !smoke then [ 0.3; 0.9; 1.3 ] else [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.3 ] in
  let n = List.length fig13_schemes in
  let sweep app cap =
    let cell rate (_, scheme, env) =
      let cfg = { Service.default with workers = fig13_workers; requests; rate_rps = rate } in
      { Sexp.app; scheme; env; cfg }
    in
    let cells = List.concat_map (fun f -> List.map (cell (f *. cap)) fig13_schemes) fractions in
    let points = Array.of_list (Sexp.sweep ~jobs:!jobs cells) in
    let row i frac = (frac, Array.to_list (Array.sub points (i * n) n)) in
    (cap, List.mapi row fractions)
  in
  List.map
    (fun app ->
       ( app,
         Option.map (sweep app)
           (Sexp.capacity ~app ~scheme:"native" ~env:Config.Inside_enclave
              ~workers:fig13_workers ~requests ~seed:1) ))
    Drivers.all

let fig13curves () =
  header
    "Figure 13 (curves): open-loop throughput-latency per scheme\n\
     (cell = completed-kops/s, p50/p99 sojourn us; * = load shed)";
  List.iter
    (fun (app, sweep) ->
       Fmt.pr "@.--- %s: offered rate as a fraction of native-SGX capacity@."
         (Drivers.name app);
       match sweep with
       | None -> Fmt.pr "  capacity run crashed; skipping@."
       | Some (cap, rows) ->
         Fmt.pr "  native-SGX capacity: %.0f kops/s (%d workers)@." (cap /. 1000.)
           fig13_workers;
         Fmt.pr "%-10s" "rate";
         List.iter (fun (l, _, _) -> Fmt.pr "%22s" l) fig13_schemes;
         Fmt.pr "@.";
         List.iter
           (fun (frac, points) ->
              Fmt.pr "%-10s" (Fmt.str "%.1fxCap" frac);
              List.iter
                (fun p ->
                   match p.Sexp.pt_outcome with
                   | Error _ -> Fmt.pr "%22s" "CRASH"
                   | Ok st ->
                     let s = Service.summary st in
                     Fmt.pr "%22s"
                       (Fmt.str "%.0fk %.0f/%.0fus%s"
                          (Service.throughput_rps st /. 1000.)
                          (Latency.us_of_cycles s.Latency.p50)
                          (Latency.us_of_cycles s.Latency.p99)
                          (if st.Service.dropped > 0 then "*" else "")))
                points;
              Fmt.pr "@.")
           rows)
    (fig13_sweep ());
  Fmt.pr
    "@.Paper shape: under low load every scheme tracks the offered rate and\n\
     latency is flat service time; past its own capacity each curve bends\n\
     up in p99 first, then sheds (*). SGXBounds bends at nearly the SGX\n\
     knee; ASan earlier; MPX's memcached knee collapses to a fraction of\n\
     native (bounds tables thrash the EPC).@."

(* ------------------------------------------------------------------ *)
(* Fleet capacity: YCSB kops/s vs shard count per scheme               *)
(* ------------------------------------------------------------------ *)

module Fleet = Sb_service.Fleet
module Ycsb = Sb_service.Ycsb

let fleetcap_schemes =
  [ ("SGX", "native"); ("SGXBounds", "sgxbounds"); ("ASan", "asan"); ("MPX", "mpx") ]

(** Capacity-vs-shards for the hash-sharded enclave fleet: the YCSB-A
    record set is sized well past one instance's EPC, so capacity at low
    shard counts is paging-bound and grows superlinearly as sharding
    brings each shard's working set under the EPC — faster for schemes
    with lean metadata. The committed table is the fleet analogue of the
    paper's memcached column: SGXBounds reaches target capacity at
    strictly fewer shards than MPX, whose bounds tables keep each shard
    thrashing longer. Returns the record count, the shard counts and
    [((scheme, shards), outcome)] per cell. *)
let fleetcap_sweep () =
  let records = if !smoke then 2048 else 24576 in
  let requests = if !smoke then 300 else 2000 in
  let shard_counts = if !smoke then [ 1; 2; 4 ] else [ 1; 2; 3; 4; 5; 6; 7; 8 ] in
  let mk scheme shards =
    {
      Fleet.default with
      Fleet.instances = shards;
      workers = 2;
      queue_cap = requests;
      requests;
      rate_rps = 1e15;
      process = Sb_service.Loadgen.Fixed;
      seed = 1;
      scheme;
      policy = Fleet.Hash;
      records;
    }
  in
  let cells =
    List.concat_map
      (fun (_, scheme) -> List.map (fun n -> (scheme, n)) shard_counts)
      fleetcap_schemes
  in
  let outcomes = Fleet.sweep ~jobs:!jobs (List.map (fun (s, n) -> mk s n) cells) in
  (records, shard_counts, List.combine cells outcomes)

let fleetcap () =
  header
    "Fleet capacity: closed-loop YCSB-A kops/s vs shard count\n\
     (hash-sharded enclave fleet; record set sized past one EPC)";
  let _, shard_counts, results = fleetcap_sweep () in
  let cap_of scheme shards =
    match List.assoc_opt (scheme, shards) results with
    | Some (Ok st) -> Some (Fleet.throughput_rps st)
    | _ -> None
  in
  Fmt.pr "%-8s" "shards";
  List.iter (fun (l, _) -> Fmt.pr "%16s" l) fleetcap_schemes;
  Fmt.pr "@.";
  List.iter
    (fun n ->
       Fmt.pr "%-8d" n;
       List.iter
         (fun (_, scheme) ->
            match cap_of scheme n with
            | Some c -> Fmt.pr "%16s" (Fmt.str "%.1fk" (c /. 1000.))
            | None -> Fmt.pr "%16s" "CRASH")
         fleetcap_schemes;
       Fmt.pr "@.")
    shard_counts;
  (* target: double the 1-shard native-SGX capacity — past what paging
     relief alone gives the unsharded fleet, so every scheme has to earn
     it by sharding its working set under the EPC *)
  (match cap_of "native" 1 with
   | None -> Fmt.pr "@.native 1-shard cell crashed; no target line@."
   | Some base ->
     let target = 2.0 *. base in
     Fmt.pr "@.target %.1f kops/s (2x native-SGX at 1 shard); first shard count to reach it:@."
       (target /. 1000.);
     List.iter
       (fun (label, scheme) ->
          match
            List.find_opt
              (fun n -> match cap_of scheme n with Some c -> c >= target | None -> false)
              shard_counts
          with
          | Some n -> Fmt.pr "  %-10s %d shards@." label n
          | None -> Fmt.pr "  %-10s not reached@." label)
       fleetcap_schemes)

(* ------------------------------------------------------------------ *)
(* §7 security case studies                                            *)
(* ------------------------------------------------------------------ *)

let case_security () =
  header "Case studies (§7): real exploits inside the enclave";
  let mk scheme =
    let ms = Memsys.create (Config.default ()) in
    Wctx.make (Harness.maker scheme ms)
  in
  let pp_http = function
    | Sb_apps.Http_sim.Leaked m -> "LEAKED: " ^ m
    | Sb_apps.Http_sim.Detected -> "detected (fail-stop)"
    | Sb_apps.Http_sim.Contained_zeros -> "contained: reply zero-padded, service continues"
    | Sb_apps.Http_sim.Corrupted -> "MEMORY CORRUPTED (exploitable)"
    | Sb_apps.Http_sim.Harmless -> "harmless"
  in
  let pp_mc = function
    | Sb_apps.Memcached_sim.Processed -> "processed"
    | Sb_apps.Memcached_sim.Corrupted -> "MEMORY CORRUPTED"
    | Sb_apps.Memcached_sim.Detected_dropped -> "detected; request dropped (EINVAL)"
    | Sb_apps.Memcached_sim.Crashed_segfault -> "SEGFAULT (denial of service)"
    | Sb_apps.Memcached_sim.Survived_looping ->
      "content discarded (boundless); subsequent logic loops, as in the paper"
  in
  let schemes = [ "native"; "mpx"; "asan"; "sgxbounds"; "sgxbounds-boundless" ] in
  Fmt.pr "@.Heartbleed (Apache + OpenSSL), 256-byte claimed heartbeat:@.";
  List.iter
    (fun s ->
       Fmt.pr "  %-20s %s@." s
         (pp_http (Sb_apps.Http_sim.heartbeat (mk s) ~claimed_len:256)))
    schemes;
  Fmt.pr "@.Memcached CVE-2011-4971 (negative body length):@.";
  List.iter
    (fun s ->
       let ctx = mk s in
       Fmt.pr "  %-20s %s@." s
         (pp_mc
            (Sb_apps.Memcached_sim.handle_binary_packet
               (Sb_apps.Memcached_sim.create ctx) ~body_len:(-1024))))
    schemes;
  Fmt.pr "@.Nginx CVE-2013-2028 (chunked-size stack overflow):@.";
  List.iter
    (fun s ->
       Fmt.pr "  %-20s %s@." s
         (pp_http (Sb_apps.Http_sim.chunked_request (mk s) ~chunk_size:0xFFFFF000)))
    schemes

(* ------------------------------------------------------------------ *)
(* Extensions: §8 sensitivity sweep and design-choice ablations        *)
(* ------------------------------------------------------------------ *)

(** §8 "EPC Size": the paper's premise weakens if future enclaves get a
    much larger EPC. Sweep the EPC capacity and watch the
    ASan-vs-SGXBounds gap on the EPC-bound workload (mcf) close. *)
let sweep_epc () =
  header "Extension: EPC-size sensitivity (paper §8 'EPC Size')";
  let base_epc = (Config.default ()).Config.epc_bytes in
  let run ~scheme ~epc_bytes =
    let ms = Memsys.create (Config.default ~epc_bytes ()) in
    let ctx = Wctx.make (Harness.maker scheme ms) in
    let w = Registry.find "mcf" in
    w.Registry.run ctx ~n:65536;
    (Memsys.snapshot ms).Memsys.cycles
  in
  Fmt.pr "%-10s %12s %12s %12s@." "EPC" "asan-x" "sgxbounds-x" "gap";
  List.iter
    (fun factor ->
       let epc_bytes = base_epc * factor / 2 in
       let native = run ~scheme:"native" ~epc_bytes in
       let asan = float_of_int (run ~scheme:"asan" ~epc_bytes) /. float_of_int native in
       let sgxb = float_of_int (run ~scheme:"sgxbounds" ~epc_bytes) /. float_of_int native in
       Fmt.pr "%8s   %10.2fx %10.2fx %10.2fx@."
         (Fmt.str "%.1fx" (float_of_int factor /. 2.)) asan sgxb (asan /. sgxb))
    [ 1; 2; 4; 8; 16 ];
  Fmt.pr
    "@.Shape: with a tight EPC the metadata-heavy scheme thrashes and the\n\
     gap is large; it bumps again right at the crossover where only the\n\
     instrumented working set spills (the Figure 8 pattern), and decays\n\
     toward pure instruction overheads once everything fits - the\n\
     paper's point that SGXBounds targets tight-EPC environments.@."

(** Ablations of DESIGN.md §4's design choices. *)
let ablations () =
  header "Extension: design-choice ablations";
  (* 1. fail-stop vs boundless on benign runs: the overlay is pay-per-use *)
  Fmt.pr "@.[1] Boundless memory on violation-free runs (cycles ratio):@.";
  List.iter
    (fun wname ->
       let cycles scheme =
         let ms = Memsys.create (Config.default ()) in
         let ctx = Wctx.make (Harness.maker scheme ms) in
         (Registry.find wname).Registry.run ctx ~n:((Registry.find wname).Registry.default_n / 8);
         (Memsys.snapshot ms).Memsys.cycles
       in
       Fmt.pr "  %-16s boundless/fail-stop = %.3fx@." wname
         (float_of_int (cycles "sgxbounds-boundless") /. float_of_int (cycles "sgxbounds")))
    [ "histogram"; "wordcount"; "swaptions" ];
  (* 2. tagged in-word metadata vs derived allocation bounds (baggy) *)
  Fmt.pr "@.[2] SGXBounds (object bounds in the word) vs Baggy (allocation@.";
  Fmt.pr "    bounds from a size table), outside the enclave:@.";
  List.iter
    (fun wname ->
       let cycles scheme =
         let ms = Memsys.create (Config.default ~env:Config.Outside_enclave ()) in
         let ctx = Wctx.make (Harness.maker scheme ms) in
         (Registry.find wname).Registry.run ctx ~n:((Registry.find wname).Registry.default_n / 8);
         (Memsys.snapshot ms).Memsys.cycles
       in
       let nat = cycles "native" in
       Fmt.pr "  %-16s sgxbounds %.2fx   baggy %.2fx@." wname
         (float_of_int (cycles "sgxbounds") /. float_of_int nat)
         (float_of_int (cycles "baggy") /. float_of_int nat))
    [ "histogram"; "streamcluster"; "sjeng" ];
  (* 3. the cost of §8 narrowing on a struct-field-heavy loop *)
  Fmt.pr "@.[3] Intra-object narrowing cost (struct-field microkernel):@.";
  let narrow_kernel ~narrowed =
    let ms = Memsys.create (Config.default ()) in
    let s = Harness.maker "sgxbounds" ms in
    let st = s.Sb_protection.Scheme.malloc 64 in
    let field =
      if narrowed then Sgxbounds.narrow s (s.Sb_protection.Scheme.offset st 8) ~len:16
      else s.Sb_protection.Scheme.offset st 8
    in
    for i = 0 to 99_999 do
      s.Sb_protection.Scheme.store
        (s.Sb_protection.Scheme.offset field (i land 15)) 1 (i land 0xff)
    done;
    (Memsys.snapshot ms).Memsys.cycles
  in
  Fmt.pr
    "  narrowed/object-granularity = %.3fx: register-carried field bounds\n\
     skip even the LB footer load, so narrowing is free here AND catches\n\
     the in-struct overflows of Table 4@."
    (float_of_int (narrow_kernel ~narrowed:true)
     /. float_of_int (narrow_kernel ~narrowed:false))

(* ------------------------------------------------------------------ *)
(* Reproduce: regenerate and byte-compare every file under results/    *)
(* ------------------------------------------------------------------ *)

module Reproduce = Sb_reproduce.Reproduce
module Symex = Sb_analysis.Symex

let lines ls = String.concat "" (List.map (fun l -> l ^ "\n") ls)

(* What `sgxbounds_cli profile --app memcached --diff sgxbounds:mpx
   --requests 50 --json' prints. *)
let profile_diff_memcached () =
  let prof scheme =
    Sexp.profile_app ~env:Config.Inside_enclave ~requests:50 ~app:Drivers.Memcached ~scheme ()
  in
  match (prof "sgxbounds", prof "mpx") with
  | Ok pa, Ok pb ->
    let module Profile = Sb_telemetry.Profile in
    let diff = Profile.diff_to_json ~a_label:"memcached/sgxbounds" ~b_label:"memcached/mpx" in
    (lines [ Json.to_string (diff pa (Profile.diff pa pb)) ], [])
  | Error msg, _ | _, Error msg -> ("", [ "profile run crashed: " ^ msg ])

(* Every committed data file with its generator: the bytes, and the
   claims its typed rows violate. *)
let results_files =
  [
    ("fig7_phoenix_parsec.tsv", fun () -> (Reproduce.overhead_tsv (fig7_rows ()), []));
    ( "fig11_spec.tsv",
      fun () -> (Reproduce.overhead_tsv (spec_rows ~env:Config.Inside_enclave), []) );
    ( "fig13_latency.tsv",
      fun () ->
        let points = function Some (_, rows) -> List.concat_map snd rows | None -> [] in
        (Sexp.to_tsv (List.concat_map (fun (_, sweep) -> points sweep) (fig13_sweep ())), []) );
    ( "fleet_capacity.tsv",
      fun () ->
        let records, _, results = fleetcap_sweep () in
        let line ((scheme, shards), outcome) =
          let capacity_kops =
            match outcome with Ok st -> Fleet.throughput_rps st /. 1000. | Error _ -> 0.
          in
          Fleet.capacity_tsv_line ~scheme ~shards ~policy:Fleet.Hash ~workload:Ycsb.A ~records
            ~capacity_kops ~offered_rps:(capacity_kops *. 1000.) outcome
        in
        ( lines (Fleet.capacity_tsv_header :: List.map line results),
          Reproduce.fleet_claims (List.map fst results) ) );
    ( "interface_matrix.tsv",
      fun () ->
        let cells = Symex.corpus_sweep ~jobs:!jobs () in
        (Symex.matrix_tsv cells, Symex.verify_matrix cells) );
    ( "check_elision.tsv",
      fun () ->
        let module Optimizer = Sb_analysis.Optimizer in
        let rows =
          Optimizer.sweep ~env:Config.Inside_enclave ~threads:1 ~jobs:!jobs Registry.all
        in
        (Optimizer.tsv_of_rows rows, Reproduce.elision_claims rows) );
    ("profile_diff_memcached.json", profile_diff_memcached);
  ]

(** The one writer of results/: regenerate every committed data file,
    check the claims on its typed rows (a broken claim exits 1 before any
    file is compared), then compare the bytes with the committed ones. A
    differing file is rewritten in place (the drift shows in `git diff`);
    any difference or orphan exits 1. *)
let reproduce () =
  if !smoke then begin
    Fmt.epr "reproduce: --smoke sizes can never match the committed results/; \
             run it without --smoke@.";
    exit 1
  end;
  header "Reproduce: regenerate every file under results/ and compare it byte for byte";
  let generated =
    List.map
      (fun (name, gen) ->
         let t0 = Unix.gettimeofday () in
         let bytes, problems = gen () in
         List.iter (fun p -> Fmt.epr "results/%s: claim violated: %s@." name p) problems;
         if problems <> [] then exit 1;
         (name, bytes, Unix.gettimeofday () -. t0))
      results_files
  in
  let statuses, orphans =
    Reproduce.reconcile ~dir:"results" (List.map (fun (f, bytes, _) -> (f, bytes)) generated)
  in
  List.iter2
    (fun (name, status) (_, _, dt) ->
       Fmt.pr "%-36s %-38s %5.1fs@." ("results/" ^ name)
         (match status with
          | Reproduce.Same -> "same"
          | Reproduce.Differs -> "DIFFERS (rewritten in place)"
          | Reproduce.Missing -> "DIFFERS (no committed file; written)")
         dt)
    statuses generated;
  List.iter (fun f -> Fmt.pr "%-36s ORPHAN (nothing writes it)@." ("results/" ^ f)) orphans;
  if orphans <> [] || List.exists (fun (_, st) -> st <> Reproduce.Same) statuses then exit 1

(* ------------------------------------------------------------------ *)
(* Engines: the fast memory engine against the naive reference        *)
(* ------------------------------------------------------------------ *)

(** Every registry workload under every harness scheme at 1/32 of its
    default size, run to completion once under each engine with all
    simulated metrics compared structurally (cycles, instrs, accesses,
    cache, EPC, attribution, checks, violations, and crash identity for
    cells that die, like MPX out of enclave memory). The engine is
    sampled at [Memsys.create], inside each cell, so one [with_kind]
    around a pass covers every domain the pass fans out to. Prints the
    cell count and an order-sensitive fingerprint of the agreed-on
    metrics, so a run pins {e what} the engines agreed on, not only
    that they did; exits 1 on any mismatch. *)
let engines () =
  header "Engines: fast vs naive over every workload x scheme (n / 32)";
  let cells =
    List.concat_map
      (fun (w : Registry.spec) ->
         let n = max 64 (w.Registry.default_n / 32) in
         List.map (fun scheme -> Parallel_runner.cell ~n ~scheme w) Harness.scheme_names)
      Registry.all
  in
  let pass kind =
    Fastpath.with_kind kind (fun () -> Parallel_runner.run_cells ~jobs:!jobs cells)
  in
  let naive = pass Fastpath.Naive in
  let fast = pass Fastpath.Fast in
  let mismatches =
    List.combine cells (List.combine naive fast)
    |> List.filter (fun (_, ((rn : Harness.result), (rf : Harness.result))) ->
        rf.Harness.outcome <> rn.Harness.outcome)
    |> List.map fst
  in
  List.iter
    (fun (c : Parallel_runner.cell) ->
       Fmt.pr "MISMATCH: %s/%s: fast engine disagrees with naive@."
         c.Parallel_runner.workload.Registry.name c.Parallel_runner.scheme)
    mismatches;
  if mismatches <> [] then begin
    Fmt.epr "engines: %d of %d cells differ between the naive and fast engines@."
      (List.length mismatches) (List.length cells);
    exit 1
  end;
  let fingerprint =
    List.fold_left
      (fun h (r : Harness.result) ->
         let mix h v = ((h * 1000003) lxor v) land max_int in
         match r.Harness.outcome with
         | Harness.Crashed _ -> mix h 1
         | Harness.Completed m ->
           let h = mix h m.Harness.cycles in
           let h = mix h m.Harness.instrs in
           let h = mix h m.Harness.mem_accesses in
           let h = mix h m.Harness.llc_misses in
           let h = mix h m.Harness.epc_faults in
           let h = mix h m.Harness.checks_done in
           mix h m.Harness.violations)
      0x9e3779b9 naive
  in
  Fmt.pr "engine agreement: %d cells bit-identical (fingerprint 0x%x)@."
    (List.length cells) fingerprint
(* ------------------------------------------------------------------ *)
(* Score: deterministic perf gate (no wall clock anywhere)             *)
(* ------------------------------------------------------------------ *)

let read_json file =
  let contents =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error e ->
      Fmt.epr "cannot read %s: %s@." file e;
      exit 1
  in
  match Json.parse contents with
  | Ok j -> j
  | Error e ->
    Fmt.epr "%s: invalid JSON: %s@." file e;
    exit 1

let score () =
  header
    "Score: deterministic perf score — OCaml allocation words per 1000 units\n\
     of simulated work, per kernel (bit-identical across runs; no wall clock)";
  (* A missing, corrupt or incomparable baseline fails before any kernel
     runs, not after the whole measurement. *)
  let baseline =
    Option.map
      (fun file ->
         let b = read_json file in
         (match Score.check_baseline ~smoke:!smoke b with
          | Ok () -> ()
          | Error msg ->
            Fmt.epr "score gate: %s@." msg;
            exit 1);
         (file, b))
      !baseline_file
  in
  let ms = Score.measure_all ~smoke:!smoke in
  Fmt.pr "engine: %s%s@.@." (Score.engine ()) (if !smoke then "   (smoke inputs)" else "");
  Fmt.pr "%-22s %12s %12s %12s %12s %8s@." "kernel" "accesses" "instrs" "cycles"
    "allocWords" "score";
  List.iter
    (fun m ->
       Fmt.pr "%-22s %12d %12d %12d %12d %8d@." m.Score.m_kernel m.Score.m_accesses
         m.Score.m_instrs m.Score.m_cycles m.Score.m_alloc_words m.Score.m_score)
    ms;
  Fmt.pr "%-22s %53s %8d@." "total" "" (Score.total ms);
  (* The gate: compare against the committed baseline before touching
     any file, and fail loudly without rewriting it on regression. *)
  (match baseline with
   | None -> ()
   | Some (file, baseline) ->
     (match Score.gate ~smoke:!smoke ~tolerance_pct:!tolerance ~baseline ms with
      | Error msg ->
        Fmt.epr "score gate: %s@." msg;
        exit 1
      | Ok verdicts ->
        Fmt.pr "@.gate vs %s (tolerance %d%%):@." file !tolerance;
        List.iter
          (fun v ->
             Fmt.pr "  %-22s %8d -> %8d  %+5.1f%%  %s@." v.Score.v_kernel v.Score.v_old
               v.Score.v_new
               (100. *. float_of_int (v.Score.v_new - v.Score.v_old)
                /. float_of_int (max 1 v.Score.v_old))
               (if v.Score.v_regressed then "REGRESSED"
                else if v.Score.v_improved then "IMPROVED (baseline stale)"
                else "ok");
             List.iter
               (fun (f, old, now) ->
                  Fmt.pr "    %s %s -> %d  DRIFTED@." f
                    (match old with Some o -> string_of_int o | None -> "missing")
                    now)
               v.Score.v_drift)
          verdicts;
        if List.exists (fun v -> v.Score.v_drift <> []) verdicts then begin
          Fmt.epr
            "score gate: simulated work (accesses/instrs/cycles) differs from %s — \
             the scores are not comparable; a baseline may only move host allocation@."
            file;
          exit 1
        end;
        if List.exists (fun v -> v.Score.v_regressed || v.Score.v_improved) verdicts
        then begin
          Fmt.epr
            "score gate: movement beyond %d%% tolerance — if intentional, \
             regenerate the baseline with `bench score --out %s'@."
            !tolerance file;
          exit 1
        end));
  let out = !out_file in
  (* mktemp-style callers hand us a pre-created empty file: that is
     "no trend history yet", not a corrupt document. *)
  let prev =
    match In_channel.with_open_bin out In_channel.input_all with
    | exception Sys_error _ -> None
    | s when String.trim s = "" -> None
    | _ -> Some (read_json out)
  in
  let doc = Score.doc ~smoke:!smoke ~label:!label ~prev ms in
  let s = Json.to_string doc in
  (match Json.parse s with
   | Ok _ -> ()
   | Error e -> failwith ("score: emitted invalid JSON: " ^ e));
  Out_channel.with_open_bin out (fun oc ->
      output_string oc s;
      output_char oc '\n');
  Fmt.pr "@.wrote %s (label %S)@." out !label

(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("fig1", fig1);
    ("fig2", fig2);
    ("fig7", fig7);
    ("fig8", fig8);
    ("table3", fig8); (* Table 3 is printed with Figure 8 *)
    ("fig9", fig9);
    ("fig10", fig10);
    ("table4", table4);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig13curves", fig13curves);
    ("fleetcap", fleetcap);
    ("case-security", case_security);
    ("reproduce", reproduce);
    ("sweep-epc", sweep_epc);
    ("ablations", ablations);
    ("engines", engines);
    ("score", score);
  ]

let () =
  let rec parse acc = function
    | [] -> List.rev acc
    | ("--jobs" | "-j") :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 1 ->
         jobs := n;
         parse acc rest
       | _ ->
         Fmt.epr "--jobs expects a positive integer, got %S@." v;
         exit 1)
    | [ ("--jobs" | "-j") ] ->
      Fmt.epr "--jobs expects an argument@.";
      exit 1
    | "--smoke" :: rest ->
      smoke := true;
      parse acc rest
    | "--out" :: v :: rest ->
      out_file := v;
      parse acc rest
    | [ "--out" ] ->
      Fmt.epr "--out expects an argument@.";
      exit 1
    | "--baseline" :: v :: rest ->
      baseline_file := Some v;
      parse acc rest
    | [ "--baseline" ] ->
      Fmt.epr "--baseline expects an argument@.";
      exit 1
    | "--tolerance" :: v :: rest ->
      (match int_of_string_opt v with
       | Some n when n >= 0 ->
         tolerance := n;
         parse acc rest
       | _ ->
         Fmt.epr "--tolerance expects a percentage >= 0, got %S@." v;
         exit 1)
    | [ "--tolerance" ] ->
      Fmt.epr "--tolerance expects an argument@.";
      exit 1
    | "--label" :: v :: rest ->
      label := v;
      parse acc rest
    | [ "--label" ] ->
      Fmt.epr "--label expects an argument@.";
      exit 1
    | a :: rest -> parse (a :: acc) rest
  in
  let args = parse [] (List.tl (Array.to_list Sys.argv)) in
  let selected =
    match args with
    | [] ->
      (* everything except the deduplicated table3 alias *)
      [ "fig1"; "fig2"; "fig7"; "fig8"; "fig9"; "fig10"; "table4"; "fig11"; "fig12";
        "fig13"; "fig13curves"; "fleetcap"; "case-security"; "sweep-epc"; "ablations" ]
    | l -> l
  in
  (* every name is resolved before any experiment runs *)
  let resolve name =
    match List.assoc_opt name experiments with
    | Some f -> f
    | None ->
      Fmt.epr "unknown experiment %S; known: %a@." name
        Fmt.(list ~sep:sp string)
        (List.map fst experiments);
      exit 1
  in
  List.iter (fun f -> f ()) (List.map resolve selected)
