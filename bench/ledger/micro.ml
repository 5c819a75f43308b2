(** Per-operation host cost of each layer, measured with Bechamel on the
    layer's public function in isolation, and the [est.*.share] estimate
    that multiplies those costs by a workload's simulated counts.

    Each bench drives one call per Bechamel iteration over a small
    rotating set of addresses, so that a hit bench stays in the level it
    names and a miss/fault bench never does. *)

module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Hierarchy = Sb_cache.Hierarchy
module Epc = Sb_sgx.Epc
module Scheme = Sb_protection.Scheme
module Harness = Sb_harness.Harness
module Profile = Sb_telemetry.Profile
open Sb_protection.Types

let cfg = Config.default ()
let line = cfg.Config.line_size
let page = cfg.Config.page_size

let rec pow2_above n k = if k >= n then k else pow2_above n (2 * k)
let pow2_above n = pow2_above n 1

(* an index cycling over [n] slots, [n] a power of two *)
let cycler n =
  let i = ref 0 in
  fun () ->
    i := (!i + 1) land (n - 1);
    !i

let map_region ms len = Vmem.map (Memsys.vmem ms) ~len ~perm:Vmem.Read_write ()

(* a scheme over a fresh machine, with 64 pointers into one 4 KiB object
   (made through [s] itself so a wrapper sees the allocation) *)
let scheme_with_ptrs make =
  let ms = Memsys.create cfg in
  let s = make ms in
  let p = s.Scheme.malloc 4096 in
  (s, p, Array.init 64 (fun i -> s.Scheme.offset p (i * 64)))

let scheme_load make =
  let s, _, ptrs = scheme_with_ptrs make in
  let next = cycler 64 in
  fun () -> ignore (s.Scheme.load ptrs.(next ()) 8)

let scheme_check_range name =
  let s, p, _ = scheme_with_ptrs (Harness.maker name) in
  fun () -> s.Scheme.check_range p 4096 Read

let sgxbounds = Harness.maker "sgxbounds"

(* the wrapper over a bare sgxbounds, built the way its analysis builds it *)
let wrapped = function
  | "profiled" ->
    fun ms ->
      let prof =
        Profile.create ~max_threads:cfg.Config.max_threads ~buckets:Memsys.profile_buckets ()
      in
      Memsys.attach_profiler ms prof;
      Sb_protection.Profiled.wrap prof (sgxbounds ms)
  | "sitestream" -> fun ms -> fst (Sb_protection.Sitestream.wrap ~cap:4096 (sgxbounds ms))
  | "optimized" ->
    fun ms ->
      let plan = Sb_protection.Optimized.empty_plan ~workload:"micro" ~scheme:"sgxbounds" in
      fst (Sb_protection.Optimized.wrap plan (sgxbounds ms))
  | "symex" -> fun ms -> fst (Sb_analysis.Symex.wrap ~track_races:false (sgxbounds ms))
  | w -> invalid_arg ("Micro.wrapped: " ^ w)

(** The benches of one layer each, named by their [BENCHMARK.json]
    metric. Built lazily: each allocates its own machine. *)
let layer_benches : (string * (unit -> unit -> unit)) list =
  [
    ( "vmem.load_ns",
      fun () ->
        let ms = Memsys.create cfg in
        let vm = Memsys.vmem ms and a = map_region ms 65536 in
        let next = cycler 1024 in
        fun () -> ignore (Vmem.load vm ~addr:(a + (next () * 64)) ~width:8) );
    ( "vmem.store_ns",
      fun () ->
        let ms = Memsys.create cfg in
        let vm = Memsys.vmem ms and a = map_region ms 65536 in
        let next = cycler 1024 in
        fun () -> Vmem.store vm ~addr:(a + (next () * 64)) ~width:8 7 );
    ( "cache.hit_ns",
      fun () ->
        let h = Hierarchy.create cfg in
        let next = cycler 4 in
        fun () -> ignore (Hierarchy.access h ~addr:(next () * line)) );
    ( "cache.miss_ns",
      fun () ->
        (* a scan over 4x the LLC: a line is evicted long before it comes
           round again *)
        let h = Hierarchy.create cfg in
        let next = cycler (pow2_above (4 * cfg.Config.llc.Config.size / line)) in
        fun () -> ignore (Hierarchy.access h ~addr:(next () * line)) );
    ( "epc.hit_ns",
      fun () ->
        let cap = cfg.Config.epc_bytes / page in
        let e = Epc.create ~num_pages:(4 * cap) ~capacity_pages:cap () in
        let next = cycler 8 in
        fun () -> ignore (Epc.touch e ~page:(next ())) );
    ( "epc.fault_ns",
      fun () ->
        let cap = cfg.Config.epc_bytes / page in
        let e = Epc.create ~num_pages:(4 * cap) ~capacity_pages:cap () in
        (* a scan over more pages than the EPC holds: CLOCK evicts every
           page before it is touched again *)
        let next = cycler (pow2_above (2 * cap)) in
        fun () -> ignore (Epc.touch e ~page:(next ())) );
    ( "memsys.load_l1_ns",
      fun () ->
        let ms = Memsys.create cfg in
        let a = map_region ms 4096 in
        let next = cycler 4 in
        fun () -> ignore (Memsys.load ms ~addr:(a + (next () * line)) ~width:8) );
    ( "memsys.load_epc_fault_ns",
      fun () ->
        let ms = Memsys.create cfg in
        let pages = pow2_above (2 * cfg.Config.epc_bytes / page) in
        let a = map_region ms (pages * page) in
        let next = cycler pages in
        fun () -> ignore (Memsys.load ms ~addr:(a + (next () * page)) ~width:8) );
    ( "memsys.charge_alu_ns",
      fun () ->
        let ms = Memsys.create cfg in
        fun () -> Memsys.charge_alu ms 1 );
  ]
  @ List.concat_map
      (fun name ->
         [ (Printf.sprintf "scheme.%s.load_ns" name, fun () -> scheme_load (Harness.maker name));
           (Printf.sprintf "scheme.%s.check_range_ns" name, fun () -> scheme_check_range name) ])
      Catalogue.headline

(** Seconds Bechamel spends on one bench; a wrapper's bare and wrapped
    benches get half each. *)
let quota = 0.2

let ns_per_call ~quota (name, make) =
  let open Bechamel in
  (* [~compaction:true] keeps Bechamel from raising [max_overhead] with
     [Gc.set], which would outlive the bench and change how the rounds
     measured after it collect *)
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second quota) ~kde:None ~stabilize:false
      ~compaction:true ()
  in
  let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
  Gc.compact ();
  let test = Test.make ~name (Staged.stage (make ())) in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] test in
  let est = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  (* the symex wrapper installs a domain-wide region tracer; drop it
     with its bench *)
  Sb_analysis.Symex.unhook ();
  match Option.bind (Hashtbl.find_opt est name) Analyze.OLS.estimates with
  | Some [ ns ] -> ns
  | _ -> nan

(** Run every bench; returns [(metric, ns per call)]. A wrapper's row is
    its overhead over a bare sgxbounds load: the median of three
    differences, each against a bare bench run right before, so that
    host speed drifting between benches cancels. *)
let run () =
  let ns = ns_per_call ~quota in
  List.map (fun ((name, _) as b) -> (name, ns b)) layer_benches
  @ List.map
      (fun w ->
         let name = Printf.sprintf "wrapper.%s.load_ns" w in
         let overhead () =
           let bare = ns_per_call ~quota:(quota /. 2.) ("bare", fun () -> scheme_load sgxbounds) in
           ns_per_call ~quota:(quota /. 2.) (name, fun () -> scheme_load (wrapped w)) -. bare
         in
         (name, Quantile.median (List.init 3 (fun _ -> overhead ()))))
      Catalogue.wrapper_names

(** Layer costs as shares of a workload's CPU time:
    count × ns per call / cpu seconds. [counts] are the workload's
    [memsys.accesses], [cache.llc.misses] and [epc.faults]. *)
let shares ~ns ~accesses ~llc_misses ~epc_faults ~cpu_s =
  let get k = List.assoc k ns in
  let share x = x /. 1e9 /. cpu_s in
  [
    ("est.epc.share", share (float_of_int epc_faults *. get "epc.fault_ns"));
    ( "est.cache.share",
      share
        ((float_of_int accesses *. get "cache.hit_ns")
         +. (float_of_int llc_misses *. (get "cache.miss_ns" -. get "cache.hit_ns"))) );
    ("est.vmem.share", share (float_of_int accesses *. get "vmem.load_ns"));
  ]
