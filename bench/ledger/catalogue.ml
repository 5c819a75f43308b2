(** Every workload and metric the ledger knows, with what each per-layer
    metric should move and where.

    [BENCHMARK.json] lists a metric exactly when the ledger measures it
    on every workload; the rest (layers that only some workloads reach)
    are recorded in the JSONL records and in [layers.json]. *)

module Registry = Sb_workloads.Registry

let grid_mt8 = "grid-mt8"
let grid_spec = "grid-spec"
let fleet = "fleet-ycsb-a"
let audit_opt = "audit-opt"
let workloads = [ grid_mt8; grid_spec; fleet; audit_opt ]

(** How long [run] repeats rounds of a workload by default (at least one
    round): BENCHMARK.json's [run_seconds]. *)
let run_seconds = 20
let grids = [ grid_mt8; grid_spec ]

(** Workloads whose cells run on a machine the ledger can see through
    {!Sb_harness.Harness.run_one}'s [~wrap] hook; the fleet builds its
    machines inside {!Sb_service.Fleet.run}. *)
let celled = [ grid_mt8; grid_spec; audit_opt ]

type metric = {
  name : string;
  unit_ : string;
  better : Verdict.direction;
  moves : string list;  (** end-to-end metrics a change to this layer should move *)
  where : string list;  (** the workloads on which it should move them *)
  on : string list;     (** the workloads on which the ledger measures it *)
}

let m ?(moves = []) ?(where = []) ?(on = workloads) name unit_ better =
  { name; unit_; better; moves; where; on }

let lower = Verdict.Lower
let higher = Verdict.Higher

let end_to_end =
  [
    m "wall_s" "s" lower;
    m "cpu_s" "s" lower;
    m "setup_s" "s" lower;
    m "alloc_gw" "Gwords" lower;
    (* with two domains the peak depends on when each domain's major
       slices ran: 163-247 MB on identical grid-mt8 runs *)
    m "peak_rss_mb" "MB" lower ~on:[ grid_spec; fleet; audit_opt ];
    m "sim_maps" "M/s" higher ~on:grids;
    m "host_kreq_s" "k/s" higher ~on:[ fleet ];
  ]

(* the grid that runs a registry workload *)
let grid_of (w : Registry.spec) =
  match w.Registry.suite with
  | Registry.Phoenix | Registry.Parsec -> grid_mt8
  | Registry.Spec -> grid_spec

let headline = [ "native"; "mpx"; "asan"; "sgxbounds" ]
let op_names = [ "load"; "store"; "load_ptr"; "check_range"; "malloc"; "free" ]
let wrapper_names = [ "profiled"; "sitestream"; "optimized"; "symex" ]

let per_layer =
  let wall = [ "wall_s" ] in
  let runner =
    List.map
      (fun (n, b) -> m n "s" b ~moves:wall ~where:[ grid_mt8 ])
      [
        ("runner.busy_s.max", lower);
        ("runner.busy_s.min", lower);
        ("runner.cell_s.p50", lower);
        ("runner.cell_s.p80", lower);
        ("runner.cell_s.max", lower);
      ]
  in
  let gc =
    let gm n u = m n u lower ~moves:[ "wall_s"; "peak_rss_mb" ] ~where:workloads in
    [
      gm "gc.minor_count" "count";
      gm "gc.major_count" "count";
      gm "gc.pause_s" "s";
      gm "gc.pause_max_ms" "ms";
      gm "gc.top_heap_mb" "MB";
    ]
  in
  let ns ?(where = grids) n = m n "ns" lower ~moves:wall ~where in
  let per_op =
    [
      ns "vmem.load_ns";
      ns "vmem.store_ns";
      ns "cache.hit_ns";
      ns "cache.miss_ns";
      ns "epc.hit_ns" ~where:[ grid_mt8 ];
      ns "epc.fault_ns" ~where:[ grid_mt8 ];
      ns "memsys.load_l1_ns";
      ns "memsys.load_epc_fault_ns" ~where:[ grid_mt8 ];
      ns "memsys.charge_alu_ns";
    ]
    @ List.concat_map
        (fun s ->
           [ ns (Printf.sprintf "scheme.%s.load_ns" s);
             ns (Printf.sprintf "scheme.%s.check_range_ns" s) ~where:[ grid_spec ] ])
        headline
    @ List.map
        (fun w -> ns (Printf.sprintf "wrapper.%s.load_ns" w) ~where:[ audit_opt ])
        wrapper_names
  in
  let everywhere =
    (m "runner.balance" "ratio" higher ~moves:wall ~where:[ grid_mt8 ] :: runner)
    @ gc @ per_op
    @ [ m "trace.overhead_s" "s" lower ]
  in
  let celled_only ?(moves = wall) ?(where = grids) n u b = m n u b ~moves ~where ~on:celled in
  let counter n = celled_only n "count" lower ~moves:[] ~where:[] in
  let harness =
    [ celled_only "harness.setup_s" "s" lower ~moves:[ "setup_s" ];
      celled_only "harness.run_s" "s" lower ]
  in
  let per_workload =
    List.map
      (fun (w : Registry.spec) ->
         m (Printf.sprintf "wl.%s.s" w.Registry.name) "s" lower ~moves:wall
           ~where:[ grid_of w ] ~on:[ grid_of w; audit_opt ])
      Registry.all
  in
  let per_scheme =
    List.map
      (fun s ->
         let on = if s = "sgxbounds" || s = "mpx" then workloads else celled in
         m (Printf.sprintf "scheme.%s.s" s) "s" lower ~moves:wall ~where:grids ~on)
      headline
  in
  let counters =
    List.map counter
      [
        "memsys.accesses"; "memsys.instrs"; "cache.l1.misses"; "cache.l2.misses";
        "cache.llc.misses"; "epc.faults"; "epc.evictions";
        "memsys.class.footer_meta.accesses"; "memsys.class.shadow.accesses";
        "memsys.class.bounds_table.accesses"; "checks.done"; "checks.elided";
        "checks.hoisted";
      ]
    (* per-access costs need every access of the round, which only the
       grids expose *)
    @ [ m "host.ns_per_access" "ns" lower ~moves:wall ~where:grids ~on:grids ]
    @ List.map
        (fun l ->
           m (Printf.sprintf "est.%s.share" l) "ratio" lower ~moves:wall ~where:grids ~on:grids)
        [ "epc"; "cache"; "vmem" ]
  in
  let trace =
    [ celled_only "trace.superblocks" "count" higher;
      celled_only "trace.fused_share" "ratio" higher;
      celled_only "trace.breaks" "count" lower;
      celled_only "trace.invalidations" "count" lower ]
  in
  let ops =
    List.concat_map
      (fun op ->
         [ counter (Printf.sprintf "op.%s.calls" op);
           celled_only (Printf.sprintf "op.%s.s" op) "s" lower ])
      op_names
  in
  let fleet_layers =
    let f n u = m n u lower ~moves:[ "host_kreq_s" ] ~where:[ fleet ] ~on:[ fleet ] in
    [ f "fleet.setup_s" "s"; f "ycsb.generate_s" "s"; f "loadgen.arrivals_s" "s";
      f "fleet.serve_s" "s"; f "fleet.max_queue" "count" ]
  in
  let analysis =
    let a n u b = m n u b ~moves:wall ~where:[ audit_opt ] ~on:[ audit_opt ] in
    [ a "sitestream.record_s" "s" lower; a "optimizer.plan_s" "s" lower;
      a "optimizer.verify_s" "s" lower; a "optimized.replay_s" "s" lower;
      a "symex.audit_s" "s" lower; a "symex.ops" "count" lower ]
  in
  everywhere @ harness @ per_workload @ per_scheme @ counters @ trace @ ops @ fleet_layers
  @ analysis

let on_every_workload x = List.for_all (fun w -> List.mem w x.on) workloads

(** The metrics [BENCHMARK.json] lists: those measured everywhere. *)
let listed_end_to_end = List.filter on_every_workload end_to_end
let listed_per_layer = List.filter on_every_workload per_layer

let find_end_to_end name = List.find_opt (fun x -> x.name = name) end_to_end
let find_per_layer name = List.find_opt (fun x -> x.name = name) per_layer

let direction_name = function Verdict.Higher -> "higher" | Verdict.Lower -> "lower"
