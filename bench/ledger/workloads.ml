(** The ledger's four workloads. Each one is driven through the same
    public entry points as the job it stands for:

    - [grid-mt8]: [bench fig7 -j 2] — {!Parallel_runner.run_grid} over
      the 16 Phoenix+PARSEC workloads × 4 schemes, 8 simulated threads;
    - [grid-spec]: [bench fig11] — the 13 SPEC workloads × 4 schemes,
      one thread, one domain;
    - [fleet-ycsb-a]: [serve --fleet] — two {!Fleet.run}s of YCSB-A;
    - [audit-opt]: [analyze --optimize] then [analyze] —
      {!Optimizer.sweep} and {!Analyze.sweep} at their smoke sizes.

    A round is one full pass of the workload; its outputs are checked
    against the pinned digests of {!Expected}. The traced round
    re-runs the same pass through the public functions the entry points
    compose, timing each call into a layer. *)

module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Registry = Sb_workloads.Registry
module Memsys = Sb_sgx.Memsys
module Config = Sb_machine.Config
module Rng = Sb_machine.Rng
module Util = Sb_machine.Util
module Json = Sb_telemetry.Json
module Fleet = Sb_service.Fleet
module Ycsb = Sb_service.Ycsb
module Loadgen = Sb_service.Loadgen
module Optimizer = Sb_analysis.Optimizer
module Analyze = Sb_analysis.Analyze
module Optimized = Sb_protection.Optimized
module Scheme = Sb_protection.Scheme

(* ---------- output checking ---------- *)

(** What one round produced and how much of it was wrong. [expected =
    None] only collects the canonical texts (for [bless]). *)
type outputs = {
  expected : Expected.t option;
  mutable ops : int;       (** cells, or offered requests *)
  mutable failed : int;
  mutable notes : string list;  (** the failures, newest first *)
  mutable texts : (Expected.key * string) list;
}

let outputs expected = { expected; ops = 0; failed = 0; notes = []; texts = [] }

let fail out ~weight fmt =
  Printf.ksprintf
    (fun msg ->
       out.failed <- out.failed + weight;
       out.notes <- msg :: out.notes)
    fmt

(** Account one output of [weight] operations against its pinned digest. *)
let check out ~weight key text =
  out.ops <- out.ops + weight;
  out.texts <- (key, text) :: out.texts;
  match out.expected with
  | None -> ()
  | Some exp -> (
      match Expected.check exp key text with
      | Expected.Match -> ()
      | Expected.Mismatch -> fail out ~weight "%s: digest mismatch" (Expected.key_to_string key)
      | Expected.Missing -> fail out ~weight "%s: no pinned digest" (Expected.key_to_string key))

type round = {
  out : outputs;
  accesses : int;                  (** simulated memory accesses (grids) *)
  completed : int;                 (** requests completed (fleet) *)
  gmeans : (string * float) list;  (** simulated overhead gmean per scheme (grids) *)
}

let round out = { out; accesses = 0; completed = 0; gmeans = [] }

(** Per-layer values of a traced round, plus the simulated counts the
    [est.*] shares need. *)
type layers = { values : (string * float) list; accesses : int; llc_misses : int; epc_faults : int }

type t = {
  name : string;
  setup : seed:int -> unit;  (** build every machine one round builds, and nothing else *)
  run : seed:int -> Expected.t option -> round;
  traced : seed:int -> Expected.t -> Tracer.log -> round * layers;
  paper : (string * float) list;  (** the paper's overhead gmeans (grids) *)
  pinned_seeds : int list;  (** seeds whose outputs differ and are pinned one by one *)
}

(** Seed 1 keeps the figure's scheme order; any other seed applies a
    seeded permutation of the schemes within every workload row. The
    cells of a row stay adjacent, so each runner chunk holds the same
    cells for every seed and the seed cannot reshuffle the load balance
    of the two-domain grid. *)
let permute ~seed xs =
  if seed = 1 then xs
  else begin
    let a = Array.of_list xs in
    let rng = Rng.create seed in
    for i = Array.length a - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done;
    Array.to_list a
  end

let secs = Tracer.seconds

(* ---------- layer accounting shared by the traced rounds ---------- *)

(** One timed call of {!Harness.run_one}: the cell's span bounds, the
    moment [~wrap] saw the scheme (end of set-up), its op timings and
    the machine it ran on. *)
type cell_time = {
  ct_workload : string;
  ct_scheme : string;
  ct_track : int;
  ct_start : int;
  ct_stop : int;
  ct_setup : int;  (** ns from entry to [~wrap] *)
  ct_ops : Tracer.ops;
  ct_trace : Sb_machine.Trace.stats option;
  ct_accesses : int;  (** simulated accesses of the run, if it completed *)
}

(** [timed_run_one log ~parent ~label ~extra_wrap run]: call [run ~wrap]
    (a {!Harness.run_one} partially applied) inside a span [label] with
    "setup" and "run" children split at the [~wrap] callback. The op
    timer sits directly on the scheme; [extra_wrap] goes on top of it. *)
let timed_run_one log ~parent ~cat ~label ~threads ?(extra_wrap = fun s -> s) run =
  let ops = Tracer.create_ops () in
  let wrap_at = ref 0 and machine = ref None in
  let wrap s =
    wrap_at := Tracer.now_ns ();
    machine := Some s.Scheme.ms;
    extra_wrap (Tracer.time_ops ~threads ops s)
  in
  let id = Tracer.fresh_id log in
  let start = Tracer.now_ns () in
  let r = run ~wrap in
  let stop = Tracer.now_ns () in
  let setup_end = if !wrap_at = 0 then stop else !wrap_at in
  Tracer.record log ~id ~parent ~cat ~start_ns:start ~stop_ns:stop label
    ~args:[ ("ops", Tracer.ops_json ops) ];
  Tracer.record log ~id:(Tracer.fresh_id log) ~parent:id ~cat:"memsys" ~start_ns:start
    ~stop_ns:setup_end "setup";
  Tracer.record log ~id:(Tracer.fresh_id log) ~parent:id ~cat:"workload" ~start_ns:setup_end
    ~stop_ns:stop "run";
  ( r,
    {
      ct_workload = r.Harness.workload;
      ct_scheme = r.Harness.scheme;
      ct_track = Tracer.track ();
      ct_start = start;
      ct_stop = stop;
      ct_setup = setup_end - start;
      ct_ops = ops;
      ct_trace = Option.map Memsys.trace_stats !machine;
      ct_accesses =
        (match r.Harness.outcome with Harness.Completed m -> m.Harness.mem_accesses | _ -> 0);
    } )

(** A cell as the runner sees it: who ran it, from when to when. *)
type busy = { b_workload : string; b_scheme : string; b_track : int; b_ns : int }

(** Run [f id] as a cell of the traced round: a span under [parent]
    whose time counts as busy time of the domain that ran it. *)
let cell log cells ~parent ~cat ~workload ~scheme name f =
  let t0 = Tracer.now_ns () in
  let r = Tracer.span log ~parent ~cat name f in
  cells :=
    { b_workload = workload; b_scheme = scheme; b_track = Tracer.track ();
      b_ns = Tracer.now_ns () - t0 }
    :: !cells;
  r

(** Total seconds spent in the spans named [name]. *)
let span_s log name =
  match List.assoc_opt name (Tracer.by_name log) with
  | Some (_, total, _) -> secs total
  | None -> 0.

(** The runner's view of a round of [wall_s] seconds run by [jobs]
    domains. *)
let runner_layers ~jobs ~wall_s (cells : busy list) =
  let tracks = Hashtbl.create 4 in
  List.iter
    (fun c ->
       Hashtbl.replace tracks c.b_track
         (c.b_ns + Option.value ~default:0 (Hashtbl.find_opt tracks c.b_track)))
    cells;
  let busy = Hashtbl.fold (fun _ ns acc -> ns :: acc) tracks [] in
  (* a domain that got no cell was idle the whole round *)
  let busy = busy @ List.init (max 0 (jobs - List.length busy)) (fun _ -> 0) in
  let cell_s = List.map (fun c -> secs c.b_ns) cells in
  [
    ("runner.balance", secs (List.fold_left ( + ) 0 busy) /. (float_of_int jobs *. wall_s));
    ("runner.busy_s.max", secs (List.fold_left max 0 busy));
    ("runner.busy_s.min", secs (List.fold_left min max_int busy));
    ("runner.cell_s.p50", Quantile.median cell_s);
    ("runner.cell_s.p80", Quantile.percentile 80 cell_s);
    ("runner.cell_s.max", List.fold_left Float.max 0. cell_s);
  ]

(** Busy time summed per registry workload ([wl.<name>.s]) and per
    headline scheme ([scheme.<name>.s]). *)
let cell_sums (cells : busy list) =
  let sum_by key keep name =
    let tbl = Hashtbl.create 32 in
    List.iter
      (fun c ->
         let k = key c in
         if keep k then
           Hashtbl.replace tbl k (c.b_ns + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
      cells;
    Hashtbl.fold (fun k ns acc -> (name k, secs ns) :: acc) tbl [] |> List.sort compare
  in
  sum_by (fun c -> c.b_workload) (fun w -> List.mem w Registry.names) (Printf.sprintf "wl.%s.s")
  @ sum_by (fun c -> c.b_scheme) (fun s -> List.mem s Catalogue.headline)
      (Printf.sprintf "scheme.%s.s")

let busy_of_cell ct =
  { b_workload = ct.ct_workload; b_scheme = ct.ct_scheme; b_track = ct.ct_track;
    b_ns = ct.ct_stop - ct.ct_start }

(** Harness, Trace and op layers of the cells the ledger timed, and the
    Memsys counters of the completed runs [ms]. *)
let machine_layers (cts : cell_time list) (ms : Harness.metrics list) =
  let sum f = List.fold_left (fun acc ct -> acc + f ct) 0 cts in
  let msum f = List.fold_left (fun acc m -> acc + f m) 0 ms in
  let cache lvl (m : Harness.metrics) =
    match List.assoc_opt lvl m.Harness.cache with
    | Some (st : Sb_cache.Hierarchy.level_stats) -> st.Sb_cache.Hierarchy.misses
    | None -> 0
  in
  let cls c (m : Harness.metrics) =
    match List.assoc_opt c m.Harness.attribution with
    | Some (st : Memsys.class_stat) -> st.Memsys.accesses
    | None -> 0
  in
  let tsum f = sum (fun ct -> match ct.ct_trace with Some t -> f t | None -> 0) in
  let ops = Tracer.create_ops () in
  List.iter (fun ct -> Tracer.merge_ops ops ct.ct_ops) cts;
  let accesses = msum (fun m -> m.Harness.mem_accesses) in
  let f = float_of_int in
  let values =
    [
      ("harness.setup_s", secs (sum (fun ct -> ct.ct_setup)));
      ("harness.run_s", secs (sum (fun ct -> ct.ct_stop - ct.ct_start - ct.ct_setup)));
      ("memsys.accesses", f accesses);
      ("memsys.instrs", f (msum (fun m -> m.Harness.instrs)));
      ("cache.l1.misses", f (msum (cache "L1")));
      ("cache.l2.misses", f (msum (cache "L2")));
      ("cache.llc.misses", f (msum (cache "LLC")));
      ("epc.faults", f (msum (fun m -> m.Harness.epc_faults)));
      ("epc.evictions", f (msum (fun m -> m.Harness.epc_evictions)));
      ("memsys.class.footer_meta.accesses", f (msum (cls Memsys.Footer_meta)));
      ("memsys.class.shadow.accesses", f (msum (cls Memsys.Shadow)));
      ("memsys.class.bounds_table.accesses", f (msum (cls Memsys.Bounds_table)));
      ("checks.done", f (msum (fun m -> m.Harness.checks_done)));
      ("checks.elided", f (msum (fun m -> m.Harness.checks_elided)));
      ("checks.hoisted", f (msum (fun m -> m.Harness.checks_hoisted)));
      ("trace.superblocks", f (tsum (fun t -> t.Sb_machine.Trace.superblocks)));
      ( "trace.fused_share",
        f (tsum (fun t -> t.Sb_machine.Trace.fused))
        /. f (max 1 (sum (fun ct -> ct.ct_accesses))) );
      ("trace.breaks", f (tsum (fun t -> t.Sb_machine.Trace.breaks)));
      ("trace.invalidations", f (tsum (fun t -> t.Sb_machine.Trace.invalidations)));
    ]
    @ List.concat
        (List.mapi
           (fun i op ->
              [ (Printf.sprintf "op.%s.calls" op, f ops.(i).Tracer.calls);
                (Printf.sprintf "op.%s.s" op, secs ops.(i).Tracer.sum_ns) ])
           Catalogue.op_names)
  in
  {
    values;
    accesses;
    llc_misses = msum (cache "LLC");
    epc_faults = msum (fun m -> m.Harness.epc_faults);
  }

(* ---------- grids ---------- *)

let check_result out (r : Harness.result) =
  check out ~weight:1
    { Expected.kind = "cell"; a = r.Harness.workload; b = r.Harness.scheme }
    (Json.to_string (Harness.json_of_result r))

(* simulated overhead over native, gmean per scheme — the figure's
   bottom row *)
let gmeans (rs : Harness.result list) =
  List.filter_map
    (fun scheme ->
       let ratios =
         List.filter_map
           (fun (r : Harness.result) ->
              if r.Harness.scheme <> scheme then None
              else
                match
                  List.find_opt
                    (fun (b : Harness.result) ->
                       b.Harness.workload = r.Harness.workload && b.Harness.scheme = "native")
                    rs
                with
                | Some b -> Harness.perf_ratio ~baseline:(Harness.metrics_exn b) r
                | None -> None)
           rs
       in
       if ratios = [] then None else Some (scheme, Util.geomean ratios))
    [ "mpx"; "asan"; "sgxbounds" ]

let grid ~name ~suites ~threads ~jobs ~paper =
  let workloads = List.concat_map Registry.of_suite suites in
  let schemes ~seed = permute ~seed Catalogue.headline in
  (* the cells [run_grid] builds, for the set-up and traced passes *)
  let cells ~seed =
    List.concat_map
      (fun w ->
         List.map (fun scheme -> Parallel_runner.cell ~threads ~scheme w) (schemes ~seed))
      workloads
  in
  let finish out (rs : Harness.result list) =
    List.iter (check_result out) rs;
    {
      (round out) with
      accesses =
        List.fold_left (fun acc m -> acc + m.Harness.mem_accesses) 0 (Harness.completed_metrics rs);
      gmeans = gmeans rs;
    }
  in
  let setup ~seed =
    List.iter
      (fun (c : Parallel_runner.cell) ->
         let ms = Memsys.create (Config.default ~env:c.Parallel_runner.env ()) in
         ignore (Harness.maker c.Parallel_runner.scheme ms))
      (cells ~seed)
  in
  let run ~seed expected =
    Parallel_runner.run_grid ~jobs ~threads ~schemes:(schemes ~seed) ~workloads ()
    |> List.concat_map (fun (_, row) -> List.map snd row)
    |> finish (outputs expected)
  in
  let traced ~seed expected log =
    let results =
      Tracer.span log ~cat:"ledger" "round" (fun round ->
          Parallel_runner.map ~jobs
            (fun (c : Parallel_runner.cell) ->
               let w = c.Parallel_runner.workload and scheme = c.Parallel_runner.scheme in
               timed_run_one log ~parent:round ~cat:"harness" ~threads
                 ~label:(w.Registry.name ^ "/" ^ scheme)
                 (fun ~wrap -> Harness.run_one ~wrap ~threads ~scheme w))
            (Array.of_list (cells ~seed)))
    in
    let rs = Array.to_list (Array.map fst results)
    and cts = Array.to_list (Array.map snd results) in
    let busy = List.map busy_of_cell cts in
    let m = machine_layers cts (Harness.completed_metrics rs) in
    ( finish (outputs (Some expected)) rs,
      {
        m with
        values = runner_layers ~jobs ~wall_s:(span_s log "round") busy @ cell_sums busy @ m.values;
      } )
  in
  { name; setup; run; traced; paper; pinned_seeds = [] }

(* ---------- fleet ---------- *)

(** The two [serve --fleet] runs: SGXBounds at 30 % of its capacity, MPX
    near its knee. *)
let fleet_configs ~seed =
  List.map
    (fun (scheme, rate_rps) ->
       {
         Fleet.default with
         Fleet.instances = 2;
         workers = 4;
         queue_cap = 64;
         requests = 1_000_000;
         rate_rps;
         process = Loadgen.Poisson;
         seed;
         scheme;
         policy = Fleet.Hash;
         workload = Ycsb.A;
         records = 24_576;
       })
    [ ("sgxbounds", 400_000.); ("mpx", 150_000.) ]

let fleet_pinned = [ 1; 2 ]

(** Every fleet run is checked for the accounting identities; on a
    pinned seed its fingerprint must equal the pinned digest, on any
    other seed it must equal the previous round's (the run is a pure
    function of its config). *)
let fleet_workload () =
  let previous = Hashtbl.create 4 in
  let check_run out (cfg : Fleet.config) outcome =
    let weight = cfg.Fleet.requests in
    match outcome with
    | Error msg ->
      out.ops <- out.ops + weight;
      fail out ~weight "fleet %s: %s" cfg.Fleet.scheme msg;
      0
    | Ok (st : Fleet.stats) ->
      let fp = Fleet.fingerprint st in
      let key =
        { Expected.kind = "fleet"; a = cfg.Fleet.scheme; b = string_of_int cfg.Fleet.seed }
      in
      let s = Fleet.summary st in
      let sane =
        st.Fleet.completed + st.Fleet.dropped + st.Fleet.lost = st.Fleet.offered
        && Array.fold_left (fun acc i -> acc + i.Fleet.i_completed) 0 st.Fleet.per_instance
           = st.Fleet.completed
        && s.Sb_service.Latency.p50 <= s.Sb_service.Latency.p99
      in
      if List.mem cfg.Fleet.seed fleet_pinned || out.expected = None then check out ~weight key fp
      else begin
        out.ops <- out.ops + weight;
        (match Hashtbl.find_opt previous key with
         | Some p when p <> fp ->
           fail out ~weight "fleet %s: fingerprint changed between rounds" cfg.Fleet.scheme
         | _ -> ());
        Hashtbl.replace previous key fp
      end;
      if not sane then
        fail out ~weight "fleet %s: request accounting does not add up" cfg.Fleet.scheme;
      st.Fleet.completed
  in
  let setup ~seed =
    List.iter (fun cfg -> ignore (Fleet.run { cfg with Fleet.requests = 0 })) (fleet_configs ~seed)
  in
  let run ~seed expected =
    let out = outputs expected in
    let completed =
      List.fold_left
        (fun acc cfg -> acc + check_run out cfg (Fleet.run cfg))
        0 (fleet_configs ~seed)
    in
    { (round out) with completed }
  in
  let traced ~seed expected log =
    let out = outputs (Some expected) and cells = ref [] and max_queue = ref 0 in
    let step parent name f = Tracer.span log ~parent ~cat:"fleet" name (fun _ -> f ()) in
    let completed =
      Tracer.span log ~cat:"ledger" "round" (fun round ->
          List.fold_left
            (fun acc (cfg : Fleet.config) ->
               acc
               + cell log cells ~parent:round ~cat:"fleet" ~workload:Catalogue.fleet
                   ~scheme:cfg.Fleet.scheme ("fleet:" ^ cfg.Fleet.scheme) (fun id ->
                     ignore
                       (step id "fleet.setup" (fun () ->
                            Fleet.run { cfg with Fleet.requests = 0 }));
                     (* the two streams Fleet.run draws from its seed, drawn the same way *)
                     let rng = Rng.create cfg.Fleet.seed in
                     ignore
                       (step id "loadgen.arrivals" (fun () ->
                            Loadgen.arrivals ~rng ~process:cfg.Fleet.process
                              ~rate_rps:cfg.Fleet.rate_rps ~n:cfg.Fleet.requests));
                     let op_seed = Rng.split rng in
                     ignore
                       (step id "ycsb.generate" (fun () ->
                            Ycsb.generate ~seed:op_seed ~workload:cfg.Fleet.workload
                              ~records:cfg.Fleet.records ~n:cfg.Fleet.requests ()));
                     let outcome = step id "fleet.run" (fun () -> Fleet.run cfg) in
                     Result.iter
                       (fun (st : Fleet.stats) ->
                          Array.iter
                            (fun i -> max_queue := max !max_queue i.Fleet.i_max_queue)
                            st.Fleet.per_instance)
                       outcome;
                     check_run out cfg outcome))
            0 (fleet_configs ~seed))
    in
    let cells = List.rev !cells and s = span_s log in
    ( { (round out) with completed },
      {
        values =
          runner_layers ~jobs:1 ~wall_s:(s "round") cells
          @ cell_sums cells
          @ [
            ("fleet.setup_s", s "fleet.setup");
            ("ycsb.generate_s", s "ycsb.generate");
            ("loadgen.arrivals_s", s "loadgen.arrivals");
            (* Fleet.run builds, generates and draws again before serving *)
            ( "fleet.serve_s",
              s "fleet.run" -. s "fleet.setup" -. s "ycsb.generate" -. s "loadgen.arrivals" );
            ("fleet.max_queue", float_of_int !max_queue);
          ];
        accesses = 0;
        llc_misses = 0;
        epc_faults = 0;
      } )
  in
  { name = Catalogue.fleet; setup; run; traced; paper = []; pinned_seeds = fleet_pinned }

(* ---------- audit-opt ---------- *)

let audit_workload () =
  let workloads = Registry.all in
  let opt_schemes ~seed = permute ~seed Optimizer.default_sweep_schemes in
  let audit_schemes ~seed = permute ~seed Analyze.default_schemes in
  let row_key (r : Optimizer.row) =
    { Expected.kind = "opt"; a = r.Optimizer.r_workload; b = r.Optimizer.r_scheme }
  in
  let check_audit out (c : Analyze.cell) =
    check out ~weight:1
      { Expected.kind = "audit"; a = c.Analyze.c_workload; b = c.Analyze.c_scheme }
      (Json.to_string (Analyze.json_of_cell c));
    let where = c.Analyze.c_workload ^ "/" ^ c.Analyze.c_scheme in
    if c.Analyze.c_crashed <> None then fail out ~weight:1 "audit %s: crashed" where
    else if c.Analyze.c_total > 0 then
      fail out ~weight:1 "audit %s: %d finding(s)" where c.Analyze.c_total
    else if not c.Analyze.c_subset_ok then fail out ~weight:1 "audit %s: subset pin failed" where
  in
  (* one optimizer cell builds two machines (record, replay), an audit
     cell one *)
  let setup ~seed =
    let build scheme = ignore (Harness.maker scheme (Memsys.create (Config.default ()))) in
    List.iter
      (fun _ ->
         List.iter (fun s -> build s; build s) (opt_schemes ~seed);
         List.iter build (audit_schemes ~seed))
      workloads
  in
  let run ~seed expected =
    let out = outputs expected in
    List.iter
      (fun (r : Optimizer.row) ->
         check out ~weight:1 (row_key r) (Json.to_string (Optimizer.json_of_row r));
         if not r.Optimizer.r_sound then
           fail out ~weight:1 "opt %s/%s: unsound: %s" r.Optimizer.r_workload r.Optimizer.r_scheme
             r.Optimizer.r_detail)
      (Optimizer.sweep ~jobs:1 ~schemes:(opt_schemes ~seed) workloads);
    List.iter (check_audit out) (Analyze.sweep ~schemes:(audit_schemes ~seed) workloads);
    round out
  in
  (* The traced pass runs each optimizer cell as the public steps
     [Optimizer.optimize_cell] composes — record, plan, verify, replay —
     so each gets its own span. It checks the cell's certificates (none
     rejected statically or at run time); the row digest is the
     untraced pass's. *)
  let traced ~seed expected log =
    let out = outputs (Some expected) in
    let cells = ref [] and replays = ref [] and runs = ref [] and sym_ops = ref 0 in
    let step parent name f = Tracer.span log ~parent ~cat:"analysis" name f in
    Tracer.span log ~cat:"ledger" "round" (fun round ->
        let each schemes kind f =
          List.iter
            (fun (w : Registry.spec) ->
               List.iter
                 (fun scheme ->
                    cell log cells ~parent:round ~cat:"analysis" ~workload:w.Registry.name ~scheme
                      (Printf.sprintf "%s:%s/%s" kind w.Registry.name scheme)
                      (f w scheme))
                 schemes)
            workloads
        in
        each (opt_schemes ~seed) "opt" (fun w scheme id ->
            out.ops <- out.ops + 1;
            let r0, stream, n =
              step id "sitestream.record" (fun _ -> Optimizer.record_cell ~scheme w)
            in
            let plan =
              step id "optimizer.plan" (fun _ ->
                  Optimizer.build_plan ~workload:w.Registry.name ~scheme stream)
            in
            let bad =
              step id "optimizer.verify" (fun _ -> List.length (Optimizer.verify_plan plan stream))
            in
            let stats = ref None in
            let extra_wrap s =
              let s', st = Optimized.wrap plan s in
              stats := Some st;
              s'
            in
            let r1, ct =
              step id "optimized.replay" (fun rid ->
                  timed_run_one log ~parent:rid ~cat:"harness" ~label:"replay" ~threads:1
                    ~extra_wrap (fun ~wrap -> Harness.run_one ~wrap ~n ~scheme w))
            in
            replays := ct :: !replays;
            runs := Harness.completed_metrics [ r0; r1 ] @ !runs;
            let fallbacks = match !stats with Some st -> st.Optimized.fallbacks | None -> 0 in
            if bad > 0 || fallbacks > 0 then
              fail out ~weight:1 "opt %s/%s: %d certificate(s) rejected" w.Registry.name scheme
                (bad + fallbacks));
        each (audit_schemes ~seed) "audit" (fun w scheme id ->
            let c = step id "symex.audit" (fun _ -> Analyze.run_cell ~scheme w) in
            sym_ops := !sym_ops + c.Analyze.c_ops;
            check_audit out c));
    let busy = List.rev !cells and s = span_s log in
    let m = machine_layers !replays !runs in
    ( round out,
      {
        m with
        values =
          runner_layers ~jobs:1 ~wall_s:(s "round") busy
          @ cell_sums busy @ m.values
          @ [
            ("sitestream.record_s", s "sitestream.record");
            ("optimizer.plan_s", s "optimizer.plan");
            ("optimizer.verify_s", s "optimizer.verify");
            ("optimized.replay_s", s "optimized.replay");
            ("symex.audit_s", s "symex.audit");
            ("symex.ops", float_of_int !sym_ops);
          ];
      } )
  in
  { name = Catalogue.audit_opt; setup; run; traced; paper = []; pinned_seeds = [] }

let all () =
  [
    grid ~name:Catalogue.grid_mt8 ~suites:[ Registry.Phoenix; Registry.Parsec ] ~threads:8
      ~jobs:2 ~paper:[ ("mpx", 1.75); ("asan", 1.51); ("sgxbounds", 1.17) ];
    grid ~name:Catalogue.grid_spec ~suites:[ Registry.Spec ] ~threads:1 ~jobs:1
      ~paper:[ ("mpx", 1.52); ("asan", 1.76); ("sgxbounds", 1.41) ];
    fleet_workload ();
    audit_workload ();
  ]

let find name = List.find_opt (fun w -> w.name = name) (all ())
