(** Command-line driver: run any evaluation workload under any protection
    scheme, inside or outside the (simulated) enclave, and print the
    metrics the paper's plots are built from.

    Examples:
      sgxbounds_cli run -w kmeans -s sgxbounds
      sgxbounds_cli run -w kmeans -s sgxbounds --stats --trace out.json
      sgxbounds_cli run -w mcf -s mpx --outside --json
      sgxbounds_cli stats -w kmeans
      sgxbounds_cli compare -w pca -t 8
      sgxbounds_cli list *)

open Cmdliner
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Registry = Sb_workloads.Registry
module Config = Sb_machine.Config
module Telemetry = Sb_telemetry.Telemetry
module Sink = Sb_telemetry.Sink
module Json = Sb_telemetry.Json
module Profile = Sb_telemetry.Profile
module Drivers = Sb_service.Drivers
module Loadgen = Sb_service.Loadgen
module Ycsb = Sb_service.Ycsb
module Fleet = Sb_service.Fleet
module Faulty = Sb_protection.Faulty

(* Runtime failures (an unwritable file, a crashed run): report them on
   stderr instead of an exception trace. *)
let die fmt = Fmt.kstr (fun msg -> Fmt.epr "sgxbounds_cli: %s@." msg; exit 2) fmt

(* Every name and count is resolved while the command line is read, so a
   malformed one is a usage error (exit 124) before anything runs, on
   every path of every subcommand. Names match exactly: [Arg.enum] would
   also accept any unambiguous prefix, so each converter is built from
   its module's own [of_string] (which keeps its aliases). *)
let name_conv ~what names of_string name =
  let parse s =
    match of_string s with
    | Some v -> Ok v
    | None ->
      Error (`Msg (Printf.sprintf "unknown %s '%s' (valid: %s)" what s (String.concat ", " names)))
  in
  Arg.conv (parse, fun ppf v -> Fmt.string ppf (name v))

let workload_conv =
  name_conv ~what:"workload" Registry.names Registry.find_opt (fun w -> w.Registry.name)

(* schemes stay strings: the harness and the analyses take names *)
let scheme_conv =
  name_conv ~what:"scheme" Harness.scheme_names
    (fun s -> Option.map (fun _ -> s) (Harness.maker_opt s)) Fun.id

let app_conv = name_conv ~what:"app" Drivers.app_names Drivers.of_string Drivers.name

let process_conv =
  name_conv ~what:"arrival process" Loadgen.process_names Loadgen.of_string Loadgen.to_string

let ycsb_conv = name_conv ~what:"YCSB workload" Ycsb.workload_names Ycsb.of_string Ycsb.name

let dist_conv =
  name_conv ~what:"key distribution"
    (List.map Ycsb.dist_name [ Ycsb.Uniform; Ycsb.Zipfian; Ycsb.Latest ])
    Ycsb.dist_of_string Ycsb.dist_name

let policy_conv =
  name_conv ~what:"policy" Fleet.policy_names Fleet.policy_of_string Fleet.policy_name

let fault_name f = List.find (fun n -> Faulty.fault_of_string n = Some f) Faulty.fault_names

let fault_conv = name_conv ~what:"fault" Faulty.fault_names Faulty.fault_of_string fault_name

let number ~expected of_string ok pp =
  let parse s =
    match of_string s with
    | Some v when ok v -> Ok v
    | _ -> Error (`Msg (Printf.sprintf "expected %s, got %S" expected s))
  in
  Arg.conv (parse, pp)

let pos_int = number ~expected:"a positive integer" int_of_string_opt (fun n -> n >= 1) Fmt.int

let nonneg_int =
  number ~expected:"a non-negative integer" int_of_string_opt (fun n -> n >= 0) Fmt.int

let pos_float = number ~expected:"a positive number" float_of_string_opt (fun x -> x > 0.) Fmt.float

let probability =
  number ~expected:"a probability in [0, 1]" float_of_string_opt (fun p -> p >= 0. && p <= 1.) Fmt.float

let pp_outcome w = function
  | Harness.Completed m ->
    Fmt.pr
      "%-18s cycles=%-12d instrs=%-10d accesses=%-10d llc_miss=%-9d epc_faults=%-8d peak_vm=%a bts=%d@."
      w m.Harness.cycles m.Harness.instrs m.Harness.mem_accesses m.Harness.llc_misses
      m.Harness.epc_faults Sb_machine.Util.pp_bytes m.Harness.peak_vm m.Harness.bts
  | Harness.Crashed msg -> Fmt.pr "%-18s CRASHED: %s@." w msg

let workload_arg =
  let doc = "Workload name (see `list')." in
  Arg.(required & opt (some workload_conv) None & info [ "w"; "workload" ] ~doc)

let scheme_arg =
  let doc = "Protection scheme: native, sgxbounds, sgxbounds-noopt, sgxbounds-safe, \
             sgxbounds-hoist, sgxbounds-boundless, asan, mpx, baggy." in
  Arg.(value & opt scheme_conv "sgxbounds" & info [ "s"; "scheme" ] ~doc)

let threads_arg =
  Arg.(value & opt pos_int 1 & info [ "t"; "threads" ] ~doc:"Simulated threads.")

let n_arg =
  Arg.(value & opt (some pos_int) None & info [ "n" ] ~doc:"Working-set parameter override.")

let outside_arg =
  Arg.(value & flag & info [ "outside" ] ~doc:"Run outside the enclave (no EPC/MEE).")

let jobs_arg =
  Arg.(value & opt pos_int 1
       & info [ "j"; "jobs" ]
           ~doc:"Fan independent cells across N OCaml domains (host parallelism; \
                 simulated results are identical to a sequential sweep).")

let stats_arg =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the per-access-class cycle attribution table and telemetry summary.")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace_event JSON of the run (open at chrome://tracing or \
                 ui.perfetto.dev). Contains phase spans and EPC fault/eviction events.")

let json_arg =
  Arg.(value & flag
       & info [ "json" ] ~doc:"Emit machine-readable JSON instead of the human summary.")

let env_of outside = if outside then Config.Outside_enclave else Config.Inside_enclave

(* Event ring size for traced runs: enough for the full span set plus the
   most recent ~64k EPC events; older ones are counted as dropped. *)
let trace_capacity = 65536

let run_cmd =
  let run (w : Registry.spec) scheme threads n outside stats trace json =
    let workload = w.Registry.name in
    let observing = stats || trace <> None || json in
    let tel =
      if observing then Telemetry.create ~capacity:trace_capacity ()
      else Telemetry.disabled ()
    in
    let r = Harness.run_one ~tel ~env:(env_of outside) ~threads ?n ~scheme w in
    (match trace with
     | Some file ->
       (try
          Sink.write_chrome_trace ~process_name:(workload ^ "/" ^ scheme) file
            (Sink.snapshot tel)
        with Sys_error e -> die "cannot write trace: %s" e)
     | None -> ());
    if json then
      let telemetry =
        if stats then [ ("telemetry", Sink.to_json (Sink.snapshot tel)) ] else []
      in
      Fmt.pr "%s@."
        (Json.to_string
           (match Harness.json_of_result r with
            | Json.Obj kvs -> Json.Obj (kvs @ telemetry)
            | j -> j))
    else begin
      pp_outcome (workload ^ "/" ^ scheme) r.Harness.outcome;
      if stats then begin
        (match r.Harness.outcome with
         | Harness.Completed m ->
           Harness.print_attribution ~label:(workload ^ "/" ^ scheme) m
         | Harness.Crashed _ -> ());
        Fmt.pr "@.%a" Sink.pp_table (Sink.snapshot tel)
      end;
      match trace with
      | Some file -> Fmt.pr "trace written to %s@." file
      | None -> ()
    end
  in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload under one scheme.")
    Term.(const run $ workload_arg $ scheme_arg $ threads_arg $ n_arg $ outside_arg
          $ stats_arg $ trace_arg $ json_arg)

let stats_cmd =
  let run w threads n outside json jobs =
    let env = env_of outside in
    (* Each ablation variant is an independent cell with its own Memsys;
       fan them across domains when --jobs asks for it. *)
    let results =
      Parallel_runner.run_cells ~jobs
        (List.map
           (fun scheme -> Parallel_runner.cell ~env ~threads ?n ~scheme w)
           Harness.ablation_schemes)
    in
    if json then
      Fmt.pr "%s@." (Json.to_string (Json.List (List.map Harness.json_of_result results)))
    else begin
      Harness.print_ablation results;
      List.iter
        (fun (r : Harness.result) ->
           match (r.Harness.scheme, r.Harness.outcome) with
           | ("sgxbounds" | "sgxbounds-noopt"), Harness.Completed m ->
             Harness.print_attribution ~label:(r.Harness.workload ^ "/" ^ r.Harness.scheme) m
           | _ -> ())
        results;
      (* Cross-cell view: sum the per-class counters of every cell's
         private Memsys — never read from a single (e.g. the last)
         domain's memory system. *)
      match Harness.aggregate_metrics (Harness.completed_metrics results) with
      | Some agg ->
        Harness.print_attribution
          ~label:
            (Fmt.str "aggregate over %d cells (counters summed across domains)"
               (List.length (Harness.completed_metrics results)))
          agg
      | None -> ()
    end
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Explain a workload's overhead: run the §4.4 optimization ablation \
             (native + all sgxbounds variants) and print per-cell cycle attribution \
             plus the aggregate across all cells.")
    Term.(const run $ workload_arg $ threads_arg $ n_arg $ outside_arg $ json_arg $ jobs_arg)

let compare_cmd =
  let run w threads n outside jobs =
    let schemes = [ "native"; "sgxbounds"; "asan"; "mpx" ] in
    let results =
      Parallel_runner.run_cells ~jobs
        (List.map
           (fun s -> Parallel_runner.cell ~env:(env_of outside) ~threads ?n ~scheme:s w)
           schemes)
    in
    List.iter (fun r -> pp_outcome r.Harness.scheme r.Harness.outcome) results;
    match (List.hd results).Harness.outcome with
    | Harness.Completed base ->
      List.iter
        (fun r ->
           match Harness.perf_ratio ~baseline:base r with
           | Some ratio when r.Harness.scheme <> "native" ->
             Fmt.pr "%-12s overhead: %.2fx@." r.Harness.scheme ratio
           | _ -> ())
        results
    | Harness.Crashed _ -> ()
  in
  Cmd.v (Cmd.info "compare" ~doc:"Run one workload under all main schemes.")
    Term.(const run $ workload_arg $ threads_arg $ n_arg $ outside_arg $ jobs_arg)

let list_cmd =
  let run () =
    List.iter
      (fun (s : Registry.spec) ->
         Fmt.pr "%-18s %-8s %s n=%d@." s.Registry.name
           (Registry.suite_name s.Registry.suite)
           (if s.Registry.pointer_intensive then "pointer-intensive" else "flat            ")
           s.Registry.default_n)
      Registry.all
  in
  Cmd.v (Cmd.info "list" ~doc:"List all workloads.") Term.(const run $ const ())

let ripe_cmd =
  let run scheme =
    let ms = Sb_sgx.Memsys.create (Config.default ()) in
    let s = Harness.maker scheme ms in
    let results = Sb_ripe.Ripe.run_all s in
    List.iter
      (fun ((a : Sb_ripe.Ripe.attack), o) ->
         Fmt.pr "%-40s %s@." (Sb_ripe.Ripe.name a)
           (match o with
            | Sb_ripe.Ripe.Succeeded -> "SUCCEEDED"
            | Sb_ripe.Ripe.Prevented -> "prevented"
            | Sb_ripe.Ripe.Failed -> "failed (no corruption)"))
      results;
    Fmt.pr "@.%s: prevented %d/16, succeeded %d/16@." scheme
      (Sb_ripe.Ripe.count_prevented results)
      (Sb_ripe.Ripe.count_succeeded results)
  in
  Cmd.v (Cmd.info "ripe" ~doc:"Run the 16-attack RIPE matrix under a scheme.")
    Term.(const run $ scheme_arg)

let exploits_cmd =
  let run scheme =
    let mk () =
      let ms = Sb_sgx.Memsys.create (Config.default ()) in
      Sb_workloads.Wctx.make (Harness.maker scheme ms)
    in
    let pp_http = function
      | Sb_apps.Http_sim.Leaked m -> "LEAKED: " ^ m
      | Sb_apps.Http_sim.Detected -> "detected"
      | Sb_apps.Http_sim.Contained_zeros -> "contained (boundless memory)"
      | Sb_apps.Http_sim.Corrupted -> "MEMORY CORRUPTED"
      | Sb_apps.Http_sim.Harmless -> "harmless"
    in
    Fmt.pr "heartbleed:      %s@."
      (pp_http (Sb_apps.Http_sim.heartbeat (mk ()) ~claimed_len:256));
    Fmt.pr "CVE-2013-2028:   %s@."
      (pp_http (Sb_apps.Http_sim.chunked_request (mk ()) ~chunk_size:0xFFFFF000));
    let mc =
      Sb_apps.Memcached_sim.handle_binary_packet
        (Sb_apps.Memcached_sim.create (mk ()))
        ~body_len:(-1024)
    in
    Fmt.pr "CVE-2011-4971:   %s@."
      (match mc with
       | Sb_apps.Memcached_sim.Processed -> "processed (?)"
       | Sb_apps.Memcached_sim.Corrupted -> "MEMORY CORRUPTED"
       | Sb_apps.Memcached_sim.Detected_dropped -> "detected; dropped (EINVAL)"
       | Sb_apps.Memcached_sim.Crashed_segfault -> "SEGFAULT (DoS)"
       | Sb_apps.Memcached_sim.Survived_looping ->
         "boundless: content discarded; logic loops (paper §7)")
  in
  Cmd.v (Cmd.info "exploits" ~doc:"Run the §7 real-exploit reproductions under a scheme.")
    Term.(const run $ scheme_arg)

let validate_bench_cmd =
  let run file =
    let contents =
      try In_channel.with_open_bin file In_channel.input_all
      with Sys_error e -> die "cannot read %s: %s" file e
    in
    match Json.parse contents with
    | Error msg -> die "%s: invalid JSON: %s" file msg
    | Ok j ->
      (match Sb_service.Score.validate j with
       | Ok () -> Fmt.pr "%s: valid score document (engine, score_total, kernels, trend)@." file
       | Error msg -> die "%s: %s" file msg)
  in
  let file_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"BENCH.json file.")
  in
  Cmd.v
    (Cmd.info "validate-bench"
       ~doc:"Validate a score document emitted by `bench/main.exe score' (the committed \
             one is BENCH.json): must parse as JSON and carry \"bench\": \"score\", an \
             engine (naive or fast), a numeric score_total, per-kernel scores and a \
             trend array. The data files under results/ are checked by \
             `bench/main.exe reproduce'.")
    Term.(const run $ file_arg)

let fuzz_cmd =
  let module Fuzz = Sb_fuzz.Fuzz in
  let module Trace = Sb_fuzz.Trace in
  let run_symbolic_seeds total quiet =
    let module Symex = Sb_analysis.Symex in
    (* the unprotected corpus sweep yields the findings; each becomes a
       seed trace replayed through the full differential oracle *)
    let cells = Symex.corpus_sweep ~schemes:[ "native" ] () in
    let seeds = Symex.seed_traces cells in
    if seeds = [] then die "symbolic corpus produced no translatable seeds";
    let traces = Symex.expand_seeds ~total seeds in
    List.iteri
      (fun i tr ->
         if (not quiet) && i mod 50 = 0 then
           Fmt.epr "fuzz: %d/%d symbolic seed traces ok@." i total;
         match Fuzz.check_trace tr with
         | None -> ()
         | Some f ->
           Fmt.pr "fuzz: symbolic seed trace %d FAILED@." i;
           Fmt.pr "  %a@." Fuzz.pp_failure f;
           Fmt.pr "%s" (Trace.to_string tr);
           exit 1)
      traces;
    Fmt.pr "fuzz: %d symbolic seed traces (from %d findings) x all schemes x 2 \
            engines: all invariants held@."
      total (List.length seeds)
  in
  let run_random_traces ~seed ~iters ~shrink ~bad ~inject ~quiet =
    let specs =
      match inject with
      | None -> Fuzz.default_specs ()
      | Some fault ->
        (* Graft the fault onto sgxbounds; its contract still holds it to
           the unbroken scheme's standard, so the campaign must fail —
           the harness's own sanity check. *)
        List.map
          (fun (sp : Fuzz.spec) ->
             if sp.Fuzz.sp_name = "sgxbounds" then
               { sp with Fuzz.sp_maker = (fun m -> Faulty.inject fault (sp.Fuzz.sp_maker m)) }
             else sp)
          (Fuzz.default_specs ())
    in
    let params = { Trace.default_params with Trace.p_bad = bad } in
    let progress i =
      if (not quiet) && i mod 100 = 0 then Fmt.epr "fuzz: %d/%d traces ok@." i iters
    in
    let report = Fuzz.campaign ~specs ~params ~progress ~shrink ~seed ~iters () in
    match report.Fuzz.rp_counterexample with
    | None ->
      Fmt.pr "fuzz: %d traces (%d events) x %d schemes x 2 engines: all invariants held \
              (seed %d)@."
        report.Fuzz.rp_ran report.Fuzz.rp_events (List.length report.Fuzz.rp_schemes) seed
    | Some cx ->
      Fmt.pr "fuzz: FAILED at iteration %d (seed %d)@." cx.Fuzz.cx_iter seed;
      Fmt.pr "  %a@." Fuzz.pp_failure cx.Fuzz.cx_failure;
      Fmt.pr "  original trace: %d events; shrunk counterexample (%d events):@."
        (Array.length cx.Fuzz.cx_trace) (Array.length cx.Fuzz.cx_shrunk);
      Fmt.pr "%s" (Trace.to_string cx.Fuzz.cx_shrunk);
      Fmt.pr "  replay with: %s%s@." (Fuzz.replay_command ~seed cx)
        (match inject with Some f -> " --inject " ^ fault_name f | None -> "");
      exit 1
  in
  let run seed iters shrink bad inject quiet symseeds =
    match symseeds with
    | Some total -> run_symbolic_seeds total quiet
    | None -> run_random_traces ~seed ~iters ~shrink ~bad ~inject ~quiet
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~docv:"N" ~doc:"Campaign seed (deterministic).")
  in
  let iters_arg =
    Arg.(value & opt pos_int 500 & info [ "iters" ] ~docv:"N" ~doc:"Number of traces to generate.")
  in
  let shrink_arg =
    Arg.(value & opt bool true & info [ "shrink" ] ~docv:"BOOL"
           ~doc:"Shrink a failing trace to a minimal counterexample.")
  in
  let bad_arg =
    Arg.(value & opt probability 0.5 & info [ "bad" ] ~docv:"P"
           ~doc:"Fraction of traces seeded with deliberate violations.")
  in
  let inject_arg =
    Arg.(value & opt (some fault_conv) None & info [ "inject" ] ~docv:"FAULT"
           ~doc:"Break sgxbounds on purpose (elide-checks, deaf-libc); the campaign must \
                 then fail — a self-test of the fuzzer.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"No progress output on stderr.")
  in
  let symseeds_arg =
    Arg.(value & opt (some pos_int) None
         & info [ "symbolic-seeds" ] ~docv:"N"
             ~doc:"Instead of random traces, replay N traces deterministically \
                   expanded from the symbolic interface auditor's corpus \
                   findings through the differential oracle.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: replay random seeded traces through every protection \
             scheme under both memory engines and check them against a ground-truth \
             oracle (engines bit-for-bit equal; zero false positives; no missed \
             in-contract violations). On failure, prints a shrunk counterexample and \
             the exact replay command, and exits 1.")
    Term.(const run $ seed_arg $ iters_arg $ shrink_arg $ bad_arg $ inject_arg
          $ quiet_arg $ symseeds_arg)

let analyze_cmd =
  let module Analyze = Sb_analysis.Analyze in
  let module Symex = Sb_analysis.Symex in
  let module Ia = Sb_service.Interface_audit in
  let module Opt = Sb_analysis.Optimizer in
  let module Sarif = Sb_analysis.Sarif in
  let module Finding = Sb_analysis.Finding in
  let run workload scheme threads n outside json selftest full symbolic corpus jobs optimize
      sarif =
    (* every path ends here: the document or the table, the SARIF file,
       and exit 1 when the sweep found something *)
    let report ~doc ~print ~sarif_results ~bad =
      if json then Fmt.pr "%s@." (Json.to_string (doc ())) else print ();
      (match sarif with
       | Some file ->
         Out_channel.with_open_bin file (fun oc ->
             Out_channel.output_string oc (Sarif.to_string sarif_results));
         Fmt.pr "wrote %s (%d SARIF result(s))@." file (List.length sarif_results)
       | None -> ());
      if bad then exit 1
    in
    let schemes default = match scheme with None -> default | Some s -> [ s ] in
    let env = env_of outside in
    (* the concrete sweeps (audit and optimizer): -w, --full and -n *)
    let sweep f =
      let workloads = match workload with None -> Registry.all | Some w -> [ w ] in
      if full then
        List.concat_map (fun (w : Registry.spec) -> f (Some w.Registry.default_n) [ w ]) workloads
      else f n workloads
    in
    let analyze () =
      if selftest then begin
        let sts =
          if optimize then Opt.selftests ()
          else if symbolic then Symex.selftests ()
          else Analyze.selftests ()
        in
        if not (Finding.print_selftests sts) then exit 1
      end
      else if optimize then begin
        let schemes = schemes Opt.default_sweep_schemes in
        let rows = sweep (fun n ws -> Opt.sweep ~env ~threads ?n ~jobs ~schemes ws) in
        (* a single-cell invocation also dumps the certified plan *)
        let plan =
          match (workload, scheme) with
          | Some w, Some s ->
            let n = if full then Some w.Registry.default_n else n in
            Some (Opt.plan_of_cell ~env ~threads ?n ~scheme:s w)
          | _ -> None
        in
        report
          ~doc:(fun () ->
              match (plan, Opt.json_report rows) with
              | Some p, Json.Obj fields -> Json.Obj (("plan", Opt.json_of_plan p) :: fields)
              | _, doc -> doc)
          ~print:(fun () ->
              Option.iter Opt.print_plan plan;
              Opt.print_rows rows)
          ~sarif_results:
            (List.filter_map
               (fun r ->
                  if r.Opt.r_sound then None
                  else
                    Some
                      (Sarif.of_cert_failure ~workload:r.Opt.r_workload ~scheme:r.Opt.r_scheme
                         r.Opt.r_detail))
               rows)
          ~bad:(List.exists (fun r -> not r.Opt.r_sound) rows)
      end
      else if symbolic && corpus then begin
        (* the deliberately buggy corpus: must exit non-zero *)
        let cells = Symex.corpus_sweep ~jobs ~schemes:(schemes Symex.matrix_schemes) () in
        report
          ~doc:(fun () -> Symex.json_report cells)
          ~print:(fun () -> Symex.print_cells cells)
          ~sarif_results:
            (List.concat_map
               (fun c ->
                  List.map
                    (Sarif.of_finding ~workload:c.Symex.cc_class ~scheme:c.Symex.cc_scheme)
                    c.Symex.cc_findings)
               cells)
          ~bad:(List.exists (fun c -> c.Symex.cc_status <> "ok") cells)
      end
      else if symbolic then begin
        (* the shipped service handlers: must be clean *)
        let cells = Ia.sweep ~jobs ~schemes:(schemes Symex.matrix_schemes) () in
        report
          ~doc:(fun () -> Ia.json_report cells)
          ~print:(fun () -> Ia.print_report cells)
          ~sarif_results:
            (List.concat_map
               (fun c ->
                  List.map
                    (Sarif.of_finding ~workload:c.Ia.ic_app ~scheme:c.Ia.ic_scheme)
                    c.Ia.ic_findings)
               cells)
          ~bad:(Ia.cells_bad cells <> [])
      end
      else begin
        let schemes = schemes Analyze.default_schemes in
        let cells = sweep (fun n ws -> Analyze.sweep ~env ~threads ?n ~jobs ~schemes ws) in
        report
          ~doc:(fun () -> Analyze.json_report cells)
          ~print:(fun () -> Analyze.print_report cells)
          ~sarif_results:
            (List.concat_map
               (fun c ->
                  List.map
                    (Sarif.of_finding ~workload:c.Analyze.c_workload ~scheme:c.Analyze.c_scheme)
                    c.Analyze.c_findings)
               cells)
          ~bad:
            (Analyze.cells_findings cells > 0
             || Analyze.cells_crashed cells > 0
             || Analyze.cells_subset_bad cells > 0)
      end
    in
    if symbolic && workload <> None then
      `Error
        ( true,
          "-w does not apply to --symbolic, which audits the service handlers (or, with \
           --corpus, the buggy handler corpus)" )
    else if corpus && not symbolic then `Error (true, "--corpus only applies with --symbolic")
    else `Ok (analyze ())
  in
  let workload_opt_arg =
    Arg.(value & opt (some workload_conv) None
         & info [ "w"; "workload" ] ~doc:"Audit only this workload (default: all).")
  in
  let scheme_opt_arg =
    Arg.(value & opt (some scheme_conv) None
         & info [ "s"; "scheme" ]
             ~doc:"Audit only this scheme (default: native, sgxbounds, asan, mpx).")
  in
  let selftest_arg =
    Arg.(value & flag
         & info [ "selftest" ]
             ~doc:"Verify the auditor itself: the seeded §4.1 MPX bounds-table race \
                   must be detected (and not under sgxbounds), deliberately broken \
                   annotations (bad hoist / bogus safe access / mismatched libc \
                   widths) must be flagged, and a disciplined kernel must audit \
                   clean under every scheme.")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Audit at the registry's full default working-set sizes instead \
                   of smoke sizes.")
  in
  let symbolic_arg =
    Arg.(value & flag
         & info [ "symbolic" ]
             ~doc:"Symbolic interface audit: taint request bytes and flag \
                   attacker-derived pointers/lengths reaching memory or libc \
                   without a dominating check, double fetches and phase \
                   disorder. Default target: the shipped service handlers \
                   (must be clean). With --selftest, runs the symbolic pass's \
                   own selftests over the buggy corpus.")
  in
  let corpus_arg =
    Arg.(value & flag
         & info [ "corpus" ]
             ~doc:"With --symbolic: audit the deliberately buggy handler \
                   corpus instead of the shipped handlers (exits non-zero by \
                   construction).")
  in
  let optimize_arg =
    Arg.(value & flag
         & info [ "optimize" ]
             ~doc:"Static check optimizer: record each cell's op stream, infer \
                   affine-site certificates (hoist one widened check per loop, \
                   elide dominated checks), verify every certificate, then \
                   re-run with the elision plan active and prove the optimized \
                   run sound (same verdicts, same data traffic, zero runtime \
                   certificate rejections, cycles not up). A single-cell \
                   invocation (-w and -s) also dumps the plan. With --selftest, \
                   runs the optimizer's own certificate/tamper/determinism \
                   selftests instead. Exits non-zero if any cell is unsound.")
  in
  let sarif_arg =
    Arg.(value & opt (some string) None
         & info [ "sarif" ] ~docv:"FILE"
             ~doc:"Write findings as SARIF 2.1.0 to FILE: audit/interface-audit \
                   findings on the audit paths, certificate-verification \
                   failures under --optimize.")
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Instrumentation audit: run workloads under schemes wrapped in the \
             auditing meta-scheme, which verifies the §4.4 check contracts \
             (check_range coverage of unchecked accesses, safe-access claims, \
             libc wrapper widths) and — for multithreaded runs — detects \
             unsynchronized data and scheme-metadata races via vector-clock \
             happens-before. --symbolic adds the taint-based interface audit \
             over the service request handlers. Exits non-zero on any finding \
             or crash.")
    Term.(ret
            (const run $ workload_opt_arg $ scheme_opt_arg $ threads_arg $ n_arg
             $ outside_arg $ json_arg $ selftest_arg $ full_arg $ symbolic_arg
             $ corpus_arg $ jobs_arg $ optimize_arg $ sarif_arg))

let profile_cmd =
  let module Sexp = Sb_service.Experiment in
  let path_str = function [] -> "(root)" | p -> String.concat ";" p in
  (* bucket with the largest |cycles| share; first index wins ties *)
  let dominant buckets arr =
    let best = ref 0 and bi = ref (-1) in
    Array.iteri (fun i v -> if abs v > !best then begin best := abs v; bi := i end) arr;
    if !bi < 0 then "-" else buckets.(!bi)
  in
  let print_profile ~label prof =
    let total = Profile.total prof in
    Fmt.pr "profile %s: %d cycles attributed@." label total;
    Fmt.pr "%12s %6s %10s  %-12s %s@." "self" "%" "charges" "dominant" "site";
    let rows =
      Profile.rows prof
      |> List.filter (fun r -> r.Profile.r_self > 0)
      |> List.sort (fun a b ->
          match compare b.Profile.r_self a.Profile.r_self with
          | 0 -> compare a.Profile.r_path b.Profile.r_path
          | c -> c)
    in
    List.iteri
      (fun i r ->
         if i < 24 then
           Fmt.pr "%12d %5.1f%% %10d  %-12s %s@." r.Profile.r_self
             (100. *. float_of_int r.Profile.r_self /. float_of_int (max 1 total))
             r.Profile.r_charges
             (dominant (Profile.bucket_names prof) r.Profile.r_buckets)
             (path_str r.Profile.r_path))
      rows
  in
  let print_diff ~a_label ~b_label prof_a ds =
    let buckets = Profile.bucket_names prof_a in
    let total_delta = List.fold_left (fun acc d -> acc + Profile.d_delta d) 0 ds in
    Fmt.pr "profile diff: %s -> %s (%+d cycles)@." a_label b_label total_delta;
    (* where the extra cycles live, by cost bucket across all sites *)
    let by_bucket = Array.make (Array.length buckets) 0 in
    List.iter
      (fun d ->
         Array.iteri (fun i v -> by_bucket.(i) <- by_bucket.(i) + v) d.Profile.d_buckets)
      ds;
    Fmt.pr "delta by class:";
    Array.iteri
      (fun i v -> if v <> 0 then Fmt.pr " %s=%+d" buckets.(i) v)
      by_bucket;
    Fmt.pr "@.";
    Fmt.pr "%12s %12s %12s  %-12s %s@." "delta" a_label b_label "dominant" "site";
    List.iteri
      (fun i d ->
         if i < 24 && (d.Profile.d_a > 0 || d.Profile.d_b > 0) then
           Fmt.pr "%+12d %12d %12d  %-12s %s@." (Profile.d_delta d) d.Profile.d_a
             d.Profile.d_b
             (dominant buckets d.Profile.d_buckets)
             (path_str d.Profile.d_path))
      ds
  in
  let profile workload app scheme diff threads n outside requests out json =
    let env = env_of outside in
    (* One profiled run of the chosen target under [scheme]: a registry
       workload with -w, otherwise the service app handler. *)
    let target, collect =
      match workload with
      | Some (w : Registry.spec) ->
        let wname = w.Registry.name in
        ( wname,
          fun scheme ->
            let r, prof = Harness.run_profiled ~env ~threads ?n ~scheme w in
            (match r.Harness.outcome with
             | Harness.Completed _ -> ()
             | Harness.Crashed msg -> die "profile %s/%s crashed: %s" wname scheme msg);
            prof )
      | None ->
        ( Drivers.name app,
          fun scheme ->
            match Sexp.profile_app ~env ~requests ~app ~scheme () with
            | Ok prof -> prof
            | Error msg -> die "profile %s/%s crashed: %s" (Drivers.name app) scheme msg )
    in
    match diff with
    | Some (a_scheme, b_scheme) ->
      let pa = collect a_scheme and pb = collect b_scheme in
      let ds = Profile.diff pa pb in
      let a_label = target ^ "/" ^ a_scheme and b_label = target ^ "/" ^ b_scheme in
      if json then
        Fmt.pr "%s@." (Json.to_string (Profile.diff_to_json ~a_label ~b_label pa ds))
      else print_diff ~a_label ~b_label pa ds
    | None ->
      let prof = collect scheme in
      let label = target ^ "/" ^ scheme in
      (match out with
       | Some file ->
         (try Sink.write_file file (Profile.to_collapsed ~label prof)
          with Sys_error e -> die "cannot write %s: %s" file e)
       | None -> ());
      if json then Fmt.pr "%s@." (Json.to_string (Profile.to_json ~label prof))
      else begin
        print_profile ~label prof;
        match out with
        | Some file -> Fmt.pr "collapsed stacks written to %s@." file
        | None -> ()
      end
  in
  let run workload app scheme diff threads n outside requests out json =
    match (workload, app) with
    | Some _, Some _ -> `Error (true, "--app only applies without -w")
    | _ ->
      let app = Option.value app ~default:Drivers.Memcached in
      `Ok (profile workload app scheme diff threads n outside requests out json)
  in
  let workload_opt_arg =
    Arg.(value & opt (some workload_conv) None
         & info [ "w"; "workload" ]
             ~doc:"Profile this registry workload (default: profile a service app).")
  in
  let app_arg =
    Arg.(value & opt (some app_conv) None
         & info [ "app" ] ~docv:"APP" ~absent:"memcached"
             ~doc:"Service app to profile when no -w is given: http, memcached, sqlite.")
  in
  let diff_arg =
    Arg.(value & opt (some (pair ~sep:':' scheme_conv scheme_conv)) None
         & info [ "diff" ] ~docv:"A:B"
             ~doc:"Differential mode: profile the target under scheme A and scheme B and \
                   report per-site cycle deltas (B - A), e.g. --diff sgxbounds:mpx.")
  in
  let requests_arg =
    Arg.(value & opt nonneg_int 200
         & info [ "requests" ] ~doc:"Requests to serve in app mode (one worker, no load gen).")
  in
  let out_arg =
    Arg.(value & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write collapsed-stack flamegraph text (\"site;...;site cycles\" lines, \
                   flamegraph.pl / speedscope folded format).")
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Site-attributed simulation profile: where the simulated cycles go, per site \
             (setup / run / request, scheme op hooks) and per memsys class, as a table, \
             collapsed-stack flamegraph text, JSON, or an A:B differential between two \
             schemes.")
    Term.(ret
            (const run $ workload_opt_arg $ app_arg $ scheme_arg $ diff_arg $ threads_arg
             $ n_arg $ outside_arg $ requests_arg $ out_arg $ json_arg))

let serve_cmd =
  let module Service = Sb_service.Service in
  let module Sexp = Sb_service.Experiment in
  let module Latency = Sb_service.Latency in
  let module Spans = Sb_service.Spans in
  (* the latency and queue-wait objects of both --json documents *)
  let latency_fields (s : Latency.summary) (qw : Latency.summary) =
    [
      ( "latency_cycles",
        Json.Obj
          [ ("p50", Json.Int s.Latency.p50); ("p95", Json.Int s.Latency.p95);
            ("p99", Json.Int s.Latency.p99); ("mean", Json.Float s.Latency.mean);
            ("max", Json.Int s.Latency.max) ] );
      ( "queue_wait_cycles",
        Json.Obj [ ("p50", Json.Int qw.Latency.p50); ("p99", Json.Int qw.Latency.p99) ] );
    ]
  in
  let run_fleet ~fleet ~scheme ~rate ~workers ~queue ~requests ~process ~seed
      ~outside ~spans ~json ~policy ~workload ~dist ~records ~clients ~affinity ~kills =
    let cfg =
      {
        Fleet.default with
        Fleet.instances = fleet;
        workers;
        queue_cap = queue;
        requests;
        rate_rps = rate;
        process;
        seed;
        scheme;
        env = env_of outside;
        policy;
        affinity;
        clients;
        workload;
        dist;
        records;
        kills;
      }
    in
    match Fleet.run ?spans:(if json then Some spans else None) cfg with
    | Error msg ->
      if json then
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                [ ("mode", Json.Str "fleet"); ("scheme", Json.Str scheme);
                  ("status", Json.Str "crashed"); ("reason", Json.Str msg) ]));
      die "serve --fleet %d ycsb-%s/%s crashed: %s" fleet (Ycsb.name workload)
        scheme msg
    | Ok st ->
      let s = Fleet.summary st in
      let qw = Latency.summary st.Fleet.queue_wait in
      if json then
        let inst_json (i : Fleet.inst_stats) =
          let ls = Latency.summary i.Fleet.i_latency in
          Json.Obj
            ([
               ("idx", Json.Int i.Fleet.i_idx);
               ("completed", Json.Int i.Fleet.i_completed);
               ("lost", Json.Int i.Fleet.i_lost);
               ("restarts", Json.Int i.Fleet.i_restarts);
               ("max_queue", Json.Int i.Fleet.i_max_queue);
               ("latency_p99", Json.Int ls.Latency.p99);
             ]
             @
             match i.Fleet.i_spans with
             | Some log -> [ ("spans", Spans.to_json log) ]
             | None -> [])
        in
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                ([
                  ("mode", Json.Str "fleet");
                  ("scheme", Json.Str scheme);
                  ("env", Json.Str (Harness.env_name cfg.Fleet.env));
                  ("policy", Json.Str (Fleet.policy_name policy));
                  ("ycsb", Json.Str (Ycsb.name workload));
                  ("process", Json.Str (Loadgen.to_string process));
                  ("offered_rps", Json.Float rate);
                  ("fleet", Json.Int fleet);
                  ("workers", Json.Int workers);
                  ("queue_cap", Json.Int queue);
                  ("seed", Json.Int seed);
                  ("records", Json.Int st.Fleet.records);
                  ("offered", Json.Int st.Fleet.offered);
                  ("completed", Json.Int st.Fleet.completed);
                  ("dropped", Json.Int st.Fleet.dropped);
                  ("failed_over", Json.Int st.Fleet.failed_over);
                  ("lost", Json.Int st.Fleet.lost);
                  ("restarts", Json.Int st.Fleet.restarts);
                  ("elapsed_cycles", Json.Int st.Fleet.elapsed);
                  ("throughput_rps", Json.Float (Fleet.throughput_rps st));
                ]
                 @ latency_fields s qw
                 @ [
                     ( "instances",
                       Json.List (Array.to_list (Array.map inst_json st.Fleet.per_instance)) );
                   ])))
      else begin
        Fmt.pr
          "fleet ycsb-%s/%s (%s): %d instances, policy %s%s, %s arrivals at %.0f rps, \
           %d workers/instance, queue %d, seed %d@."
          (Ycsb.name workload) scheme (Harness.env_name cfg.Fleet.env) fleet
          (Fleet.policy_name policy)
          (if affinity then " (affinity)" else "")
          (Loadgen.to_string process) rate workers queue seed;
        Fmt.pr
          "offered %d  completed %d  dropped %d (%.1f%%)  failed over %d  lost %d  \
           restarts %d@."
          st.Fleet.offered st.Fleet.completed st.Fleet.dropped
          (100. *. Fleet.drop_ratio st) st.Fleet.failed_over st.Fleet.lost
          st.Fleet.restarts;
        Fmt.pr "records %d -> %d  elapsed %.2f ms  throughput %.1f kops/s@." records
          st.Fleet.records
          (float_of_int st.Fleet.elapsed /. 1e6)
          (Fleet.throughput_rps st /. 1000.);
        Fmt.pr "latency:    %a@." Latency.pp s;
        Fmt.pr "queue wait: %a@." Latency.pp qw;
        Array.iter
          (fun (i : Fleet.inst_stats) ->
             Fmt.pr "instance %d: completed %d  lost %d  restarts %d  peak queue %d@."
               i.Fleet.i_idx i.Fleet.i_completed i.Fleet.i_lost i.Fleet.i_restarts
               i.Fleet.i_max_queue)
          st.Fleet.per_instance
      end
  in
  let run_single ~app ~scheme ~rate ~workers ~queue ~requests ~process ~seed ~outside
      ~spans ~trace ~json =
    let cfg =
      { Service.workers; queue_cap = queue; requests; rate_rps = rate; process; seed }
    in
    (* Request spans are recorded whenever they can be seen afterwards
       (--trace or --json); the plain human summary stays untraced. *)
    let tracing = trace <> None || json in
    let p =
      Sexp.run_cell ?spans:(if tracing then Some spans else None)
        { Sexp.app; scheme; env = env_of outside; cfg }
    in
    (match (trace, p.Sexp.pt_spans) with
     | Some file, Some log ->
       let snap =
         { Sink.counters = []; histograms = []; events = Spans.events log;
           dropped_events = 0 }
       in
       (try
          Sink.write_chrome_trace
            ~process_name:(p.Sexp.pt_app ^ "/" ^ scheme ^ " slowest requests") file snap
        with Sys_error e -> die "cannot write trace: %s" e)
     | _ -> ());
    match p.Sexp.pt_outcome with
    | Error msg ->
      if json then
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                [ ("app", Json.Str p.Sexp.pt_app); ("scheme", Json.Str scheme);
                  ("status", Json.Str "crashed"); ("reason", Json.Str msg) ]));
      die "serve %s/%s crashed: %s" p.Sexp.pt_app scheme msg
    | Ok st ->
      let s = Service.summary st in
      let qw = Latency.summary st.Service.queue_wait in
      if json then
        let attribution =
          Json.Obj
            (List.map
               (fun (c, (cs : Sb_sgx.Memsys.class_stat)) ->
                  ( Sb_sgx.Memsys.class_name c,
                    Json.Obj
                      [ ("cycles", Json.Int cs.Sb_sgx.Memsys.cycles);
                        ("accesses", Json.Int cs.Sb_sgx.Memsys.accesses) ] ))
               p.Sexp.pt_attr
             @ [ ( "compute",
                   Json.Obj
                     [ ("cycles", Json.Int p.Sexp.pt_compute); ("accesses", Json.Int 0) ]
                 ) ])
        in
        let span_fields =
          match p.Sexp.pt_spans with
          | Some log -> [ ("spans", Spans.to_json log) ]
          | None -> []
        in
        Fmt.pr "%s@."
          (Json.to_string
             (Json.Obj
                ([
                  ("app", Json.Str p.Sexp.pt_app);
                  ("scheme", Json.Str scheme);
                  ("env", Json.Str (Harness.env_name p.Sexp.pt_env));
                  ("process", Json.Str (Loadgen.to_string process));
                  ("offered_rps", Json.Float rate);
                  ("workers", Json.Int workers);
                  ("queue_cap", Json.Int queue);
                  ("seed", Json.Int seed);
                  ("offered", Json.Int st.Service.offered);
                  ("completed", Json.Int st.Service.completed);
                  ("dropped", Json.Int st.Service.dropped);
                  ("max_queue", Json.Int st.Service.max_queue);
                  ("elapsed_cycles", Json.Int st.Service.elapsed);
                  ("throughput_rps", Json.Float (Service.throughput_rps st));
                ]
                 @ latency_fields s qw
                 @ (("attribution", attribution) :: span_fields))))
      else begin
        Fmt.pr "serve %s/%s (%s): %s arrivals at %.0f rps, %d workers, queue %d, seed %d@."
          p.Sexp.pt_app scheme (Harness.env_name p.Sexp.pt_env)
          (Loadgen.to_string process) rate workers queue seed;
        Fmt.pr "offered %d  completed %d  dropped %d (%.1f%%)  peak queue %d@."
          st.Service.offered st.Service.completed st.Service.dropped
          (100. *. Service.drop_ratio st) st.Service.max_queue;
        Fmt.pr "elapsed %.2f ms  throughput %.1f kops/s@."
          (float_of_int st.Service.elapsed /. 1e6)
          (Service.throughput_rps st /. 1000.);
        Fmt.pr "latency:    %a@." Latency.pp s;
        Fmt.pr "queue wait: %a@." Latency.pp qw;
        match trace with
        | Some file -> Fmt.pr "slowest-request trace written to %s@." file
        | None -> ()
      end
  in
  let run app scheme rate workers queue requests process seed outside smoke spans trace
      json fleet ((policy, workload, dist, records, clients, affinity, kills), used) =
    let requests = if smoke then min requests 200 else requests in
    (* the fleet-only options given on this command line ([--kill ''] is
       given too, with no kill in it) *)
    let fleet_only =
      List.filter (fun name -> List.mem name used)
        [ "--policy"; "--ycsb"; "--dist"; "--records"; "--clients"; "--affinity"; "--kill" ]
    in
    match fleet with
    | None when fleet_only <> [] ->
      `Error (true, "--fleet is required by " ^ String.concat ", " fleet_only)
    | None ->
      `Ok
        (run_single ~app ~scheme ~rate ~workers ~queue ~requests ~process ~seed ~outside
           ~spans ~trace ~json)
    | Some _ when trace <> None ->
      `Error (true, "--trace is single-instance only (use --json to inspect per-instance spans)")
    | Some _ when app <> Drivers.Memcached ->
      `Error (true, "--fleet serves the built-in KV store; --app must stay 'memcached'")
    | Some fleet when List.exists (fun (i, _) -> i >= fleet) kills ->
      `Error (true, Printf.sprintf "--kill names an instance outside the fleet of %d" fleet)
    | Some fleet ->
      (* fleet mode: the sharded KV fleet under a YCSB stream *)
      `Ok
        (run_fleet ~fleet ~scheme ~rate ~workers ~queue ~requests ~process ~seed ~outside
           ~spans ~json ~policy ~workload ~dist ~records ~clients ~affinity ~kills)
  in
  let app_arg =
    Arg.(value & opt app_conv Drivers.Memcached
         & info [ "app" ] ~docv:"APP" ~doc:"Case-study app: http, memcached, sqlite.")
  in
  let rate_arg =
    Arg.(required & opt (some pos_float) None
         & info [ "rate" ] ~docv:"RPS"
             ~doc:"Offered load in requests per simulated second (open loop: arrivals \
                   keep coming whether or not the server keeps up).")
  in
  let workers_arg =
    Arg.(value & opt pos_int 4 & info [ "workers" ] ~doc:"Simulated server threads.")
  in
  let queue_arg =
    Arg.(value & opt pos_int 64
         & info [ "queue" ] ~doc:"Accept-queue bound; arrivals beyond it are shed.")
  in
  let requests_arg =
    Arg.(value & opt nonneg_int 2000 & info [ "requests" ] ~doc:"Total offered requests.")
  in
  let process_arg =
    Arg.(value & opt process_conv Loadgen.Poisson
         & info [ "process" ] ~doc:"Arrival process: fixed, poisson, burst.")
  in
  let seed_arg =
    Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Arrival-schedule seed (deterministic).")
  in
  let smoke_arg =
    Arg.(value & flag & info [ "smoke" ] ~doc:"CI mode: cap --requests at 200.")
  in
  let spans_arg =
    Arg.(value & opt pos_int 8
         & info [ "spans" ] ~docv:"K"
             ~doc:"Exemplar reservoir size: keep the K slowest requests' trace spans \
                   (recorded when --trace or --json is given).")
  in
  let trace_out_arg =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write the slowest-request exemplar spans as Chrome trace_event JSON \
                   (queue-wait and execution windows per request, per-class cycles as \
                   args; open at chrome://tracing or ui.perfetto.dev).")
  in
  let fleet_arg =
    Arg.(value & opt (some pos_int) None
         & info [ "fleet" ] ~docv:"N"
             ~doc:"Serve from a fleet of N enclave instances (each with its own EPC) \
                   behind a load balancer, driven by a YCSB-style op stream. Without \
                   it, the single-instance path.")
  in
  let policy_arg =
    Arg.(value & opt policy_conv Fleet.Hash
         & info [ "policy" ]
             ~doc:"With --fleet: balancer policy: round-robin, least-loaded, hash.")
  in
  let ycsb_arg =
    Arg.(value & opt ycsb_conv Ycsb.A
         & info [ "ycsb" ] ~docv:"W"
             ~doc:"With --fleet: YCSB core workload: A, B, C, D, E or F.")
  in
  let dist_arg =
    Arg.(value & opt (some dist_conv) None
         & info [ "dist" ]
             ~doc:"With --fleet: override the workload's key distribution: uniform, \
                   zipfian, latest.")
  in
  let records_arg =
    Arg.(value & opt pos_int 4096
         & info [ "records" ]
             ~doc:"With --fleet: preloaded KV records (the YCSB key space).")
  in
  let clients_arg =
    Arg.(value & opt pos_int 64
         & info [ "clients" ]
             ~doc:"With --fleet: distinct client connections (for --affinity).")
  in
  let affinity_arg =
    Arg.(value & flag
         & info [ "affinity" ]
             ~doc:"With --fleet: sticky client-to-instance routing (round-robin / \
                   least-loaded).")
  in
  let kill_arg =
    Arg.(value & opt_all (list (pair ~sep:'@' nonneg_int nonneg_int)) []
         & info [ "kill" ] ~docv:"I@CYCLES"
             ~doc:"With --fleet: kill instance I at simulated time CYCLES (in-flight \
                   requests lost, queued ones failed over, instance relaunched after \
                   teardown + re-attestation). Repeatable; commas separate multiple \
                   kills.")
  in
  (* The fleet-only options as one term, paired with the command-line
     words it consumed, so that [run] can refuse them without --fleet. *)
  let fleet_opts_arg =
    Term.(with_used_args
            (const (fun policy workload dist records clients affinity kills ->
                 (policy, workload, dist, records, clients, affinity, List.concat kills))
             $ policy_arg $ ycsb_arg $ dist_arg $ records_arg $ clients_arg $ affinity_arg
             $ kill_arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Open-loop load generation against a case-study app: deterministic arrival \
             schedule, bounded accept queue (overload sheds, never wedges), per-request \
             latency percentiles. The service-layer reproduction of Figure 13. With \
             --fleet N, a sharded multi-instance KV fleet under a YCSB-style stream, \
             with optional mid-run instance failures.")
    Term.(ret
            (const run $ app_arg $ scheme_arg $ rate_arg $ workers_arg $ queue_arg
             $ requests_arg $ process_arg $ seed_arg $ outside_arg $ smoke_arg $ spans_arg
             $ trace_out_arg $ json_arg $ fleet_arg $ fleet_opts_arg))

(* Cmdliner accepts any unambiguous prefix of a long option, so `--out'
   would silently mean `--outside' and `--thr' `--threads'. Every long
   option must be spelled out in full: the names a subcommand accepts are
   read from its own plain help, so the list cannot drift from the
   definitions. *)
let long_options cmd path =
  let b = Buffer.create 4096 in
  let help = Format.formatter_of_buffer b in
  let argv = Array.of_list (("sgxbounds_cli" :: path) @ [ "--help=plain" ]) in
  ignore (Cmd.eval_value ~help ~argv cmd);
  Format.pp_print_flush help ();
  (* "--scheme=VAL," -> "scheme" *)
  let name w =
    let stop = ref 2 in
    while !stop < String.length w && not (String.contains "=[," w.[!stop]) do incr stop done;
    String.sub w 2 (!stop - 2)
  in
  (* option lines sit at the first indent: "       -s VAL, --scheme=VAL" *)
  String.split_on_char '\n' (Buffer.contents b)
  |> List.filter (String.starts_with ~prefix:"       -")
  |> List.concat_map (String.split_on_char ' ')
  |> List.filter_map (fun w -> if String.starts_with ~prefix:"--" w then Some (name w) else None)

let refuse_abbreviated_options cmd cmd_names =
  let rec upto_dashdash = function [] | "--" :: _ -> [] | a :: rest -> a :: upto_dashdash rest in
  let args = upto_dashdash (List.tl (Array.to_list Sys.argv)) in
  let is_option a = String.length a > 0 && a.[0] = '-' in
  (* the subcommand cmdliner will run: an exact name or a unique prefix *)
  let path =
    match List.find_opt (fun a -> not (is_option a)) args with
    | None -> []
    | Some a when List.mem a cmd_names -> [ a ]
    | Some a -> (
        match List.filter (String.starts_with ~prefix:a) cmd_names with [ c ] -> [ c ] | _ -> [])
  in
  let known = long_options cmd path in
  List.iter
    (fun a ->
       if String.starts_with ~prefix:"--" a && String.length a > 2 then begin
         let name = List.hd (String.split_on_char '=' (String.sub a 2 (String.length a - 2))) in
         if not (List.mem name known) then begin
           Fmt.epr "%s: unknown option '--%s' (long options must be spelled out in full: %s)@."
             (String.concat " " ("sgxbounds_cli" :: path))
             name
             (String.concat ", " (List.map (fun n -> "--" ^ n) (List.sort_uniq compare known)));
           exit Cmd.Exit.cli_error
         end
       end)
    args

let () =
  let info = Cmd.info "sgxbounds_cli" ~doc:"SGXBounds reproduction driver" in
  let cmds =
    [ run_cmd; stats_cmd; compare_cmd; list_cmd; ripe_cmd; exploits_cmd;
      validate_bench_cmd; fuzz_cmd; analyze_cmd; profile_cmd; serve_cmd ]
  in
  let cmd = Cmd.group info cmds in
  refuse_abbreviated_options cmd (List.map Cmd.name cmds);
  exit (Cmd.eval cmd)
