(** The Figure 13 throughput–latency experiment: sweep offered rate per
    (app, scheme, environment) cell, one fresh machine per cell, fanned
    across domains by {!Sb_harness.Parallel_runner}.

    Each cell is self-contained and deterministic, so results are
    identical for any [--jobs] and for either memory engine. *)

module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Wctx = Sb_workloads.Wctx
module Profile = Sb_telemetry.Profile
open Sb_protection.Types

type cell = {
  app : Drivers.app;
  scheme : string;
  env : Config.env;
  cfg : Service.config;
}

type point = {
  pt_app : string;
  pt_scheme : string;
  pt_env : Config.env;
  pt_rate : float;
  pt_outcome : (Service.stats, string) result;
  pt_attr : (Memsys.access_class * Memsys.class_stat) list;
  pt_compute : int;
  pt_spans : Spans.log option;  (** request exemplars when traced *)
}

(** Run one cell on a fresh machine. Scheme setup or serving crashes
    become [Error]. [spans], when given, traces every request and keeps
    the [spans] slowest as exemplars in [pt_spans] (observation only —
    stats are unchanged). The machine's per-class cycle attribution is
    always captured into [pt_attr]/[pt_compute]. *)
let run_cell ?spans (c : cell) =
  let ms = Memsys.create (Config.default ~env:c.env ()) in
  let log =
    Option.map (fun cap -> Spans.create ~cap ~workers:c.cfg.Service.workers ()) spans
  in
  let outcome =
    match
      let s = Harness.maker c.scheme ms in
      let ctx = Wctx.make ~seed:c.cfg.Service.seed ~threads:c.cfg.Service.workers s in
      let handler = Drivers.make c.app ctx ~workers:c.cfg.Service.workers in
      Service.run ?trace:log ms c.cfg handler
    with
    | st -> Ok st
    | exception App_crash msg -> Error msg
    | exception Sb_vmem.Vmem.Enclave_oom _ -> Error "enclave out of memory"
    | exception Violation v -> Error (Fmt.str "%a" pp_violation v)
  in
  {
    pt_app = Drivers.name c.app;
    pt_scheme = c.scheme;
    pt_env = c.env;
    pt_rate = c.cfg.Service.rate_rps;
    pt_outcome = outcome;
    pt_attr = Memsys.attribution ms;
    pt_compute = Memsys.compute_cycles ms;
    pt_spans = log;
  }

(** Profile an app handler: serve [requests] back-to-back requests on
    one worker with a site-attributed profiler attached to the machine —
    scheme operations are "op:<name>" sites
    ({!Sb_protection.Profiled.wrap}), server construction and preload
    run under "setup", each request under "request". No load generator:
    this isolates where a request's cycles go, which is what
    [profile --diff] compares between schemes. *)
let profile_app ?(env = Config.Inside_enclave) ?(requests = 200) ?(seed = 1) ~app
    ~scheme () =
  let cfg = Config.default ~env () in
  let ms = Memsys.create cfg in
  let prof =
    Profile.create ~max_threads:cfg.Config.max_threads ~buckets:Memsys.profile_buckets ()
  in
  Memsys.attach_profiler ms prof;
  let site_setup = Profile.intern prof "setup" in
  let site_req = Profile.intern prof "request" in
  match
    let handler =
      Profile.with_site prof site_setup (fun () ->
          let s = Sb_protection.Profiled.wrap prof (Harness.maker scheme ms) in
          Drivers.make app (Wctx.make ~seed s) ~workers:1)
    in
    for _ = 1 to requests do
      Profile.with_site prof site_req (fun () -> handler ~worker:0)
    done
  with
  | () -> Ok prof
  | exception App_crash msg -> Error msg
  | exception Sb_vmem.Vmem.Enclave_oom _ -> Error "enclave out of memory"
  | exception Violation v -> Error (Fmt.str "%a" pp_violation v)

(** Closed-loop capacity estimate for calibrating a sweep: offer the
    whole schedule at once (every arrival at t=0, queue deep enough to
    hold it) and measure completions per second — the server's peak
    service rate with no idle gaps. *)
let capacity ~app ~scheme ~env ~workers ~requests ~seed =
  let cfg =
    {
      Service.workers;
      queue_cap = max 1 requests;
      requests;
      rate_rps = 1e15;
      process = Loadgen.Fixed;
      seed;
    }
  in
  let pt = run_cell { app; scheme; env; cfg } in
  match pt.pt_outcome with
  | Ok st -> Some (Service.throughput_rps st)
  | Error _ -> None

(** Run [cells] across [jobs] domains; results in cell order. *)
let sweep ?jobs cells = Parallel_runner.map_list ?jobs run_cell cells

(* ---------- TSV export ---------- *)

let tsv_header =
  "app\tscheme\tenv\toffered_rps\tthroughput_rps\toffered\tcompleted\tdropped\t\
   max_queue\tp50_cycles\tp95_cycles\tp99_cycles\tmean_cycles\tmax_cycles\tstatus"

let tsv_line (p : point) =
  match p.pt_outcome with
  | Error msg ->
    Printf.sprintf "%s\t%s\t%s\t%.0f\t0\t0\t0\t0\t0\t0\t0\t0\t0\t0\tcrashed: %s"
      p.pt_app p.pt_scheme (Harness.env_name p.pt_env) p.pt_rate msg
  | Ok st ->
    let s = Service.summary st in
    Printf.sprintf "%s\t%s\t%s\t%.0f\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\t%.0f\t%d\tok"
      p.pt_app p.pt_scheme (Harness.env_name p.pt_env) p.pt_rate
      (Service.throughput_rps st) st.Service.offered st.Service.completed
      st.Service.dropped st.Service.max_queue s.Latency.p50 s.Latency.p95
      s.Latency.p99 s.Latency.mean s.Latency.max

(** The sweep as a TSV table, one row per point. *)
let to_tsv points =
  String.concat "" (List.map (fun l -> l ^ "\n") (tsv_header :: List.map tsv_line points))
