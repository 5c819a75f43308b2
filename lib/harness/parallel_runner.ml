(** Domain-parallel experiment runner.

    An experiment grid — (scheme x workload x config) cells — is
    embarrassingly parallel: every cell builds its own {!Sb_sgx.Memsys}
    (its own address space, caches, EPC and telemetry hub), so cells
    share no simulator state. This module fans independent cells across
    OCaml 5 [Domain]s, which is host parallelism *around* the simulator:
    simulated results are bit-for-bit those of a sequential sweep (each
    cell is still deterministic), only host wall-clock changes. The
    cooperative scheduler flag is domain-local (see {!Sb_machine.Eff}),
    so cells running simulated multithreaded workloads do not interfere
    across domains.

    This mirrors how the paper's evaluation machine actually ran the
    multithreaded Phoenix/PARSEC suites: many independent
    configurations, one per core. *)

module Config = Sb_machine.Config
module Registry = Sb_workloads.Registry

(** [map ~jobs f items] = [Array.map f items], fanned across [jobs]
    domains (the calling domain is one of them) pulling from a shared
    work queue. Result order is [items] order regardless of execution
    order. [jobs <= 1] runs inline (no domain is spawned). An exception
    in any [f] is re-raised (with its backtrace) after all domains
    join; when several items raise, the lowest-index one wins.

    Each [Atomic.fetch_and_add] claims a single cell. Grid cells cost
    anywhere from ~10 ms to ~4 s of host time, so one claim per cell is
    noise next to the work it hands out, and any multi-cell claim would
    pin neighbouring expensive cells to one domain: the four dedup
    cells of the Figure 7 grid, when claimed together, left the other
    domain idle for most of the round. *)
let map ?(jobs = 1) f items =
  let n = Array.length items in
  if jobs <= 1 || n <= 1 then Array.map f items
  else begin
    let jobs = min jobs n in
    let next = Atomic.make 0 in
    let results = Array.make n None in
    let worker () =
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < n then begin
          let r =
            try Ok (f items.(i))
            with e -> Error (e, Printexc.get_raw_backtrace ())
          in
          results.(i) <- Some r;
          go ()
        end
      in
      go ()
    in
    let domains = Array.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    Array.iter Domain.join domains;
    Array.map
      (function
        | Some (Ok r) -> r
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

(** {!map} over a list, preserving order — the convenience shape most
    sweep drivers (e.g. the service-layer rate sweep) want. *)
let map_list ?jobs f items =
  Array.to_list (map ?jobs f (Array.of_list items))

(** One grid cell: a workload under a scheme in a given configuration.
    [n = None] uses the workload's default working set. *)
type cell = {
  scheme : string;
  workload : Registry.spec;
  env : Config.env;
  threads : int;
  n : int option;
}

let cell ?(env = Config.Inside_enclave) ?(threads = 1) ?n ~scheme workload =
  { scheme; workload; env; threads; n }

let run_cell (c : cell) =
  Harness.run_one ~env:c.env ~threads:c.threads ?n:c.n ~scheme:c.scheme c.workload

(** Run a list of cells across [jobs] domains; results in cell order. *)
let run_cells ?jobs cells =
  Array.to_list (map ?jobs run_cell (Array.of_list cells))

(** Run the full (workload x scheme) product and regroup the results in
    the row shape the figure printers consume:
    [(workload_name, [(scheme, result); ...]); ...]. *)
let run_grid ?jobs ?env ?(threads = 1) ?n ~schemes ~workloads () =
  let cells =
    List.concat_map
      (fun (w : Registry.spec) ->
         List.map (fun scheme -> cell ?env ~threads ?n ~scheme w) schemes)
      workloads
  in
  let results = run_cells ?jobs cells in
  let tbl = List.combine cells results in
  List.map
    (fun (w : Registry.spec) ->
       ( w.Registry.name,
         List.filter_map
           (fun (c, r) ->
              if c.workload == w then Some (c.scheme, r) else None)
           tbl ))
    workloads
