(** Symbolic interface audit of the *shipped* request handlers.

    The buggy corpus in {!Sb_apps.Handlers} proves the symbolic pass
    can see; this module points the same pass at the real service
    adapters ({!Drivers}): build each app, then before every request
    mark the worker's request buffer — the bytes an untrusted client
    controls — as tainted, and let {!Sb_analysis.Symex} verify that no
    attacker-derived pointer or length reaches memory or libc without a
    dominating check. The shipped handlers must come back clean under
    every scheme; `analyze --symbolic` exits non-zero otherwise. *)

module Memsys = Sb_sgx.Memsys
module Config = Sb_machine.Config
module Scheme = Sb_protection.Scheme
module Json = Sb_telemetry.Json
module Wctx = Sb_workloads.Wctx
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Symex = Sb_analysis.Symex
module Finding = Sb_analysis.Finding
open Sb_protection.Types

type cell = {
  ic_app : string;
  ic_scheme : string;
  ic_requests : int;    (* requests actually served (all, unless crashed) *)
  ic_crashed : string option;
  ic_ops : int;
  ic_total : int;       (* finding occurrences, both passes *)
  ic_findings : Finding.t list;
  ic_subset_ok : bool;
}

(** Serve [requests] rounds across [workers] connections of [app] under
    [scheme], tainting each worker's request buffer before every
    request (fresh symbols per request, so cross-request buffer reuse
    is not a double fetch). *)
let run_app ?(requests = 12) ?(workers = 2) ~scheme app : cell =
  let ms = Memsys.create (Config.default ()) in
  let s0 = Harness.maker scheme ms in
  let s, t = Symex.wrap ~track_races:false s0 in
  Fun.protect ~finally:Symex.unhook @@ fun () ->
  let ctx = Wctx.make s in
  let e = Drivers.make_entries app ctx ~workers in
  let served = ref 0 in
  let label = Drivers.name app ^ ".req" in
  let crashed =
    try
      for _r = 1 to requests do
        for w = 0 to workers - 1 do
          let addr, len = e.Drivers.e_requests.(w) in
          Symex.taint_region t ~addr ~len ~label;
          e.Drivers.e_handler ~worker:w;
          incr served
        done
      done;
      None
    with
    | Violation v -> Some ("violation: " ^ v.reason)
    | App_crash msg -> Some ("crash: " ^ msg)
  in
  {
    ic_app = Drivers.name app;
    ic_scheme = scheme;
    ic_requests = !served;
    ic_crashed = crashed;
    ic_ops = Symex.ops t;
    ic_total = Symex.total t;
    ic_findings = Symex.findings t;
    ic_subset_ok = Symex.subset_ok t;
  }

(** Every shipped app under every scheme; cells own fresh machines, so
    the fan-out is deterministic for any [jobs]. *)
let sweep ?jobs ?(schemes = Sb_schemes.Scheme_info.headline_names) ?requests ?workers () =
  let cells =
    List.concat_map (fun app -> List.map (fun sc -> (app, sc)) schemes)
      Drivers.all
  in
  Parallel_runner.map_list ?jobs
    (fun (app, sc) -> run_app ?requests ?workers ~scheme:sc app)
    cells

let cells_bad cells =
  List.filter
    (fun c -> c.ic_total > 0 || c.ic_crashed <> None || not c.ic_subset_ok)
    cells

let json_of_cell c =
  Json.Obj
    [
      ("app", Json.Str c.ic_app);
      ("scheme", Json.Str c.ic_scheme);
      ("requests", Json.Int c.ic_requests);
      ( "status",
        Json.Str (match c.ic_crashed with None -> "completed" | Some _ -> "crashed") );
      ("ops_audited", Json.Int c.ic_ops);
      ("findings", Json.Int c.ic_total);
      ("subset_ok", Json.Bool c.ic_subset_ok);
      ("detail", Json.List (List.map Finding.to_json c.ic_findings));
    ]

let json_report cells =
  Json.Obj
    [
      ("cells", Json.List (List.map json_of_cell cells));
      ( "summary",
        Json.Obj
          [
            ("cells", Json.Int (List.length cells));
            ("findings",
             Json.Int (List.fold_left (fun acc c -> acc + c.ic_total) 0 cells));
            ("bad", Json.Int (List.length (cells_bad cells)));
            ( "subset_ok",
              Json.Bool (List.for_all (fun c -> c.ic_subset_ok) cells) );
          ] );
    ]

let print_report cells =
  List.iter
    (fun c ->
       let tag =
         match c.ic_crashed with
         | Some msg -> "CRASHED: " ^ msg
         | None ->
           if c.ic_total = 0 then "clean"
           else Printf.sprintf "%d finding(s)" c.ic_total
       in
       Fmt.pr "%-12s %-12s requests=%-4d ops=%-9d %s@." c.ic_app c.ic_scheme
         c.ic_requests c.ic_ops tag;
       List.iter (fun f -> Fmt.pr "    %a@." Finding.pp f) c.ic_findings)
    cells;
  Fmt.pr "interface audit: %d cell(s), %d with findings/crashes@."
    (List.length cells)
    (List.length (cells_bad cells))
