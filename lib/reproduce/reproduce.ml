(** The pure half of [bench reproduce]: render the Figure 7/11 overhead
    tables, check the semantic claims the committed tables carry on
    their typed rows, and byte-compare generated files with the
    committed ones under [results/]. *)

module Harness = Sb_harness.Harness
module Optimizer = Sb_analysis.Optimizer

(* ---------- overhead tables (Figures 7 and 11) ---------- *)

let overhead_tsv_header = "workload\tscheme\tperf_x\tmem_x\tllc_miss_x\tepc_fault_x"

(** [rows] as {!Sb_harness.Parallel_runner.run_grid} returns them, with
    a ["native"] column as the baseline. One line per non-native
    (workload, scheme) whose native run completed; a crashed run's
    cells are ["-"]. Ratios divide by [max 1 native]. *)
let overhead_tsv rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b (overhead_tsv_header ^ "\n");
  List.iter
    (fun (workload, results) ->
       match List.assoc_opt "native" results with
       | Some { Harness.outcome = Harness.Completed base; _ } ->
         List.iter
           (fun (scheme, (r : Harness.result)) ->
              let cells =
                match r.Harness.outcome with
                | Harness.Crashed _ -> [ "-"; "-"; "-"; "-" ]
                | Harness.Completed m ->
                  let x f =
                    Printf.sprintf "%.4f" (float_of_int (f m) /. float_of_int (max 1 (f base)))
                  in
                  [ x (fun m -> m.Harness.cycles); x (fun m -> m.Harness.peak_vm);
                    x (fun m -> m.Harness.llc_misses); x (fun m -> m.Harness.epc_faults) ]
              in
              if scheme <> "native" then
                Buffer.add_string b (String.concat "\t" (workload :: scheme :: cells) ^ "\n"))
           results
       | _ -> ())
    rows;
  Buffer.contents b

(* ---------- claims on typed rows (each returns its problems) ---------- *)

(** Every elision row removes checks, never adds them, with a removal
    rate in [0, 100]; and the optimizer removes >= 20 % of the dynamic
    checks on at least 3 workloads under SGXBounds. *)
let elision_claims (rows : Optimizer.row list) =
  let bad (r : Optimizer.row) fmt =
    Printf.ksprintf (fun m -> Some (r.r_workload ^ "/" ^ r.r_scheme ^ ": " ^ m)) fmt
  in
  let row_problems (r : Optimizer.row) =
    [ (if r.r_checks_after > r.r_checks_before then
         bad r "checks_after %d exceeds checks_before %d" r.r_checks_after r.r_checks_before
       else None);
      (if r.r_removed_pct < 0. || r.r_removed_pct > 100. then
         bad r "removed_pct %.1f not in [0,100]" r.r_removed_pct
       else None) ]
  in
  let strong (r : Optimizer.row) = r.r_scheme = "sgxbounds" && r.r_removed_pct >= 20.0 in
  let strong = List.length (List.filter strong rows) in
  List.filter_map Fun.id (List.concat_map row_problems rows)
  @
  if strong < 3 then
    [ Printf.sprintf "only %d sgxbounds row(s) reach a 20%% removal rate (need >= 3)" strong ]
  else []

(** Every fleet cell, given as [(scheme, shards)], has at least one shard. *)
let fleet_claims cells =
  List.filter_map
    (fun (scheme, shards) ->
       if shards < 1 then Some (Printf.sprintf "%s: %d shards (need >= 1)" scheme shards)
       else None)
    cells

(* ---------- byte-compare against the committed files ---------- *)

type status = Same | Differs | Missing

(** Compare each [(name, bytes)] with [dir/name] and write the generated
    bytes in place wherever they are not the committed ones, so the drift
    shows in [git diff]. Also returns the orphans: the [*.tsv] and
    [*.json] files in [dir] that [files] does not produce, sorted. *)
let reconcile ~dir files =
  let statuses =
    List.map
      (fun (name, bytes) ->
         let path = Filename.concat dir name in
         let status =
           match In_channel.with_open_bin path In_channel.input_all with
           | old when old = bytes -> Same
           | _ -> Differs
           | exception Sys_error _ -> Missing
         in
         if status <> Same then
           Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
         (name, status))
      files
  in
  let orphans =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f ->
        (Filename.check_suffix f ".tsv" || Filename.check_suffix f ".json")
        && not (List.mem_assoc f files))
    |> List.sort compare
  in
  (statuses, orphans)
