(** The domain-parallel runner: [map]'s contract (item-order results,
    exactly one call per item, lowest-index exception re-raised after
    join) across job counts, including fewer items than jobs, and
    multi-threaded grids that are byte-identical under any [--jobs]. *)

module Parallel_runner = Sb_harness.Parallel_runner
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Scheme_info = Sb_schemes.Scheme_info
module Json = Sb_telemetry.Json

let job_counts = [ 1; 2; 3; 8 ]
let sizes = [ 0; 1; 2; 7; 64 ]

let test_order_and_once () =
  List.iter
    (fun jobs ->
       List.iter
         (fun n ->
            let calls = Array.init n (fun _ -> Atomic.make 0) in
            let out =
              Parallel_runner.map ~jobs
                (fun i ->
                   Atomic.incr calls.(i);
                   i * i)
                (Array.init n Fun.id)
            in
            let label = Printf.sprintf "jobs=%d n=%d" jobs n in
            Alcotest.(check (array int)) (label ^ ": results in item order")
              (Array.init n (fun i -> i * i)) out;
            Array.iteri
              (fun i c ->
                 Alcotest.(check int) (Printf.sprintf "%s: item %d called once" label i)
                   1 (Atomic.get c))
              calls)
         sizes)
    job_counts

exception Item of int

let test_lowest_index_exception () =
  let raising = [ 5; 17; 40; 63 ] in
  List.iter
    (fun jobs ->
       let f i = if List.mem i raising then raise (Item i) else i in
       match Parallel_runner.map ~jobs f (Array.init 64 Fun.id) with
       | _ -> Alcotest.failf "jobs=%d: expected an exception" jobs
       | exception Item i ->
         Alcotest.(check int) (Printf.sprintf "jobs=%d: lowest raising index" jobs) 5 i)
    job_counts

(* Per-cell claiming hands cells to whichever domain is free, so which
   domain runs a cell changes with [jobs]; the simulated output must not. *)
let test_mt_grid_jobs_invariant () =
  let workloads = [ Registry.find "dedup"; Registry.find "kmeans" ] in
  let grid jobs =
    Parallel_runner.run_grid ~jobs ~threads:8 ~n:2048
      ~schemes:Scheme_info.headline_names ~workloads ()
    |> List.concat_map (fun (_, row) ->
        List.map (fun (_, r) -> Json.to_string (Harness.json_of_result r)) row)
  in
  let one = grid 1 and two = grid 2 in
  Alcotest.(check int) "every cell present"
    (List.length workloads * List.length Scheme_info.headline_names)
    (List.length one);
  Alcotest.(check (list string)) "json_of_result identical under --jobs 1 vs 2" one two

let suite =
  [
    Alcotest.test_case "map: item order, one call per item" `Quick test_order_and_once;
    Alcotest.test_case "map: lowest-index exception re-raised" `Quick
      test_lowest_index_exception;
    Alcotest.test_case "run_grid 8 threads: --jobs 1 = --jobs 2" `Quick
      test_mt_grid_jobs_invariant;
  ]
