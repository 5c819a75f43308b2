(* The ledger's pure logic: no workload runs here. *)

let feq = Alcotest.float 1e-9

let percentile_rule () =
  (* reference values from Python's statistics.quantiles (method
     "exclusive", its default) *)
  Alcotest.(check (list feq)) "1..10, n=4" [ 2.75; 5.5; 8.25 ]
    (Quantile.quantiles ~n:4 (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check (list feq)) "unsorted input" [ 1.; 2.; 3. ]
    (Quantile.quantiles ~n:4 [ 3.; 1.; 2. ]);
  Alcotest.(check (list feq)) "two values extrapolate" [ 0.; 3.; 6. ]
    (Quantile.quantiles ~n:4 [ 5.; 1. ]);
  Alcotest.(check (list feq)) "one value" [ 4.; 4.; 4. ] (Quantile.quantiles ~n:4 [ 4. ]);
  Alcotest.(check feq) "p80 of 1..10" 8.8
    (Quantile.percentile 80 (List.init 10 (fun i -> float_of_int (i + 1))));
  Alcotest.(check feq) "percentiles stay within the values" 5.
    (Quantile.percentile 80 [ 1.; 5. ]);
  Alcotest.(check feq) "median, even count" 2.5 (Quantile.median [ 4.; 1.; 3.; 2. ]);
  Alcotest.(check feq) "spread = (q3 - q1) / median" ((1.2 -. 0.95) /. 1.05)
    (Quantile.spread [ 0.9; 1.3; 1.1; 1.0; 1.2; 0.95; 1.05 ]);
  Alcotest.check_raises "no values" (Invalid_argument "Quantile.quantiles: no values") (fun () ->
      ignore (Quantile.quantiles ~n:4 []))

let verdict = Alcotest.testable (Fmt.of_to_string Verdict.name) ( = )

let judge ?(better = Verdict.Lower) ?(bound = 0.1) base cand =
  (Verdict.judge ~better ~bound ~base ~cand).Verdict.verdict

let compare_verdicts () =
  let base = [ 10.0; 10.1; 9.9; 10.2; 9.8; 10.0; 10.1; 9.9; 10.0; 10.05 ] in
  let shift d = List.map (fun x -> x +. d) base in
  Alcotest.check verdict "same commit" Verdict.Same (judge base (List.rev base));
  Alcotest.check verdict "5% slower, bound 10%" Verdict.Same (judge base (shift 0.5));
  Alcotest.check verdict "20% slower" Verdict.Worse (judge base (shift 2.0));
  Alcotest.check verdict "faster in every pair" Verdict.Better (judge base (shift (-1.0)));
  Alcotest.check verdict "higher is better: lower values are worse" Verdict.Worse
    (judge ~better:Verdict.Higher base (shift (-2.0)));
  (* wins 9 of 10 pairs, but the medians differ by less than the
     parent's quartile distance: not a gain *)
  let noisy = [ 10.; 12.; 8.; 11.; 9.; 10.; 12.; 8.; 11.; 9. ] in
  let cand = List.mapi (fun i x -> if i = 0 then x +. 0.1 else x -. 0.1) noisy in
  Alcotest.check verdict "wide spread, small shift" Verdict.Unresolved (judge noisy cand);
  Alcotest.check verdict "wide spread, but every run better" Verdict.Better
    (judge noisy (List.map (fun x -> x -. 5.) noisy));
  let r = Verdict.judge ~better:Verdict.Lower ~bound:0.1 ~base ~cand:(shift 2.0) in
  Alcotest.(check int) "pairs" 10 r.Verdict.pairs;
  Alcotest.(check int) "candidate wins none" 0 r.Verdict.wins;
  Alcotest.(check feq) "worse by 20%" (2.0 /. 10.0) r.Verdict.worse_by

let key kind a b = { Expected.kind; a; b }

let digests_order_free () =
  let entries =
    List.concat_map
      (fun w ->
         List.map
           (fun s -> (key "cell" w s, Printf.sprintf "{%s,%s}" w s))
           [ "native"; "mpx"; "asan" ])
      [ "kmeans"; "pca"; "dedup"; "x264" ]
  in
  let digested es = List.map (fun (k, t) -> (k, Expected.digest t)) es in
  let permuted =
    List.sort (fun (_, a) (_, b) -> compare (Digest.string b) (Digest.string a)) entries
  in
  let tsv es = Expected.to_tsv ~header:"test" (Expected.of_list (digested es)) in
  Alcotest.(check string) "same file for any cell order" (tsv entries) (tsv permuted);
  let t = Expected.parse (tsv permuted) in
  List.iter
    (fun (k, text) ->
       Alcotest.(check bool) (Expected.key_to_string k) true
         (Expected.check t k text = Expected.Match))
    entries;
  Alcotest.(check bool) "changed output" true
    (Expected.check t (key "cell" "pca" "mpx") "{pca,MPX}" = Expected.Mismatch);
  Alcotest.(check bool) "unknown cell" true
    (Expected.check t (key "cell" "pca" "baggy") "{}" = Expected.Missing)

let doc () =
  match Bench_doc.load "../../BENCHMARK.json" with
  | Ok d -> d
  | Error msg -> Alcotest.fail msg

let names = List.map (fun (m : Catalogue.metric) -> m.Catalogue.name)

let benchmark_json () =
  let d = doc () in
  Alcotest.(check (list string)) "workloads" Catalogue.workloads
    (List.map fst d.Bench_doc.workloads);
  Alcotest.(check int) "run_seconds is run's default" Catalogue.run_seconds d.Bench_doc.run_seconds;
  Alcotest.(check (list string)) "end-to-end metrics = those measured on every workload"
    (names Catalogue.listed_end_to_end)
    (List.map (fun e -> e.Bench_doc.e_name) d.Bench_doc.end_to_end);
  Alcotest.(check (list string)) "per-layer metrics = those measured on every workload"
    (names Catalogue.listed_per_layer)
    (List.map (fun p -> p.Bench_doc.p_name) d.Bench_doc.per_layer);
  let same_unit_and_direction name unit_ better =
    match Catalogue.find_end_to_end name, Catalogue.find_per_layer name with
    | Some m, _ | None, Some m ->
      Alcotest.(check string) (name ^ " unit") m.Catalogue.unit_ unit_;
      Alcotest.(check string) (name ^ " better") (Catalogue.direction_name m.Catalogue.better)
        (Catalogue.direction_name better)
    | None, None -> Alcotest.fail (name ^ " is not in the catalogue")
  in
  List.iter
    (fun e -> same_unit_and_direction e.Bench_doc.e_name e.Bench_doc.e_unit e.Bench_doc.e_better)
    d.Bench_doc.end_to_end;
  List.iter
    (fun p -> same_unit_and_direction p.Bench_doc.p_name p.Bench_doc.p_unit p.Bench_doc.p_better)
    d.Bench_doc.per_layer;
  (* every name the catalogue refers to exists *)
  List.iter
    (fun (m : Catalogue.metric) ->
       let n = m.Catalogue.name in
       Alcotest.(check bool) (n ^ " is a valid name") true (Bench_doc.is_name n);
       Alcotest.(check bool) (n ^ " has a valid unit") true (Bench_doc.is_unit m.Catalogue.unit_);
       List.iter
         (fun e ->
            Alcotest.(check bool) (m.Catalogue.name ^ " moves " ^ e) true
              (Catalogue.find_end_to_end e <> None))
         m.Catalogue.moves;
       List.iter
         (fun w ->
            Alcotest.(check bool) (m.Catalogue.name ^ " on " ^ w) true
              (List.mem_assoc w d.Bench_doc.workloads))
         (m.Catalogue.where @ m.Catalogue.on))
    (Catalogue.end_to_end @ Catalogue.per_layer);
  let all = names (Catalogue.end_to_end @ Catalogue.per_layer) in
  Alcotest.(check int) "metric names are unique" (List.length all)
    (List.length (List.sort_uniq compare all));
  (* the command names nothing of the repository outside [paths] *)
  List.iter
    (fun arg ->
       if String.contains arg '/' then
         Alcotest.(check bool) (arg ^ " lies under paths") true
           (List.exists
              (fun p ->
                 let dir = p ^ "/" in
                 String.length arg > String.length dir
                 && String.sub arg 0 (String.length dir) = dir)
              d.Bench_doc.paths))
    d.Bench_doc.command

let malformed_documents () =
  let doc ?(better = "higher") layer =
    Bench_doc.parse
      (Printf.sprintf
         {|{"command": ["bash", "x/run.sh"], "paths": ["x"], "run_seconds": 10,
            "workloads": [{"name": "a", "why": "one"}, {"name": "b", "why": "two"}],
            "end_to_end": [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1},
                           {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2}],
            "per_layer": [{"name": "%s", "unit": "count", "better": "%s"}]}|}
         layer better)
  in
  Alcotest.(check bool) "well formed" true (Result.is_ok (doc "x.count"));
  Alcotest.(check bool) "name used twice" true (Result.is_error (doc "wall_s"));
  Alcotest.(check bool) "bad name" true (Result.is_error (doc "x count"));
  Alcotest.(check bool) "bad direction" true (Result.is_error (doc ~better:"up" "x.count"));
  Alcotest.(check bool) "not JSON" true (Result.is_error (Bench_doc.parse "{"))

let expected_files () =
  List.iter
    (fun w ->
       let path = Filename.concat "expected" (w ^ ".tsv") in
       let t = Expected.parse (In_channel.with_open_bin path In_channel.input_all) in
       Alcotest.(check bool) (path ^ " pins outputs") true (Hashtbl.length t > 0))
    Catalogue.workloads

let () =
  Alcotest.run "ledger"
    [
      ( "ledger",
        [
          Alcotest.test_case "percentile rule" `Quick percentile_rule;
          Alcotest.test_case "compare verdicts" `Quick compare_verdicts;
          Alcotest.test_case "digests ignore cell order" `Quick digests_order_free;
          Alcotest.test_case "BENCHMARK.json matches catalogue" `Quick benchmark_json;
          Alcotest.test_case "malformed BENCHMARK.json" `Quick malformed_documents;
          Alcotest.test_case "expected digests parse" `Quick expected_files;
        ] );
    ]
