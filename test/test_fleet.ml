(** Fleet failover pyramid: kill-and-restart determinism across all
    three memory engines and any [--jobs], golden fingerprints for every
    policy with and without kills, balancer shedding under
    overload, the consistent-hash ring's golden assignments and bounded
    remap, and the per-instance histogram merge against the pooled exact
    reference. *)

module Fleet = Sb_service.Fleet
module Ycsb = Sb_service.Ycsb
module Latency = Sb_service.Latency
module Loadgen = Sb_service.Loadgen
module Spans = Sb_service.Spans
module Histogram = Sb_telemetry.Metrics.Histogram
module Fastpath = Sb_machine.Fastpath
module Rng = Sb_machine.Rng

(* A small but busy fleet with two mid-run kills: enough load that the
   kills land while requests are queued and in flight. *)
let failover_cfg =
  {
    Fleet.default with
    Fleet.instances = 3;
    workers = 1;
    queue_cap = 32;
    requests = 400;
    rate_rps = 2_500_000.;
    seed = 11;
    workload = Ycsb.B;
    records = 512;
    kills = [ (0, 100_000); (2, 200_000) ];
  }

let run_ok ?spans cfg =
  match Fleet.run ?spans cfg with
  | Ok st -> st
  | Error msg -> Alcotest.failf "fleet run crashed: %s" msg

(* ---------- failover determinism ---------- *)

let test_engines_agree () =
  let fps =
    List.map
      (fun kind -> Fastpath.with_kind kind (fun () -> Fleet.fingerprint (run_ok failover_cfg)))
      [ Fastpath.Naive; Fastpath.Fast ]
  in
  match fps with
  | [ naive; fast ] -> Alcotest.(check string) "fast agrees with naive" naive fast
  | _ -> assert false

let test_jobs_invariant () =
  (* the same two configs swept on one domain and on two *)
  let cfgs = [ failover_cfg; { failover_cfg with Fleet.policy = Fleet.Least_loaded } ] in
  let fp outcome =
    match outcome with
    | Ok st -> Fleet.fingerprint st
    | Error msg -> "error: " ^ msg
  in
  let one = List.map fp (Fleet.sweep ~jobs:1 cfgs) in
  let two = List.map fp (Fleet.sweep ~jobs:2 cfgs) in
  List.iteri
    (fun i (a, b) -> Alcotest.(check string) (Printf.sprintf "cell %d" i) a b)
    (List.combine one two)

let test_failover_accounting () =
  let st = run_ok ~spans:4 failover_cfg in
  Alcotest.(check int) "offered = completed + dropped + lost" st.Fleet.offered
    (st.Fleet.completed + st.Fleet.dropped + st.Fleet.lost);
  Alcotest.(check int) "both kills restarted an instance" 2 st.Fleet.restarts;
  Alcotest.(check bool) "the kills disturbed the run" true
    (st.Fleet.lost + st.Fleet.failed_over > 0);
  Alcotest.(check int) "merged latency count = completed" st.Fleet.completed
    (Histogram.count st.Fleet.latency);
  Array.iter
    (fun (i : Fleet.inst_stats) ->
       Alcotest.(check int)
         (Printf.sprintf "instance %d: spans recorded = completed" i.Fleet.i_idx)
         i.Fleet.i_completed
         (match i.Fleet.i_spans with Some log -> Spans.recorded log | None -> -1))
    st.Fleet.per_instance;
  let inst_sum f = Array.fold_left (fun a i -> a + f i) 0 st.Fleet.per_instance in
  Alcotest.(check int) "per-instance completions add up" st.Fleet.completed
    (inst_sum (fun i -> i.Fleet.i_completed));
  Alcotest.(check int) "per-instance losses add up" st.Fleet.lost
    (inst_sum (fun i -> i.Fleet.i_lost))

(* ---------- golden fingerprints ---------- *)

(* Absolute pins, so a drive loop that serves, sheds or fails over in a
   different order cannot pass by agreeing with itself. Three instances
   of two workers: the no-kill runs shed from 6-deep queues at 6 M rps;
   the kill runs burst into 4-deep queues and take a kill, two kills at
   one instant (the fleet is briefly all down) and a second kill of a
   relaunched instance. *)
let golden_base =
  {
    Fleet.default with
    Fleet.instances = 3;
    workers = 2;
    queue_cap = 6;
    requests = 500;
    rate_rps = 6_000_000.;
    seed = 5;
    workload = Ycsb.A;
    records = 768;
  }

let golden_kills =
  {
    golden_base with
    Fleet.requests = 2400;
    rate_rps = 250_000.;
    process = Loadgen.Burst 12;
    queue_cap = 4;
    kills = [ (1, 482_000); (0, 2_500_000); (2, 2_500_000); (1, 6_000_000) ];
  }

let golden =
  [
    ( "hash", golden_base,
      "off=500 done=305 drop=195 fo=0 lost=0 rs=0 el=86278 rec=768 p50=5496 p99=6678 \
       max=6678 sum=1535407 qsum=1036586 inst=[102/0/0/6;97/0/0/6;106/0/0/6]" );
    ( "hash, kills", golden_kills,
      "off=2400 done=1498 drop=898 fo=0 lost=4 rs=4 el=9605602 rec=768 p50=2848 p99=8110 \
       max=32032 sum=4768554 qsum=2155823 inst=[524/2/1/4;257/1/2/4;717/1/1/4]" );
    ( "round-robin", { golden_base with Fleet.policy = Fleet.Round_robin },
      "off=500 done=284 drop=216 fo=0 lost=0 rs=0 el=86947 rec=768 p50=6098 p99=8406 \
       max=8406 sum=1857922 qsum=1343010 inst=[93/0/0/6;97/0/0/6;94/0/0/6]" );
    ( "round-robin, kills", { golden_kills with Fleet.policy = Fleet.Round_robin },
      "off=2400 done=1349 drop=1045 fo=2 lost=6 rs=4 el=9605056 rec=768 p50=3145 p99=8081 \
       max=8561 sum=4592633 qsum=2243119 inst=[602/2/1/4;145/2/2/4;602/2/1/4]" );
    ( "round-robin, affinity, kills",
      { golden_kills with Fleet.policy = Fleet.Round_robin; affinity = true; clients = 16 },
      "off=2400 done=1328 drop=1066 fo=1 lost=6 rs=4 el=9605056 rec=768 p50=3115 p99=8076 \
       max=8561 sum=4488777 qsum=2173755 inst=[596/2/1/4;143/2/2/4;589/2/1/4]" );
    ( "least-loaded", { golden_base with Fleet.policy = Fleet.Least_loaded },
      "off=500 done=287 drop=213 fo=0 lost=0 rs=0 el=86403 rec=768 p50=6106 p99=8454 \
       max=8454 sum=1883523 qsum=1370871 inst=[94/0/0/6;96/0/0/6;97/0/0/6]" );
    ( "least-loaded, kills", { golden_kills with Fleet.policy = Fleet.Least_loaded },
      "off=2400 done=1349 drop=1045 fo=1 lost=6 rs=4 el=9605056 rec=768 p50=3148 p99=8082 \
       max=8561 sum=4597682 qsum=2245816 inst=[603/2/1/4;145/2/2/4;601/2/1/4]" );
    ( "least-loaded, affinity, kills",
      { golden_kills with Fleet.policy = Fleet.Least_loaded; affinity = true; clients = 16 },
      "off=2400 done=1349 drop=1045 fo=2 lost=6 rs=4 el=9605056 rec=768 p50=3166 p99=8082 \
       max=8561 sum=4603470 qsum=2252190 inst=[606/2/1/4;143/2/2/4;600/2/1/4]" );
  ]

let test_golden_fingerprints () =
  List.iter
    (fun (name, cfg, want) ->
       Alcotest.(check string) name want (Fleet.fingerprint (run_ok cfg)))
    golden

(* Two MPX instances, each holding every record just under the enclave
   limit, both run out of memory mid-serve, at different arrivals. The
   run reports the failure the per-arrival loop meets first; both raise
   the same message, so this pins the outcome, not which one won. *)
let test_golden_error () =
  let cfg =
    {
      Fleet.default with
      Fleet.instances = 2;
      workers = 2;
      requests = 3000;
      rate_rps = 200_000.;
      seed = 3;
      scheme = "mpx";
      policy = Fleet.Round_robin;
      workload = Ycsb.D;
      records = 2370;
      value_bytes = 2048;
    }
  in
  match Fleet.run cfg with
  | Error msg ->
    Alcotest.(check string) "error" "MPX: out of enclave memory while allocating a bounds table"
      msg
  | Ok st -> Alcotest.failf "expected a crash, got %s" (Fleet.fingerprint st)

(* ---------- overload sheds at the balancer ---------- *)

let test_overload_sheds () =
  let cfg =
    {
      Fleet.default with
      Fleet.instances = 2;
      workers = 1;
      queue_cap = 8;
      requests = 300;
      rate_rps = 5_000_000.;
      process = Loadgen.Fixed;
      seed = 3;
      records = 256;
      policy = Fleet.Round_robin;
    }
  in
  let st = run_ok cfg in
  Alcotest.(check bool) "overload sheds" true (st.Fleet.dropped > 0);
  Alcotest.(check int) "accounting closes" st.Fleet.offered
    (st.Fleet.completed + st.Fleet.dropped + st.Fleet.lost);
  Array.iter
    (fun (i : Fleet.inst_stats) ->
       Alcotest.(check bool)
         (Printf.sprintf "instance %d 's queue stays bounded" i.Fleet.i_idx)
         true
         (i.Fleet.i_max_queue <= cfg.Fleet.queue_cap))
    st.Fleet.per_instance;
  Alcotest.(check bool) "server kept serving while shedding" true
    (st.Fleet.completed > 0)

(* ---------- consistent-hash ring ---------- *)

let test_ring_golden () =
  (* key->shard is a pure function: pinned assignments for 4 instances *)
  let r4 = Fleet.Ring.make 4 in
  List.iter
    (fun (k, want) ->
       Alcotest.(check int) (Printf.sprintf "owner of key %d" k) want
         (Fleet.Ring.owner r4 k))
    [ (0, 2); (1, 2); (2, 2); (3, 2); (42, 0); (1000, 1); (9999, 2) ];
  (* and stable across independent ring constructions *)
  let r4' = Fleet.Ring.make 4 in
  for k = 0 to 999 do
    Alcotest.(check int) "stable across runs" (Fleet.Ring.owner r4 k)
      (Fleet.Ring.owner r4' k)
  done

let test_ring_remap_bounded () =
  let nkeys = 10_000 in
  let r4 = Fleet.Ring.make 4 and r5 = Fleet.Ring.make 5 in
  let moved = ref 0 in
  for k = 0 to nkeys - 1 do
    let a = Fleet.Ring.owner r4 k and b = Fleet.Ring.owner r5 k in
    if a <> b then begin
      incr moved;
      (* consistent hashing: a key only ever moves TO the new instance *)
      Alcotest.(check int) (Printf.sprintf "key %d moved to the new instance" k) 4 b
    end
  done;
  let frac = float_of_int !moved /. float_of_int nkeys in
  (* expected ~1/5 of the key space; 64 vnodes keeps it near that *)
  Alcotest.(check bool)
    (Printf.sprintf "remapped fraction %.3f within [0.10, 0.30]" frac)
    true
    (frac >= 0.10 && frac <= 0.30)

let test_ring_alive_walk () =
  let r4 = Fleet.Ring.make 4 in
  (* with everyone alive, the walk is the owner *)
  Alcotest.(check int) "alive walk = owner" (Fleet.Ring.owner r4 42)
    (Fleet.Ring.first_alive r4 ~alive:(fun _ -> true) 42);
  (* with the owner dead, keys land on a different live instance *)
  let dead = Fleet.Ring.owner r4 42 in
  (match Fleet.Ring.first_alive r4 ~alive:(fun i -> i <> dead) 42 with
   | -1 -> Alcotest.fail "no live instance found"
   | o -> Alcotest.(check bool) "fails over to a live instance" true (o <> dead));
  Alcotest.(check int) "all dead gives -1" (-1)
    (Fleet.Ring.first_alive r4 ~alive:(fun _ -> false) 42)

(* The accept queue against [Queue]: wrap-around and growth keep FIFO
   order, and [drain] hands back the ids head first. *)
let test_fifo_model () =
  let q = Fleet.Fifo.create () and model = Queue.create () in
  let rng = Rng.create 5 in
  for step = 0 to 999 do
    if Queue.length model > 0 && Rng.int rng 3 = 0 then begin
      Alcotest.(check int) "head id" (fst (Queue.peek model)) (Fleet.Fifo.head_id q);
      Alcotest.(check int) "head enqueue time" (snd (Queue.peek model)) (Fleet.Fifo.head_enq q);
      ignore (Queue.pop model);
      Fleet.Fifo.pop q
    end
    else begin
      Queue.add (step, 10 * step) model;
      Fleet.Fifo.push q ~id:step ~enq:(10 * step)
    end;
    Alcotest.(check int) "length" (Queue.length model) (Fleet.Fifo.length q)
  done;
  Alcotest.(check (array int)) "drain"
    (Array.of_seq (Seq.map fst (Queue.to_seq model)))
    (Fleet.Fifo.drain q);
  Alcotest.(check int) "drained" 0 (Fleet.Fifo.length q)

(* Host words a fleet run allocates per offered request, everything
   included: machine set-up, the arrival, op and owner arrays, routing,
   queueing and serving. Draws, the ring walk, the accept queue, the
   SCONE request path and the hash-chain walk allocate nothing, so what
   is left is the set-up, the arrays and the boxed op of each request:
   6.6 and 6.1 words for two instances under the two policies, 6.0 for
   one (8.6, 8.1 and 7.3 when a chain walk returned an option). The
   bounds are about 1.5 times those. On the fast engine: the naive one
   allocates per simulated access. *)
let test_fleet_words_per_request () =
  Fastpath.with_kind Fastpath.Fast @@ fun () ->
  let words () =
    Gc.minor ();
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  List.iter
    (fun (instances, policy, bound) ->
       let cfg =
         {
           Fleet.default with
           Fleet.instances;
           workers = 4;
           requests = 50_000;
           rate_rps = 400_000.;
           policy;
           records = 1024;
         }
       in
       let before = words () in
       let st = run_ok cfg in
       let per_request = (words () -. before) /. float_of_int cfg.Fleet.requests in
       Alcotest.(check int) "all served" cfg.Fleet.requests st.Fleet.completed;
       if per_request > bound then
         Alcotest.failf "%d instance(s), %s: %.2f words per request (bound %.0f)" instances
           (Fleet.policy_name policy) per_request bound)
    [ (2, Fleet.Hash, 10.); (2, Fleet.Least_loaded, 10.); (1, Fleet.Hash, 9.) ]

(* ---------- Latency.merge vs the pooled exact reference ---------- *)

let test_merge_matches_pooled_exact () =
  let rng = Rng.create 17 in
  let shards =
    List.init 4 (fun i ->
        (Histogram.create (Printf.sprintf "shard%d" i),
         Array.init (200 + (i * 57)) (fun _ -> Rng.int rng 2_000_000)))
  in
  List.iter (fun (h, samples) -> Array.iter (Histogram.observe h) samples) shards;
  let merged = Latency.merge "merged" (List.map fst shards) in
  let pooled = Array.concat (List.map snd shards) in
  Alcotest.(check int) "merged count = pooled count" (Array.length pooled)
    (Histogram.count merged);
  Alcotest.(check int) "merged sum = pooled sum"
    (Array.fold_left ( + ) 0 pooled)
    (Histogram.sum merged);
  Alcotest.(check int) "merged max = pooled max"
    (Array.fold_left max 0 pooled)
    (Histogram.max_value merged);
  (* the interp-vs-exact bound carries over to the pooled reference *)
  List.iter
    (fun q ->
       let exact = Latency.exact_percentile pooled q in
       let est = Histogram.quantile_interp merged q in
       Alcotest.(check bool)
         (Printf.sprintf "q=%.2f: merged estimate %d within 2x of pooled exact %d" q
            est exact)
         true
         (est <= (2 * exact) + 2
          && exact <= (2 * est) + 2
          && est <= Histogram.max_value merged))
    [ 0.50; 0.95; 0.99; 1.0 ]

(* ---------- policies ---------- *)

let test_policy_parsing () =
  List.iter
    (fun n ->
       match Fleet.policy_of_string n with
       | Some p -> Alcotest.(check string) "roundtrip" n (Fleet.policy_name p)
       | None -> Alcotest.failf "listed policy %s not parsed" n)
    Fleet.policy_names;
  Alcotest.(check bool) "unknown rejected" true (Fleet.policy_of_string "random" = None)

let test_policies_all_complete () =
  List.iter
    (fun policy ->
       let cfg =
         { failover_cfg with Fleet.policy; kills = []; affinity = policy <> Fleet.Hash }
       in
       let st = run_ok cfg in
       Alcotest.(check int)
         (Printf.sprintf "policy %s: everything accounted" (Fleet.policy_name policy))
         st.Fleet.offered
         (st.Fleet.completed + st.Fleet.dropped + st.Fleet.lost))
    [ Fleet.Round_robin; Fleet.Least_loaded; Fleet.Hash ]

let suite =
  [
    Alcotest.test_case "failover: engines agree bit-for-bit" `Quick test_engines_agree;
    Alcotest.test_case "failover: --jobs 1 = --jobs 2" `Quick test_jobs_invariant;
    Alcotest.test_case "failover: accounting and spans" `Quick test_failover_accounting;
    Alcotest.test_case "overload sheds at the balancer" `Quick test_overload_sheds;
    Alcotest.test_case "ring: golden key->shard assignments" `Quick test_ring_golden;
    Alcotest.test_case "ring: add-instance remap is bounded" `Quick test_ring_remap_bounded;
    Alcotest.test_case "ring: alive walk fails over" `Quick test_ring_alive_walk;
    Alcotest.test_case "accept queue matches a FIFO model" `Quick test_fifo_model;
    Alcotest.test_case "words per request stay bounded" `Quick test_fleet_words_per_request;
    Alcotest.test_case "merge matches pooled exact percentiles" `Quick
      test_merge_matches_pooled_exact;
    Alcotest.test_case "policy parsing roundtrips" `Quick test_policy_parsing;
    Alcotest.test_case "all policies close the accounting" `Quick
      test_policies_all_complete;
    Alcotest.test_case "golden fingerprints, every policy" `Quick test_golden_fingerprints;
    Alcotest.test_case "golden error: two instances crash" `Quick test_golden_error;
  ]
