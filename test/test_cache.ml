open Helpers
module Cache = Sb_cache.Cache
module Hierarchy = Sb_cache.Hierarchy

let test_cold_miss_then_hit () =
  let c = Cache.create ~size:1024 ~assoc:2 ~line_size:64 in
  Alcotest.(check bool) "cold miss" false (Cache.access c ~line:1);
  Alcotest.(check bool) "then hit" true (Cache.access c ~line:1)

let test_lru_eviction () =
  let c = Cache.create ~size:(2 * 64) ~assoc:2 ~line_size:64 in
  (* one set, two ways *)
  ignore (Cache.access c ~line:0);
  ignore (Cache.access c ~line:1);
  ignore (Cache.access c ~line:0);          (* 0 is now MRU *)
  ignore (Cache.access c ~line:2);          (* evicts 1 (LRU) *)
  Alcotest.(check bool) "0 survived" true (Cache.access c ~line:0);
  Alcotest.(check bool) "1 evicted" false (Cache.access c ~line:1)

let test_sets_isolate () =
  let c = Cache.create ~size:(4 * 64) ~assoc:1 ~line_size:64 in
  (* 4 direct-mapped sets: lines 0 and 4 collide, 0 and 1 do not *)
  ignore (Cache.access c ~line:0);
  ignore (Cache.access c ~line:1);
  Alcotest.(check bool) "line 0 still cached" true (Cache.access c ~line:0);
  ignore (Cache.access c ~line:4);
  Alcotest.(check bool) "line 0 evicted by conflict" false (Cache.access c ~line:0)

let test_flush () =
  let c = Cache.create ~size:1024 ~assoc:2 ~line_size:64 in
  ignore (Cache.access c ~line:3);
  Cache.flush c;
  Alcotest.(check bool) "miss after flush" false (Cache.access c ~line:3)

let test_stats () =
  let c = Cache.create ~size:1024 ~assoc:2 ~line_size:64 in
  ignore (Cache.access c ~line:1);
  ignore (Cache.access c ~line:1);
  ignore (Cache.access c ~line:2);
  Alcotest.(check int) "hits" 1 (Cache.hits c);
  Alcotest.(check int) "misses" 2 (Cache.misses c);
  Cache.reset_stats c;
  Alcotest.(check int) "reset" 0 (Cache.misses c)

(* [promote] contract: right after [access a; access b], promoting [a]
   has the effect of a second [access a] — on the counters and on every
   later hit or miss. [a] sits at way 1 when [b] shares its set and at
   way 0 when it does not. *)
let check_promote ~assoc ~a ~b () =
  let make () =
    let c = Cache.create ~size:(4 * assoc * 64) ~assoc ~line_size:64 in
    (* the same warm contents in both copies *)
    let rng = Sb_machine.Rng.create 5 in
    for _ = 1 to 64 do
      ignore (Cache.access c ~line:(Sb_machine.Rng.int rng 24))
    done;
    ignore (Cache.access c ~line:a);
    ignore (Cache.access c ~line:b);
    c
  in
  let accessed = make () and promoted = make () in
  Alcotest.(check bool) "second access hits" true (Cache.access accessed ~line:a);
  Cache.promote promoted ~line:a;
  let later c = List.init 48 (fun i -> Cache.access c ~line:((i * 7) mod 24)) in
  Alcotest.(check (list bool)) "later hits and misses" (later accessed) (later promoted);
  Alcotest.(check int) "hits" (Cache.hits accessed) (Cache.hits promoted);
  Alcotest.(check int) "misses" (Cache.misses accessed) (Cache.misses promoted)

let test_promote () =
  List.iter
    (fun kind ->
       Sb_machine.Fastpath.with_kind kind (fun () ->
           (* 4 sets: lines 1 and 5 share a set, 1 and 2 do not *)
           List.iter
             (fun assoc ->
                check_promote ~assoc ~a:1 ~b:5 ();
                check_promote ~assoc ~a:1 ~b:2 ())
             [ 2; 4; 8 ]))
    [ Sb_machine.Fastpath.Fast; Sb_machine.Fastpath.Naive ]

let test_hierarchy_levels () =
  let h = Hierarchy.create (cfg ()) in
  Alcotest.(check bool) "first access goes to DRAM" true
    (Hierarchy.access h ~addr:0x1000 = Hierarchy.Dram);
  Alcotest.(check bool) "second is L1" true
    (Hierarchy.access h ~addr:0x1000 = Hierarchy.L1)

let test_hierarchy_costs_ordered () =
  let h = Hierarchy.create (cfg ()) in
  let c1 = Hierarchy.hit_cost h Hierarchy.L1
  and c2 = Hierarchy.hit_cost h Hierarchy.L2
  and c3 = Hierarchy.hit_cost h Hierarchy.Llc in
  Alcotest.(check bool) "L1 < L2 < LLC" true (c1 < c2 && c2 < c3)

let test_llc_miss_counting () =
  let h = Hierarchy.create (cfg ()) in
  (* Stream far more lines than the LLC holds: every access misses. *)
  let n = 100_000 in
  for i = 0 to n - 1 do
    ignore (Hierarchy.access h ~addr:(i * 64))
  done;
  Alcotest.(check int) "all cold misses" n (Hierarchy.llc_misses h)

let prop_misses_bounded =
  QCheck.Test.make ~name:"misses <= accesses" ~count:50
    QCheck.(list_of_size Gen.(return 500) (int_bound 10_000))
    (fun lines ->
       let c = Cache.create ~size:4096 ~assoc:4 ~line_size:64 in
       List.iter (fun l -> ignore (Cache.access c ~line:l)) lines;
       Cache.hits c + Cache.misses c = List.length lines)

let prop_working_set_fits =
  QCheck.Test.make ~name:"small working set eventually all hits" ~count:20
    QCheck.(int_range 1 8)
    (fun n ->
       let c = Cache.create ~size:(16 * 64) ~assoc:16 ~line_size:64 in
       (* n <= 8 distinct lines in a 16-way single... multiple sets; warm then probe *)
       for _ = 1 to 3 do
         for i = 0 to n - 1 do
           ignore (Cache.access c ~line:i)
         done
       done;
       Cache.reset_stats c;
       for i = 0 to n - 1 do
         ignore (Cache.access c ~line:i)
       done;
       Cache.misses c = 0)

let suite =
  [
    Alcotest.test_case "cold miss then hit" `Quick test_cold_miss_then_hit;
    Alcotest.test_case "LRU eviction order" `Quick test_lru_eviction;
    Alcotest.test_case "sets isolate lines" `Quick test_sets_isolate;
    Alcotest.test_case "flush empties cache" `Quick test_flush;
    Alcotest.test_case "hit/miss statistics" `Quick test_stats;
    Alcotest.test_case "promote = second access of the line before the last" `Quick
      test_promote;
    Alcotest.test_case "hierarchy fills on miss" `Quick test_hierarchy_levels;
    Alcotest.test_case "hierarchy costs ordered" `Quick test_hierarchy_costs_ordered;
    Alcotest.test_case "LLC miss counting under streaming" `Quick test_llc_miss_counting;
    qtest prop_misses_bounded;
    qtest prop_working_set_fits;
  ]
