open Helpers
module Mt = Sb_mt.Mt
module Memsys = Sb_sgx.Memsys

let test_all_threads_run () =
  let m = ms () in
  let hits = Array.make 4 false in
  Mt.run m (Array.init 4 (fun i () -> hits.(i) <- true));
  Alcotest.(check bool) "all ran" true (Array.for_all Fun.id hits)

let test_elapsed_is_max () =
  let m = ms () in
  Mt.run m
    [|
      (fun () -> Memsys.charge_alu m 1000);
      (fun () -> Memsys.charge_alu m 10);
    |];
  Alcotest.(check int) "elapsed = slowest thread" 1000 (Memsys.get_clock m 0)

let test_min_clock_scheduling_interleaves () =
  let m = ms () in
  let order = ref [] in
  let worker tag cost () =
    for _ = 1 to 3 do
      order := tag :: !order;
      Memsys.charge_alu m cost;
      Mt.yield ()
    done
  in
  Mt.run m [| worker "slow" 100; worker "fast" 10 |];
  (* The fast thread must get multiple turns before the slow one ends. *)
  let seq = List.rev !order in
  Alcotest.(check bool) "interleaved, not serial" true
    (seq <> [ "slow"; "slow"; "slow"; "fast"; "fast"; "fast" ])

let test_deterministic () =
  let run () =
    let m = ms () in
    let log = Buffer.create 64 in
    let worker tag () =
      for _ = 1 to 5 do
        Buffer.add_string log tag;
        Memsys.charge_alu m (10 * (1 + String.length tag));
        Mt.yield ()
      done
    in
    Mt.run m [| worker "a"; worker "bb"; worker "ccc" |];
    Buffer.contents log
  in
  Alcotest.(check string) "same schedule across runs" (run ()) (run ())

let test_memory_accesses_yield_automatically () =
  let m = ms () in
  let vm = Memsys.vmem m in
  let a = Sb_vmem.Vmem.map vm ~len:8192 ~perm:Sb_vmem.Vmem.Read_write () in
  let turns = ref [] in
  let worker tag () =
    for i = 0 to 999 do
      ignore (Memsys.load m ~addr:(a + (i land 1023)) ~width:4)
    done;
    turns := tag :: !turns
  in
  Mt.run m [| worker 1; worker 2 |];
  (* Both finish; with automatic yields neither starves. *)
  Alcotest.(check int) "both completed" 2 (List.length !turns)

let test_parallel_for_covers_range () =
  let m = ms () in
  let seen = Array.make 100 0 in
  Mt.parallel_for m ~threads:8 ~lo:0 ~hi:100 (fun i -> seen.(i) <- seen.(i) + 1);
  Alcotest.(check bool) "each index exactly once" true (Array.for_all (( = ) 1) seen)

let test_parallel_speedup () =
  (* The same total ALU work split over 4 threads must take ~1/4 the
     simulated time. *)
  let run threads =
    let m = ms () in
    Mt.parallel_for m ~threads ~lo:0 ~hi:4000 (fun _ -> Memsys.charge_alu m 10);
    Memsys.get_clock m 0
  in
  let t1 = run 1 and t4 = run 4 in
  Alcotest.(check int) "perfect scaling of ALU work" (t1 / 4) t4

let test_exception_propagates_and_resets () =
  let m = ms () in
  (match Mt.run m [| (fun () -> failwith "boom") |] with
   | () -> Alcotest.fail "expected exception"
   | exception Failure _ -> ());
  Alcotest.(check bool) "scheduler deactivated" false (Sb_machine.Eff.scheduler_active ());
  (* And a new region still works. *)
  Mt.run m [| (fun () -> ()) |]

let test_nested_run_rejected () =
  let m = ms () in
  (match Mt.run m [| (fun () -> Mt.run m [| (fun () -> ()) |]) |] with
   | () -> Alcotest.fail "expected rejection"
   | exception Invalid_argument _ -> ())

let test_yield_outside_region_is_noop () = Mt.yield ()

(* A yield allocates only the continuation the runtime captures: the
   handlers and their [Some] results are built once per region. *)
let test_yield_allocation () =
  let m = ms () in
  let yields_per_thread = 2_000 in
  let worker () =
    for _ = 1 to yields_per_thread do
      Memsys.charge_alu m 1;
      Mt.yield ()
    done
  in
  let fns = Array.make 8 worker in
  Mt.run m fns;
  let w0 = Gc.minor_words () in
  Mt.run m fns;
  let w = Gc.minor_words () -. w0 in
  let yields = 8 * yields_per_thread in
  if w > 4. *. float_of_int yields then
    Alcotest.failf "%.0f minor words over %d yields (%.2f per yield)" w yields
      (w /. float_of_int yields)

type _ Effect.t += Ask : int -> int Effect.t

(* Effects other than [Yield] reach the handler around [Mt.run], and the
   thread resumes where it performed them. *)
let test_other_effects_forwarded () =
  let m = ms () in
  let got = Array.make 3 0 in
  let worker i () =
    for r = 1 to 4 do
      got.(i) <- got.(i) + Effect.perform (Ask (i + r));
      Memsys.charge_alu m (1 + i);
      Mt.yield ()
    done
  in
  Effect.Deep.try_with
    (fun () -> Mt.run m (Array.init 3 worker))
    ()
    {
      effc =
        (fun (type a) (eff : a Effect.t) ->
           match eff with
           | Ask x ->
             Some (fun (k : (a, unit) Effect.Deep.continuation) ->
                 Effect.Deep.continue k (10 * x))
           | _ -> None);
    };
  Alcotest.(check (array int)) "each thread saw its answers" [| 100; 140; 180 |] got;
  Alcotest.(check bool) "scheduler deactivated" false (Sb_machine.Eff.scheduler_active ())

let suite =
  [
    Alcotest.test_case "all threads run" `Quick test_all_threads_run;
    Alcotest.test_case "elapsed is max over threads" `Quick test_elapsed_is_max;
    Alcotest.test_case "min-clock scheduling interleaves" `Quick test_min_clock_scheduling_interleaves;
    Alcotest.test_case "schedule is deterministic" `Quick test_deterministic;
    Alcotest.test_case "memory accesses yield automatically" `Quick test_memory_accesses_yield_automatically;
    Alcotest.test_case "parallel_for covers range once" `Quick test_parallel_for_covers_range;
    Alcotest.test_case "parallel ALU work scales" `Quick test_parallel_speedup;
    Alcotest.test_case "exceptions propagate and reset scheduler" `Quick test_exception_propagates_and_resets;
    Alcotest.test_case "nested regions rejected" `Quick test_nested_run_rejected;
    Alcotest.test_case "yield outside region is a no-op" `Quick test_yield_outside_region_is_noop;
    Alcotest.test_case "a yield allocates <= 4 words" `Quick test_yield_allocation;
    Alcotest.test_case "other effects reach the outer handler" `Quick
      test_other_effects_forwarded;
  ]

(* --- service-layer hardening: fairness, channel ops, exhaustion --- *)

let test_fair_rounds () =
  (* with equal per-turn cost, the min-clock scheduler gives every
     runnable thread exactly one turn per round — no thread can lag a
     full round behind *)
  let m = ms () in
  let n = 5 and rounds = 6 in
  let order = ref [] in
  let worker i () =
    for _ = 1 to rounds do
      order := i :: !order;
      Memsys.charge_alu m 100;
      Mt.yield ()
    done
  in
  Mt.run m (Array.init n (fun i -> worker i));
  let seq = Array.of_list (List.rev !order) in
  Alcotest.(check int) "every turn recorded" (n * rounds) (Array.length seq);
  for r = 0 to rounds - 1 do
    let round = Array.sub seq (r * n) n in
    Array.sort compare round;
    Alcotest.(check (array int))
      (Printf.sprintf "round %d runs each thread once" r)
      (Array.init n Fun.id) round
  done

let test_yield_during_channel_ops () =
  (* explicit yields between composing and sending a message must not
     let another thread corrupt this thread's channel or buffer *)
  let m, s = fresh native in
  let w = Sb_scone.Scone.create s in
  let n = 3 in
  let fds =
    Array.init n (fun _ -> Sb_scone.Scone.open_channel w ~shield:Sb_scone.Scone.No_shield)
  in
  let bufs = Array.init n (fun _ -> s.Scheme.malloc 64) in
  let payload i r = Printf.sprintf "t%d.%d;" i r in
  let worker i () =
    for r = 1 to 4 do
      let p = payload i r in
      Sb_vmem.Vmem.write_string (Memsys.vmem m) ~addr:(s.Scheme.addr_of bufs.(i)) p;
      Mt.yield ();
      ignore (Sb_scone.Scone.write w fds.(i) ~buf:bufs.(i) ~len:(String.length p));
      Mt.yield ()
    done
  in
  Mt.run m (Array.init n (fun i -> worker i));
  for i = 0 to n - 1 do
    let expect = String.concat "" (List.map (payload i) [ 1; 2; 3; 4 ]) in
    Alcotest.(check string)
      (Printf.sprintf "channel %d ordered and uncorrupted" i)
      expect
      (Sb_scone.Scone.sent w fds.(i))
  done

let test_thread_exhaustion () =
  let m = ms () in
  let max_t = (Memsys.cfg m).Config.max_threads in
  let hits = Array.make max_t false in
  Mt.run m (Array.init max_t (fun i () -> hits.(i) <- true));
  Alcotest.(check bool) "the full hardware complement runs" true
    (Array.for_all Fun.id hits);
  (match Mt.run m (Array.init (max_t + 1) (fun _ () -> ())) with
   | () -> Alcotest.fail "oversubscription accepted"
   | exception Invalid_argument _ -> ());
  (* a rejected region must not leave the scheduler wedged *)
  Alcotest.(check bool) "scheduler still inactive" false
    (Sb_machine.Eff.scheduler_active ());
  Mt.run m [||];
  Mt.run m [| (fun () -> ()) |]

let prop_elapsed_is_max_cost =
  QCheck.Test.make ~name:"mt: region elapsed time is the slowest thread's cost"
    ~count:40
    QCheck.(list_of_size Gen.(int_range 1 8) (int_bound 2000))
    (fun costs ->
       let m = ms () in
       let fns = List.map (fun c () -> Memsys.charge_alu m c) costs in
       Mt.run m (Array.of_list fns);
       Memsys.get_clock m 0 = List.fold_left max 0 costs)

let service_suite =
  [
    Alcotest.test_case "fairness: each round runs every thread" `Quick test_fair_rounds;
    Alcotest.test_case "yield during channel ops is safe" `Quick
      test_yield_during_channel_ops;
    Alcotest.test_case "thread exhaustion: cap enforced, recoverable" `Quick
      test_thread_exhaustion;
    qtest prop_elapsed_is_max_cost;
  ]

let suite = suite @ service_suite
