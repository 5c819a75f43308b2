open Helpers
module Rng = Sb_machine.Rng
module Util = Sb_machine.Util
module Config = Sb_machine.Config

let test_rng_deterministic () =
  let a = Rng.create 99 and b = Rng.create 99 in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 50 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 5)

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 17)
  done

let test_rng_range () =
  let r = Rng.create 7 in
  for _ = 1 to 200 do
    let v = Rng.range r 5 9 in
    Alcotest.(check bool) "in [5,9]" true (v >= 5 && v <= 9)
  done

(* The splitmix64 stream is part of every pinned result: the first draws
   of two seeds, as [bits] and as [float], are fixed here. *)
let test_rng_golden () =
  List.iter
    (fun (seed, bits, floats) ->
       let r = Rng.create seed in
       Alcotest.(check (list int)) (Printf.sprintf "seed %d bits" seed) bits
         (List.map (fun _ -> Rng.bits r) bits);
       let r = Rng.create seed in
       Alcotest.(check (list string)) (Printf.sprintf "seed %d floats" seed) floats
         (List.map (fun _ -> Printf.sprintf "%h" (Rng.float r)) floats);
       let r = Rng.create seed in
       Alcotest.(check (list int)) (Printf.sprintf "seed %d int 1000" seed)
         (List.map (fun b -> b mod 1000) bits)
         (List.map (fun _ -> Rng.int r 1000) bits))
    [
      ( 1,
        [ 1227844342346046657; 4533873174211652711; 4076781235000726878; 3585294735394392331 ],
        [ "0x1.45bd91204b982p-2"; "0x1.71b42cb1dd8cep-2"; "0x1.3a2eefb32555ep-1" ] );
      ( 42,
        [ 4456085495900499605; 2949826092126892291; 527597730035375954; 1737512041830867860 ],
        [ "0x1.732262feb6e95p-1"; "0x1.fc66764cde206p-2"; "0x1.26757130f9f52p-1" ] );
    ]

(* A draw that returns an int allocates nothing: the state is unboxed. *)
let test_rng_draws_do_not_allocate () =
  let r = Rng.create 3 in
  let sink = ref 0 in
  let draws name f =
    f ();
    let w = minor_words (fun () -> for _ = 1 to 100_000 do f () done) in
    if w > 0. then Alcotest.failf "100000 %s draws allocated %.0f minor words" name w
  in
  draws "int" (fun () -> sink := !sink + Rng.int r 1000);
  draws "bits" (fun () -> sink := !sink lxor Rng.bits r);
  draws "bernoulli" (fun () -> if Rng.bernoulli r 0.3 then incr sink);
  Alcotest.(check bool) "draws were used" true (!sink <> 0)

let test_rng_skew () =
  let r = Rng.create 7 in
  let low = ref 0 in
  let n = 10_000 in
  for _ = 1 to n do
    if Rng.skewed r 1000 < 200 then incr low
  done;
  (* one 80/20 level: ~80% of draws land in the first fifth *)
  Alcotest.(check bool) "skewed toward the head" true (!low > n * 6 / 10)

let test_align () =
  Alcotest.(check int) "up" 64 (Util.align_up 33 32);
  Alcotest.(check int) "up exact" 32 (Util.align_up 32 32);
  Alcotest.(check int) "down" 32 (Util.align_down 63 32)

let test_pow2 () =
  Alcotest.(check int) "next_pow2 17" 32 (Util.next_pow2 17);
  Alcotest.(check int) "next_pow2 32" 32 (Util.next_pow2 32);
  Alcotest.(check int) "next_pow2 1" 1 (Util.next_pow2 1);
  Alcotest.(check bool) "is_pow2" true (Util.is_pow2 64);
  Alcotest.(check bool) "not pow2" false (Util.is_pow2 48);
  Alcotest.(check int) "log2_floor 1024" 10 (Util.log2_floor 1024);
  Alcotest.(check int) "log2_floor 1023" 9 (Util.log2_floor 1023)

let test_ceil_div_clamp () =
  Alcotest.(check int) "ceil_div" 3 (Util.ceil_div 9 4);
  Alcotest.(check int) "ceil_div exact" 2 (Util.ceil_div 8 4);
  Alcotest.(check int) "clamp low" 2 (Util.clamp 1 2 5);
  Alcotest.(check int) "clamp high" 5 (Util.clamp 9 2 5);
  Alcotest.(check int) "clamp in" 3 (Util.clamp 3 2 5)

let test_geomean () =
  Alcotest.(check (float 1e-9)) "gmean of [2;8]" 4.0 (Util.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "gmean empty" 1.0 (Util.geomean [])

let test_config_scaled () =
  let c = Config.default ~scale:64 () in
  Alcotest.(check int) "scaled" (1024 * 1024) (Config.scaled c (64 * 1024 * 1024));
  Alcotest.(check int) "never zero" 1 (Config.scaled c 3)

let test_config_defaults_consistent () =
  let c = Config.default () in
  Alcotest.(check bool) "epc below enclave limit" true
    (c.Config.epc_bytes < c.Config.enclave_mem_limit);
  Alcotest.(check bool) "l1 < l2 < llc" true
    (c.Config.l1.Config.size < c.Config.l2.Config.size
     && c.Config.l2.Config.size < c.Config.llc.Config.size)

let prop_align_up_is_aligned =
  QCheck.Test.make ~name:"align_up result aligned and >= input" ~count:200
    QCheck.(pair (int_bound 100000) (int_range 0 10))
    (fun (n, sh) ->
       let a = 1 lsl sh in
       let r = Util.align_up n a in
       r mod a = 0 && r >= n && r - n < a)

let prop_next_pow2 =
  QCheck.Test.make ~name:"next_pow2 is smallest covering power" ~count:200
    QCheck.(int_range 1 (1 lsl 20))
    (fun n ->
       let p = Util.next_pow2 n in
       Util.is_pow2 p && p >= n && (p = 1 || p / 2 < n))

let suite =
  [
    Alcotest.test_case "rng is deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng seeds differ" `Quick test_rng_seeds_differ;
    Alcotest.test_case "rng int bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng range bounds" `Quick test_rng_range;
    Alcotest.test_case "rng skewed distribution" `Quick test_rng_skew;
    Alcotest.test_case "rng golden first draws" `Quick test_rng_golden;
    Alcotest.test_case "rng draws do not allocate" `Quick test_rng_draws_do_not_allocate;
    Alcotest.test_case "align up/down" `Quick test_align;
    Alcotest.test_case "power-of-two helpers" `Quick test_pow2;
    Alcotest.test_case "ceil_div and clamp" `Quick test_ceil_div_clamp;
    Alcotest.test_case "geometric mean" `Quick test_geomean;
    Alcotest.test_case "config scaling" `Quick test_config_scaled;
    Alcotest.test_case "config defaults consistent" `Quick test_config_defaults_consistent;
    qtest prop_align_up_is_aligned;
    qtest prop_next_pow2;
  ]
