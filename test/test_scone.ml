open Helpers
module Scone = Sb_scone.Scone
module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme

let world maker =
  let m, s = fresh maker in
  (m, s, Scone.create s)

let test_write_reaches_the_wire () =
  let _, s, w = world sgxb in
  let fd = Scone.open_channel w ~shield:Scone.No_shield in
  let buf = s.Scheme.malloc 64 in
  Sb_libc.Simlibc.strcpy_in s ~dst:buf "hello outside";
  ignore (Scone.write w fd ~buf ~len:13);
  Alcotest.(check string) "wire bytes" "hello outside" (Scone.sent w fd)

let test_read_delivers_fed_bytes () =
  let _, s, w = world sgxb in
  let fd = Scone.open_channel w ~shield:Scone.No_shield in
  Scone.feed w fd "request!";
  let buf = s.Scheme.malloc 64 in
  let n = Scone.read w fd ~buf ~len:64 in
  Alcotest.(check int) "bytes read" 8 n;
  Alcotest.(check string) "contents" "request!"
    (Sb_vmem.Vmem.read_string (Memsys.vmem s.Scheme.ms) ~addr:(s.Scheme.addr_of buf) ~len:8)

let test_read_consumes_queue () =
  let _, s, w = world native in
  let fd = Scone.open_channel w ~shield:Scone.No_shield in
  Scone.feed w fd "abcdef";
  let buf = s.Scheme.malloc 16 in
  Alcotest.(check int) "first chunk" 4 (Scone.read w fd ~buf ~len:4);
  Alcotest.(check int) "remainder" 2 (Scone.read w fd ~buf ~len:16);
  Alcotest.(check int) "drained" 0 (Scone.read w fd ~buf ~len:16)

let test_wrapper_checks_write_length () =
  let _, s, w = world sgxb in
  let fd = Scone.open_channel w ~shield:Scone.No_shield in
  let buf = s.Scheme.malloc 16 in
  check_detects "oversized write claim" (fun () -> ignore (Scone.write w fd ~buf ~len:64))

let test_wrapper_checks_read_buffer () =
  let _, s, w = world sgxb in
  let fd = Scone.open_channel w ~shield:Scone.No_shield in
  Scone.feed w fd (String.make 64 'x');
  let buf = s.Scheme.malloc 16 in
  check_detects "recv overflow caught at the wrapper" (fun () ->
      ignore (Scone.read w fd ~buf ~len:64))

let test_native_wrapper_misses_recv_overflow () =
  (* the CVE-2013-2028 ingredient: natively, a too-long recv corrupts *)
  let _, s, w = world native in
  let fd = Scone.open_channel w ~shield:Scone.No_shield in
  Scone.feed w fd (String.make 64 'x');
  let buf = s.Scheme.malloc 16 in
  let victim = s.Scheme.malloc 16 in
  s.Scheme.store victim 8 7;
  check_allows "no check natively" (fun () -> ignore (Scone.read w fd ~buf ~len:64));
  Alcotest.(check bool) "neighbour trampled" true (s.Scheme.load victim 8 <> 7)

let test_syscalls_counted () =
  let _, s, w = world native in
  let fd = Scone.open_channel w ~shield:Scone.No_shield in
  let buf = s.Scheme.malloc 16 in
  ignore (Scone.write w fd ~buf ~len:8);
  Scone.feed w fd "zz";
  ignore (Scone.read w fd ~buf ~len:2);
  Alcotest.(check int) "two syscalls" 2 (Scone.syscalls w)

let test_inside_costs_more_than_outside () =
  let cost env =
    let m = Memsys.create (Config.default ~env ()) in
    let s = Sb_protection.Native.make m in
    let w = Scone.create s in
    let fd = Scone.open_channel w ~shield:Scone.No_shield in
    let buf = s.Scheme.malloc 1024 in
    Memsys.reset m;
    for _ = 1 to 50 do
      ignore (Scone.write w fd ~buf ~len:1024)
    done;
    (Memsys.snapshot m).Memsys.cycles
  in
  Alcotest.(check bool) "enclave copies + queue cost more" true
    (cost Config.Inside_enclave > cost Config.Outside_enclave * 3 / 2)

let test_shield_costs_inside_only () =
  let cost env shield =
    let m = Memsys.create (Config.default ~env ()) in
    let s = Sb_protection.Native.make m in
    let w = Scone.create s in
    let fd = Scone.open_channel w ~shield in
    let buf = s.Scheme.malloc 1024 in
    Memsys.reset m;
    for _ = 1 to 20 do
      ignore (Scone.write w fd ~buf ~len:1024)
    done;
    (Memsys.snapshot m).Memsys.cycles
  in
  Alcotest.(check bool) "encryption shield costs inside" true
    (cost Config.Inside_enclave Scone.Encrypted > cost Config.Inside_enclave Scone.No_shield);
  Alcotest.(check int) "no shield cost outside"
    (cost Config.Outside_enclave Scone.No_shield)
    (cost Config.Outside_enclave Scone.Encrypted)

let test_bad_fd_crashes () =
  let _, s, w = world native in
  let buf = s.Scheme.malloc 8 in
  match Scone.write w 42 ~buf ~len:4 with
  | _ -> Alcotest.fail "expected crash"
  | exception Sb_protection.Types.App_crash _ -> ()

let read_back s buf n =
  Sb_vmem.Vmem.read_string (Memsys.vmem s.Scheme.ms) ~addr:(s.Scheme.addr_of buf) ~len:n

let both_envs f =
  List.iter
    (fun env -> f (Memsys.create (Config.default ~env ())))
    Config.[ Inside_enclave; Outside_enclave ]

(* The read cursor: a short read leaves the rest for the next one, and a
   feed onto unread bytes queues behind them. *)
let test_partial_reads_and_feeds () =
  both_envs (fun m ->
    let s = Sgxbounds.make m in
    let w = Scone.create s in
    let fd = Scone.open_channel w ~shield:Scone.No_shield in
    let buf = s.Scheme.malloc 16 in
    Scone.feed w fd "abc";
    Scone.feed w fd "def";
    Alcotest.(check int) "two feeds, one read" 6 (Scone.read w fd ~buf ~len:16);
    Alcotest.(check string) "both feeds in order" "abcdef" (read_back s buf 6);
    Scone.feed w fd "ghijkl";
    Alcotest.(check int) "short read" 4 (Scone.read w fd ~buf ~len:4);
    Alcotest.(check string) "head of the queue" "ghij" (read_back s buf 4);
    Scone.feed w fd "mn";
    Alcotest.(check int) "rest, then the new feed" 4 (Scone.read w fd ~buf ~len:16);
    Alcotest.(check string) "cursor kept" "klmn" (read_back s buf 4);
    Alcotest.(check int) "drained" 0 (Scone.read w fd ~buf ~len:16))

(* A served request in the steady state -- feed, read, write, clear --
   allocates nothing on the host, inside the enclave or outside. *)
let test_request_does_not_allocate () =
  Sb_machine.Fastpath.with_kind Sb_machine.Fastpath.Fast @@ fun () ->
  both_envs (fun m ->
    let s = Sgxbounds.make m in
    let w = Scone.create s in
    let fd = Scone.open_channel w ~shield:Scone.No_shield in
    let buf = s.Scheme.malloc 1024 in
    let request = String.make 32 'r' in
    let serve () =
      Scone.feed w fd request;
      ignore (Scone.read w fd ~buf ~len:32);
      ignore (Scone.write w fd ~buf ~len:96);
      Scone.clear_sent w fd
    in
    serve ();
    let words = minor_words (fun () -> for _ = 1 to 1000 do serve () done) in
    if words > 0. then Alcotest.failf "1000 warm requests allocated %.0f minor words" words)

let suite =
  [
    Alcotest.test_case "write reaches the wire" `Quick test_write_reaches_the_wire;
    Alcotest.test_case "partial reads and queued feeds" `Quick test_partial_reads_and_feeds;
    Alcotest.test_case "a warm request does not allocate" `Quick test_request_does_not_allocate;
    Alcotest.test_case "read delivers fed bytes" `Quick test_read_delivers_fed_bytes;
    Alcotest.test_case "reads consume the queue" `Quick test_read_consumes_queue;
    Alcotest.test_case "wrapper checks write length" `Quick test_wrapper_checks_write_length;
    Alcotest.test_case "wrapper checks read buffer" `Quick test_wrapper_checks_read_buffer;
    Alcotest.test_case "native recv overflow corrupts silently" `Quick
      test_native_wrapper_misses_recv_overflow;
    Alcotest.test_case "syscalls counted" `Quick test_syscalls_counted;
    Alcotest.test_case "enclave syscalls cost more" `Quick test_inside_costs_more_than_outside;
    Alcotest.test_case "shield costs inside only" `Quick test_shield_costs_inside_only;
    Alcotest.test_case "bad fd crashes" `Quick test_bad_fd_crashes;
  ]

let prop_feed_read_roundtrip =
  QCheck.Test.make ~name:"scone: fed bytes arrive intact and in order" ~count:50
    QCheck.(list_of_size Gen.(int_range 1 8) (string_of_size Gen.(int_range 0 64)))
    (fun chunks ->
       let _, s, w = world native in
       let fd = Scone.open_channel w ~shield:Scone.No_shield in
       List.iter (fun c -> Scone.feed w fd c) chunks;
       let total = String.concat "" chunks in
       let buf = s.Scheme.malloc 1024 in
       let n = Scone.read w fd ~buf ~len:1024 in
       n = String.length total
       && Sb_vmem.Vmem.read_string (Memsys.vmem s.Scheme.ms)
            ~addr:(s.Scheme.addr_of buf) ~len:n
          = total)

let prop_write_preserves_bytes =
  QCheck.Test.make ~name:"scone: written bytes reach the wire verbatim" ~count:50
    QCheck.(string_of_size Gen.(int_range 1 128))
    (fun payload ->
       let _, s, w = world native in
       let fd = Scone.open_channel w ~shield:Scone.Encrypted in
       let buf = s.Scheme.malloc 256 in
       Sb_vmem.Vmem.write_string (Memsys.vmem s.Scheme.ms)
         ~addr:(s.Scheme.addr_of buf) payload;
       ignore (Scone.write w fd ~buf ~len:(String.length payload));
       Scone.sent w fd = payload)

let props_suite = [ qtest prop_feed_read_roundtrip; qtest prop_write_preserves_bytes ]

let suite = suite @ props_suite

(* --- service-layer edge cases: zero-length I/O, shields, telemetry --- *)

let test_zero_length_transfers_free () =
  let m, s, w = world sgxb in
  let fd = Scone.open_channel w ~shield:Scone.Encrypted in
  let buf = s.Scheme.malloc 16 in
  Memsys.reset m;
  Alcotest.(check int) "zero-length write returns 0" 0 (Scone.write w fd ~buf ~len:0);
  Alcotest.(check int) "read from an empty channel returns 0" 0
    (Scone.read w fd ~buf ~len:16);
  Alcotest.(check int) "no syscalls counted" 0 (Scone.syscalls w);
  Alcotest.(check int) "no cycles charged" 0 (Memsys.snapshot m).Memsys.cycles

let test_shield_preserves_payload () =
  (* the shield changes cost, never content: both directions deliver
     byte-identical payloads with and without encryption *)
  let m, s, w = world native in
  let plain = Scone.open_channel w ~shield:Scone.No_shield in
  let enc = Scone.open_channel w ~shield:Scone.Encrypted in
  let payload = "shielded bytes arrive verbatim" in
  let buf = s.Scheme.malloc 64 in
  Sb_vmem.Vmem.write_string (Memsys.vmem m) ~addr:(s.Scheme.addr_of buf) payload;
  ignore (Scone.write w plain ~buf ~len:(String.length payload));
  ignore (Scone.write w enc ~buf ~len:(String.length payload));
  Alcotest.(check string) "wire bytes identical" (Scone.sent w plain) (Scone.sent w enc);
  Scone.feed w plain "abc";
  Scone.feed w enc "abc";
  let b2 = s.Scheme.malloc 8 in
  let delivered fd =
    ignore (Scone.read w fd ~buf:b2 ~len:3);
    Sb_vmem.Vmem.read_string (Memsys.vmem m) ~addr:(s.Scheme.addr_of b2) ~len:3
  in
  Alcotest.(check string) "delivered bytes identical" (delivered plain) (delivered enc)

let test_interleaved_channels_across_threads () =
  (* worker threads writing concurrently (auto-yields fire inside the
     copy loops) must keep per-channel streams intact and ordered *)
  let m, s, w = world native in
  let n = 4 and reps = 5 and len = 128 in
  let fds = Array.init n (fun _ -> Scone.open_channel w ~shield:Scone.No_shield) in
  let bufs =
    Array.init n (fun i ->
        let b = s.Scheme.malloc len in
        Sb_vmem.Vmem.write_string (Memsys.vmem m) ~addr:(s.Scheme.addr_of b)
          (String.make len (Char.chr (Char.code 'a' + i)));
        b)
  in
  Sb_mt.Mt.run m
    (Array.init n (fun i () ->
         for _ = 1 to reps do
           ignore (Scone.write w fds.(i) ~buf:bufs.(i) ~len)
         done));
  Array.iteri
    (fun i fd ->
       Alcotest.(check string)
         (Printf.sprintf "channel %d stream intact" i)
         (String.make (reps * len) (Char.chr (Char.code 'a' + i)))
         (Scone.sent w fd))
    fds

let test_shield_telemetry_regression () =
  (* regression pin: one Encrypted 100-byte write inside the enclave
     charges exactly shield_per_byte (4) cycles per byte to telemetry *)
  let tel = Sb_telemetry.Telemetry.create () in
  let m = Memsys.create ~tel (Config.default ~env:Config.Inside_enclave ()) in
  let s = Sb_protection.Native.make m in
  let w = Scone.create s in
  let fd = Scone.open_channel w ~shield:Scone.Encrypted in
  let buf = s.Scheme.malloc 128 in
  let counter t name =
    match List.assoc_opt name (Sb_telemetry.Telemetry.counters t) with
    | Some v -> v
    | None -> 0
  in
  ignore (Scone.write w fd ~buf ~len:100);
  Alcotest.(check int) "one syscall counted" 1 (counter tel "scone.syscalls");
  Alcotest.(check int) "shielded bytes" 100 (counter tel "scone.shield_bytes");
  Alcotest.(check int) "shield cycles = 4 per byte" 400
    (counter tel "scone.shield_cycles");
  (* outside the enclave the shield is a no-op and never counted *)
  let tel2 = Sb_telemetry.Telemetry.create () in
  let m2 = Memsys.create ~tel:tel2 (Config.default ~env:Config.Outside_enclave ()) in
  let s2 = Sb_protection.Native.make m2 in
  let w2 = Scone.create s2 in
  let fd2 = Scone.open_channel w2 ~shield:Scone.Encrypted in
  let buf2 = s2.Scheme.malloc 128 in
  ignore (Scone.write w2 fd2 ~buf:buf2 ~len:100);
  Alcotest.(check int) "outside: syscall still counted" 1 (counter tel2 "scone.syscalls");
  Alcotest.(check int) "outside: no shield cycles" 0 (counter tel2 "scone.shield_cycles");
  Alcotest.(check int) "outside: no shield bytes" 0 (counter tel2 "scone.shield_bytes")

let edge_suite =
  [
    Alcotest.test_case "zero-length transfers are free" `Quick
      test_zero_length_transfers_free;
    Alcotest.test_case "shield preserves payloads both ways" `Quick
      test_shield_preserves_payload;
    Alcotest.test_case "interleaved channels from worker threads" `Quick
      test_interleaved_channels_across_threads;
    Alcotest.test_case "per-call shield cost pinned in telemetry" `Quick
      test_shield_telemetry_regression;
  ]

let suite = suite @ edge_suite
