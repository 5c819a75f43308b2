open Helpers
module Vmem = Sb_vmem.Vmem

let create () = Vmem.create (cfg ())

let test_map_returns_aligned () =
  let vm = create () in
  let a = Vmem.map vm ~len:100 ~perm:Vmem.Read_write () in
  Alcotest.(check int) "page aligned" 0 (a mod Vmem.page_size)

let test_rw_widths () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  List.iter
    (fun (w, v) ->
       Vmem.store vm ~addr:(a + 8) ~width:w v;
       Alcotest.(check int) (Printf.sprintf "width %d" w) v (Vmem.load vm ~addr:(a + 8) ~width:w))
    [ (1, 0xAB); (2, 0xBEEF); (4, 0xDEADBEEF); (8, 0x1234_5678_9ABC) ]

let test_little_endian () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Vmem.store vm ~addr:a ~width:4 0x11223344;
  Alcotest.(check int) "low byte first" 0x44 (Vmem.load vm ~addr:a ~width:1);
  Alcotest.(check int) "high byte last" 0x11 (Vmem.load vm ~addr:(a + 3) ~width:1)

let test_page_crossing () =
  let vm = create () in
  let a = Vmem.map vm ~len:(2 * 4096) ~perm:Vmem.Read_write () in
  let addr = a + 4096 - 3 in
  Vmem.store vm ~addr ~width:8 0x0102030405060708;
  Alcotest.(check int) "cross-page roundtrip" 0x0102030405060708
    (Vmem.load vm ~addr ~width:8)

let test_unmapped_faults () =
  let vm = create () in
  Alcotest.check_raises "unmapped load"
    (Vmem.Fault { addr = 0x100; kind = Vmem.Unmapped })
    (fun () -> ignore (Vmem.load vm ~addr:0x100 ~width:1))

let test_guard_faults () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Guard () in
  Alcotest.check_raises "guard hit"
    (Vmem.Fault { addr = a; kind = Vmem.Guard_hit })
    (fun () -> ignore (Vmem.load vm ~addr:a ~width:1))

let test_readonly_faults_writes () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_only () in
  ignore (Vmem.load vm ~addr:a ~width:1);
  Alcotest.check_raises "ro write"
    (Vmem.Fault { addr = a; kind = Vmem.Write_to_ro })
    (fun () -> Vmem.store vm ~addr:a ~width:1 1)

let test_protect_changes_perm () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Vmem.protect vm ~addr:a ~len:4096 ~perm:Vmem.Guard;
  (match Vmem.load vm ~addr:a ~width:1 with
   | _ -> Alcotest.fail "expected fault"
   | exception Vmem.Fault _ -> ());
  Vmem.protect vm ~addr:a ~len:4096 ~perm:Vmem.Read_write;
  ignore (Vmem.load vm ~addr:a ~width:1)

let test_unmap () =
  let vm = create () in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  let before = Vmem.reserved_bytes vm in
  Vmem.unmap vm ~addr:a ~len:8192;
  Alcotest.(check int) "reserved decreases" (before - 8192) (Vmem.reserved_bytes vm);
  Alcotest.(check bool) "no longer mapped" false (Vmem.is_mapped vm a)

let test_peak_tracking () =
  let vm = create () in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  Vmem.unmap vm ~addr:a ~len:8192;
  ignore (Vmem.map vm ~len:4096 ~perm:Vmem.Read_write ());
  Alcotest.(check int) "peak is high-water mark" 8192 (Vmem.peak_reserved_bytes vm)

let test_oom_limit () =
  let vm = create () in
  let limit = (cfg ()).Sb_machine.Config.enclave_mem_limit in
  (match Vmem.map vm ~len:(limit + 4096) ~perm:Vmem.Read_write () with
   | _ -> Alcotest.fail "expected Enclave_oom"
   | exception Vmem.Enclave_oom _ -> ())

let test_fixed_map_overlap_rejected () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  (match Vmem.map vm ~addr:a ~len:4096 ~perm:Vmem.Read_write () with
   | _ -> Alcotest.fail "expected overlap rejection"
   | exception Invalid_argument _ -> ())

let test_blit_and_strings () =
  let vm = create () in
  let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
  Vmem.write_string vm ~addr:a "hello, enclave";
  Vmem.blit vm ~src:a ~dst:(a + 4096 - 4) ~len:14;
  Alcotest.(check string) "blit across pages" "hello, enclave"
    (Vmem.read_string vm ~addr:(a + 4096 - 4) ~len:14)

let test_blit_overlap () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Vmem.write_string vm ~addr:a "abcdef";
  Vmem.blit vm ~src:a ~dst:(a + 2) ~len:6;
  Alcotest.(check string) "memmove semantics" "ababcdef"
    (Vmem.read_string vm ~addr:a ~len:8)

let test_fill () =
  let vm = create () in
  let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
  Vmem.fill vm ~addr:(a + 10) ~len:20 ~byte:0x7F;
  Alcotest.(check int) "filled" 0x7F (Vmem.load vm ~addr:(a + 29) ~width:1);
  Alcotest.(check int) "boundary untouched" 0 (Vmem.load vm ~addr:(a + 30) ~width:1)

let prop_roundtrip =
  QCheck.Test.make ~name:"vmem store/load roundtrip" ~count:200
    QCheck.(pair (int_bound 4000) (int_bound 0xFFFF))
    (fun (off, v) ->
       let vm = create () in
       let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
       Vmem.store vm ~addr:(a + off) ~width:2 v;
       Vmem.load vm ~addr:(a + off) ~width:2 = v)

let prop_disjoint_writes =
  QCheck.Test.make ~name:"disjoint writes do not interfere" ~count:100
    QCheck.(pair (int_bound 1000) (int_bound 1000))
    (fun (o1, o2) ->
       QCheck.assume (abs (o1 - o2) >= 4);
       let vm = create () in
       let a = Vmem.map vm ~len:8192 ~perm:Vmem.Read_write () in
       Vmem.store vm ~addr:(a + o1) ~width:4 0xAAAAAAAA;
       Vmem.store vm ~addr:(a + o2) ~width:4 0x55555555;
       Vmem.load vm ~addr:(a + o1) ~width:4 = 0xAAAAAAAA)

let suite =
  [
    Alcotest.test_case "map returns page-aligned address" `Quick test_map_returns_aligned;
    Alcotest.test_case "store/load all widths" `Quick test_rw_widths;
    Alcotest.test_case "little-endian layout" `Quick test_little_endian;
    Alcotest.test_case "page-crossing access" `Quick test_page_crossing;
    Alcotest.test_case "unmapped access faults" `Quick test_unmapped_faults;
    Alcotest.test_case "guard page faults" `Quick test_guard_faults;
    Alcotest.test_case "read-only write faults" `Quick test_readonly_faults_writes;
    Alcotest.test_case "protect changes permissions" `Quick test_protect_changes_perm;
    Alcotest.test_case "unmap releases reservation" `Quick test_unmap;
    Alcotest.test_case "peak reserved is a high-water mark" `Quick test_peak_tracking;
    Alcotest.test_case "enclave memory limit enforced" `Quick test_oom_limit;
    Alcotest.test_case "fixed-address overlap rejected" `Quick test_fixed_map_overlap_rejected;
    Alcotest.test_case "blit and string io" `Quick test_blit_and_strings;
    Alcotest.test_case "overlapping blit is memmove" `Quick test_blit_overlap;
    Alcotest.test_case "fill stays in range" `Quick test_fill;
    qtest prop_roundtrip;
    qtest prop_disjoint_writes;
  ]

(* --- additional edge cases --- *)

let test_map_at_top_of_address_space () =
  let vm = create () in
  let top = (1 lsl Vmem.addr_bits) - Vmem.page_size in
  let a = Vmem.map vm ~addr:top ~len:Vmem.page_size ~perm:Vmem.Read_write () in
  Vmem.store vm ~addr:(a + Vmem.page_size - 8) ~width:8 77;
  Alcotest.(check int) "top page usable" 77
    (Vmem.load vm ~addr:(a + Vmem.page_size - 8) ~width:8)

let test_protect_unmapped_faults () =
  let vm = create () in
  match Vmem.protect vm ~addr:0x200000 ~len:4096 ~perm:Vmem.Guard with
  | () -> Alcotest.fail "expected fault"
  | exception Vmem.Fault _ -> ()

let test_negative_address_faults () =
  let vm = create () in
  match Vmem.load vm ~addr:(-8) ~width:4 with
  | _ -> Alcotest.fail "expected fault"
  | exception Vmem.Fault _ -> ()

let test_headroom_accounting () =
  let vm = create () in
  let before = Vmem.headroom vm in
  ignore (Vmem.map vm ~len:8192 ~perm:Vmem.Read_write ());
  Alcotest.(check int) "headroom shrinks by the mapping" (before - 8192) (Vmem.headroom vm)

let prop_string_roundtrip =
  QCheck.Test.make ~name:"write_string/read_string roundtrip" ~count:100
    QCheck.(string_of_size Gen.(int_range 0 200))
    (fun s ->
       let vm = create () in
       let a = Vmem.map vm ~len:4096 ~perm:Vmem.Read_write () in
       Vmem.write_string vm ~addr:a s;
       Vmem.read_string vm ~addr:a ~len:(String.length s) = s)

let extra_suite =
  [
    Alcotest.test_case "map at top of address space" `Quick test_map_at_top_of_address_space;
    Alcotest.test_case "protect on unmapped faults" `Quick test_protect_unmapped_faults;
    Alcotest.test_case "negative address faults" `Quick test_negative_address_faults;
    Alcotest.test_case "headroom accounting" `Quick test_headroom_accounting;
    qtest prop_string_roundtrip;
  ]

(* PR 2 regressions: allocator scan accounting and the unmap contract. *)

let page = Vmem.page_size
let num_pages = (Vmem.addr_mask + 1) / page

let test_find_gap_behind_long_run () =
  (* Regression: the next-fit scan used to advance its give-up counter by
     [npages] per candidate start, so walking a long mapped run burned
     the whole budget and raised Enclave_oom while a real gap sat right
     behind the run. A 4000-page blocker followed by a 256-page request
     must find the gap just after the blocker. *)
  let vm = create () in
  let blocker = Vmem.map vm ~addr:(16 * page) ~len:(4000 * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "blocker at requested addr" (16 * page) blocker;
  let a = Vmem.map vm ~len:(256 * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "gap found right behind the run" ((16 + 4000) * page) a

let test_find_gap_wraps_past_top () =
  (* Push the next-fit cursor to the very top of the address space, then
     allocate: the scan must wrap, skip a blocker at the bottom, and
     land just behind it — terminating rather than spinning or raising. *)
  let vm = Vmem.create (cfg ~scale:1 ()) in
  let chunk = 4096 in
  (* One short of a full sweep: cursor ends at page 16 + 127*4096 with
     fewer than [chunk] pages of headroom left above it. *)
  for _ = 1 to (num_pages / chunk) - 1 do
    let a = Vmem.map vm ~len:(chunk * page) ~perm:Vmem.Read_write () in
    Vmem.unmap vm ~addr:a ~len:(chunk * page)
  done;
  ignore (Vmem.map vm ~addr:(16 * page) ~len:(64 * page) ~perm:Vmem.Read_write ());
  (* [chunk] pages no longer fit above the cursor, so the scan must wrap
     to the bottom and land right behind the blocker. *)
  let a = Vmem.map vm ~len:(chunk * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "wrapped and skipped the blocker" (80 * page) a

let test_unmap_holes_accounting () =
  (* The documented contract: unmap is idempotent and hole-tolerant, and
     reserved_bytes moves only for pages that were actually mapped. *)
  let vm = create () in
  let base = Vmem.reserved_bytes vm in
  let a = Vmem.map vm ~len:(8 * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "8 pages reserved" (base + (8 * page)) (Vmem.reserved_bytes vm);
  Vmem.unmap vm ~addr:(a + (3 * page)) ~len:(2 * page);
  Alcotest.(check int) "hole releases exactly 2 pages" (base + (6 * page))
    (Vmem.reserved_bytes vm);
  (* Unmapping the whole range again releases only the 6 still mapped. *)
  Vmem.unmap vm ~addr:a ~len:(8 * page);
  Alcotest.(check int) "re-unmap over holes never double-frees" base
    (Vmem.reserved_bytes vm);
  Vmem.unmap vm ~addr:a ~len:(8 * page);
  Alcotest.(check int) "unmap is idempotent" base (Vmem.reserved_bytes vm);
  (* Remapping into the freed hole re-reserves exactly what was released. *)
  let b = Vmem.map vm ~addr:(a + (3 * page)) ~len:(2 * page) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "remap lands in the hole" (a + (3 * page)) b;
  Alcotest.(check int) "remap re-reserves exactly 2 pages" (base + (2 * page))
    (Vmem.reserved_bytes vm)

let pr2_suite =
  [
    Alcotest.test_case "find_gap: gap behind a long mapped run" `Quick
      test_find_gap_behind_long_run;
    Alcotest.test_case "find_gap: wraps past the top and terminates" `Quick
      test_find_gap_wraps_past_top;
    Alcotest.test_case "unmap: holes, idempotence, reserved accounting" `Quick
      test_unmap_holes_accounting;
  ]

(* Sparse page table: the slow path indexes the directory and leaf
   without bounds checks, so pin that every address it can be handed
   faults, and that range operations never read outside the tables. *)
let expect_fault kind f =
  match f () with
  | _ -> Alcotest.fail "expected fault"
  | exception Vmem.Fault { kind = k; _ } -> Alcotest.(check bool) "fault kind" true (k = kind)

let raises f = match f () with () -> false | exception _ -> true

let test_sparse_faults () =
  let vm = create () in
  let top = Vmem.addr_mask - page + 1 in
  Alcotest.(check bool) "fresh space: addr_mask unmapped" false (Vmem.is_mapped vm Vmem.addr_mask);
  ignore (Vmem.map vm ~len:page ~perm:Vmem.Read_write ());
  (* far from the only mapping, in a directory slot on the empty leaf *)
  let far = top - (64 * 1024 * page) in
  expect_fault Vmem.Unmapped (fun () -> Vmem.load vm ~addr:far ~width:4);
  expect_fault Vmem.Unmapped (fun () -> Vmem.store vm ~addr:far ~width:4 1);
  ignore (Vmem.map vm ~addr:top ~len:page ~perm:Vmem.Read_write ());
  Alcotest.(check bool) "protect past the top raises" true
    (raises (fun () -> Vmem.protect vm ~addr:top ~len:(2 * page) ~perm:Vmem.Read_only));
  Alcotest.(check bool) "unmap past the top raises" true
    (raises (fun () -> Vmem.unmap vm ~addr:top ~len:(2 * page)));
  let ms = ms () in
  ignore (Sgxbounds.make ms);
  expect_fault Vmem.Guard_hit (fun () -> Vmem.load (Memsys.vmem ms) ~addr:top ~width:1);
  expect_fault Vmem.Guard_hit (fun () ->
    Vmem.store (Memsys.vmem ms) ~addr:Vmem.addr_mask ~width:1 1)

(* Demand-zero pages: a mapped page reads zeros from one shared buffer
   until its first write. Every engine must agree, and nothing may ever
   write the shared buffer (a fresh page would then read non-zero). *)
let on_engines f =
  List.iter
    (fun k -> Sb_machine.Fastpath.(with_kind k (fun () -> f (kind_name k))))
    Sb_machine.Fastpath.[ Naive; Fast ]

let zeros n = String.make n '\000'

let test_demand_zero () =
  on_engines (fun e ->
    let vm = create () in
    let a = Vmem.map vm ~len:(3 * page) ~perm:Vmem.Read_write () in
    Alcotest.(check int) (e ^ " load") 0 (Vmem.load vm ~addr:(a + page + 8) ~width:8);
    Alcotest.(check string) (e ^ " read_string") (zeros 300)
      (Vmem.read_string vm ~addr:(a + page - 150) ~len:300);
    Vmem.fill vm ~addr:(a + (2 * page)) ~len:page ~byte:0xAA;
    Vmem.blit vm ~src:(a + page) ~dst:(a + (2 * page)) ~len:100;
    Alcotest.(check string) (e ^ " blit copies zeros") (zeros 100)
      (Vmem.read_string vm ~addr:(a + (2 * page)) ~len:100);
    (* a never-written page made read-only *)
    Vmem.protect vm ~addr:a ~len:page ~perm:Vmem.Read_only;
    Alcotest.(check int) (e ^ " read-only reads 0") 0 (Vmem.load vm ~addr:(a + 64) ~width:4);
    expect_fault Vmem.Write_to_ro (fun () -> Vmem.store vm ~addr:(a + 64) ~width:4 7);
    (* pages written earlier read zeros again after unmap and map *)
    Vmem.unmap vm ~addr:a ~len:(3 * page);
    ignore (Vmem.map vm ~addr:a ~len:(3 * page) ~perm:Vmem.Read_write ());
    Alcotest.(check string) (e ^ " remapped") (zeros (3 * page))
      (Vmem.read_string vm ~addr:a ~len:(3 * page)));
  (* after all of that, the shared zero buffer is still all zeros *)
  let vm = create () in
  let a = Vmem.map vm ~len:page ~perm:Vmem.Read_only () in
  Alcotest.(check string) "fresh page" (zeros page) (Vmem.read_string vm ~addr:a ~len:page)

(* [blit] against a byte-array model: forward and overlapping copies in
   both directions, inside one page and across several. Once its staging
   buffer has grown, a copy allocates nothing. *)
let test_blit_model () =
  on_engines (fun e ->
    let vm = create () in
    let len = 4 * page in
    let a = Vmem.map vm ~len ~perm:Vmem.Read_write () in
    let model = Bytes.init len (fun i -> Char.chr ((i * 7 + i / 251) land 0xff)) in
    Vmem.write_string vm ~addr:a (Bytes.to_string model);
    let copies =
      [
        ("forward", 100, 2000, 300);
        ("overlap, dst above src", 50, 60, 200);
        ("overlap, dst below src", 900, 880, 150);
        ("page-crossing", page - 40, (2 * page) + 17, page + 500);
        ("page-crossing overlap up", page - 3000, page - 1000, 5000);
        ("page-crossing overlap down", (2 * page) + 10, page + 5, 6000);
      ]
    in
    let run (name, src, dst, n) =
      Bytes.blit model src model dst n;
      let w = minor_words (fun () -> Vmem.blit vm ~src:(a + src) ~dst:(a + dst) ~len:n) in
      Alcotest.(check string) (e ^ " " ^ name) (Bytes.to_string model)
        (Vmem.read_string vm ~addr:a ~len);
      w
    in
    List.iter (fun c -> ignore (run c)) copies;
    List.iter
      (fun ((name, _, _, _) as c) ->
         let w = run c in
         if w > 0. then Alcotest.failf "%s %s: a warm blit allocated %.0f minor words" e name w)
      copies)

(* The whole source is read before the destination is written: a source
   running into an unmapped page faults there and leaves [dst] as it was. *)
let test_blit_source_fault () =
  on_engines (fun e ->
    let vm = create () in
    let a = Vmem.map vm ~len:(2 * page) ~perm:Vmem.Read_write () in
    Vmem.unmap vm ~addr:(a + page) ~len:page;
    let d = Vmem.map vm ~len:page ~perm:Vmem.Read_write () in
    Vmem.fill vm ~addr:d ~len:page ~byte:0x5A;
    (match Vmem.blit vm ~src:(a + page - 10) ~dst:d ~len:20 with
     | () -> Alcotest.failf "%s: expected a fault" e
     | exception Vmem.Fault { addr; kind } ->
       Alcotest.(check int) (e ^ " fault address") (a + page) addr;
       Alcotest.(check bool) (e ^ " unmapped") true (kind = Vmem.Unmapped));
    Alcotest.(check string) (e ^ " destination untouched") (String.make page '\x5a')
      (Vmem.read_string vm ~addr:d ~len:page))

(* [write_substring] and [add_to_buffer], the in-place string paths. *)
let test_substring_and_buffer () =
  on_engines (fun e ->
    let vm = create () in
    let a = Vmem.map vm ~len:(2 * page) ~perm:Vmem.Read_write () in
    let s = String.init 300 (fun i -> Char.chr (65 + (i mod 26))) in
    Vmem.write_substring vm ~addr:(a + page - 100) s ~off:50 ~len:200;
    Alcotest.(check string) (e ^ " write_substring") (String.sub s 50 200)
      (Vmem.read_string vm ~addr:(a + page - 100) ~len:200);
    Alcotest.(check bool) (e ^ " substring out of range") true
      (raises (fun () -> Vmem.write_substring vm ~addr:a s ~off:250 ~len:51));
    let buf = Buffer.create 16 in
    Buffer.add_string buf "<";
    Vmem.add_to_buffer vm buf ~addr:(a + page - 100) ~len:200;
    Alcotest.(check string) (e ^ " add_to_buffer") ("<" ^ String.sub s 50 200) (Buffer.contents buf);
    expect_fault Vmem.Unmapped (fun () ->
      Vmem.add_to_buffer vm buf ~addr:(a + (2 * page) - 10) ~len:20);
    Alcotest.(check string) (e ^ " buffer kept on fault") ("<" ^ String.sub s 50 200)
      (Buffer.contents buf))

let suite =
  suite @ extra_suite @ pr2_suite
  @ [
    Alcotest.test_case "sparse table: faults and range bounds" `Quick test_sparse_faults;
    Alcotest.test_case "demand-zero: reads, read-only, remap" `Quick test_demand_zero;
    Alcotest.test_case "blit matches a byte-array model" `Quick test_blit_model;
    Alcotest.test_case "blit source fault leaves dst" `Quick test_blit_source_fault;
    Alcotest.test_case "write_substring and add_to_buffer" `Quick test_substring_and_buffer;
  ]
