open Helpers
module Freelist = Sb_alloc.Freelist
module Buddy = Sb_alloc.Buddy
module Bump = Sb_alloc.Bump
module Stackmem = Sb_alloc.Stackmem
module Util = Sb_machine.Util

let with_heap f =
  let m = ms () in
  f m (Freelist.create m)

let test_alloc_aligned () =
  with_heap (fun _ h ->
      for size = 1 to 64 do
        let a = Freelist.alloc h size in
        Alcotest.(check int) "16-aligned" 0 (a mod 16)
      done)

let test_chunk_size_rounding () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 17 in
      Alcotest.(check int) "rounded to 32" 32 (Freelist.chunk_size h a);
      let b = Freelist.alloc h 600 in
      Alcotest.(check int) "rounded to 256B granule" 768 (Freelist.chunk_size h b))

let test_free_then_reuse () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 100 in
      Freelist.free h a;
      let b = Freelist.alloc h 100 in
      Alcotest.(check int) "exact-fit reuse" a b)

let test_double_free_rejected () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 100 in
      Freelist.free h a;
      match Freelist.free h a with
      | () -> Alcotest.fail "expected rejection"
      | exception Invalid_argument _ -> ())

let test_live_accounting () =
  with_heap (fun _ h ->
      let a = Freelist.alloc h 64 in
      let _b = Freelist.alloc h 64 in
      Alcotest.(check int) "two live" 2 (Freelist.live_chunks h);
      Alcotest.(check int) "bytes" 128 (Freelist.live_bytes h);
      Freelist.free h a;
      Alcotest.(check int) "one live" 1 (Freelist.live_chunks h))

let test_adjacency_of_fresh_allocs () =
  with_heap (fun _ h ->
      (* Fresh (bump) allocations are adjacent — heap overflows reach the
         next object, which the attack suites rely on. *)
      let a = Freelist.alloc h 32 in
      let b = Freelist.alloc h 32 in
      Alcotest.(check int) "header-separated neighbours" (a + 32 + 16) b)

let test_churn_footprint_bounded () =
  with_heap (fun m h ->
      (* Allocate/free in a loop: footprint must stay ~flat thanks to
         reuse (this is what ASan's quarantine deliberately breaks). *)
      for _ = 1 to 10_000 do
        let a = Freelist.alloc h 48 in
        Freelist.free h a
      done;
      let vm = Sb_sgx.Memsys.vmem m in
      Alcotest.(check bool) "footprint stays small" true
        (Sb_vmem.Vmem.peak_reserved_bytes vm < 256 * 1024))

let prop_no_overlap =
  QCheck.Test.make ~name:"live chunks never overlap" ~count:30
    QCheck.(list_of_size Gen.(int_range 10 60) (int_range 1 300))
    (fun sizes ->
       with_heap (fun _ h ->
           let ranges =
             List.map
               (fun s ->
                  let a = Freelist.alloc h s in
                  (a, a + Freelist.chunk_size h a))
               sizes
           in
           let sorted = List.sort compare ranges in
           let rec ok = function
             | (_, e1) :: ((s2, _) :: _ as rest) -> e1 <= s2 && ok rest
             | _ -> true
           in
           ok sorted))

let prop_freelist_reuse_is_lifo_consistent =
  QCheck.Test.make ~name:"alloc after frees returns a freed or fresh chunk" ~count:30
    QCheck.(int_range 1 200)
    (fun size ->
       with_heap (fun _ h ->
           let a = Freelist.alloc h size in
           let b = Freelist.alloc h size in
           Freelist.free h a;
           Freelist.free h b;
           let c = Freelist.alloc h size in
           c = a || c = b))

(* --- buddy --- *)

let with_buddy f =
  let m = ms () in
  f m (Buddy.create m ~region_bytes:(1 lsl 20))

let test_buddy_pow2_sizes () =
  with_buddy (fun _ b ->
      let a = Buddy.alloc b 100 in
      Alcotest.(check int) "rounded to 128" 128 (Buddy.block_size b a);
      Alcotest.(check int) "aligned to own size" 0 (a mod 128))

let test_buddy_base_of () =
  with_buddy (fun _ b ->
      let a = Buddy.alloc b 100 in
      Alcotest.(check (option int)) "interior derives base" (Some a) (Buddy.base_of b (a + 77));
      Alcotest.(check (option int)) "free space has no base" None (Buddy.base_of b (a + 1000)))

let test_buddy_merge () =
  with_buddy (fun _ b ->
      let a1 = Buddy.alloc b 16 in
      let a2 = Buddy.alloc b 16 in
      Buddy.free b a1;
      Buddy.free b a2;
      (* After merging, a 32-byte block is available at the same base. *)
      let big = Buddy.alloc b 32 in
      Alcotest.(check int) "merged block reused" (min a1 a2) big)

let test_buddy_exhaustion () =
  with_buddy (fun _ b ->
      match
        for _ = 1 to 3000 do
          ignore (Buddy.alloc b 1024)
        done
      with
      | () -> Alcotest.fail "expected exhaustion"
      | exception Sb_vmem.Vmem.Enclave_oom _ -> ())

let prop_buddy_alignment =
  QCheck.Test.make ~name:"buddy blocks size-aligned" ~count:100
    QCheck.(int_range 1 5000)
    (fun size ->
       with_buddy (fun _ b ->
           let a = Buddy.alloc b size in
           let s = Buddy.block_size b a in
           Util.is_pow2 s && s >= size && a mod s = 0))

(* --- bump and stack --- *)

let test_bump_monotonic () =
  let m = ms () in
  let g = Bump.create m () in
  let a = Bump.alloc g 100 in
  let b = Bump.alloc g 100 in
  Alcotest.(check bool) "monotonic" true (b > a);
  Alcotest.(check int) "used" 200 (Bump.used_bytes g)

let test_stack_grows_down () =
  let m = ms () in
  let s = Stackmem.create m ~size:65536 in
  let f = Stackmem.push_frame s in
  let a = Stackmem.alloc s 64 in
  let b = Stackmem.alloc s 64 in
  Alcotest.(check bool) "second local below first" true (b < a);
  Stackmem.pop_frame s f;
  Alcotest.(check int) "sp restored" f (Stackmem.sp s)

let test_stack_overflow () =
  let m = ms () in
  let s = Stackmem.create m ~size:4096 in
  (match
     let _ = Stackmem.push_frame s in
     for _ = 1 to 100 do
       ignore (Stackmem.alloc s 128)
     done
   with
   | () -> Alcotest.fail "expected stack overflow"
   | exception Failure _ -> ())

(* --- randomized allocator walks (seeded, reproducible) --- *)

module Rng = Sb_machine.Rng
module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem

(* A random alloc/free walk asserting, after every allocation: the
   payload is aligned, fully inside mapped arena memory, and disjoint
   from every live chunk — in particular, a reused chunk never overlaps
   anything still allocated. Driven by Sb_machine.Rng so a failure
   reproduces from the seed in the test name. *)
let walk ~seed ~steps ~max_size m ~alloc ~free ~extent ~align =
  let vm = Memsys.vmem m in
  let rng = Rng.create seed in
  let live = Hashtbl.create 64 in (* payload addr -> (end, step) *)
  for step = 1 to steps do
    if Hashtbl.length live = 0 || Rng.bernoulli rng 0.6 then begin
      let size = 1 + Rng.int rng max_size in
      let a = alloc size in
      align ~addr:a ~size;
      if not (Vmem.is_mapped vm a && Vmem.is_mapped vm (a + size - 1)) then
        Alcotest.failf "step %d: payload [%#x, %#x) not mapped" step a (a + size);
      let e = a + extent a in
      Hashtbl.iter
        (fun a2 (e2, step2) ->
           if a < e2 && a2 < e then
             Alcotest.failf "step %d: chunk [%#x, %#x) overlaps live [%#x, %#x) from step %d"
               step a e a2 e2 step2)
        live;
      Hashtbl.replace live a (e, step)
    end
    else begin
      let keys = Hashtbl.fold (fun k _ acc -> k :: acc) live [] in
      let k = List.nth keys (Rng.int rng (List.length keys)) in
      free k;
      Hashtbl.remove live k
    end
  done

let test_freelist_walk seed () =
  with_heap (fun m h ->
      walk ~seed ~steps:400 ~max_size:300 m
        ~alloc:(Freelist.alloc h) ~free:(Freelist.free h)
        ~extent:(Freelist.chunk_size h)
        ~align:(fun ~addr ~size:_ ->
            if addr mod 16 <> 0 then Alcotest.failf "%#x not 16-aligned" addr))

let test_buddy_walk seed () =
  with_buddy (fun m b ->
      walk ~seed ~steps:400 ~max_size:500 m
        ~alloc:(Buddy.alloc b) ~free:(Buddy.free b)
        ~extent:(Buddy.block_size b)
        ~align:(fun ~addr ~size ->
            let bs = Buddy.block_size b addr in
            if not (Util.is_pow2 bs && bs >= size && addr mod bs = 0) then
              Alcotest.failf "%#x: block %d not size-aligned pow2 >= %d" addr bs size;
            (* interior pointers derive the base — what the scheme's
               check relies on *)
            let interior = addr + Rng.int (Rng.create (addr + seed)) bs in
            if Buddy.base_of b interior <> Some addr then
              Alcotest.failf "base_of %#x <> %#x" interior addr))

let test_bump_walk () =
  (* No free: every allocation must be fresh, mapped and disjoint. *)
  let m = ms () in
  let g = Bump.create m () in
  walk ~seed:12 ~steps:150 ~max_size:200 m
    ~alloc:(Bump.alloc g)
    ~free:(fun _ -> ())
    ~extent:(fun _ -> 1) (* conservative: starts must at least be distinct *)
    ~align:(fun ~addr:_ ~size:_ -> ())

(* --- Freelist against the Hashtbl heap it replaced --- *)

(* The heap as it was before its chunk table became flat: a Hashtbl of
   live chunks and one list per class. Kept as the reference for the
   model check below. *)
module Ref_freelist = struct
  let header_size = 16
  let min_segment = 64 * 1024

  let class_size size =
    if size <= 512 then Util.align_up (max size 16) 16
    else if size <= 65536 then Util.align_up size 256
    else Util.align_up size 4096

  type t = {
    ms : Memsys.t;
    live : (int, int) Hashtbl.t;
    freelists : (int, int list ref) Hashtbl.t;
    mutable seg_cur : int;
    mutable seg_end : int;
    mutable live_bytes : int;
    mutable total_allocated : int;
  }

  let create ms =
    { ms; live = Hashtbl.create 4096; freelists = Hashtbl.create 64; seg_cur = 0; seg_end = 0;
      live_bytes = 0; total_allocated = 0 }

  let freelist t cls =
    match Hashtbl.find t.freelists cls with
    | l -> l
    | exception Not_found ->
      let l = ref [] in
      Hashtbl.replace t.freelists cls l;
      l

  let grow t need =
    let len = max min_segment (Util.align_up (need + header_size) Vmem.page_size) in
    let addr = Vmem.map (Memsys.vmem t.ms) ~len ~perm:Vmem.Read_write () in
    t.seg_cur <- addr;
    t.seg_end <- addr + len

  let alloc t size =
    if size <= 0 then invalid_arg "Freelist.alloc: size <= 0";
    let cls = class_size size in
    Memsys.charge_alu t.ms 40;
    let payload =
      let fl = freelist t cls in
      match !fl with
      | addr :: rest ->
        fl := rest;
        addr
      | [] ->
        let need = header_size + cls in
        if t.seg_cur + need > t.seg_end then grow t need;
        let hdr = t.seg_cur in
        t.seg_cur <- t.seg_cur + need;
        hdr + header_size
    in
    Memsys.store t.ms ~addr:(payload - header_size) ~width:8 cls;
    Hashtbl.replace t.live payload cls;
    t.live_bytes <- t.live_bytes + cls;
    t.total_allocated <- t.total_allocated + cls;
    payload

  let chunk_size t addr =
    match Hashtbl.find t.live addr with
    | size -> size
    | exception Not_found -> invalid_arg "Freelist.chunk_size: not a live chunk"

  let free t addr =
    match Hashtbl.find t.live addr with
    | exception Not_found -> invalid_arg "Freelist.free: not a live chunk"
    | size ->
      Memsys.charge_alu t.ms 25;
      Memsys.touch t.ms ~addr:(addr - header_size) ~width:8;
      Hashtbl.remove t.live addr;
      t.live_bytes <- t.live_bytes - size;
      let fl = freelist t size in
      fl := addr :: !fl

  let is_live t addr = Hashtbl.mem t.live addr
  let live_bytes t = t.live_bytes
  let live_chunks t = Hashtbl.length t.live
  let total_allocated t = t.total_allocated
end

(* [Some v], or [None] when [f] raised [Invalid_argument]. *)
let outcome f = match f () with v -> Some v | exception Invalid_argument _ -> None

(* Move [vm]'s next-fit cursor to within a few pages of the top of the
   address space, so that the next segment a heap maps wraps around to
   the lowest free range. *)
let push_cursor_to_top vm =
  let top = 1 lsl Vmem.addr_bits in
  let rec go () =
    let a = Vmem.map vm ~len:Vmem.page_size ~perm:Vmem.Read_write () in
    Vmem.unmap vm ~addr:a ~len:Vmem.page_size;
    let room = top - a - Vmem.page_size - (8 * Vmem.page_size) in
    if room > 0 then begin
      let len = min room (32 * 1024 * 1024) in
      let b = Vmem.map vm ~len ~perm:Vmem.Read_write () in
      Vmem.unmap vm ~addr:b ~len;
      go ()
    end
  in
  go ()

(* One seeded run: the flat heap and the reference, each on its own
   machine, take the same random mallocs and frees (sizes from all three
   class regimes) and the same bad frees. A 256 KiB hole is left below
   the first segment and the map cursor is then moved past the top, so
   later segments land below earlier ones. After every step the two must
   agree on the payload, on [is_live]/[chunk_size] at every address seen
   so far, and on the counters; at the end, on every simulated cycle. *)
let test_freelist_model seed () =
  let ma = ms () and mb = ms () in
  let vma = Memsys.vmem ma and vmb = Memsys.vmem mb in
  let holea = Vmem.map vma ~len:(256 * 1024) ~perm:Vmem.Read_write () in
  let holeb = Vmem.map vmb ~len:(256 * 1024) ~perm:Vmem.Read_write () in
  Alcotest.(check int) "same hole" holea holeb;
  let h = Freelist.create ma and r = Ref_freelist.create mb in
  let rng = Rng.create seed in
  let seen = ref [] and live = ref [] and nlive = ref 0 in
  let size () =
    match Rng.int rng 10 with
    | 0 -> 65537 + Rng.int rng (3 * 65536)
    | 1 | 2 | 3 -> 513 + Rng.int rng 65024
    | _ -> 1 + Rng.int rng 512
  in
  let check step =
    let cmp name a b = if a <> b then Alcotest.failf "seed %d step %d: %s differs" seed step name in
    cmp "live_bytes" (Freelist.live_bytes h) (Ref_freelist.live_bytes r);
    cmp "live_chunks" (Freelist.live_chunks h) (Ref_freelist.live_chunks r);
    cmp "total_allocated" (Freelist.total_allocated h) (Ref_freelist.total_allocated r);
    List.iter
      (fun a ->
         List.iter
           (fun q ->
              if Freelist.is_live h q <> Ref_freelist.is_live r q then
                Alcotest.failf "seed %d step %d: is_live %#x differs" seed step q;
              if outcome (fun () -> Freelist.chunk_size h q)
                 <> outcome (fun () -> Ref_freelist.chunk_size r q)
              then Alcotest.failf "seed %d step %d: chunk_size %#x differs" seed step q)
           [ a; a + 8; a - 16 ])
      (* oldest first on odd steps: the first lookup then repeats the
         last one of the step before, across whatever that step carved *)
      (if step land 1 = 1 then List.rev !seen else !seen)
  in
  let bad_free step q =
    match (outcome (fun () -> Freelist.free h q), outcome (fun () -> Ref_freelist.free r q)) with
    | None, None -> ()
    | _ -> Alcotest.failf "seed %d step %d: free %#x accepted" seed step q
  in
  let run ~from ~steps =
    for step = from to from + steps - 1 do
      (if !nlive = 0 || Rng.bernoulli rng 0.55 then begin
         let sz = size () in
         let a = Freelist.alloc h sz and b = Ref_freelist.alloc r sz in
         if a <> b then Alcotest.failf "seed %d step %d: alloc %d gave %#x, reference %#x" seed step sz a b;
         if not (List.mem a !seen) then seen := a :: !seen;
         live := a :: !live;
         incr nlive
       end
       else begin
         let a = List.nth !live (Rng.int rng !nlive) in
         Freelist.free h a;
         Ref_freelist.free r a;
         live := List.filter (fun x -> x <> a) !live;
         decr nlive;
         if Rng.bernoulli rng 0.2 then bad_free step a
       end);
      (match Rng.int rng 12 with
       | 0 -> bad_free step (-16 - (16 * Rng.int rng 4))
       | 1 -> (match !seen with a :: _ -> bad_free step (a + 1 + Rng.int rng 15) | [] -> ())
       | 2 -> bad_free step (16 * (1 + Rng.int rng 1_000_000))
       | _ -> ());
      check step
    done
  in
  run ~from:1 ~steps:400;
  let lowest = List.fold_left min max_int !seen in
  Vmem.unmap vma ~addr:holea ~len:(256 * 1024);
  Vmem.unmap vmb ~addr:holeb ~len:(256 * 1024);
  push_cursor_to_top vma;
  push_cursor_to_top vmb;
  run ~from:401 ~steps:400;
  if List.for_all (fun a -> a >= lowest) !seen then
    Alcotest.failf "seed %d: no segment landed below the first" seed;
  Alcotest.(check int) "cycles" (Memsys.snapshot mb).Memsys.cycles (Memsys.snapshot ma).Memsys.cycles;
  Alcotest.(check int) "accesses" (Memsys.snapshot mb).Memsys.mem_accesses
    (Memsys.snapshot ma).Memsys.mem_accesses

(* Words allocated by [f ()], minor and major: a heap's tables and the
   simulated pages it touches. [Gc.minor_words] is exact; the minor
   count in [Gc.counters] is not on every runtime, so only its major and
   promoted counts are used (their difference is the words allocated
   straight in the major heap). *)
let heap_words f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  f ();
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  int_of_float (minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))

(* Words to create a heap and carve [n] 32-byte chunks, simulated pages
   included, as the Hashtbl heap allocated them (measured with
   [heap_words]). The flat table must not allocate more at any size. *)
let hashtbl_heap_words = [ (100, 7_734); (1_000, 16_474); (10_000, 123_776); (100_000, 1_261_474) ]

let test_freelist_words () =
  (* the naive reference engine allocates per access by design *)
  Sb_machine.Fastpath.with_kind Sb_machine.Fastpath.Fast @@ fun () ->
  List.iter
    (fun (n, parent) ->
       let m = ms () in
       let w =
         heap_words (fun () ->
             let h = Freelist.create m in
             for _ = 1 to n do
               ignore (Freelist.alloc h 32)
             done)
       in
       if w > parent then Alcotest.failf "%d chunks: %d words, the Hashtbl heap took %d" n w parent)
    hashtbl_heap_words

let suite =
  [
    Alcotest.test_case "payloads 16-byte aligned" `Quick test_alloc_aligned;
    Alcotest.test_case "size-class rounding" `Quick test_chunk_size_rounding;
    Alcotest.test_case "free then exact-fit reuse" `Quick test_free_then_reuse;
    Alcotest.test_case "double free rejected" `Quick test_double_free_rejected;
    Alcotest.test_case "live accounting" `Quick test_live_accounting;
    Alcotest.test_case "fresh allocations adjacent" `Quick test_adjacency_of_fresh_allocs;
    Alcotest.test_case "churn keeps footprint flat" `Quick test_churn_footprint_bounded;
    qtest prop_no_overlap;
    qtest prop_freelist_reuse_is_lifo_consistent;
    Alcotest.test_case "buddy: power-of-two size-aligned blocks" `Quick test_buddy_pow2_sizes;
    Alcotest.test_case "buddy: base derivation" `Quick test_buddy_base_of;
    Alcotest.test_case "buddy: merge on free" `Quick test_buddy_merge;
    Alcotest.test_case "buddy: exhaustion raises" `Quick test_buddy_exhaustion;
    qtest prop_buddy_alignment;
    Alcotest.test_case "bump region monotonic" `Quick test_bump_monotonic;
    Alcotest.test_case "stack grows down, pop restores" `Quick test_stack_grows_down;
    Alcotest.test_case "stack overflow detected" `Quick test_stack_overflow;
    Alcotest.test_case "freelist random walk (seed 1)" `Quick (test_freelist_walk 1);
    Alcotest.test_case "freelist random walk (seed 2)" `Quick (test_freelist_walk 2);
    Alcotest.test_case "freelist matches the Hashtbl heap (seed 1)" `Quick (test_freelist_model 1);
    Alcotest.test_case "freelist matches the Hashtbl heap (seed 2)" `Quick (test_freelist_model 2);
    Alcotest.test_case "freelist matches the Hashtbl heap (seed 3)" `Quick (test_freelist_model 3);
    Alcotest.test_case "freelist matches the Hashtbl heap (seed 4)" `Quick (test_freelist_model 4);
    Alcotest.test_case "freelist matches the Hashtbl heap (seed 5)" `Quick (test_freelist_model 5);
    Alcotest.test_case "freelist matches the Hashtbl heap (seed 6)" `Quick (test_freelist_model 6);
    Alcotest.test_case "freelist words at or below the Hashtbl heap's" `Quick test_freelist_words;
    Alcotest.test_case "buddy random walk (seed 1)" `Quick (test_buddy_walk 1);
    Alcotest.test_case "buddy random walk (seed 2)" `Quick (test_buddy_walk 2);
    Alcotest.test_case "bump random walk" `Quick test_bump_walk;
  ]
