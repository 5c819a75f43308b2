(** Pointers as one immediate word ({!Sb_protection.Ptr}): the encoding
    at its limits, the register-bounds table, and the allocation the
    schemes' pointer operations are allowed (none). *)

open Helpers
open Sb_protection.Types
module Tagged = Sgxbounds.Tagged
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Analyze = Sb_analysis.Analyze
module Fastpath = Sb_machine.Fastpath

let top = (1 lsl Vmem.addr_bits) - 1

(* ---------- encoding ---------- *)

let test_words_without_bounds () =
  List.iter
    (fun w ->
       let p = Ptr.of_word w in
       Alcotest.(check bool) (Printf.sprintf "0x%x: no bounds" w) false (Ptr.has_bounds p);
       Alcotest.(check int) "raw is the word" w (Ptr.raw p);
       Alcotest.(check int) "addr is the word" w (Ptr.addr p);
       Alcotest.(check int) "move adds to the word" (w + 8) (Ptr.raw (Ptr.move p 8));
       Alcotest.(check int) "word is the word" w (Ptr.word (Ptr.table ()) p))
    [ 0; 1; top; Tagged.make ~addr:top ~ub:top; (1 lsl 62) - 1 (* largest loaded word *);
      -1; -(1 lsl 32) (* moved below address 0 *); -(1 lsl 61) ]

let test_address_limits () =
  List.iter
    (fun a ->
       List.iter
         (fun i ->
            let p = Ptr.at_index i a in
            Alcotest.(check bool) "has bounds" true (Ptr.has_bounds p);
            Alcotest.(check int) (Printf.sprintf "addr %d at index %d" a i) a (Ptr.addr p);
            Alcotest.(check int) "index" i (Ptr.index p);
            let q = Ptr.with_addr p (a + 8) in
            Alcotest.(check int) "moved, same index" i (Ptr.index q);
            Alcotest.(check int) "moved address" (a + 8) (Ptr.addr q);
            Alcotest.(check int) "move is with_addr" (Ptr.raw q) (Ptr.raw (Ptr.move p 8)))
         [ 0; 1; Ptr.max_index ])
    [ 0; top; top + 2048; -2048; -(1 lsl 32); (1 lsl 32) - 9 ]

let test_table_interns () =
  let t = Ptr.table () in
  let p = Ptr.bounded t ~lo:0x1000 ~hi:0x1040 ~high:0 0x1000 in
  let q = Ptr.bounded t ~lo:0x1000 ~hi:0x1040 ~high:0 0x1010 in
  Alcotest.(check int) "same bounds, same entry" (Ptr.index p) (Ptr.index q);
  Alcotest.(check int) "one entry" 1 (Ptr.entries t);
  let r = Ptr.bounded t ~lo:0x1000 ~hi:0x1040 ~high:7 0x1000 in
  Alcotest.(check bool) "another high half, another entry" true (Ptr.index r <> Ptr.index p);
  (* past several growths every entry still reads back *)
  let ps = Array.init 1000 (fun i -> Ptr.bounded t ~lo:(i * 64) ~hi:((i * 64) + 48) ~high:i (i * 64)) in
  Array.iteri
    (fun i p ->
       Alcotest.(check (list int)) "entry" [ i * 64; (i * 64) + 48; (i lsl 31) lor (i * 64) ]
         [ Ptr.lo t p; Ptr.hi t p; Ptr.word t p ])
    ps;
  Alcotest.(check int) "interned" 1002 (Ptr.entries t);
  ignore (Array.init 1000 (fun i -> Ptr.bounded t ~lo:(i * 64) ~hi:((i * 64) + 48) ~high:i 0));
  Alcotest.(check int) "no growth on repeats" 1002 (Ptr.entries t)

(* Seeded draws from a small set of bounds, so probe sequences collide:
   the same triple always gets the same entry, different triples never. *)
let test_table_model () =
  let rng = Random.State.make [| 19 |] in
  let t = Ptr.table () and seen = Hashtbl.create 97 in
  for _ = 1 to 5000 do
    let lo = 16 * Random.State.int rng 16 in
    let hi = lo + (16 * (1 + Random.State.int rng 2)) and high = Random.State.int rng 3 in
    let p = Ptr.bounded t ~lo ~hi ~high lo in
    (match Hashtbl.find_opt seen (lo, hi, high) with
     | Some i -> Alcotest.(check int) "same bounds, same entry" i (Ptr.index p)
     | None ->
       Hashtbl.iter
         (fun _ i -> if i = Ptr.index p then Alcotest.fail "two bounds share an entry")
         seen;
       Hashtbl.replace seen (lo, hi, high) (Ptr.index p));
    Alcotest.(check (list int)) "reads back" [ lo; hi; (high lsl 31) lor lo ]
      [ Ptr.lo t p; Ptr.hi t p; Ptr.word t p ]
  done;
  Alcotest.(check int) "one entry per distinct bounds" (Hashtbl.length seen) (Ptr.entries t)

(* The largest upper bound a tagged word can carry survives narrowing
   and spilling. *)
let test_largest_ub () =
  let t = Ptr.table () in
  let w = Tagged.make ~addr:(top - 16) ~ub:top in
  let p = Ptr.bounded t ~lo:(top - 16) ~hi:(top - 8) ~high:(Tagged.ub_of w) (top - 16) in
  Alcotest.(check int) "spilled word is the tagged word" w (Ptr.word t p)

(* ---------- narrowing ---------- *)

let test_narrow_intersects () =
  let _, s = fresh sgxb in
  let st = s.Scheme.malloc 64 in
  let base = s.Scheme.addr_of st in
  let outer = Sgxbounds.narrow s st ~len:32 in
  let inner = Sgxbounds.narrow s (s.Scheme.offset outer 16) ~len:32 in
  Alcotest.(check (pair int int)) "bounds intersect" (base + 16, base + 32)
    (Ptr.lo s.Scheme.bounds inner, Ptr.hi s.Scheme.bounds inner);
  match catches (fun () -> s.Scheme.store (s.Scheme.offset inner 16) 1 0) with
  | Some v ->
    Alcotest.(check (list int)) "violation addr, lo, hi" [ base + 32; base + 16; base + 32 ]
      [ v.addr; v.lo; v.hi ]
  | None -> Alcotest.fail "overflow of the intersected field not caught"

let test_narrowed_spill_reverts () =
  let _, s = fresh sgxb in
  let slot = s.Scheme.malloc 8 in
  let st = s.Scheme.malloc 64 in
  let field = Sgxbounds.narrow s (s.Scheme.offset st 8) ~len:8 in
  s.Scheme.store_ptr slot field;
  let back = s.Scheme.load_ptr slot in
  Alcotest.(check bool) "no register bounds after the round trip" false (Ptr.has_bounds back);
  Alcotest.(check int) "the object's tagged word, moved to the field"
    (Tagged.make ~addr:(s.Scheme.addr_of st + 8) ~ub:(s.Scheme.addr_of st + 64))
    (Ptr.raw back);
  check_allows "object bounds again" (fun () -> s.Scheme.store (s.Scheme.offset back 40) 8 0)

(* ---------- MPX wild offsets ---------- *)

(* The fuzz generator's bad offsets reach 2 KiB past either end; the
   violation names the exact address. *)
let test_mpx_wild_offsets () =
  let _, s = fresh mpx in
  let p = s.Scheme.malloc 64 in
  let base = s.Scheme.addr_of p in
  List.iter
    (fun off ->
       match catches (fun () -> ignore (s.Scheme.load (s.Scheme.offset p off) 4)) with
       | Some v ->
         Alcotest.(check (list int)) (Printf.sprintf "offset %d" off)
           [ base + off; base; base + 64 ] [ v.addr; v.lo; v.hi ]
       | None -> Alcotest.failf "offset %d not caught" off)
    [ -1; -2048; -2047 - 64; 61; 64 + 2047; 64 + 2048; top; -top ];
  Alcotest.(check int) "an offset and back is the identity" base
    (s.Scheme.addr_of (s.Scheme.offset (s.Scheme.offset p (-(1 lsl 31))) (1 lsl 31)))

(* ---------- allocation ---------- *)

let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0

let iters = 2000

(* [op] run [iters] times allocates at most the few words of reading
   [Gc.minor_words] itself. The schemes run on the fast engine: the
   naive reference engine allocates per access by design. *)
let check_free name op =
  op ();
  let w = minor_words (fun () -> for _ = 1 to iters do op () done) in
  if w > 16. then Alcotest.failf "%s: %.0f minor words over %d calls" name w iters

let pointer_ops (s : Scheme.t) p slot =
  [ ("offset", fun () -> ignore (s.Scheme.offset p 8));
    ("addr_of", fun () -> ignore (s.Scheme.addr_of p));
    ("load", fun () -> ignore (s.Scheme.load p 8));
    ("store", fun () -> s.Scheme.store p 8 5);
    ("safe_load", fun () -> ignore (s.Scheme.safe_load p 8));
    ("safe_store", fun () -> s.Scheme.safe_store p 8 5);
    ("load_unchecked", fun () -> ignore (s.Scheme.load_unchecked p 8));
    ("store_unchecked", fun () -> s.Scheme.store_unchecked p 8 5);
    ("store_ptr", fun () -> s.Scheme.store_ptr slot p);
    ("load_ptr", fun () -> ignore (s.Scheme.load_ptr slot));
    ("store_ptr_unchecked", fun () -> s.Scheme.store_ptr_unchecked slot p);
    ("load_ptr_unchecked", fun () -> ignore (s.Scheme.load_ptr_unchecked slot)) ]

let test_ops_allocate_nothing () =
  Fastpath.with_kind Fastpath.Fast @@ fun () ->
  List.iter
    (fun (name, maker) ->
       let _, s = fresh maker in
       let p = s.Scheme.malloc 64 and slot = s.Scheme.malloc 8 in
       Alcotest.(check bool) (name ^ ": no register bounds") false (Ptr.has_bounds p);
       List.iter (fun (op, f) -> check_free (name ^ " " ^ op) f) (pointer_ops s p slot))
    [ ("native", native); ("asan", asan); ("baggy", baggy); ("sgxbounds", sgxb);
      ("sgxbounds-noopt", sgxb_noopt) ]

let test_mpx_ops_allocate_nothing () =
  Fastpath.with_kind Fastpath.Fast @@ fun () ->
  let _, s = fresh mpx in
  let p = s.Scheme.malloc 64 and slot = s.Scheme.malloc 8 in
  Alcotest.(check bool) "register bounds" true (Ptr.has_bounds p);
  List.iter (fun (op, f) -> check_free ("mpx " ^ op) f) (pointer_ops s p slot);
  let b = s.Scheme.bounds in
  let lo = Ptr.lo b p and hi = Ptr.hi b p in
  check_free "mpx bndmk of known bounds" (fun () -> ignore (Ptr.bounded b ~lo ~hi ~high:0 lo))

(* A warm heap's malloc and free allocate nothing: the chunk table,
   the free lists, SGXBounds' plugin walk, ASan's poisoning and its
   quarantine ring, MPX's bndmk of known bounds. ASan runs with a
   quarantine of a few chunks, so every free also evicts one. *)
let test_malloc_free_allocate_nothing () =
  Fastpath.with_kind Fastpath.Fast @@ fun () ->
  let asan_evicting m =
    Sb_asan.Asan.make ~opts:{ Sb_asan.Asan.default_opts with quarantine_cap = 64 * 1024 } m
  in
  List.iter
    (fun (name, maker) ->
       let _, s = fresh maker in
       let pairs () =
         for _ = 1 to 250 do
           let a = s.Scheme.malloc 24 and b = s.Scheme.malloc 700 in
           s.Scheme.free a;
           let c = s.Scheme.malloc 64 and d = s.Scheme.malloc 5000 in
           s.Scheme.free b;
           s.Scheme.free d;
           s.Scheme.free c
         done
       in
       pairs ();
       let w = minor_words pairs in
       if w > 16. then Alcotest.failf "%s: %.0f minor words over 1000 malloc+free pairs" name w)
    [ ("native", native); ("sgxbounds", sgxb); ("mpx", mpx); ("asan", asan_evicting) ]

(* Words allocated per simulated memory access over a whole smoke cell,
   pinned at 1.5x what the cell measured when pointers became immediate
   (the whole run, setup included). Measured on the fast engine, which
   every figure runs on: the naive reference engine allocates per
   access by design. *)
let cell_pins =
  [ ("astar", "native", 0.3088); ("astar", "sgxbounds", 0.2326); ("astar", "asan", 0.2226);
    ("astar", "mpx", 0.3683); ("mcf", "native", 1.4639); ("mcf", "sgxbounds", 1.2862);
    ("mcf", "asan", 1.0729); ("mcf", "mpx", 1.0378) ]

let test_cell_pins () =
  List.iter
    (fun (wname, scheme, measured) ->
       let w = Registry.find wname in
       let n = Analyze.smoke_n w in
       let r = ref None in
       let words =
         Fastpath.with_kind Fastpath.Fast (fun () ->
             minor_words (fun () -> r := Some (Harness.run_one ~n ~scheme w)))
       in
       match (Option.get !r).Harness.outcome with
       | Harness.Completed m ->
         let per = words /. float_of_int m.Harness.mem_accesses in
         if per > 1.5 *. measured then
           Alcotest.failf "%s/%s: %.4f minor words per access (%.0f words), pinned at 1.5 x %.4f"
             wname scheme per words measured
       | Harness.Crashed msg -> Alcotest.failf "%s/%s crashed: %s" wname scheme msg)
    cell_pins

let suite =
  [
    Alcotest.test_case "words without register bounds" `Quick test_words_without_bounds;
    Alcotest.test_case "addresses and indices at their limits" `Quick test_address_limits;
    Alcotest.test_case "table: interned, grows, reads back" `Quick test_table_interns;
    Alcotest.test_case "table: seeded model check" `Quick test_table_model;
    Alcotest.test_case "largest upper bound survives narrowing" `Quick test_largest_ub;
    Alcotest.test_case "narrow of a narrowed pointer intersects" `Quick test_narrow_intersects;
    Alcotest.test_case "a spilled narrowed pointer reverts" `Quick test_narrowed_spill_reverts;
    Alcotest.test_case "mpx: wild offsets keep exact addresses" `Quick test_mpx_wild_offsets;
    Alcotest.test_case "pointer ops allocate nothing" `Quick test_ops_allocate_nothing;
    Alcotest.test_case "mpx: bounded ops allocate nothing" `Quick test_mpx_ops_allocate_nothing;
    Alcotest.test_case "warm malloc and free allocate nothing" `Quick test_malloc_free_allocate_nothing;
    Alcotest.test_case "smoke astar and mcf: words per access pinned" `Quick test_cell_pins;
  ]
