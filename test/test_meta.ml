(** The meta-scheme layer: every wrapper forwards every {!Scheme.op}
    to its inner scheme unchanged (driven by [Scheme.ops], so a new
    operation joins the test by itself), and the {!Live} object table
    behind the recorder, the optimizer runtime and the auditor. *)

module Scheme = Sb_protection.Scheme
module Live = Sb_protection.Live
module Profiled = Sb_protection.Profiled
module Sitestream = Sb_protection.Sitestream
module Optimized = Sb_protection.Optimized
module Faulty = Sb_protection.Faulty
module Audit = Sb_analysis.Audit
module Symex = Sb_analysis.Symex
module Profile = Sb_telemetry.Profile
module Memsys = Sb_sgx.Memsys
module Config = Sb_machine.Config
module Harness = Sb_harness.Harness
module Registry = Sb_workloads.Registry
module Analyze = Sb_analysis.Analyze
open Sb_protection.Types

(* ---------- a logging inner scheme ---------- *)

type log = {
  mutable calls : string list;  (* newest first *)
  mutable raising : exn option;  (* every operation raises this *)
  mutable current : Scheme.op;  (* the op under test: addr_of logs only for itself *)
}

let ret_ptr = { v = 0x3000; bnd = None }
let ret_int = 4242

let logging ms (l : log) : Scheme.t =
  let hit name args r =
    l.calls <- (name ^ "(" ^ String.concat "," args ^ ")") :: l.calls;
    match l.raising with Some e -> raise e | None -> r
  in
  let pa p = Printf.sprintf "0x%x%s" p.v (if p.bnd = None then "" else "+bnd") in
  let i = string_of_int in
  let da = function Read -> "r" | Write -> "w" in
  {
    Scheme.name = "logging";
    ms;
    extras = fresh_extras ();
    malloc = (fun n -> hit "malloc" [ i n ] ret_ptr);
    calloc = (fun n m -> hit "calloc" [ i n; i m ] ret_ptr);
    realloc = (fun p n -> hit "realloc" [ pa p; i n ] ret_ptr);
    free = (fun p -> hit "free" [ pa p ] ());
    global = (fun n -> hit "global" [ i n ] ret_ptr);
    stack_push = (fun () -> hit "stack_push" [] ret_int);
    stack_alloc = (fun n -> hit "stack_alloc" [ i n ] ret_ptr);
    stack_pop = (fun tok -> hit "stack_pop" [ i tok ] ());
    offset = (fun p d -> hit "offset" [ pa p; i d ] ret_ptr);
    addr_of =
      (fun p -> if l.current = Scheme.Addr_of then hit "addr_of" [ pa p ] p.v else p.v);
    load = (fun p w -> hit "load" [ pa p; i w ] ret_int);
    store = (fun p w v -> hit "store" [ pa p; i w; i v ] ());
    safe_load = (fun p w -> hit "safe_load" [ pa p; i w ] ret_int);
    safe_store = (fun p w v -> hit "safe_store" [ pa p; i w; i v ] ());
    check_range = (fun p n d -> hit "check_range" [ pa p; i n; da d ] ());
    load_unchecked = (fun p w -> hit "load_unchecked" [ pa p; i w ] ret_int);
    store_unchecked = (fun p w v -> hit "store_unchecked" [ pa p; i w; i v ] ());
    load_ptr = (fun p -> hit "load_ptr" [ pa p ] ret_ptr);
    store_ptr = (fun p q -> hit "store_ptr" [ pa p; pa q ] ());
    load_ptr_unchecked = (fun p -> hit "load_ptr_unchecked" [ pa p ] ret_ptr);
    store_ptr_unchecked = (fun p q -> hit "store_ptr_unchecked" [ pa p; pa q ] ());
    libc_check = (fun p n d -> hit "libc_check" [ pa p; i n; da d ] ());
    libc_touch = (fun fn p n d -> hit "libc_touch" [ fn; pa p; i n; da d ] ());
  }

type result = P of ptr | I of int | U of unit

(* One call of [op] with fixed arguments. The match is exhaustive, so a
   new operation cannot be left out. *)
let call (s : Scheme.t) op =
  let p = { v = 0x1000; bnd = None } and q = { v = 0x2000; bnd = None } in
  match op with
  | Scheme.Malloc -> P (s.malloc 16)
  | Scheme.Calloc -> P (s.calloc 2 8)
  | Scheme.Realloc -> P (s.realloc p 32)
  | Scheme.Free -> U (s.free p)
  | Scheme.Global -> P (s.global 16)
  | Scheme.Stack_push -> I (s.stack_push ())
  | Scheme.Stack_alloc -> P (s.stack_alloc 16)
  | Scheme.Stack_pop -> U (s.stack_pop 5)
  | Scheme.Offset -> P (s.offset p 4)
  | Scheme.Addr_of -> I (s.addr_of p)
  | Scheme.Load -> I (s.load p 4)
  | Scheme.Store -> U (s.store p 4 99)
  | Scheme.Safe_load -> I (s.safe_load p 2)
  | Scheme.Safe_store -> U (s.safe_store p 2 7)
  | Scheme.Check_range -> U (s.check_range p 64 Write)
  | Scheme.Load_unchecked -> I (s.load_unchecked p 8)
  | Scheme.Store_unchecked -> U (s.store_unchecked p 8 5)
  | Scheme.Load_ptr -> P (s.load_ptr p)
  | Scheme.Store_ptr -> U (s.store_ptr p q)
  | Scheme.Load_ptr_unchecked -> P (s.load_ptr_unchecked p)
  | Scheme.Store_ptr_unchecked -> U (s.store_ptr_unchecked p q)
  | Scheme.Libc_check -> U (s.libc_check p 32 Read)
  | Scheme.Libc_touch -> U (s.libc_touch "memcpy" p 32 Read)

let same_result a b =
  match (a, b) with P x, P y -> x == y | I x, I y -> x = y | U (), U () -> true | _ -> false

(* ---------- forwarding ---------- *)

(* Each wrapper, given the profiler Profiled reports into. *)
let wrappers : (string * (Profile.t -> Scheme.t -> Scheme.t)) list =
  [
    ("profiled", Profiled.wrap);
    ("sitestream", fun _ s -> fst (Sitestream.wrap s));
    ( "optimized",
      fun _ s -> fst (Optimized.wrap (Optimized.empty_plan ~workload:"w" ~scheme:"logging") s) );
    ("audit", fun _ s -> fst (Audit.wrap s));
    ("symex", fun _ s -> fst (Symex.wrap s));
    (* a fault that never fires *)
    ("faulty", fun _ -> Faulty.inject (Faulty.Elide_every_nth max_int));
  ]

let test_forwarding (name, wrap) () =
  let ms = Memsys.create (Config.default ()) in
  Fun.protect ~finally:Audit.unhook @@ fun () ->
  let prof = Profile.create ~buckets:[| "x" |] () in
  let l = { calls = []; raising = None; current = Scheme.Malloc } in
  let inner = logging ms l in
  let wrapped = wrap prof inner in
  let once op f =
    l.calls <- [];
    l.current <- op;
    let r = f () in
    let calls = List.rev l.calls in
    l.calls <- [];
    (r, calls)
  in
  let boom = Failure "inner raised" in
  List.iter
    (fun raising ->
       l.raising <- (if raising then Some boom else None);
       List.iter
         (fun op ->
            let what = name ^ " " ^ Scheme.op_name op in
            let catch s = match call s op with r -> Ok r | exception e -> Error e in
            let direct, want = once op (fun () -> catch inner) in
            let via, got = once op (fun () -> catch wrapped) in
            Alcotest.(check (list string)) (what ^ ": inner reached once, same args") want got;
            match (direct, via) with
            | Ok a, Ok b ->
              Alcotest.(check bool) (what ^ ": inner result returned") true (same_result a b)
            | Error a, Error b ->
              Alcotest.(check bool) (what ^ ": inner exception re-raised") true (a == b && a == boom)
            | _ -> Alcotest.failf "%s: outcome differs from the inner scheme's" what)
         Scheme.ops)
    [ true; false ];
  (* the raising pass must leave the profiler's site stack balanced:
     otherwise later ops would nest under an op that never returned *)
  List.iter
    (fun r ->
       Alcotest.(check bool)
         (String.concat ";" r.Profile.r_path ^ ": op sites sit at the root")
         true
         (List.length r.Profile.r_path <= 1))
    (Profile.rows prof)

(* ---------- the live-object table ---------- *)

let sgxbounds_with_live live =
  let ms = Memsys.create (Config.default ()) in
  (ms, Scheme.intercept { Scheme.no_hooks with live = Some live } (Sgxbounds.make ms))

let id_at live s p =
  Option.map (fun (o : Live.obj) -> o.id) (Live.lookup live (Scheme.addr s p))

let test_births_across_realloc_free () =
  let live = Live.create () in
  let _, s = sgxbounds_with_live live in
  let a = s.Scheme.malloc 32 in
  let b = s.Scheme.calloc 4 8 in
  Alcotest.(check (option int)) "first birth" (Some 0) (id_at live s a);
  Alcotest.(check (option int)) "second birth" (Some 1) (id_at live s b);
  let a' = s.Scheme.realloc a 256 in
  Alcotest.(check (option int)) "realloc is a new birth" (Some 2) (id_at live s a');
  if Scheme.addr s a' <> Scheme.addr s a then
    Alcotest.(check (option int)) "old block dead" None (id_at live s a);
  s.Scheme.free b;
  Alcotest.(check (option int)) "freed object dead" None (id_at live s b);
  let c = s.Scheme.malloc 32 in
  Alcotest.(check (option int)) "address reuse gets a fresh index" (Some 3) (id_at live s c);
  Alcotest.(check int) "births counted" 4 (Live.births live)

let test_size_zero () =
  let keep = Live.create () and skip = Live.create ~skip_empty:true () in
  List.iter
    (fun t -> ignore (Live.birth ~in_frame:false t 0x100 16))
    [ keep; skip ];
  Alcotest.(check bool) "recorder registers a size-0 object" true
    (Live.birth ~in_frame:false keep 0x100 0 <> None);
  Alcotest.(check bool) "auditor skips it" true
    (Live.birth ~in_frame:false skip 0x100 0 = None);
  Alcotest.(check int) "recorder: two births" 2 (Live.births keep);
  Alcotest.(check int) "auditor: one birth" 1 (Live.births skip);
  Alcotest.(check bool) "auditor keeps the object at that base" true
    (Live.lookup skip 0x104 <> None);
  Alcotest.(check bool) "recorder's size-0 object replaced it and contains nothing" true
    (Live.lookup keep 0x100 = None)

let test_pop_outer_token () =
  let t = Live.create () in
  let born lo = ignore (Live.birth ~in_frame:true t lo 16) in
  Live.push t 1;
  born 0x100;
  Live.push t 2;
  born 0x200;
  born 0x300;
  let killed = List.map (fun (o : Live.obj) -> o.lo) (Live.pop t 1) in
  Alcotest.(check (list int)) "outer token unwinds the inner frame too"
    [ 0x300; 0x200; 0x100 ] killed;
  Alcotest.(check bool) "nothing left" true (Live.lookup t 0x100 = None);
  Live.push t 3;
  born 0x400;
  Live.push t 4;
  born 0x500;
  Alcotest.(check (list int)) "matching token pops one frame" [ 0x500 ]
    (List.map (fun (o : Live.obj) -> o.lo) (Live.pop t 4));
  Alcotest.(check (list int)) "unknown token unwinds every frame" [ 0x400 ]
    (List.map (fun (o : Live.obj) -> o.lo) (Live.pop t 99))

(* The recorder's log grows past its first buffer in order, and a cap
   keeps a prefix of it and marks the stream truncated. *)
let test_sitestream_cap () =
  let record cap =
    let ms = Memsys.create (Config.default ()) in
    let s, t = Sitestream.wrap ~cap (Sb_protection.Native.make ms) in
    let p = s.Scheme.malloc 64 in
    for i = 0 to 2499 do
      ignore (s.Scheme.load (s.Scheme.offset p (4 * (i mod 16))) 4)
    done;
    t
  in
  let full = record 10_000 and capped = record 5 in
  Alcotest.(check int) "one birth and 2500 accesses" 2501 (Array.length (Sitestream.events full));
  Alcotest.(check bool) "under the cap: not truncated" false (Sitestream.truncated full);
  Alcotest.(check bool) "over the cap: truncated" true (Sitestream.truncated capped);
  Alcotest.(check bool) "the capped log is the prefix" true
    (Sitestream.events capped = Array.sub (Sitestream.events full) 0 5);
  Alcotest.(check bool) "events in op order" true
    (Array.for_all Fun.id
       (Array.mapi
          (fun i e -> match e with Sitestream.Acc { idx; _ } -> idx = i - 1 | _ -> i = 0)
          (Sitestream.events full)))

(* ---------- Live against a naive reference ---------- *)

(* The reference keeps its objects in a plain list and answers
   [lookup] by the floor rule: the greatest live base at or below the
   address, if the address lies inside that object. *)
type robj = { r_lo : int; r_hi : int; r_id : int; mutable r_checks : (int * int * access) list }

type rtable = {
  r_skip : bool;
  mutable r_objs : robj list;
  mutable r_births : int;
  mutable r_frames : (int * int list) list;
}

let r_birth ~in_frame t lo size =
  if t.r_skip && (lo = 0 || size <= 0) then None
  else begin
    let o = { r_lo = lo; r_hi = lo + size; r_id = t.r_births; r_checks = [] } in
    t.r_births <- t.r_births + 1;
    t.r_objs <- o :: List.filter (fun x -> x.r_lo <> lo) t.r_objs;
    (match t.r_frames with
     | (tok, bases) :: rest when in_frame -> t.r_frames <- (tok, lo :: bases) :: rest
     | _ -> ());
    Some o
  end

let r_death t lo =
  let dead, rest = List.partition (fun x -> x.r_lo = lo) t.r_objs in
  t.r_objs <- rest;
  match dead with o :: _ -> Some o | [] -> None

let r_pop t tok =
  let rec unwind killed = function
    | (tk, bases) :: rest ->
      let killed = List.rev_append (List.filter_map (r_death t) bases) killed in
      if tk = tok then (rest, killed) else unwind killed rest
    | [] -> ([], killed)
  in
  let frames, killed = unwind [] t.r_frames in
  t.r_frames <- frames;
  List.rev killed

let r_lookup t a =
  let floor =
    List.fold_left
      (fun best x ->
         if x.r_lo <= a then
           match best with Some b when b.r_lo >= x.r_lo -> best | _ -> Some x
         else best)
      None t.r_objs
  in
  match floor with Some o when a < o.r_hi -> Some o | _ -> None

let r_covered o lo hi dir =
  List.exists
    (fun (clo, chi, cdir) -> clo <= lo && hi <= chi && (cdir = Write || dir = Read))
    o.r_checks

(* One seeded run: births in and out of frames, of size 0, at a live
   base and nested inside live objects, on two address windows 8 KiB
   apart (so they share lookup memo slots), interleaved with deaths,
   frame pushes and pops, checks, lookups and coverage queries. *)
let live_model_run ~skip_empty seed =
  let rng = Random.State.make [| seed |] in
  let t = Live.create ~skip_empty () in
  let r = { r_skip = skip_empty; r_objs = []; r_births = 0; r_frames = [] } in
  let int n = Random.State.int rng n in
  let addr () = (if int 2 = 0 then 0x1000 else 0x3000) + int 0x600 in
  let base () = (if int 2 = 0 then 0x1000 else 0x3000) + (16 * int 80) in
  let dir () = if int 2 = 0 then Read else Write in
  let ids l = List.map (fun (o : Live.obj) -> o.id) l in
  let r_ids l = List.map (fun o -> o.r_id) l in
  let tok = ref 0 in
  let step = ref 0 in
  let ctx what = Printf.sprintf "skip_empty=%b seed %d step %d: %s" skip_empty seed !step what in
  let same what (o : Live.obj option) (ro : robj option) =
    match (o, ro) with
    | None, None -> ()
    | Some o, Some ro when o.id = ro.r_id && o.lo = ro.r_lo && o.hi = ro.r_hi -> ()
    | _ ->
      Alcotest.failf "%s: Live says %s, the reference %s" (ctx what)
        (match o with Some o -> Printf.sprintf "object %d" o.id | None -> "none")
        (match ro with Some o -> Printf.sprintf "object %d" o.r_id | None -> "none")
  in
  for i = 1 to 3000 do
    step := i;
    match int 100 with
    | k when k < 22 ->
      let in_frame = int 2 = 0 and lo = base () in
      let size = [| 0; 8; 16; 48; 200; 512 |].(int 6) in
      same "birth" (Live.birth ~in_frame t lo size) (r_birth ~in_frame r lo size)
    | k when k < 30 ->
      let lo =
        match r.r_objs with
        | _ :: _ when int 4 > 0 -> (List.nth r.r_objs (int (List.length r.r_objs))).r_lo
        | _ -> base ()
      in
      same "death" (Live.death t lo) (r_death r lo)
    | k when k < 35 ->
      incr tok;
      Live.push t !tok;
      r.r_frames <- (!tok, []) :: r.r_frames
    | k when k < 39 ->
      let tk =
        match r.r_frames with
        | _ :: _ when int 5 > 0 -> fst (List.nth r.r_frames (int (List.length r.r_frames)))
        | _ -> -1
      in
      Alcotest.(check (list int)) (ctx "pop") (r_ids (r_pop r tk)) (ids (Live.pop t tk))
    | k when k < 49 -> (
      let a = addr () in
      let o = Live.lookup t a and ro = r_lookup r a in
      same "lookup before a check" o ro;
      match (o, ro) with
      | Some o, Some ro ->
        let lo = a + int 16 and d = dir () in
        let hi = min o.hi (lo + 1 + int 64) in
        Live.add_check o lo hi d;
        if not (List.mem (lo, hi, d) ro.r_checks) then ro.r_checks <- (lo, hi, d) :: ro.r_checks;
        Alcotest.(check int) (ctx "checks are a set") (List.length ro.r_checks)
          (List.length o.checks)
      | _ -> ())
    | k when k < 85 ->
      let a = addr () in
      same (Printf.sprintf "lookup 0x%x" a) (Live.lookup t a) (r_lookup r a)
    | _ -> (
      let a = addr () in
      match (Live.lookup t a, r_lookup r a) with
      | Some o, Some ro ->
        let hi = a + 1 + int 24 and d = dir () in
        Alcotest.(check bool) (ctx "covered") (r_covered ro a hi d) (Live.covered o a hi d)
      | o, ro -> same "lookup before covered" o ro)
  done;
  Alcotest.(check int) (ctx "births") r.r_births (Live.births t)

let test_live_model () =
  List.iter
    (fun skip_empty -> for seed = 1 to 12 do live_model_run ~skip_empty seed done)
    [ false; true ]

(* ---------- allocation pins ---------- *)

(* Minor words allocated by [f]. Per-access allocation is small and
   lands there; unlike the promoted share, the count does not depend on
   when collections fall, so a run's figure is exact. *)
let minor_words f =
  let minor0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. minor0

let test_live_hits_do_not_allocate () =
  let t = Live.create () in
  let objs =
    Array.map
      (fun lo -> Option.get (Live.birth ~in_frame:false t lo 64))
      [| 0x1000; 0x1100; 0x1200; 0x1300 |]
  in
  Array.iter (fun (o : Live.obj) -> Live.add_check o o.lo (o.lo + 32) Read) objs;
  let addrs = Array.map (fun (o : Live.obj) -> o.lo + 8) objs in
  let n = Array.length addrs in
  let spin () =
    for i = 0 to 9_999 do
      let o = Live.lookup t addrs.(i mod n) in
      (match o with
       | Some o ->
         if not (Live.covered o (o.lo + 4) (o.lo + 12) Read) then failwith "not covered";
         Live.add_check o o.lo (o.lo + 32) Read
       | None -> failwith "lookup missed")
    done
  in
  spin ();
  let minor = minor_words spin in
  if minor > 16. then
    Alcotest.failf "10000 warm lookups, covered and repeated add_check allocated %.0f minor words" minor

(* An audited run does the inner scheme's work plus the auditor's
   bookkeeping, which must not allocate per access. A quarter of the
   smoke size keeps the eight runs near a second; the ratio is the same
   at the full smoke size. *)
let test_audited_run_allocation () =
  let w = Registry.find "hmmer" in
  let n = Analyze.smoke_n w / 4 in
  List.iter
    (fun scheme ->
       let run wrap = minor_words (fun () -> ignore (Harness.run_one ?wrap ~n ~scheme w)) in
       let plain = run None in
       let audited =
         Fun.protect ~finally:Audit.unhook (fun () ->
             run (Some (fun s -> fst (Audit.wrap ~track_races:false s))))
       in
       let ratio = audited /. plain in
       if ratio > 1.10 then
         Alcotest.failf "%s: audited hmmer allocates %.0f minor words, %.2fx the unaudited %.0f"
           scheme audited ratio plain)
    [ "native"; "sgxbounds"; "asan"; "mpx" ]

let suite =
  List.map
    (fun w -> Alcotest.test_case (fst w ^ " forwards every op") `Quick (test_forwarding w))
    wrappers
  @ [
    Alcotest.test_case "live: birth indices across realloc and free" `Quick
      test_births_across_realloc_free;
    Alcotest.test_case "live: size-0 objects" `Quick test_size_zero;
    Alcotest.test_case "live: pop with an outer frame's token" `Quick test_pop_outer_token;
    Alcotest.test_case "sitestream: the log grows in order and caps to a prefix" `Quick
      test_sitestream_cap;
    Alcotest.test_case "live: seeded model check against a naive table" `Quick test_live_model;
    Alcotest.test_case "live: warm lookups and coverage allocate nothing" `Quick
      test_live_hits_do_not_allocate;
    Alcotest.test_case "audit: audited hmmer allocates at most 1.10x unaudited" `Quick
      test_audited_run_allocation;
  ]
