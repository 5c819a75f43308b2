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

let suite =
  List.map
    (fun w -> Alcotest.test_case (fst w ^ " forwards every op") `Quick (test_forwarding w))
    wrappers
  @ [
    Alcotest.test_case "live: birth indices across realloc and free" `Quick
      test_births_across_realloc_free;
    Alcotest.test_case "live: size-0 objects" `Quick test_size_zero;
    Alcotest.test_case "live: pop with an outer frame's token" `Quick test_pop_outer_token;
  ]
