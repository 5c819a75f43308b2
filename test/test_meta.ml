(** The meta-scheme layer: every wrapper forwards every {!Scheme.op}
    to its inner scheme unchanged (driven by [Scheme.ops], so a new
    operation joins the test by itself), and the {!Live} object table
    behind the recorder, the optimizer runtime and the auditor. *)

module Scheme = Sb_protection.Scheme
module Ptr = Sb_protection.Ptr
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

let ret_ptr = Ptr.of_word 0x3000
let ret_int = 4242

let logging ms (l : log) : Scheme.t =
  let hit name args r =
    l.calls <- (name ^ "(" ^ String.concat "," args ^ ")") :: l.calls;
    match l.raising with Some e -> raise e | None -> r
  in
  let pa p = Printf.sprintf "0x%x%s" (Ptr.raw p) (if Ptr.has_bounds p then "+bnd" else "") in
  let i = string_of_int in
  let da = function Read -> "r" | Write -> "w" in
  {
    Scheme.name = "logging";
    ms;
    extras = fresh_extras ();
    bounds = Ptr.table ();
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
      (fun p -> if l.current = Scheme.Addr_of then hit "addr_of" [ pa p ] (Ptr.raw p) else Ptr.raw p);
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
  let p = Ptr.of_word 0x1000 and q = Ptr.of_word 0x2000 in
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
    (* taint planted over the test's addresses, so every taint hook runs *)
    ( "symex (tainted)",
      fun _ s ->
        let s, t = Symex.wrap s in
        Symex.taint_region t ~addr:0x1000 ~len:64 ~label:"req";
        s );
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

(* ---------- stacking observers in one intercept ---------- *)

(* [also outer inner]: one layer, with the hooks in the order two
   stacked layers would run them. *)
let test_also_order () =
  let ms = Memsys.create (Config.default ()) in
  let l = { calls = []; raising = None; current = Scheme.Malloc } in
  let seen = ref [] in
  let note s = seen := s :: !seen in
  let observer name =
    {
      Scheme.no_hooks with
      before =
        (function Scheme.Load -> Some (fun _ _ _ _ -> note (name ^ ".before")) | _ -> None);
      after =
        (function
          | Scheme.Load -> Some (fun _ _ v -> note (Printf.sprintf "%s.after %d" name v); v + 1)
          | _ -> None);
      after_ptr =
        (function Scheme.Offset -> Some (fun _ _ _ -> note (name ^ ".after_ptr")) | _ -> None);
    }
  in
  let enter _ = Some (fun () -> note "inner.enter") in
  let inner = { (observer "inner") with Scheme.enter } in
  let s = Scheme.intercept (Scheme.also (observer "outer") inner) (logging ms l) in
  let v = s.Scheme.load (Ptr.of_word 0x1000) 4 in
  ignore (s.Scheme.offset (Ptr.of_word 0x1000) 4);
  Alcotest.(check (list string)) "hook order"
    [ "inner.enter"; "outer.before"; "inner.before"; Printf.sprintf "inner.after %d" ret_int;
      Printf.sprintf "outer.after %d" (ret_int + 1); "inner.after_ptr"; "outer.after_ptr" ]
    (List.rev !seen);
  Alcotest.(check int) "the outer after's int is returned" (ret_int + 2) v;
  Alcotest.check_raises "an outer layer that elides is refused"
    (Invalid_argument "Scheme.also: the outer hooks must only observe") (fun () ->
      ignore
        (Scheme.also
           { Scheme.no_hooks with elide = (fun _ -> Some (fun _ _ -> true)) }
           Scheme.no_hooks))

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

(* ---------- the site-stream recorder ---------- *)

(* A recorder event with every field spelled out. *)
type ev =
  | Alloc of int * int  (* obj, size *)
  | Dead of int
  | Acc of int * Scheme.op * int * int * int  (* clock, op, obj, off, width *)
  | Chk of int * int * int * int * access  (* clock, obj, off, len, dir *)

let decode t =
  let l = ref [] in
  Sitestream.iter t
    ~alloc:(fun obj size -> l := Alloc (obj, size) :: !l)
    ~dead:(fun obj -> l := Dead obj :: !l)
    ~acc:(fun idx w ->
        l :=
          Acc (idx, Sitestream.acc_op w, Sitestream.obj_of w, Sitestream.acc_off w,
               Sitestream.acc_width w)
          :: !l)
    ~chk:(fun idx obj off len dir -> l := Chk (idx, obj, off, len, dir) :: !l);
  List.rev !l

(* The reference recorder: the same observations as a list of boxed
   events, built the plainest way. *)
let reference (inner : Scheme.t) =
  let live = Live.create () in
  let log = ref [] and clock = ref 0 in
  let referent p =
    if Ptr.has_bounds p then None else Live.lookup live (Scheme.addr inner p)
  in
  let before op =
    match op with
    | Scheme.Load | Scheme.Store | Scheme.Load_ptr | Scheme.Store_ptr ->
      Some
        (fun _ p width _ ->
           let ev =
             match referent p with
             | Some o -> Acc (!clock, op, o.Live.id, Scheme.addr inner p - o.Live.lo, width)
             | None -> Acc (!clock, op, -1, 0, width)
           in
           incr clock;
           log := ev :: !log)
    | Scheme.Check_range ->
      Some
        (fun _ p len dir ->
           match referent p with
           | Some o ->
             log := Chk (!clock, o.Live.id, Scheme.addr inner p - o.Live.lo, len, dir) :: !log
           | None -> ())
    | _ -> None
  in
  let s =
    Scheme.intercept
      {
        Scheme.no_hooks with
        live = Some live;
        birth = Some (fun o -> log := Alloc (o.Live.id, o.Live.hi - o.Live.lo) :: !log);
        death = Some (fun o -> log := Dead o.Live.id :: !log);
        before;
      }
      inner
  in
  (s, fun () -> List.rev !log)

let prefix n l = List.filteri (fun i _ -> i < n) l

(* Seeded cells: a workload and a scheme, recorded twice in one run,
   once in full and once under a cap that usually cuts the log short.
   The compact logs must decode to the reference's, cut to the cap, and
   be marked truncated exactly when the cap cut them. *)
let test_sitestream_model () =
  let workloads =
    [| "kmeans"; "matrixmul"; "string_match"; "mcf"; "blackscholes"; "pca"; "dedup";
       "xalancbmk"; "wordcount"; "astar" |]
  in
  let schemes = [| "sgxbounds"; "asan"; "mpx"; "native" |] in
  for seed = 1 to 10 do
    let rng = Random.State.make [| seed |] in
    let w = Registry.find workloads.(Random.State.int rng (Array.length workloads)) in
    let scheme = schemes.(Random.State.int rng (Array.length schemes)) in
    let cap = 1 + Random.State.int rng 3000 in
    let logs = ref [] and want = ref None in
    let wrap s =
      let s, events = reference s in
      want := Some events;
      List.fold_left
        (fun s cap ->
           let s, t = Sitestream.wrap ~cap s in
           logs := (cap, t) :: !logs;
           s)
        s [ 4_000_000; cap ]
    in
    ignore (Harness.run_one ~wrap ~n:(Analyze.smoke_n w) ~scheme w);
    let want = (Option.get !want) () in
    let n = List.length want in
    List.iter
      (fun (cap, t) ->
         let what =
           Printf.sprintf "seed %d: %s/%s (%d events) cap %d" seed w.Registry.name scheme n cap
         in
         Alcotest.(check bool) (what ^ ": truncated iff over the cap") (n > cap)
           (Sitestream.truncated t);
         if decode t <> prefix cap want then
           Alcotest.failf "%s: the log differs from the reference" what)
      !logs
  done

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
  Alcotest.(check int) "one birth and 2500 accesses" 2501 (List.length (decode full));
  Alcotest.(check bool) "under the cap: not truncated" false (Sitestream.truncated full);
  Alcotest.(check bool) "over the cap: truncated" true (Sitestream.truncated capped);
  Alcotest.(check int) "the op clock runs on past the cap" 2500 (Sitestream.ops capped);
  Alcotest.(check bool) "the capped log is the prefix" true
    (decode capped = prefix 5 (decode full));
  Alcotest.(check bool) "events in op order" true
    (List.for_all Fun.id
       (List.mapi
          (fun i e -> match e with Acc (idx, _, _, _, _) -> idx = i - 1 | _ -> i = 0)
          (decode full)))

(* The log's chunks hold 2^16 words. After one birth, check events
   (two words each) start at odd words, so one straddles the first
   chunk boundary; its length word must land in the next chunk. *)
let test_sitestream_chunk_boundary () =
  let ms = Memsys.create (Config.default ()) in
  let s, t = Sitestream.wrap (Sb_protection.Native.make ms) in
  let p = s.Scheme.malloc 64 in
  for len = 1 to 40_000 do s.Scheme.check_range p len Read done;
  let want = Alloc (0, 64) :: List.init 40_000 (fun i -> Chk (0, 0, 0, i + 1, Read)) in
  Alcotest.(check bool) "every check and its length decode in order" true (decode t = want)

(* Every field at its largest value decodes exactly; one past it raises
   instead of spilling into the next field. The logging scheme places
   objects anywhere, so offsets and sizes can reach the limits. *)
let test_sitestream_field_limits () =
  let ms = Memsys.create (Config.default ()) in
  let l = { calls = []; raising = None; current = Scheme.Malloc } in
  let s, t = Sitestream.wrap (logging ms l) in
  let max_off = (1 lsl 31) - 1 in
  let p = s.Scheme.malloc max_off in
  let at off = Ptr.of_word (Ptr.raw p + off) in
  ignore (s.Scheme.load (at (max_off - 1)) 15);
  s.Scheme.store_ptr (at 0) p;
  s.Scheme.check_range (at (max_off - 1)) max_int Write;
  s.Scheme.free p;
  ignore (s.Scheme.load (at 0) 1);
  Alcotest.(check bool) "largest fields decode exactly" true
    (decode t
     = [ Alloc (0, max_off); Acc (0, Scheme.Load, 0, max_off - 1, 15);
         Acc (1, Scheme.Store_ptr, 0, 0, 8); Chk (2, 0, max_off - 1, max_int, Write); Dead 0;
         Acc (2, Scheme.Load, -1, 0, 1) ]);
  let too_big what f =
    match f () with
    | _ -> Alcotest.failf "%s: recorded without complaint" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ ": the recorder says so") true
        (String.length msg > 10 && String.sub msg 0 10 = "Sitestream")
  in
  too_big "size 2^31" (fun () -> ignore (s.Scheme.malloc (1 lsl 31)));
  too_big "width 16" (fun () -> ignore (s.Scheme.load (at 0) 16));
  too_big "negative width" (fun () -> ignore (s.Scheme.load (at 0) (-1)));
  too_big "a cap past the object field" (fun () ->
      ignore (Sitestream.wrap ~cap:(1 lsl 24) (logging ms l)))

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

(* Free-list reuse against the same reference: a few hundred objects
   on a shuffled 16-byte grid (so the table grows past its first
   arrays), then rounds that kill about half the live objects (enough
   tombstones to force compaction) and rebirth at the dead bases and
   at their neighbours 8 bytes either side, with frames of fresh
   objects and lookups over the whole window between the steps. *)
let live_reuse_run ~skip_empty seed =
  let rng = Random.State.make [| seed |] in
  let t = Live.create ~skip_empty () in
  let r = { r_skip = skip_empty; r_objs = []; r_births = 0; r_frames = [] } in
  let int n = Random.State.int rng n in
  let window = 0x4000 in
  let step = ref 0 in
  let ctx what =
    Printf.sprintf "reuse, skip_empty=%b seed %d step %d: %s" skip_empty seed !step what
  in
  let same what (o : Live.obj option) (ro : robj option) =
    match (o, ro) with
    | None, None -> ()
    | Some o, Some ro when o.id = ro.r_id && o.lo = ro.r_lo && o.hi = ro.r_hi -> ()
    | _ ->
      Alcotest.failf "%s: Live says %s, the reference %s" (ctx what)
        (match o with Some o -> Printf.sprintf "object %d" o.id | None -> "none")
        (match ro with Some o -> Printf.sprintf "object %d" o.r_id | None -> "none")
  in
  let born ~in_frame lo =
    incr step;
    let size = [| 0; 8; 16; 16; 24; 40 |].(int 6) in
    same "birth" (Live.birth ~in_frame t lo size) (r_birth ~in_frame r lo size)
  in
  let die lo =
    incr step;
    same "death" (Live.death t lo) (r_death r lo)
  in
  let probe () =
    for _ = 1 to 64 do
      let a = 0x10000 - 64 + int (window + 128) in
      same (Printf.sprintf "lookup 0x%x" a) (Live.lookup t a) (r_lookup r a)
    done
  in
  let grid = Array.init (window / 16) (fun k -> 0x10000 + (16 * k)) in
  for k = Array.length grid - 1 downto 1 do
    let j = int (k + 1) in
    let x = grid.(k) in
    grid.(k) <- grid.(j);
    grid.(j) <- x
  done;
  let first = 300 + int 500 in
  Array.iteri (fun k lo -> if k < first then born ~in_frame:false lo) grid;
  probe ();
  for round = 1 to 8 do
    let live = List.map (fun o -> o.r_lo) r.r_objs in
    List.iter (fun lo -> if int 2 = 0 then die lo) live;
    probe ();
    List.iter
      (fun lo ->
         match int 4 with
         | 0 -> born ~in_frame:false lo
         | 1 -> born ~in_frame:false (lo + 8)
         | 2 -> born ~in_frame:false (lo - 8)
         | _ -> ())
      live;
    probe ();
    Live.push t round;
    r.r_frames <- (round, []) :: r.r_frames;
    for _ = 1 to 40 do
      born ~in_frame:true (0x10000 + (8 * int (window / 8)))
    done;
    probe ();
    if int 3 > 0 then begin
      let tk = if int 4 > 0 then round else round - 1 in
      Alcotest.(check (list int)) (ctx "pop")
        (List.map (fun o -> o.r_id) (r_pop r tk))
        (List.map (fun (o : Live.obj) -> o.id) (Live.pop t tk));
      probe ()
    end
  done;
  Alcotest.(check int) (ctx "births") r.r_births (Live.births t)

let test_live_model () =
  List.iter
    (fun skip_empty -> for seed = 1 to 12 do live_model_run ~skip_empty seed done)
    [ false; true ]

let test_live_reuse_model () =
  List.iter
    (fun skip_empty -> for seed = 1 to 6 do live_reuse_run ~skip_empty seed done)
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

(* A miss (below every base, in a gap, on a dead object's range, past
   the last object), a push and a pop that kills nothing, and a death
   allocate nothing either; a birth only its object. *)
let test_live_misses_deaths_frames_do_not_allocate () =
  let t = Live.create () in
  List.iter (fun lo -> ignore (Live.birth ~in_frame:false t lo 64)) [ 0x1000; 0x2000; 0x4000 ];
  ignore (Live.death t 0x2000);
  let misses = [| 0x800; 0x1800; 0x2010; 0x5000 |] in
  let spin () =
    for i = 0 to 9_999 do
      (match Live.lookup t misses.(i land 3) with
       | None -> ()
       | Some _ -> failwith "lookup hit");
      Live.push t i;
      match Live.pop t i with [] -> () | _ :: _ -> failwith "pop killed"
    done
  in
  spin ();
  let minor = minor_words spin in
  if minor > 0. then
    Alcotest.failf "10000 lookup misses and empty push/pops allocated %.0f minor words" minor;
  let bases = Array.init 1000 (fun i -> 0x10000 + (64 * i)) in
  let births () =
    for i = 0 to Array.length bases - 1 do
      ignore (Live.birth ~in_frame:false t bases.(i) 32)
    done
  in
  (* the record and its [Some] (7 words), plus the arrays' growth *)
  let minor = minor_words births in
  if minor > 8000. then Alcotest.failf "1000 births allocated %.0f minor words" minor;
  let deaths () =
    for i = 0 to Array.length bases - 1 do
      ignore (Live.death t bases.(i))
    done
  in
  let minor = minor_words deaths in
  if minor > 0. then Alcotest.failf "1000 deaths allocated %.0f minor words" minor

(* An audited run does the inner scheme's work plus the auditor's
   bookkeeping, which must not allocate per access. A quarter of the
   smoke size keeps the eight runs near a second; the ratio is the same
   at the full smoke size. *)
(* The auditor's own allocation, per operation it audits: 0.005 words
   since the live table is flat (births and findings; a lookup, a death
   and a frame allocate nothing), against 0.121 when it was a [Map].
   The bound, 0.02, is a quarter of the way back; the run itself
   allocates almost nothing, so a ratio to it would measure the
   auditor's setup. *)
let test_audited_run_allocation () =
  let w = Registry.find "hmmer" in
  let n = Analyze.smoke_n w / 4 in
  List.iter
    (fun scheme ->
       let run wrap = minor_words (fun () -> ignore (Harness.run_one ?wrap ~n ~scheme w)) in
       let plain = run None in
       let auditor = ref None in
       let audited =
         Fun.protect ~finally:Audit.unhook (fun () ->
             run
               (Some
                  (fun s ->
                     let s, t = Audit.wrap ~track_races:false s in
                     auditor := Some t;
                     s)))
       in
       let ops = float_of_int (Audit.ops (Option.get !auditor)) in
       let per_op = (audited -. plain) /. ops in
       if per_op > 0.02 then
         Alcotest.failf
           "%s: audited hmmer allocates %.0f minor words, %.3f per audited op over the \
            unaudited %.0f"
           scheme audited per_op plain)
    [ "native"; "sgxbounds"; "asan"; "mpx" ]

let suite =
  List.map
    (fun w -> Alcotest.test_case (fst w ^ " forwards every op") `Quick (test_forwarding w))
    wrappers
  @ [
    Alcotest.test_case "also: observers stack in one intercept, in layer order" `Quick
      test_also_order;
    Alcotest.test_case "live: birth indices across realloc and free" `Quick
      test_births_across_realloc_free;
    Alcotest.test_case "live: size-0 objects" `Quick test_size_zero;
    Alcotest.test_case "live: pop with an outer frame's token" `Quick test_pop_outer_token;
    Alcotest.test_case "sitestream: the log grows in order and caps to a prefix" `Quick
      test_sitestream_cap;
    Alcotest.test_case "sitestream: seeded model check against a list recorder" `Quick
      test_sitestream_model;
    Alcotest.test_case "sitestream: fields decode exactly up to their limits" `Quick
      test_sitestream_field_limits;
    Alcotest.test_case "sitestream: a two-word event across a chunk boundary" `Quick
      test_sitestream_chunk_boundary;
    Alcotest.test_case "live: seeded model check against a naive table" `Quick test_live_model;
    Alcotest.test_case "live: warm lookups and coverage allocate nothing" `Quick
      test_live_hits_do_not_allocate;
    Alcotest.test_case "live: free-list reuse model check against a naive table" `Quick
      test_live_reuse_model;
    Alcotest.test_case "live: misses, deaths and empty frames allocate nothing" `Quick
      test_live_misses_deaths_frames_do_not_allocate;
    Alcotest.test_case "audit: audited hmmer allocates at most 0.02 words per op over unaudited"
      `Quick
      test_audited_run_allocation;
  ]
