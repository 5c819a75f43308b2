(** Site-stream recorder for the static check optimizer.

    Our schemes are closures, not compiled code, so "static site" cannot
    mean a program counter. Instead, a checked-family access is
    identified by its {e position in the deterministic operation
    stream}: the [k]-th checked load or store, of data or of a pointer,
    a workload issues. Workloads are deterministic and the stream is a
    workload-level property (engines only change memory-system
    internals), so the same index names the same access in the recording
    run, in the optimized run, under every engine, and under any
    [--jobs] split.

    [wrap] interposes a purely observational layer: it charges nothing,
    touches no simulated memory, and keeps all bookkeeping host-side, so
    a recorded run is bit-identical to an unwrapped one. It logs, per
    event: object births (with size) and deaths, every checked-family
    access (op kind, referent object by birth index, object-relative
    offset, width, clocked by the op counter), and every range check a
    workload issues (the dominating checks the optimizer may elide
    against). Accesses through narrowed pointers ([Ptr.has_bounds p]) are
    recorded referent-less: intra-object bounds are deliberately outside
    the optimizer's certificate language. *)

open Types

(** Whether a clocked op ([Load], [Store], [Load_ptr], [Store_ptr])
    writes. *)
let writes = function Scheme.Store | Scheme.Store_ptr -> true | _ -> false

(** {1 The log format}

    The log is a sequence of ints. An access event is one word; its clock
    (the op-stream index) is not stored: it is the event's position
    among the access events. Bit 0 tells the two kinds of word apart.

    {v
    access  1 | op << 1 | width << 3 | off << 7 | (obj + 1) << 38
    alloc   0 | 0 << 1  |              size << 7 | (obj + 1) << 38
    dead    0 | 1 << 1  |                          (obj + 1) << 38
    check   0 | 2 << 1  | dir << 3   | off << 7  | (obj + 1) << 38,
            then a second word: len
    v}

    [op] is 0-3 for [Load], [Store], [Load_ptr], [Store_ptr] (bit 0 set:
    a write); [dir] is 1 for [Write]. Field limits: [width] 4 bits,
    [off] and [size] 31 bits (the simulated address space), [obj + 1]
    24 bits, with 0 for an access that has no referent. [off] is
    object-relative and never negative, because an access is attributed
    only to the object containing it. A field that does not fit raises
    [Invalid_argument] instead of wrapping into its neighbour, so
    [wrap] refuses a [cap] with more events than [obj] can number. A
    check's [len] has its own word and no limit. *)

let width_bits = 4
let off_bits = 31
let obj_bits = 24
let off_shift = 7
let obj_shift = off_shift + off_bits
let off_mask = (1 lsl off_bits) - 1

let fits name bits v =
  if v < 0 || v >= 1 lsl bits then
    invalid_arg (Printf.sprintf "Sitestream: %s %d does not fit in %d bits" name v bits)

(* The fields every word shares. [obj + 1] always fits: see [wrap]. *)
let word ~low ~field ~obj =
  fits "offset or size" off_bits field;
  low lor (field lsl off_shift) lor ((obj + 1) lsl obj_shift)

(** The fields of an access word. *)
let acc_op w =
  match (w lsr 1) land 3 with
  | 0 -> Scheme.Load
  | 1 -> Scheme.Store
  | 2 -> Scheme.Load_ptr
  | _ -> Scheme.Store_ptr

let acc_writes w = w land 2 <> 0
let acc_width w = (w lsr 3) land ((1 lsl width_bits) - 1)
let acc_off w = (w lsr off_shift) land off_mask

(** The referent's birth index, or -1. *)
let obj_of w = (w lsr obj_shift) - 1

(* The log lives in chunks of [chunk_words] words, so it grows without
   copying what it holds; only the first chunk starts short and
   doubles up to that size, so a short log stays small. *)
let chunk_bits = 16
let chunk_words = 1 lsl chunk_bits
let chunk_mask = chunk_words - 1

type t = {
  mutable chunks : int array array;
      (** word [i] of the log is [chunks.(i lsr chunk_bits).(i land chunk_mask)] *)
  mutable len : int;  (** words logged *)
  mutable nevents : int;
  live : Live.t;
  mutable ops : int;  (** checked-family op counter *)
  cap : int;  (** most events logged *)
  mutable truncated : bool;
}

let ops t = t.ops
let births t = Live.births t.live
let truncated t = t.truncated

let get t i = t.chunks.(i lsr chunk_bits).(i land chunk_mask)

(* Append word [w]. *)
let push t w =
  let i = t.len in
  let c = i lsr chunk_bits and k = i land chunk_mask in
  if c = Array.length t.chunks then
    t.chunks <- Array.append t.chunks [| Array.make chunk_words 0 |];
  let chunk = t.chunks.(c) in
  if k = Array.length chunk then begin
    let grown = Array.make (min chunk_words (2 * k)) 0 in
    Array.blit chunk 0 grown 0 k;
    t.chunks.(c) <- grown;
    grown.(k) <- w
  end
  else chunk.(k) <- w;
  t.len <- i + 1

(* Append an event of [n] words, the second [w1]. *)
let emit t n w0 w1 =
  if t.nevents < t.cap then begin
    push t w0;
    if n = 2 then push t w1;
    t.nevents <- t.nevents + 1
  end
  else t.truncated <- true

(** Visit the log in order: [alloc obj size], [dead obj],
    [acc idx w] with the access word [w] (read it with {!acc_op},
    {!obj_of}, {!acc_off}, {!acc_width}), and
    [chk idx obj off len dir], where [idx] is the clock value the check
    becomes live at (the index of the next access). Nothing is copied. *)
let iter t ~alloc ~dead ~acc ~chk =
  let i = ref 0 and clock = ref 0 in
  while !i < t.len do
    let w = get t !i in
    if w land 1 = 1 then begin
      acc !clock w;
      incr clock;
      incr i
    end
    else begin
      (match (w lsr 1) land 3 with
       | 0 -> alloc (obj_of w) ((w lsr off_shift) land off_mask)
       | 1 -> dead (obj_of w)
       | _ ->
         chk !clock (obj_of w) ((w lsr off_shift) land off_mask) (get t (!i + 1))
           (if w land 8 <> 0 then Write else Read);
         incr i);
      incr i
    end
  done

(* The referent of an access: narrowed pointers have none. *)
let referent t (inner : Scheme.t) p =
  if Ptr.has_bounds p then None else Live.lookup t.live (Scheme.addr inner p)

(** Record one checked-family access and advance the op clock. *)
let acc t inner code p width =
  t.ops <- t.ops + 1;
  fits "width" width_bits width;
  let low = 1 lor (code lsl 1) lor (width lsl 3) in
  match referent t inner p with
  | Some o -> emit t 1 (word ~low ~field:(Scheme.addr inner p - o.lo) ~obj:o.id) 0
  | None -> emit t 1 (word ~low ~field:0 ~obj:(-1)) 0

let chk t inner p len dir =
  match referent t inner p with
  | Some o ->
    let low = 4 lor (match dir with Write -> 8 | Read -> 0) in
    emit t 2 (word ~low ~field:(Scheme.addr inner p - o.lo) ~obj:o.id) len
  | None -> ()

let wrap ?(cap = 4_000_000) (inner : Scheme.t) : Scheme.t * t =
  (* Every object a logged event names was born in the log, so its
     index is below [cap] and [obj + 1] fits when [cap] does. *)
  fits "cap" obj_bits cap;
  let t =
    { chunks = [| Array.make 256 0 |]; len = 0; nevents = 0; live = Live.create (); ops = 0;
      cap; truncated = false }
  in
  (* [code] is the op field of the access word: the inverse of [acc_op] *)
  let access code = Some (fun _ p width _ -> acc t inner code p width) in
  let before = function
    | Scheme.Load -> access 0
    | Scheme.Store -> access 1
    | Scheme.Load_ptr -> access 2
    | Scheme.Store_ptr -> access 3
    | Scheme.Check_range -> Some (fun _ p len dir -> chk t inner p len dir)
    | _ -> None
  in
  ( Scheme.intercept
      {
        Scheme.no_hooks with
        live = Some t.live;
        birth = Some (fun o -> emit t 1 (word ~low:0 ~field:(o.hi - o.lo) ~obj:o.id) 0);
        death = Some (fun o -> emit t 1 (word ~low:2 ~field:0 ~obj:o.id) 0);
        before;
      }
      inner,
    t )
