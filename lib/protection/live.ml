(** The live-object table of the meta-schemes: which objects are alive,
    where they are, in which order they were born, and which range
    checks have been made on them.

    The scheme interface has no pointer provenance, so object identity
    is the base address. Objects are born at malloc, calloc, realloc,
    global and stack_alloc, and die at free, realloc and stack_pop;
    {!Scheme.intercept} drives the table from those operations.
    Birth indices count births in op-stream order, so the same index
    names the same object in every run of a deterministic workload: it
    survives address reuse, where a base address does not.

    Stack frames unwind to the matching token: [pop t tok] kills every
    frame opened since the [push t tok] that returned [tok], inner
    frames included, so a pop that skips a frame cannot leak its
    objects. A token that matches no open frame unwinds them all.

    [lookup] has floor semantics: the object with the greatest live
    base at or below the address, if the address lies inside it (a
    size-0 object born at a base replaces the live object there and
    contains nothing). A direct-mapped memo over 32-byte address
    granules answers repeated lookups; every birth and death
    invalidates it, and it caches neither a miss nor an object another
    live base lies inside, so a hit is the floor answer.

    Layout: two flat arrays in ascending base order, [bases] and
    [slots], hold every entry up to [n]. A slot is the object's
    [Some o] (built once, at its birth, and handed out by every lookup)
    or [None], a tombstone: a death only clears its slot, so bases stay
    sorted and distinct and the floor is a binary search plus a walk
    left over tombstones. A birth at a tombstone's base, or at a base
    that fits between a tombstone and its neighbours, takes that slot;
    any other birth shifts entries up to the nearest tombstone on its
    right (or to the end). Tombstones are squeezed out when the arrays
    are full (which then double if still more than half live) and when
    they outnumber the live entries, so the walk stays shorter than the
    live set. Stack frames are an int stack: each open frame's token
    and the index where its bases start in one stack of bases.

    What allocates: a birth, its object record and [Some] box (plus
    the amortised growth of the arrays); a [pop] that kills, the list
    it returns. A lookup (hit or miss), a death, a push, a pop that
    kills nothing, [covered], and [add_check] of a known check allocate
    nothing. *)

open Types

type obj = {
  lo : int;
  hi : int;  (** the object is [[lo, hi)] *)
  id : int;  (** birth index *)
  mutable checks : (int * int * access) list;
      (** distinct [[lo, hi)] extents of range checks made on it *)
}

type t = {
  skip_empty : bool;
  mutable bases : int array;  (** ascending and distinct up to [n] *)
  mutable slots : obj option array;  (** [None]: a tombstone *)
  mutable n : int;  (** entries in use, live and tombstones *)
  mutable dead : int;  (** tombstones among them *)
  mutable births : int;
  mutable ftok : int array;  (** open frames' tokens, innermost last *)
  mutable fstart : int array;  (** each open frame's first index in [fbases] *)
  mutable nframes : int;
  mutable fbases : int array;  (** bases born in open frames, in birth order *)
  mutable nfbases : int;
  memo : obj option array;  (** [lookup] answers by address granule *)
  memo_gen : int array;  (** a slot is valid while it equals [gen] *)
  mutable gen : int;  (** bumped by every birth and death *)
}

let memo_slots = 256
let memo_slot a = (a lsr 5) land (memo_slots - 1)

(** [skip_empty]: objects of size 0 and objects at address 0 are not
    born (the recorder keeps them, so its birth indices count every
    allocation; the auditor skips them). *)
let create ?(skip_empty = false) () =
  { skip_empty; bases = Array.make 64 0; slots = Array.make 64 None; n = 0; dead = 0;
    births = 0; ftok = Array.make 16 0; fstart = Array.make 16 0; nframes = 0;
    fbases = Array.make 64 0; nfbases = 0;
    memo = Array.make memo_slots None; memo_gen = Array.make memo_slots (-1); gen = 0 }

let births t = t.births

let is_dead t i = match t.slots.(i) with None -> true | Some _ -> false

(* The first index in [[lo, hi)] whose base is at least [a]. *)
let rec lower_bound bases (a : int) lo hi =
  if lo >= hi then lo
  else
    let mid = (lo + hi) lsr 1 in
    if bases.(mid) < a then lower_bound bases a (mid + 1) hi else lower_bound bases a lo mid

(* The greatest index at or below [i] holding a live object, or -1. *)
let rec live_at_or_below t i = if i >= 0 && is_dead t i then live_at_or_below t (i - 1) else i

(* Does a live base below [hi] sit at index [i] or above? *)
let rec live_below t i (hi : int) =
  i < t.n && t.bases.(i) < hi && ((not (is_dead t i)) || live_below t (i + 1) hi)

(* The floor search, filling memo slot [m] when the answer holds for
   every address of its object: no other live base lies inside it. *)
let lookup_slow t a m =
  let i = lower_bound t.bases (a + 1) 0 t.n - 1 in
  let j = live_at_or_below t i in
  if j < 0 then None
  else
    match t.slots.(j) with
    | Some o as r when a < o.hi ->
      if not (live_below t (i + 1) o.hi) then begin
        t.memo.(m) <- r;
        t.memo_gen.(m) <- t.gen
      end;
      r
    | _ -> None

(** The live object containing address [a]. *)
let lookup t a =
  let m = memo_slot a in
  match t.memo.(m) with
  | Some o as r when t.memo_gen.(m) = t.gen && o.lo <= a && a < o.hi -> r
  | _ -> lookup_slow t a m

(* Squeeze the tombstones out, keeping the order. *)
let compact t =
  let k = ref 0 in
  for i = 0 to t.n - 1 do
    if not (is_dead t i) then begin
      t.bases.(!k) <- t.bases.(i);
      t.slots.(!k) <- t.slots.(i);
      incr k
    end
  done;
  Array.fill t.slots !k (t.n - !k) None;
  t.n <- !k;
  t.dead <- 0

(* [a] in an array twice its length, the rest filled with [x]. *)
let doubled a len x =
  let b = Array.make (2 * Array.length a) x in
  Array.blit a 0 b 0 len;
  b

(* The first tombstone at or above index [i], or [n]. *)
let rec tombstone_from t i = if i < t.n && not (is_dead t i) then tombstone_from t (i + 1) else i

(* Make room for a new entry at index [p], whose base falls between
   those of [p - 1] and [p]: shift the entries from [p] up to the
   nearest tombstone at or above it, or, if there is none, up by one
   onto the end. Returns the index to fill, which moves only when a
   full table is compacted (and grown) first. *)
let rec make_room t p lo =
  let j = tombstone_from t p in
  if j = t.n && t.n = Array.length t.bases then begin
    if t.dead > 0 then compact t;
    if 2 * t.n > Array.length t.bases then begin
      t.bases <- doubled t.bases t.n 0;
      t.slots <- doubled t.slots t.n None
    end;
    make_room t (lower_bound t.bases lo 0 t.n) lo
  end
  else begin
    Array.blit t.bases p t.bases (p + 1) (j - p);
    Array.blit t.slots p t.slots (p + 1) (j - p);
    if j < t.n then t.dead <- t.dead - 1 else t.n <- t.n + 1;
    p
  end

(* Take index [i] for a birth: a tombstone there stops counting. *)
let revive t i =
  if is_dead t i then t.dead <- t.dead - 1;
  i

(** Register the object [[lo, lo + size)], in the innermost open frame
    if [in_frame]. Returns it, or [None] if it is skipped. *)
let birth ~in_frame t lo size =
  if t.skip_empty && (lo = 0 || size <= 0) then None
  else begin
    let r = Some { lo; hi = lo + size; id = t.births; checks = [] } in
    t.births <- t.births + 1;
    t.gen <- t.gen + 1;
    let p = lower_bound t.bases lo 0 t.n in
    let i =
      (* a birth at a live base replaces that object *)
      if p < t.n && t.bases.(p) = lo then revive t p
      else if p > 0 && is_dead t (p - 1) then revive t (p - 1)
      else if p < t.n && is_dead t p then revive t p
      else make_room t p lo
    in
    t.bases.(i) <- lo;
    t.slots.(i) <- r;
    if in_frame && t.nframes > 0 then begin
      if t.nfbases = Array.length t.fbases then t.fbases <- doubled t.fbases t.nfbases 0;
      t.fbases.(t.nfbases) <- lo;
      t.nfbases <- t.nfbases + 1
    end;
    r
  end

(** Kill the live object based at [lo], returning it. *)
let death t lo =
  let i = lower_bound t.bases lo 0 t.n in
  if i < t.n && t.bases.(i) = lo then begin
    match t.slots.(i) with
    | Some _ as r ->
      t.slots.(i) <- None;
      t.dead <- t.dead + 1;
      t.gen <- t.gen + 1;
      (* keep the floor's walk over tombstones shorter than the live set *)
      if t.dead >= 64 && 2 * t.dead > t.n then compact t;
      r
    | None -> None
  end
  else None

let push t tok =
  if t.nframes = Array.length t.ftok then begin
    t.ftok <- doubled t.ftok t.nframes 0;
    t.fstart <- doubled t.fstart t.nframes 0
  end;
  t.ftok.(t.nframes) <- tok;
  t.fstart.(t.nframes) <- t.nfbases;
  t.nframes <- t.nframes + 1

(* The innermost open frame at or below [f] opened with [tok], or the
   outermost one. *)
let rec frame_of t (tok : int) f = if f = 0 || t.ftok.(f) = tok then f else frame_of t tok (f - 1)

(** Close the frame opened with [tok] and every frame inside it,
    returning the objects killed, in the order they died (innermost
    frame first, newest object first). *)
let pop t tok =
  if t.nframes = 0 then []
  else begin
    let f = frame_of t tok (t.nframes - 1) in
    let start = t.fstart.(f) in
    let killed = ref [] in
    for k = t.nfbases - 1 downto start do
      match death t t.fbases.(k) with Some o -> killed := o :: !killed | None -> ()
    done;
    t.nframes <- f;
    t.nfbases <- start;
    List.rev !killed
  end

(* The scans below are top-level so that a call builds no closure, and
   their arguments are typed so that they compare inline rather than
   through the polymorphic [caml_equal]/[caml_lessequal]. *)
let rec has_check (lo : int) (hi : int) (dir : access) = function
  | [] -> false
  | (clo, chi, cdir) :: rest -> (clo = lo && chi = hi && cdir = dir) || has_check lo hi dir rest

(** Record a check of [[lo, hi)] in direction [dir] on [o]. *)
let add_check o lo hi dir =
  if not (has_check lo hi dir o.checks) then o.checks <- (lo, hi, dir) :: o.checks

(** Does one of [checks] cover [[lo, hi)] for an access in direction
    [dir]? A [Write] check licenses both directions, a [Read] check
    only reads. *)
let rec covers (lo : int) (hi : int) (dir : access) = function
  | [] -> false
  | (clo, chi, cdir) :: rest ->
    (clo <= lo && hi <= chi && (cdir = Write || dir = Read)) || covers lo hi dir rest

(** Does a check on [o] cover [[lo, hi)] for an access in direction
    [dir]? (See {!covers}.) *)
let covered o lo hi dir = covers lo hi dir o.checks
