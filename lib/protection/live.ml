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
    granules answers repeated lookups without allocating; every birth
    and death invalidates it, and it caches neither a miss nor an
    object another live base lies inside, so a hit is the floor answer.
    [covered], and [add_check] of a known check, allocate nothing. *)

open Types
module Imap = Map.Make (Int)

type obj = {
  lo : int;
  hi : int;  (** the object is [[lo, hi)] *)
  id : int;  (** birth index *)
  mutable checks : (int * int * access) list;
      (** distinct [[lo, hi)] extents of range checks made on it *)
}

type t = {
  skip_empty : bool;
  mutable objects : obj Imap.t;  (** keyed by [lo] *)
  mutable births : int;
  mutable frames : (int * int list) list;  (** token, bases born in the frame *)
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
  { skip_empty; objects = Imap.empty; births = 0; frames = [];
    memo = Array.make memo_slots None; memo_gen = Array.make memo_slots (-1); gen = 0 }

let births t = t.births

(* The floor search, filling memo slot [i] when the answer holds for
   every address of its object: no other live base lies inside it. *)
let lookup_slow t a i =
  match Imap.find_last_opt (fun b -> b <= a) t.objects with
  | Some (_, o) when a < o.hi ->
    let r = Some o in
    (match Imap.find_first_opt (fun b -> b > o.lo) t.objects with
     | Some (b, _) when b < o.hi -> ()
     | _ ->
       t.memo.(i) <- r;
       t.memo_gen.(i) <- t.gen);
    r
  | _ -> None

(** The live object containing address [a]. *)
let lookup t a =
  let i = memo_slot a in
  match t.memo.(i) with
  | Some o as r when t.memo_gen.(i) = t.gen && o.lo <= a && a < o.hi -> r
  | _ -> lookup_slow t a i

(** Register the object [[lo, lo + size)], in the innermost open frame
    if [in_frame]. Returns it, or [None] if it is skipped. *)
let birth ~in_frame t lo size =
  if t.skip_empty && (lo = 0 || size <= 0) then None
  else begin
    let o = { lo; hi = lo + size; id = t.births; checks = [] } in
    t.births <- t.births + 1;
    t.objects <- Imap.add lo o t.objects;
    t.gen <- t.gen + 1;
    (match t.frames with
     | (tok, bases) :: rest when in_frame -> t.frames <- (tok, lo :: bases) :: rest
     | _ -> ());
    Some o
  end

(** Kill the live object based at [lo], returning it. *)
let death t lo =
  match Imap.find_opt lo t.objects with
  | Some o ->
    t.objects <- Imap.remove lo t.objects;
    t.gen <- t.gen + 1;
    Some o
  | None -> None

let push t tok = t.frames <- (tok, []) :: t.frames

(** Close the frame opened with [tok] and every frame inside it,
    returning the objects killed, in the order they died (innermost
    frame first, newest object first). *)
let pop t tok =
  let killed = ref [] in
  let rec unwind = function
    | (tk, bases) :: rest ->
      List.iter (fun b -> Option.iter (fun o -> killed := o :: !killed) (death t b)) bases;
      if tk = tok then rest else unwind rest
    | [] -> []
  in
  t.frames <- unwind t.frames;
  List.rev !killed

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
