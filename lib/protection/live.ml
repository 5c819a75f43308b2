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
    objects. A token that matches no open frame unwinds them all. *)

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
}

(** [skip_empty]: objects of size 0 and objects at address 0 are not
    born (the recorder keeps them, so its birth indices count every
    allocation; the auditor skips them). *)
let create ?(skip_empty = false) () =
  { skip_empty; objects = Imap.empty; births = 0; frames = [] }

let births t = t.births

(** The live object containing address [a]. *)
let lookup t a =
  match Imap.find_last_opt (fun b -> b <= a) t.objects with
  | Some (_, o) when a < o.hi -> Some o
  | _ -> None

(** Register the object [[lo, lo + size)], in the innermost open frame
    if [in_frame]. Returns it, or [None] if it is skipped. *)
let birth ~in_frame t lo size =
  if t.skip_empty && (lo = 0 || size <= 0) then None
  else begin
    let o = { lo; hi = lo + size; id = t.births; checks = [] } in
    t.births <- t.births + 1;
    t.objects <- Imap.add lo o t.objects;
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

(** Record a check of [[lo, hi)] in direction [dir] on [o]. *)
let add_check o lo hi dir =
  let e = (lo, hi, dir) in
  if not (List.mem e o.checks) then o.checks <- e :: o.checks

(** Does a check on [o] cover [[lo, hi)] for an access in direction
    [dir]? A [Write] check licenses both directions, a [Read] check
    only reads. *)
let covered o lo hi dir =
  List.exists
    (fun (clo, chi, cdir) -> clo <= lo && hi <= chi && (cdir = Write || dir = Read))
    o.checks
