(** The protection-scheme interface.

    A workload performs *every* memory operation through a [t] — the
    moral equivalent of compiling it with the scheme's LLVM/GCC pass
    under the SCONE monolithic-build assumption (§3 of the paper: no
    uninstrumented application code exists).

    Access families:
    - [load]/[store]: ordinary instrumented accesses (checked).
    - [safe_load]/[safe_store]: accesses the compiler can prove
      in-bounds (fixed struct offsets, constant indices into fixed-size
      arrays). Schemes with the "safe accesses" optimization of §4.4
      elide the check; with the optimization off they behave like
      [load]/[store].
    - [check_range] + [*_unchecked]: the loop-hoisting pattern of §4.4 —
      one range check before the loop, raw accesses inside. Schemes that
      cannot hoist (no per-object bounds, or the optimization is off)
      implement [check_range] as a no-op and make the "unchecked" ops
      checked, so semantics never weaken.
    - [load_ptr]/[store_ptr]: pointer-typed memory traffic; this is
      where per-pointer metadata schemes (MPX) spill and fill bounds.
    - [libc_check]: what the scheme's libc wrapper does to a buffer
      argument before calling the real (uninstrumented) libc.
    - [libc_touch]: {!Sb_libc.Simlibc} declares the bytes a raw libc
      body actually touches, right after the corresponding
      [libc_check]. Every real scheme ignores it (the hardware would
      not see the declaration either); the auditing meta-scheme in
      [Sb_analysis] overrides it to verify that wrapper checks and
      libc traffic agree. *)

open Types

type t = {
  name : string;
  ms : Sb_sgx.Memsys.t;
  extras : extras;
  (* the register bounds of this instance's pointers (MPX's BNDx
     contents, SGXBounds' narrowed fields); empty for the other schemes *)
  bounds : Ptr.table;
  (* allocation *)
  malloc : int -> ptr;
  calloc : int -> int -> ptr;
  realloc : ptr -> int -> ptr;
  free : ptr -> unit;
  global : int -> ptr;
  stack_push : unit -> int;
  stack_alloc : int -> ptr;
  stack_pop : int -> unit;
  (* pointer ops *)
  offset : ptr -> int -> ptr;
  addr_of : ptr -> int;
  (* data accesses *)
  load : ptr -> int -> int;
  store : ptr -> int -> int -> unit;
  safe_load : ptr -> int -> int;
  safe_store : ptr -> int -> int -> unit;
  check_range : ptr -> int -> access -> unit;
  load_unchecked : ptr -> int -> int;
  store_unchecked : ptr -> int -> int -> unit;
  (* pointer-typed accesses *)
  load_ptr : ptr -> ptr;
  store_ptr : ptr -> ptr -> unit;
  (* pointer-typed accesses inside a hoisted loop (after check_range on
     the table): SGXBounds reads the tagged word raw — bounds metadata
     arrives with the data, zero extra work ("no additional memory
     lookups for simple loop iterations", §1). Schemes with disjoint
     metadata (MPX) still pay their bndldx/bndstx; schemes that cannot
     hoist keep the full checked path. *)
  load_ptr_unchecked : ptr -> ptr;
  store_ptr_unchecked : ptr -> ptr -> unit;
  (* libc wrapper behaviour *)
  libc_check : ptr -> int -> access -> unit;
  (* Simlibc's declaration of the bytes its raw body touches: function
     name, buffer, byte count, direction. No-op in every real scheme. *)
  libc_touch : string -> ptr -> int -> access -> unit;
}

(** The default [libc_touch]: declarations vanish, like they would on
    real hardware. *)
let no_touch : string -> ptr -> int -> access -> unit = fun _ _ _ _ -> ()

(** Raw untagged address of [p] under scheme [s]. *)
let addr s p = s.addr_of p

(** The machine word of [p] under scheme [s]: what [store_ptr] writes,
    and what uninstrumented code would see. *)
let word s p = Ptr.word s.bounds p

(** Peak reserved virtual memory of the run so far — the metric of the
    paper's memory plots. *)
let peak_vm s = Sb_vmem.Vmem.peak_reserved_bytes (Sb_sgx.Memsys.vmem s.ms)

let reserved_vm s = Sb_vmem.Vmem.reserved_bytes (Sb_sgx.Memsys.vmem s.ms)

(** Convenience: pointer + byte offset, then a checked load. *)
let load_at s p off width = s.load (s.offset p off) width

let store_at s p off width v = s.store (s.offset p off) width v

let check_at s p off len dir = s.check_range (s.offset p off) len dir

(** {1 Interposition}

    A meta-scheme wraps a [t] and adds its own instrumentation around
    the inner scheme's operations: the profiler, the auditors, the
    optimizer's recorder and runtime, fault injection. {!intercept}
    builds the wrapped record from a {!hooks} record, so a meta-scheme
    states only what it adds, never the operations it forwards. *)

(** One tag per operation of [t], in field order. *)
type op =
  | Malloc | Calloc | Realloc | Free | Global
  | Stack_push | Stack_alloc | Stack_pop
  | Offset | Addr_of
  | Load | Store | Safe_load | Safe_store | Check_range
  | Load_unchecked | Store_unchecked
  | Load_ptr | Store_ptr | Load_ptr_unchecked | Store_ptr_unchecked
  | Libc_check | Libc_touch

let op_names =
  [ (Malloc, "malloc"); (Calloc, "calloc"); (Realloc, "realloc"); (Free, "free");
    (Global, "global"); (Stack_push, "stack_push"); (Stack_alloc, "stack_alloc");
    (Stack_pop, "stack_pop"); (Offset, "offset"); (Addr_of, "addr_of");
    (Load, "load"); (Store, "store"); (Safe_load, "safe_load");
    (Safe_store, "safe_store"); (Check_range, "check_range");
    (Load_unchecked, "load_unchecked"); (Store_unchecked, "store_unchecked");
    (Load_ptr, "load_ptr"); (Store_ptr, "store_ptr");
    (Load_ptr_unchecked, "load_ptr_unchecked");
    (Store_ptr_unchecked, "store_ptr_unchecked"); (Libc_check, "libc_check");
    (Libc_touch, "libc_touch") ]

let ops = List.map fst op_names
let op_name op = List.assoc op op_names

(** What a meta-scheme adds. Each hook but the live table is chosen per
    operation when the wrapper is built: [None] for an operation leaves
    that part of it alone, so an operation with no hooks at all is the
    inner scheme's own closure, and a hook needs no dispatch on the op
    at call time. Build each hook closure as a [fun] of its full arity:
    a partial application is much slower to call.

    - [live]: a {!Live} table kept current from the allocation and
      stack-frame operations; [birth] and [death] run on each object
      it registers and kills, after the inner operation.
    - [enter]/[leave]: around any operation but [Offset] and
      [Addr_of]; [leave] also runs when the operation raises.
    - [before op], called as [site p n dir]: before an access ([n] is
      its width, 8 for pointer-typed accesses), a range or libc check
      ([n] is the length) or a libc touch. [site] is [op_name op], or
      the libc function for [Libc_touch].
    - [elide op], called as [p n]: for [Load], [Store], [Load_ptr],
      [Store_ptr], [Check_range] and [Libc_check]; [true] routes an
      access to its [*_unchecked] sibling and skips a check.
    - [after op], called as [p n v]: after an int access or a range or
      libc check returned normally, with [n] as for [before]. [v] is
      the loaded or stored int, or 0 after a check. The result
      replaces a loaded int and is ignored otherwise.
    - [after_ptr op], called as [p n q]: the same after a
      pointer-typed access, with the loaded or stored pointer [q], and
      after [Offset] with its byte offset [n] and result [q]. *)
type hooks = {
  live : Live.t option;
  birth : (Live.obj -> unit) option;
  death : (Live.obj -> unit) option;
  enter : op -> (unit -> unit) option;
  leave : op -> (unit -> unit) option;
  before : op -> (string -> ptr -> int -> access -> unit) option;
  elide : op -> (ptr -> int -> bool) option;
  after : op -> (ptr -> int -> int -> int) option;
  after_ptr : op -> (ptr -> int -> ptr -> unit) option;
}

let none _ = None

let no_hooks =
  { live = None; birth = None; death = None; enter = none; leave = none; before = none;
    elide = none; after = none; after_ptr = none }

(** [intercept h s]: [s] with the hooks of [h] around its operations.
    All closures are built here, once: a call through the result
    allocates nothing beyond what the hooks and [s] allocate. *)
let intercept h s =
  let addr = s.addr_of in
  (* [enter]/[leave] around a whole op; no handler when nothing leaves *)
  let b1 op f =
    match (h.enter op, h.leave op) with
    | None, None -> f
    | Some en, None -> fun a -> en (); f a
    | en, Some lv ->
      let en = Option.value en ~default:ignore in
      fun a -> en (); (match f a with r -> lv (); r | exception e -> lv (); raise e)
  in
  let b2 op f =
    match (h.enter op, h.leave op) with
    | None, None -> f
    | Some en, None -> fun a b -> en (); f a b
    | en, Some lv ->
      let en = Option.value en ~default:ignore in
      fun a b -> en (); (match f a b with r -> lv (); r | exception e -> lv (); raise e)
  in
  let b3 op f =
    match (h.enter op, h.leave op) with
    | None, None -> f
    | Some en, None -> fun a b c -> en (); f a b c
    | en, Some lv ->
      let en = Option.value en ~default:ignore in
      fun a b c -> en (); (match f a b c with r -> lv (); r | exception e -> lv (); raise e)
  in
  let b4 op f =
    match (h.enter op, h.leave op) with
    | None, None -> f
    | Some en, None -> fun a b c d -> en (); f a b c d
    | en, Some lv ->
      let en = Option.value en ~default:ignore in
      fun a b c d -> en (); (match f a b c d with r -> lv (); r | exception e -> lv (); raise e)
  in
  (* ptr -> int -> int *)
  let read op ?unchecked f =
    let f =
      match (h.elide op, unchecked) with
      | Some e, Some u -> fun p w -> if e p w then u p w else f p w
      | _ -> f
    in
    let name = op_name op in
    let f =
      match (h.before op, h.after op) with
      | None, None -> f
      | Some b, None -> fun p w -> b name p w Read; f p w
      | None, Some a -> fun p w -> a p w (f p w)
      | Some b, Some a -> fun p w -> b name p w Read; a p w (f p w)
    in
    b2 op f
  in
  (* ptr -> int -> int -> unit *)
  let write op ?unchecked f =
    let f =
      match (h.elide op, unchecked) with
      | Some e, Some u -> fun p w v -> if e p w then u p w v else f p w v
      | _ -> f
    in
    let name = op_name op in
    let f =
      match (h.before op, h.after op) with
      | None, None -> f
      | Some b, None -> fun p w v -> b name p w Write; f p w v
      | None, Some a -> fun p w v -> f p w v; ignore (a p w v)
      | Some b, Some a -> fun p w v -> b name p w Write; f p w v; ignore (a p w v)
    in
    b3 op f
  in
  (* ptr -> ptr *)
  let read_ptr op ?unchecked f =
    let f =
      match (h.elide op, unchecked) with
      | Some e, Some u -> fun p -> if e p 8 then u p else f p
      | _ -> f
    in
    let name = op_name op in
    let f =
      match (h.before op, h.after_ptr op) with
      | None, None -> f
      | Some b, None -> fun p -> b name p 8 Read; f p
      | None, Some a -> fun p -> let q = f p in a p 8 q; q
      | Some b, Some a -> fun p -> b name p 8 Read; let q = f p in a p 8 q; q
    in
    b1 op f
  in
  (* ptr -> ptr -> unit *)
  let write_ptr op ?unchecked f =
    let f =
      match (h.elide op, unchecked) with
      | Some e, Some u -> fun p q -> if e p 8 then u p q else f p q
      | _ -> f
    in
    let name = op_name op in
    let f =
      match (h.before op, h.after_ptr op) with
      | None, None -> f
      | Some b, None -> fun p q -> b name p 8 Write; f p q
      | None, Some a -> fun p q -> f p q; a p 8 q
      | Some b, Some a -> fun p q -> b name p 8 Write; f p q; a p 8 q
    in
    b2 op f
  in
  (* ptr -> int -> access -> unit *)
  let check op f =
    let f = match h.elide op with Some e -> fun p n d -> if not (e p n) then f p n d | None -> f in
    let name = op_name op in
    let f =
      match (h.before op, h.after op) with
      | None, None -> f
      | Some b, None -> fun p n d -> b name p n d; f p n d
      | None, Some a -> fun p n d -> f p n d; ignore (a p n 0)
      | Some b, Some a -> fun p n d -> b name p n d; f p n d; ignore (a p n 0)
    in
    b3 op f
  in
  let touch f =
    match h.before Libc_touch with
    | Some b -> b4 Libc_touch (fun fn p n d -> b fn p n d; f fn p n d)
    | None -> b4 Libc_touch f
  in
  (* allocation and frames feed the live table *)
  let birth = Option.value h.birth ~default:ignore in
  let death = Option.value h.death ~default:ignore in
  let born ~in_frame f =
    match h.live with
    | Some l -> fun n -> let p = f n in Option.iter birth (Live.birth ~in_frame l (addr p) n); p
    | None -> f
  in
  let calloc, realloc, free, stack_push, stack_pop =
    match h.live with
    | None -> (s.calloc, s.realloc, s.free, s.stack_push, s.stack_pop)
    | Some l ->
      ( (fun n size ->
          let p = s.calloc n size in
          Option.iter birth (Live.birth ~in_frame:false l (addr p) (n * size));
          p),
        (fun p size ->
           let old = addr p in
           let q = s.realloc p size in
           Option.iter death (Live.death l old);
           Option.iter birth (Live.birth ~in_frame:false l (addr q) size);
           q),
        (fun p -> let a = addr p in s.free p; Option.iter death (Live.death l a)),
        (fun () -> let tok = s.stack_push () in Live.push l tok; tok),
        fun tok -> s.stack_pop tok; List.iter death (Live.pop l tok) )
  in
  let offset =
    match h.after_ptr Offset with
    | Some a -> fun p d -> let q = s.offset p d in a p d q; q
    | None -> s.offset
  in
  {
    s with
    malloc = b1 Malloc (born ~in_frame:false s.malloc);
    calloc = b2 Calloc calloc;
    realloc = b2 Realloc realloc;
    free = b1 Free free;
    global = b1 Global (born ~in_frame:false s.global);
    stack_push = b1 Stack_push stack_push;
    stack_alloc = b1 Stack_alloc (born ~in_frame:true s.stack_alloc);
    stack_pop = b1 Stack_pop stack_pop;
    offset;
    load = read Load ~unchecked:s.load_unchecked s.load;
    store = write Store ~unchecked:s.store_unchecked s.store;
    safe_load = read Safe_load s.safe_load;
    safe_store = write Safe_store s.safe_store;
    check_range = check Check_range s.check_range;
    load_unchecked = read Load_unchecked s.load_unchecked;
    store_unchecked = write Store_unchecked s.store_unchecked;
    load_ptr = read_ptr Load_ptr ~unchecked:s.load_ptr_unchecked s.load_ptr;
    store_ptr = write_ptr Store_ptr ~unchecked:s.store_ptr_unchecked s.store_ptr;
    load_ptr_unchecked = read_ptr Load_ptr_unchecked s.load_ptr_unchecked;
    store_ptr_unchecked = write_ptr Store_ptr_unchecked s.store_ptr_unchecked;
    libc_check = check Libc_check s.libc_check;
    libc_touch = touch s.libc_touch;
  }

(** [also outer h]: the hooks of [h] with the observation hooks of
    [outer] added, for one {!intercept}. This is how an observing
    wrapper stacks over another: rather than intercept the scheme [h]
    has already intercepted, which would put every operation through a
    second layer of closures, it adds its hooks to [h]'s. [outer]'s
    [before] runs ahead of [h]'s, its [after] gets the int [h]'s
    [after] returned, and its [after_ptr] runs behind [h]'s: the order
    a second [intercept] around [h]'s would give, except that [h]'s
    [enter] now runs ahead of [outer]'s [before]. [outer] only
    observes: it must set no live table, birth, death, [enter], [leave]
    or [elide] ([Invalid_argument] otherwise). *)
let also outer h =
  let unset f = List.for_all (fun op -> Option.is_none (f op)) ops in
  if
    Option.is_some outer.live || Option.is_some outer.birth || Option.is_some outer.death
    || not (unset outer.enter && unset outer.leave && unset outer.elide)
  then invalid_arg "Scheme.also: the outer hooks must only observe";
  (* each pair fused by a [fun] of the hook's full arity, not by
     partial application *)
  let before op =
    match (outer.before op, h.before op) with
    | None, x | x, None -> x
    | Some o, Some i -> Some (fun site p n d -> o site p n d; i site p n d)
  in
  let after op =
    match (outer.after op, h.after op) with
    | None, x | x, None -> x
    | Some o, Some i -> Some (fun p n v -> o p n (i p n v))
  in
  let after_ptr op =
    match (outer.after_ptr op, h.after_ptr op) with
    | None, x | x, None -> x
    | Some o, Some i -> Some (fun p n q -> i p n q; o p n q)
  in
  { h with before; after; after_ptr }
