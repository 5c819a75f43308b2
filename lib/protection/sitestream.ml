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
    against). Accesses through narrowed pointers ([p.bnd <> None]) are
    recorded referent-less: intra-object bounds are deliberately outside
    the optimizer's certificate language. *)

open Types

(** Whether a clocked op ([Load], [Store], [Load_ptr], [Store_ptr])
    writes. *)
let writes = function Scheme.Store | Scheme.Store_ptr -> true | _ -> false

type event =
  | Alloc of { obj : int; size : int }
  | Dead of { obj : int }
  | Acc of { idx : int; op : Scheme.op; obj : int; off : int; width : int }
      (** [idx] is the op-stream clock; [obj = -1]: no (single) referent *)
  | Chk of { idx : int; obj : int; off : int; len : int; dir : access }
      (** a workload range check; [idx] is the clock value it becomes
          live at (the next access index) *)

type t = {
  mutable buf : event array;  (** the first [nevents] slots are the log *)
  mutable nevents : int;
  live : Live.t;
  mutable ops : int;  (** checked-family op counter *)
  cap : int;
  mutable truncated : bool;
}

let events t = Array.sub t.buf 0 t.nevents
let ops t = t.ops
let births t = Live.births t.live
let truncated t = t.truncated

let emit t e =
  let n = t.nevents in
  if n < t.cap then begin
    if n = Array.length t.buf then begin
      let buf = Array.make (min t.cap (max 1024 (2 * n))) e in
      Array.blit t.buf 0 buf 0 n;
      t.buf <- buf
    end;
    t.buf.(n) <- e;
    t.nevents <- n + 1
  end
  else t.truncated <- true

(* The referent of an access: narrowed pointers have none. *)
let referent t (inner : Scheme.t) p =
  if p.bnd <> None then None else Live.lookup t.live (Scheme.addr inner p)

(** Record one checked-family access and advance the op clock. *)
let acc t inner op p width =
  let idx = t.ops in
  t.ops <- idx + 1;
  match referent t inner p with
  | Some o -> emit t (Acc { idx; op; obj = o.id; off = Scheme.addr inner p - o.lo; width })
  | None -> emit t (Acc { idx; op; obj = -1; off = 0; width })

let chk t inner p len dir =
  match referent t inner p with
  | Some o -> emit t (Chk { idx = t.ops; obj = o.id; off = Scheme.addr inner p - o.lo; len; dir })
  | None -> ()

let wrap ?(cap = 4_000_000) (inner : Scheme.t) : Scheme.t * t =
  let t =
    { buf = [||]; nevents = 0; live = Live.create (); ops = 0; cap; truncated = false }
  in
  let before op =
    match op with
    | Scheme.Load | Scheme.Store | Scheme.Load_ptr | Scheme.Store_ptr ->
      Some (fun _ p width _ -> acc t inner op p width)
    | Scheme.Check_range -> Some (fun _ p len dir -> chk t inner p len dir)
    | _ -> None
  in
  ( Scheme.intercept
      {
        Scheme.no_hooks with
        live = Some t.live;
        birth = Some (fun o -> emit t (Alloc { obj = o.id; size = o.hi - o.lo }));
        death = Some (fun o -> emit t (Dead { obj = o.id }));
        before;
      }
      inner,
    t )
