(** The instrumentation auditor: a meta-scheme that wraps any
    {!Sb_protection.Scheme.t} and verifies the discipline behind the
    paper's §4.4 optimizations, which the workload kernels otherwise
    merely assert by hand:

    - every unchecked access must be dominated by a still-valid range
      check on the same live object whose extent covers the access (and
      a [Read] check only licenses reads — a [Write] check licenses both
      directions);
    - every "provably safe" access must be statically in-bounds for its
      live object (the "compiler can prove it" claim);
    - every byte of raw libc traffic ({!Sb_libc.Simlibc} declares it as
      a libc touch) must match a preceding libc wrapper check of the
      same buffer, direction and width;
    - a vector-clock happens-before race detector over {!Sb_mt.Mt}
      fork/join regions flags unsynchronized conflicting accesses to
      application data *and* to scheme metadata — which turns the MPX
      bounds-table non-atomicity of §4.1/Figure 4c into a reported
      finding rather than a bespoke example.

    The wrapper is pure observation: it calls each inner operation
    exactly once, charges no simulated cycles and allocates no simulated
    memory, so audited runs produce bit-identical metrics to unaudited
    ones (pinned by tests). All bookkeeping is host-side.

    Objects and their recorded range checks live in a
    {!Sb_protection.Live} table (skipping size-0 objects); a recorded
    check stays valid for the lifetime of its object. One auditor is active per domain at a time
    (it owns the {!Sb_mt.Mt.set_region_tracer} slot). *)

module Memsys = Sb_sgx.Memsys
module Config = Sb_machine.Config
module Eff = Sb_machine.Eff
module Scheme = Sb_protection.Scheme
module Live = Sb_protection.Live
module Telemetry = Sb_telemetry.Telemetry
open Sb_protection.Types

(* Findings use the unified {!Finding} schema shared with the symbolic
   pass; the auditor reports only {!Finding.dynamic_kinds}. *)

let kind_name = Finding.kind_name
let all_kinds = Finding.dynamic_kinds
let pp_finding = Finding.pp

(* ---------- happens-before shadow cells (FastTrack-style) ---------- *)

type cell = {
  mutable c_wt : int;             (* last writer thread, -1 = none *)
  mutable c_wc : int;             (* last writer clock *)
  mutable c_rd : (int * int) list;(* concurrent-frontier reads: thread, clock *)
}

(* Which disjoint metadata a scheme operation implies. SGXBounds keeps
   the lower bound in a footer written once at allocation and read by
   checks; MPX spills/fills bounds through bounds-table entries keyed by
   the *pointer slot* address, with bndstx/bndldx not atomic with the
   data access (§4.1). Schemes whose metadata never races by
   construction (or that have none) are not modeled. *)
type meta_model = Sb_schemes.Scheme_info.meta = No_meta | Mpx_bt | Sgxbounds_footer

let model_of_name = Sb_schemes.Scheme_info.meta_model_of

let pending_cap = 16 (* a power of two: ring slots wrap with [land] *)

type t = {
  inner : Scheme.t;
  tel : Telemetry.t;
  track_races : bool;
  max_findings : int;
  model : meta_model;
  nthreads : int;
  (* vector clocks, one per hardware thread; vc.(i).(j) = latest segment
     of thread j that thread i has synchronized with *)
  vc : int array array;
  mutable region_n : int;          (* threads of the open region; 0 = sequential *)
  live : Live.t;                   (* live objects and their range checks *)
  (* libc checks awaiting their touch: a ring of the [pending_cap]
     newest, entry k of [npending] (0 the oldest) at [pending_slot] *)
  p_addr : int array;
  p_len : int array;
  p_dir : access array;
  mutable pstart : int;
  mutable npending : int;
  mutable findings_rev : Finding.t list;
  mutable n_stored : int;
  mutable total : int;             (* every occurrence, deduplicated or not *)
  counts : (Finding.kind, int) Hashtbl.t;
  seen : (string, unit) Hashtbl.t;
  data_shadow : (int, cell) Hashtbl.t;  (* keyed by 4-byte granule *)
  meta_shadow : (int, cell) Hashtbl.t;
  mutable ops : int;
}

(* ---------- vector-clock fork/join ---------- *)

let join t =
  if t.region_n > 0 then begin
    let v0 = t.vc.(0) in
    for i = 1 to t.region_n - 1 do
      let vi = t.vc.(i) in
      for j = 0 to t.nthreads - 1 do
        if vi.(j) > v0.(j) then v0.(j) <- vi.(j)
      done
    done;
    v0.(0) <- v0.(0) + 1;
    t.region_n <- 0
  end

let fork t n =
  join t;  (* back-to-back regions: close the previous one first *)
  for i = 1 to n - 1 do
    Array.blit t.vc.(0) 0 t.vc.(i) 0 t.nthreads
  done;
  for i = 0 to n - 1 do
    t.vc.(i).(i) <- t.vc.(i).(i) + 1
  done;
  t.region_n <- n

(* Lazily close a region once sequential code resumes: Mt only signals
   region starts, but no audited operation can happen between a region's
   end and the next operation that observes the scheduler inactive. *)
let enter t =
  t.ops <- t.ops + 1;
  if t.region_n > 0 && not (Eff.scheduler_active ()) then join t

let scheme_name t = t.inner.Scheme.name

let cur_thread t =
  if Eff.scheduler_active () then Memsys.current_thread t.inner.Scheme.ms else 0

(* ---------- object lookup (also locates a finding's referent) ---------- *)

let lookup t addr = Live.lookup t.live addr

(* ---------- findings ---------- *)

let report t kind ~op ~addr ~width ~detail ~dedup =
  t.total <- t.total + 1;
  Hashtbl.replace t.counts kind
    (1 + Option.value ~default:0 (Hashtbl.find_opt t.counts kind));
  if not (Hashtbl.mem t.seen dedup) then begin
    Hashtbl.replace t.seen dedup ();
    let obj = match lookup t addr with Some o -> o.Live.lo | None -> 0 in
    let f =
      { Finding.kind; site = op; addr; obj; extent = width;
        thread = cur_thread t; detail }
    in
    if t.n_stored < t.max_findings then begin
      t.findings_rev <- f :: t.findings_rev;
      t.n_stored <- t.n_stored + 1
    end;
    Telemetry.event t.tel ~cat:"audit" (kind_name kind)
      ~args:
        [ ("op", op); ("addr", Printf.sprintf "0x%x" addr);
          ("width", string_of_int width); ("detail", detail) ]
  end

let findings t = List.rev t.findings_rev
let total t = t.total
let ops t = t.ops
let count t kind = Option.value ~default:0 (Hashtbl.find_opt t.counts kind)
let counts t = List.filter_map (fun k ->
    match count t k with 0 -> None | c -> Some (k, c)) all_kinds

(* ---------- race shadow ---------- *)

let cell_of tbl g =
  match Hashtbl.find_opt tbl g with
  | Some c -> c
  | None ->
    let c = { c_wt = -1; c_wc = 0; c_rd = [] } in
    Hashtbl.replace tbl g c;
    c

(* epoch (et, ec) happens-before the current segment of thread [u]? *)
let hb t ~et ~ec ~u = ec <= t.vc.(u).(et)

let note_access t ~meta ~op ~addr ~width ~access =
  if t.track_races && width > 0 then begin
    let u = cur_thread t in
    let clk = t.vc.(u).(u) in
    let tbl = if meta then t.meta_shadow else t.data_shadow in
    let kind = if meta then Finding.Meta_race else Finding.Data_race in
    let what = if meta then "metadata" else "data" in
    let g0 = addr asr 2 and g1 = (addr + width - 1) asr 2 in
    (* one report per access, not per granule it spans *)
    let reported = ref false in
    let flag conflict other g =
      if not !reported then begin
        reported := true;
        report t kind ~op ~addr ~width
          ~detail:
            (Printf.sprintf "unsynchronized %s %s conflict with thread %d" what
               conflict other)
          ~dedup:(Printf.sprintf "race:%b:0x%x" meta g)
      end
    in
    for g = g0 to g1 do
      let c = cell_of tbl g in
      (match access with
       | Write ->
         if c.c_wt >= 0 && c.c_wt <> u && not (hb t ~et:c.c_wt ~ec:c.c_wc ~u)
         then flag "write-write" c.c_wt g;
         List.iter
           (fun (rt, rc) ->
              if rt <> u && not (hb t ~et:rt ~ec:rc ~u) then
                flag "read-write" rt g)
           c.c_rd;
         c.c_wt <- u;
         c.c_wc <- clk;
         c.c_rd <- []
       | Read ->
         if c.c_wt >= 0 && c.c_wt <> u && not (hb t ~et:c.c_wt ~ec:c.c_wc ~u)
         then flag "write-read" c.c_wt g;
         c.c_rd <- (u, clk) :: List.filter (fun (rt, _) -> rt <> u) c.c_rd)
    done
  end

(* Allocation is a synchronization point: the allocator hands the block
   to exactly one thread, so epochs recorded by a previous owner of a
   recycled address must not be read as conflicts. Drop stale shadow
   cells over the object's footprint (plus the footer granule). *)
let clear_shadow t addr size =
  if t.track_races then begin
    let g0 = addr asr 2 and g1 = (addr + size + 4 - 1) asr 2 in
    for g = g0 to g1 do
      Hashtbl.remove t.data_shadow g;
      Hashtbl.remove t.meta_shadow g
    done
  end

(* ---------- the contract checkers ---------- *)

let on_alloc t (o : Live.obj) =
  clear_shadow t o.lo (o.hi - o.lo);
  (* the LB footer sits at the object's upper bound *)
  if t.model = Sgxbounds_footer then
    note_access t ~meta:true ~op:"alloc" ~addr:o.hi ~width:4 ~access:Write

(* A checked access under SGXBounds loads the LB footer of its object;
   without race tracking there is nothing to note it in. *)
let meta_read_of_check t addr =
  if t.track_races && t.model = Sgxbounds_footer then
    match lookup t addr with
    | Some o -> note_access t ~meta:true ~op:"check" ~addr:o.Live.hi ~width:4 ~access:Read
    | None -> ()

let audit_unchecked t ~op ~addr ~width ~access =
  (match lookup t addr with
   | None ->
     report t Finding.Unchecked_uncovered ~op ~addr ~width
       ~detail:"no live object contains the access (stale or freed referent)"
       ~dedup:(Printf.sprintf "u:%s:none:0x%x" op (addr asr 12))
   | Some o ->
     if not (Live.covered o addr (addr + width) access) then
       report t Finding.Unchecked_uncovered ~op ~addr ~width
         ~detail:
           (Printf.sprintf
              "access [0x%x,0x%x) not covered by any live %s %s on object [0x%x,0x%x)"
              addr (addr + width)
              (match access with Read -> "read" | Write -> "write")
              (Scheme.op_name Scheme.Check_range) o.lo o.hi)
         ~dedup:(Printf.sprintf "u:%s:0x%x" op o.lo));
  note_access t ~meta:false ~op ~addr ~width ~access

let audit_safe t ~op ~addr ~width ~access =
  (match lookup t addr with
   | None ->
     report t Finding.Safe_oob ~op ~addr ~width
       ~detail:"no live object contains the \"provably safe\" access"
       ~dedup:(Printf.sprintf "s:%s:none:0x%x" op (addr asr 12))
   | Some o ->
     if addr + width > o.hi then
       report t Finding.Safe_oob ~op ~addr ~width
         ~detail:
           (Printf.sprintf
              "access [0x%x,0x%x) straddles the end of object [0x%x,0x%x)"
              addr (addr + width) o.lo o.hi)
         ~dedup:(Printf.sprintf "s:%s:0x%x" op o.lo));
  note_access t ~meta:false ~op ~addr ~width ~access

let audit_checked t ~op ~addr ~width ~access =
  meta_read_of_check t addr;
  note_access t ~meta:false ~op ~addr ~width ~access

let audit_range t ~op ~addr ~width:len ~access =
  if len > 0 then begin
    meta_read_of_check t addr;
    match lookup t addr with
    | None ->
      report t Finding.Check_oob ~op ~addr ~width:len
        ~detail:(op ^ " on no live object")
        ~dedup:(Printf.sprintf "c:none:0x%x" (addr asr 12))
    | Some o ->
      if addr + len > o.hi then
        report t Finding.Check_oob ~op ~addr ~width:len
          ~detail:
            (Printf.sprintf
               "claimed extent [0x%x,0x%x) exceeds object [0x%x,0x%x)" addr
               (addr + len) o.lo o.hi)
          ~dedup:(Printf.sprintf "c:0x%x" o.lo)
      else Live.add_check o addr (addr + len) access
  end

let pending_slot t k = (t.pstart + k) land (pending_cap - 1)

let audit_libc t ~op ~addr ~width:len ~access =
  if len > 0 then begin
    meta_read_of_check t addr;
    (match lookup t addr with
     | None ->
       report t Finding.Check_oob ~op ~addr ~width:len
         ~detail:(op ^ " on no live object")
         ~dedup:(Printf.sprintf "lc:none:0x%x" (addr asr 12))
     | Some o ->
       if addr + len > o.hi then
         report t Finding.Check_oob ~op ~addr ~width:len
           ~detail:
             (Printf.sprintf
                "wrapper-checked extent [0x%x,0x%x) exceeds object [0x%x,0x%x)"
                addr (addr + len) o.lo o.hi)
           ~dedup:(Printf.sprintf "lc:0x%x" o.lo));
    (* a full ring drops its oldest entry *)
    if t.npending = pending_cap then t.pstart <- pending_slot t 1
    else t.npending <- t.npending + 1;
    let slot = pending_slot t (t.npending - 1) in
    t.p_addr.(slot) <- addr;
    t.p_len.(slot) <- len;
    t.p_dir.(slot) <- access
  end

(* The newest pending check at [addr] in direction [access], as its
   position k in the ring, or -1. *)
let rec pending_match t (addr : int) (access : access) k =
  if k < 0 then -1
  else
    let slot = pending_slot t k in
    if t.p_addr.(slot) = addr && t.p_dir.(slot) = access then k
    else pending_match t addr access (k - 1)

(* Drop ring entry [k], keeping the others in order. *)
let pending_remove t k =
  for j = k to t.npending - 2 do
    let dst = pending_slot t j and src = pending_slot t (j + 1) in
    t.p_addr.(dst) <- t.p_addr.(src);
    t.p_len.(dst) <- t.p_len.(src);
    t.p_dir.(dst) <- t.p_dir.(src)
  done;
  t.npending <- t.npending - 1

let audit_touch t ~op:fn ~addr ~width:len ~access =
  if len > 0 then begin
    let k = pending_match t addr access (t.npending - 1) in
    if k < 0 then
      report t Finding.Libc_unchecked ~op:fn ~addr ~width:len
        ~detail:
          (Printf.sprintf "raw libc %s of %d byte(s) with no matching %s"
             (match access with Read -> "read" | Write -> "write")
             len (Scheme.op_name Scheme.Libc_check))
        ~dedup:(Printf.sprintf "lu:%s:0x%x" fn (addr asr 12))
    else begin
      let clen = t.p_len.(pending_slot t k) in
      pending_remove t k;
      if clen <> len then
        report t Finding.Libc_mismatch ~op:fn ~addr ~width:len
          ~detail:
            (Printf.sprintf
               "%s declared %d byte(s) but the body touches %d"
               (Scheme.op_name Scheme.Libc_check) clen len)
          ~dedup:(Printf.sprintf "lm:%s" fn)
    end;
    note_access t ~meta:false ~op:fn ~addr ~width:len ~access
  end

(* ---------- the wrapper ---------- *)

(* What each operation of the audited scheme checks before it runs.
   Under MPX a pointer-typed access also spills/fills bounds through a
   bounds-table entry keyed by the pointer slot — a disjoint metadata
   access that is NOT atomic with the data access (§4.1). *)
let before t op =
  let audit =
    match op with
    | Scheme.Load | Scheme.Store | Scheme.Load_ptr | Scheme.Store_ptr -> Some audit_checked
    | Scheme.Safe_load | Scheme.Safe_store -> Some audit_safe
    | Scheme.Load_unchecked | Scheme.Store_unchecked | Scheme.Load_ptr_unchecked
    | Scheme.Store_ptr_unchecked -> Some audit_unchecked
    | Scheme.Check_range -> Some audit_range
    | Scheme.Libc_check -> Some audit_libc
    | Scheme.Libc_touch -> Some audit_touch
    | _ -> None
  in
  let bounds_table =
    t.model = Mpx_bt
    && (match op with
        | Scheme.Load_ptr | Scheme.Store_ptr | Scheme.Load_ptr_unchecked
        | Scheme.Store_ptr_unchecked -> true
        | _ -> false)
  in
  match audit with
  | Some audit ->
    Some
      (fun site p width access ->
         let addr = Scheme.addr t.inner p in
         audit t ~op:site ~addr ~width ~access;
         if bounds_table then note_access t ~meta:true ~op:site ~addr ~width:8 ~access)
  | None -> None

let unhook () = Sb_mt.Mt.set_region_tracer None

(** [create inner] makes the auditor of a run on [inner] without
    wrapping anything: {!hooks} are its interposition, for a wrapper
    that adds its own observation hooks to the same
    {!Scheme.intercept} (see {!Scheme.also}). Installs this domain's
    {!Sb_mt.Mt.set_region_tracer}; call {!unhook} (or create the next
    auditor) when done. [track_races] enables the happens-before shadow
    (leave it off for single-threaded sweeps: without parallel regions
    it can find nothing and costs host time). *)
let create ?(track_races = true) ?(max_findings = 200) (inner : Scheme.t) : t =
  let nthreads = (Memsys.cfg inner.Scheme.ms).Config.max_threads in
  let t =
    {
      inner;
      tel = Memsys.telemetry inner.Scheme.ms;
      track_races;
      max_findings;
      model = model_of_name inner.Scheme.name;
      nthreads;
      vc = Array.init nthreads (fun _ -> Array.make nthreads 0);
      region_n = 0;
      live = Live.create ~skip_empty:true ();
      p_addr = Array.make pending_cap 0;
      p_len = Array.make pending_cap 0;
      p_dir = Array.make pending_cap Read;
      pstart = 0;
      npending = 0;
      findings_rev = [];
      n_stored = 0;
      total = 0;
      counts = Hashtbl.create 8;
      seen = Hashtbl.create 64;
      data_shadow = Hashtbl.create 1024;
      meta_shadow = Hashtbl.create 64;
      ops = 0;
    }
  in
  Sb_mt.Mt.set_region_tracer (Some (fun n -> fork t n));
  t

(** The auditor's interposition on the scheme it was created for. *)
let hooks t =
  {
    Scheme.no_hooks with
    live = Some t.live;
    birth = Some (fun o -> on_alloc t o);
    enter = (fun _ -> Some (fun () -> enter t));
    before = before t;
  }

(** [wrap inner] returns the audited scheme and the auditor handle
    (see {!create}). *)
let wrap ?track_races ?max_findings (inner : Scheme.t) : Scheme.t * t =
  let t = create ?track_races ?max_findings inner in
  (Scheme.intercept (hooks t) inner, t)
