module Config = Sb_machine.Config
module Vmem = Sb_vmem.Vmem
module Trace = Sb_machine.Trace
module Hierarchy = Sb_cache.Hierarchy
module Telemetry = Sb_telemetry.Telemetry

type access_class =
  | Data
  | Footer_meta
  | Shadow
  | Bounds_table
  | Quarantine
  | Overlay

let all_classes = [ Data; Footer_meta; Shadow; Bounds_table; Quarantine; Overlay ]
let n_classes = 6

let class_index = function
  | Data -> 0
  | Footer_meta -> 1
  | Shadow -> 2
  | Bounds_table -> 3
  | Quarantine -> 4
  | Overlay -> 5

let class_name = function
  | Data -> "data"
  | Footer_meta -> "footer_meta"
  | Shadow -> "shadow"
  | Bounds_table -> "bounds_table"
  | Quarantine -> "quarantine"
  | Overlay -> "overlay"

type class_stat = {
  accesses : int;
  cycles : int;
}

type snapshot = {
  cycles : int;
  instrs : int;
  mem_accesses : int;
  llc_misses : int;
  epc_faults : int;
}

type t = {
  cfg : Config.t;
  vmem : Vmem.t;
  hier : Hierarchy.t;
  epc : Epc.t option;
  tel : Telemetry.t;
  clocks : int array;
  mutable tid : int;
  mutable instrs : int;
  mutable mem_accesses : int;
  (* Cycle attribution: every cycle that enters [clocks] is also charged
     to exactly one bucket — a memory access class or [compute_cycles] —
     so the per-class breakdown always re-adds to the total (per
     thread; a parallel region's elapsed time is the max, not the sum). *)
  cls_accesses : int array;
  cls_cycles : int array;
  mutable compute_cycles : int;
  (* Telemetry hook, hoisted out of [charge_access]: the branch on
     whether histograms exist is taken once at [create] time and baked
     into this closure — a statically allocated no-op when telemetry is
     off, a pre-resolved per-class observation when it is on. *)
  observe : int -> int -> unit;
  mutable yield_countdown : int;
  line_mask : int;
  dram_cost : int;          (* cost of a DRAM access in the current env *)
  (* Fast engine: last-line cost memo. Holds the line-aligned address of
     the hierarchy's most recent access (so that line is at way 0 of L1
     by the LRU invariant), or -1. A single-line access to it is an L1
     hit costing [l1_cost] with no other state change — the short path
     skips the hierarchy walk and the EPC entirely, with identical
     stats. Invalidated by [reset] (which flushes the caches). *)
  mutable last_line : int;
  l1_cost : int;
  (* L2/LLC hit costs, cached so [line_cost] resolves the common probe
     outcomes without a cross-module [Hierarchy.hit_cost] call. *)
  l2_cost : int;
  llc_cost : int;
  (* Whether [observe] does anything — guards the indirect call. *)
  observing : bool;
  fast : bool;
  (* Fast engine, telemetry off: same-line streak accumulator. While
     consecutive single-line accesses stay on [last_line] with the same
     class, each has the identical effect (one L1 hit, [l1_cost] cycles
     to the same buckets), so only a count is kept and the batch is
     applied by [flush_pending] before any other bookkeeping runs or any
     stats are read — observable state equals the naive engine's at
     every read point. The yield countdown is still maintained per
     access, and the batch is flushed before a yield is performed, so
     cooperative scheduling (and every clock a scheduler could read) is
     bit-for-bit unchanged. Disabled under telemetry, which must observe
     each access individually. *)
  mutable pend_k : int;
  mutable pend_ci : int;
  (* Disabled (false) while a profiler is attached: the profiler needs
     every charge delivered at the site where it happens, and a batch
     flushed later would land on whatever site is then current. Batching
     is stats-invariant, so toggling it never changes simulated
     metrics. *)
  mutable batch : bool;
  (* Site-attributed profiling hook ({!attach_profiler}): called with
     (bucket, cost) for every charge — bucket is the access class index,
     or [n_classes] for unclassed compute. One predicted branch when
     detached. *)
  mutable profiling : bool;
  mutable prof : int -> int -> unit;
  (* Trace engine: superblock recorder ({!Sb_machine.Trace}). The run
     accumulator generalizes [pend_k]'s same-line batching to strided
     runs that move across lines, with the same contract: pending
     accounting is flushed before any other probe, any stats read, any
     thread switch and any yield. [trace_capable] is the creation-time
     engine sample; [tr.on] additionally drops while a profiler hook is
     attached. *)
  tr : Trace.t;
  trace_capable : bool;
}

let yield_quantum = 32

(* ---------- trace-engine fused data codec ----------

   The fused run path reads/writes a page's backing bytes directly
   through the window cached in [tr] — same unboxed uint16 composition
   as Vmem's fast codec (value-identical, including the width-8
   sign-replicating store), but through the bounds-check-free 16-bit
   primitives: the window test [0 <= o && o + width <= page_size] has
   already proven every byte in range, and the page's backing store is
   always exactly [page_size] bytes. *)

external get_16u : Bytes.t -> int -> int = "%caml_bytes_get16u"
external set_16u : Bytes.t -> int -> int -> unit = "%caml_bytes_set16u"

let swap16 v = ((v land 0xff) lsl 8) lor ((v lsr 8) land 0xff)

let get16le b o =
  let v = get_16u b o in
  if Sys.big_endian then swap16 v else v

let set16le b o v = set_16u b o (if Sys.big_endian then swap16 (v land 0xffff) else v)

let vpage_size = Vmem.page_size

(* [width] is guaranteed in {1,2,4,8} by the run promotion gate. *)
let win_load data o width =
  match width with
  | 1 -> Char.code (Bytes.unsafe_get data o)
  | 2 -> get16le data o
  | 4 -> get16le data o lor (get16le data (o + 2) lsl 16)
  | _ ->
    (get16le data o
     lor (get16le data (o + 2) lsl 16)
     lor (get16le data (o + 4) lsl 32)
     lor (get16le data (o + 6) lsl 48))
    land max_int

let win_store data o width v =
  match width with
  | 1 -> Bytes.unsafe_set data o (Char.unsafe_chr (v land 0xff))
  | 2 -> set16le data o (v land 0xffff)
  | 4 ->
    set16le data o (v land 0xffff);
    set16le data (o + 2) ((v lsr 16) land 0xffff)
  | _ ->
    set16le data o (v land 0xffff);
    set16le data (o + 2) ((v lsr 16) land 0xffff);
    set16le data (o + 4) ((v lsr 32) land 0xffff);
    set16le data (o + 6) ((v asr 48) land 0xffff)

(* ---------- cost model ---------- *)

let maybe_yield t =
  t.yield_countdown <- t.yield_countdown - 1;
  if t.yield_countdown <= 0 then begin
    t.yield_countdown <- yield_quantum;
    if Sb_machine.Eff.scheduler_active () then Effect.perform Sb_machine.Eff.Yield
  end

(* Cost of touching one cache line at [addr]. *)
let line_cost t addr =
  match Hierarchy.access t.hier ~addr with
  | Hierarchy.L1 -> t.l1_cost
  | Hierarchy.L2 -> t.l2_cost
  | Hierarchy.Llc -> t.llc_cost
  | Hierarchy.Dram ->
    let c = t.dram_cost in
    (match t.epc with
     | None -> c
     | Some epc ->
       if Epc.touch epc ~page:(addr lsr 12) then c else c + t.cfg.costs.epc_fault)

(* Apply the accounting of the live run's [run_k] pending accesses
   through its compiled flush closure, keeping the run alive (the next
   matching access continues it). Must run before any other probe, any
   stats mutation outside the run, and any stats read — the same
   contract as [flush_pending], which calls this. *)
let flush_run t =
  let tr = t.tr in
  let k = tr.Trace.run_k in
  if k > 0 then begin
    let start = tr.Trace.run_start in
    tr.Trace.run_k <- 0;
    tr.Trace.run_start <- tr.Trace.run_next;
    (* Fused-access counting is done here in bulk rather than per access:
       host-side observability only, so a run discarded by [reset]
       (which never flushes) under-counting is fine. *)
    tr.Trace.fused <- tr.Trace.fused + k;
    tr.Trace.run_flush start k
  end

(* Apply a pending same-line streak: [pend_k] accesses, each an L1 hit
   of [l1_cost] cycles charged to class [pend_ci]. Must run before any
   other stats mutation (so a yield can never migrate the batch to
   another thread's clock) and before any stats read. A pending batch
   and a live run are mutually exclusive (promotion flushes the batch,
   and batch accrual only happens with no run live), so the order of
   the two flushes is immaterial. *)
let flush_pending t =
  if t.pend_k > 0 then begin
    let k = t.pend_k in
    let ci = t.pend_ci in
    t.pend_k <- 0;
    t.mem_accesses <- t.mem_accesses + k;
    t.cls_accesses.(ci) <- t.cls_accesses.(ci) + k;
    let c = k * t.l1_cost in
    t.cls_cycles.(ci) <- t.cls_cycles.(ci) + c;
    t.clocks.(t.tid) <- t.clocks.(t.tid) + c;
    Hierarchy.count_l1_mru_hits t.hier k
  end;
  if t.tr.Trace.run_k > 0 then flush_run t

(* Flush and deactivate the live run. The detector is re-seeded with
   the run's tail so a stream that resumes the same stride re-promotes
   after two accesses. Used on pattern breaks, interposed probes
   ([touch_range]/[blit]/[fill]), page remaps and profiler attach —
   anything that would invalidate a run's residency assumptions. *)
let kill_run t =
  let tr = t.tr in
  if tr.Trace.run_w >= 0 then begin
    flush_run t;
    tr.Trace.last_addr <- tr.Trace.run_next - tr.Trace.run_stride;
    tr.Trace.last_stride <- tr.Trace.run_stride;
    tr.Trace.last_w <- tr.Trace.run_w;
    tr.Trace.last_ci <- tr.Trace.run_ci;
    tr.Trace.run_next <- min_int;
    tr.Trace.run_w <- -1;
    tr.Trace.run_ci <- -1;
    tr.Trace.win_base <- min_int
  end

(* Compile the flush closure for a (stride, width, class) site: replay
   the [k] pending accesses of a run starting at [start] with exactly
   the naive engine's observable effects — line probes in access order
   against the live cache/EPC, MRU hits counted in bulk — then apply
   the bulk charges. Replay iterates per cache *line*, not per access:
   within a resident line every access is a way-0 L1 hit, so a whole
   streak collapses into one division. *)
let mk_flush t ~stride ~w ~ci =
  if stride = 0 then
    (* Promotion guaranteed the accessed span sits inside [last_line],
       and no probe can interpose while a run is live, so all [k]
       accesses are way-0 L1 hits. *)
    fun _start k ->
      t.mem_accesses <- t.mem_accesses + k;
      t.cls_accesses.(ci) <- t.cls_accesses.(ci) + k;
      let c = k * t.l1_cost in
      t.cls_cycles.(ci) <- t.cls_cycles.(ci) + c;
      t.clocks.(t.tid) <- t.clocks.(t.tid) + c;
      Hierarchy.count_l1_mru_hits t.hier k
  else begin
    let line = t.cfg.line_size in
    fun start k ->
      let mask = t.line_mask in
      let a = ref start in
      let remaining = ref k in
      let cur = ref t.last_line in
      let mru = ref 0 in
      let cost = ref 0 in
      while !remaining > 0 do
        let first = !a land mask in
        let last = (!a + w - 1) land mask in
        if first = !cur && first = last then begin
          (* MRU streak: every further access whose span stays inside
             [cur] is an L1 hit — batch the whole streak. The division
             computes how many strides fit before the span leaves the
             line (forward: the end crosses; backward: the start
             drops below). *)
          let m =
            if stride > 0 then 1 + ((!cur + line - w - !a) / stride)
            else 1 + ((!cur - !a) / stride)
          in
          let m = if m > !remaining then !remaining else m in
          mru := !mru + m;
          remaining := !remaining - m;
          a := !a + (m * stride)
        end
        else begin
          (* Same probe order as the interpreter: low line first. *)
          cost := !cost + line_cost t !a;
          if first <> last then cost := !cost + line_cost t (!a + w - 1);
          cur := last;
          decr remaining;
          a := !a + stride
        end
      done;
      t.last_line <- !cur;
      Hierarchy.count_l1_mru_hits t.hier !mru;
      let c = !cost + (!mru * t.l1_cost) in
      t.mem_accesses <- t.mem_accesses + k;
      t.cls_accesses.(ci) <- t.cls_accesses.(ci) + k;
      t.cls_cycles.(ci) <- t.cls_cycles.(ci) + c;
      t.clocks.(t.tid) <- t.clocks.(t.tid) + c
  end

(* Continue the live run with one more access: pure counter arithmetic.
   The yield countdown is maintained per access — identical scheduling
   points to the interpreter — and the run is flushed before any yield
   can hand control away. *)
(* Countdown expiry, out of line so the hot path below can inline: the
   countdown itself must tick per access (a scheduler that attaches
   later inherits the exact interpreter phase), but the flush is only
   needed if control can actually leave — without a scheduler the run
   just keeps accumulating. *)
let[@inline never] fused_quantum t =
  t.yield_countdown <- yield_quantum;
  if Sb_machine.Eff.scheduler_active () then begin
    flush_run t;
    Effect.perform Sb_machine.Eff.Yield
  end

let[@inline always] fused_account t =
  let tr = t.tr in
  tr.Trace.run_k <- tr.Trace.run_k + 1;
  tr.Trace.run_next <- tr.Trace.run_next + tr.Trace.run_stride;
  let c = t.yield_countdown - 1 in
  t.yield_countdown <- c;
  if c <= 0 then fused_quantum t

(* Promote the current access into a fresh run. The same-line batch the
   pre-run accesses may have accumulated is flushed first, preserving
   accounting order. The flush closure is compiled once per (stride,
   width, class) signature and memoized in the site table. *)
let start_run t ~ci ~addr ~width ~stride =
  flush_pending t;
  let tr = t.tr in
  let sg = Trace.pack_sig ~stride ~width ~ci in
  let f = tr.Trace.sites.(sg) in
  let f =
    if f != Trace.no_flush then f
    else begin
      let f = mk_flush t ~stride ~w:width ~ci in
      tr.Trace.sites.(sg) <- f;
      f
    end
  in
  tr.Trace.site_hits.(sg) <- tr.Trace.site_hits.(sg) + 1;
  tr.Trace.superblocks <- tr.Trace.superblocks + 1;
  tr.Trace.run_flush <- f;
  tr.Trace.run_stride <- stride;
  tr.Trace.run_w <- width;
  tr.Trace.run_ci <- ci;
  tr.Trace.run_start <- addr;
  tr.Trace.run_next <- addr + stride;
  tr.Trace.run_k <- 1;
  tr.Trace.win_base <- min_int;
  let c = t.yield_countdown - 1 in
  t.yield_countdown <- c;
  if c <= 0 then fused_quantum t

let create ?tel (cfg : Config.t) =
  let tel = match tel with Some t -> t | None -> Telemetry.disabled () in
  let fast = Sb_machine.Fastpath.is_enabled () in
  let trace_capable =
    Sb_machine.Fastpath.trace_enabled () && not (Telemetry.is_enabled tel)
  in
  let epc =
    match cfg.env with
    | Config.Inside_enclave ->
      Some
        (Epc.create
           ~num_pages:((Vmem.addr_mask + 1) lsr 12)
           ~capacity_pages:(max 4 (cfg.epc_bytes / cfg.page_size))
           ())
    | Config.Outside_enclave -> None
  in
  let dram_cost =
    match cfg.env with
    | Config.Inside_enclave -> cfg.costs.dram * (100 + cfg.costs.mee_percent) / 100
    | Config.Outside_enclave -> cfg.costs.dram
  in
  let observe =
    if Telemetry.is_enabled tel then begin
      let hists =
        Array.of_list
          (List.map
             (fun c -> Telemetry.histogram tel ("access_cycles:" ^ class_name c))
             all_classes)
      in
      fun ci cost -> Sb_telemetry.Metrics.Histogram.observe hists.(ci) cost
    end
    else fun _ _ -> ()
  in
  let hier = Hierarchy.create cfg in
  let t =
    {
      cfg;
      vmem = Vmem.create cfg;
      hier;
      epc;
      tel;
      clocks = Array.make cfg.max_threads 0;
      tid = 0;
      instrs = 0;
      mem_accesses = 0;
      cls_accesses = Array.make n_classes 0;
      cls_cycles = Array.make n_classes 0;
      compute_cycles = 0;
      observe;
      yield_countdown = yield_quantum;
      line_mask = lnot (cfg.line_size - 1);
      dram_cost;
      last_line = -1;
      l1_cost = Hierarchy.l1_hit_cost hier;
      l2_cost = cfg.costs.l2_hit;
      llc_cost = cfg.costs.llc_hit;
      observing = Telemetry.is_enabled tel;
      fast;
      pend_k = 0;
      pend_ci = 0;
      batch = fast && not (Telemetry.is_enabled tel);
      profiling = false;
      prof = (fun _ _ -> ());
      tr = Trace.create ~enabled:trace_capable;
      trace_capable;
    }
  in
  if trace_capable then
    (* Any unmap/protect of the address space kills the live run
       and its cached page window: the accounting that is already
       pending is applied (the probes it replays are address-keyed and
       do not depend on the mapping), and the data path re-translates. *)
    Vmem.set_remap_hook t.vmem (fun () ->
      if t.tr.Trace.run_w >= 0 then begin
        t.tr.Trace.invalidations <- t.tr.Trace.invalidations + 1;
        kill_run t
      end
      else t.tr.Trace.win_base <- min_int);
  Telemetry.set_clock tel (fun () -> t.clocks.(t.tid));
  Telemetry.set_tid tel (fun () -> t.tid);
  (match epc with
   | Some e when Telemetry.is_enabled tel ->
     Epc.set_tracer e
       (Some
          (function
            | Epc.Fault { page } ->
              Telemetry.event tel ~cat:"epc" ~args:[ ("page", Printf.sprintf "0x%x" page) ]
                "epc_fault"
            | Epc.Evict { page; slot } ->
              Telemetry.event tel ~cat:"epc"
                ~args:
                  [ ("page", Printf.sprintf "0x%x" page); ("slot", string_of_int slot) ]
                "epc_evict"))
   | _ -> ());
  t

let cfg t = t.cfg
let vmem t = t.vmem
let telemetry t = t.tel

let charge_access t ci cost =
  t.cls_accesses.(ci) <- t.cls_accesses.(ci) + 1;
  t.cls_cycles.(ci) <- t.cls_cycles.(ci) + cost;
  t.clocks.(t.tid) <- t.clocks.(t.tid) + cost;
  if t.observing then t.observe ci cost;
  if t.profiling then t.prof ci cost;
  maybe_yield t

(* The interpreter: one access at a time. Under the trace engine this
   is also the recorder — a break first kills any live run, then the
   stride detector looks for two consecutive equal (stride, width,
   class) steps and promotes the stream into a run. *)
let touch_general t ~cls ~addr ~width =
  let tr = t.tr in
  let ci = class_index cls in
  if tr.Trace.run_w >= 0 then begin
    tr.Trace.breaks <- tr.Trace.breaks + 1;
    kill_run t
  end;
  if
    tr.Trace.on
    && addr - tr.Trace.last_addr = tr.Trace.last_stride
    && width = tr.Trace.last_w
    && ci = tr.Trace.last_ci
    && (match width with 1 | 2 | 4 | 8 -> true | _ -> false)
    && (let s = tr.Trace.last_stride in
        if s = 0 then
          (* Stride-0 runs are accounted as pure MRU hits: require the
             span resident in the last-probed line and unsplit. *)
          (addr land (t.cfg.line_size - 1)) + width <= t.cfg.line_size
          && addr land t.line_mask = t.last_line
        else s >= -Trace.max_stride && s <= Trace.max_stride)
  then start_run t ~ci ~addr ~width ~stride:tr.Trace.last_stride
  else begin
    if tr.Trace.on then begin
      tr.Trace.last_stride <- addr - tr.Trace.last_addr;
      tr.Trace.last_addr <- addr;
      tr.Trace.last_w <- width;
      tr.Trace.last_ci <- ci
    end;
    let first = addr land t.line_mask in
    let last = (addr + width - 1) land t.line_mask in
    if first = t.last_line && first = last then begin
      (* Same line as the previous access: guaranteed L1 hit at way 0. *)
      if t.batch then begin
        if t.pend_k > 0 && ci <> t.pend_ci then flush_pending t;
        t.pend_ci <- ci;
        t.pend_k <- t.pend_k + 1;
        t.yield_countdown <- t.yield_countdown - 1;
        if t.yield_countdown <= 0 then begin
          flush_pending t;
          t.yield_countdown <- yield_quantum;
          if Sb_machine.Eff.scheduler_active () then Effect.perform Sb_machine.Eff.Yield
        end
      end
      else begin
        t.mem_accesses <- t.mem_accesses + 1;
        Hierarchy.count_l1_mru_hits t.hier 1;
        charge_access t ci t.l1_cost
      end
    end
    else begin
      flush_pending t;
      t.mem_accesses <- t.mem_accesses + 1;
      (* The two line probes of a split access must run low-line-first:
         the last-line memo (and the L1 MRU invariant it relies on) needs
         [last] to be the most recently probed line, and OCaml evaluates
         [+] operands right-to-left, so the order is pinned with a let. *)
      let cost =
        if first = last then line_cost t addr
        else begin
          let c_first = line_cost t addr in
          c_first + line_cost t (addr + width - 1)
        end
      in
      if t.fast then t.last_line <- last;
      charge_access t ci cost
    end
  end

let touch ?(cls = Data) t ~addr ~width =
  let tr = t.tr in
  if
    addr = tr.Trace.run_next && width = tr.Trace.run_w
    && class_index cls = tr.Trace.run_ci
  then fused_account t
  else touch_general t ~cls ~addr ~width

let touch_range ?(cls = Data) t ~addr ~len =
  if len > 0 then begin
    flush_pending t;
    (* A bulk range probe moves [last_line] and the cache state out
       from under any live run, so the run cannot stay alive. *)
    kill_run t;
    let line = t.cfg.line_size in
    let first = addr land t.line_mask in
    let last = (addr + len - 1) land t.line_mask in
    let a = ref first in
    let cost = ref 0 in
    let n = ref 0 in
    while !a <= last do
      cost := !cost + line_cost t !a;
      incr n;
      a := !a + line
    done;
    if t.fast then t.last_line <- last;
    let ci = class_index cls in
    t.mem_accesses <- t.mem_accesses + !n;
    t.cls_accesses.(ci) <- t.cls_accesses.(ci) + !n - 1;  (* charge_access adds 1 *)
    charge_access t ci !cost
  end

(* Re-establish the fused data window after a miss: perform the access
   through Vmem (which faults exactly like the interpreter would — the
   access was already accounted, matching the interpreter's
   touch-then-access order), then cache the page under [addr]. *)
let refresh_window t addr =
  let tr = t.tr in
  match Vmem.window t.vmem ~addr with
  | Some (data, writable) ->
    tr.Trace.win_data <- data;
    tr.Trace.win_base <- addr land lnot (vpage_size - 1);
    tr.Trace.win_wr <- writable
  | None -> tr.Trace.win_base <- min_int

let load_refill t ~addr ~width =
  let v = Vmem.load t.vmem ~addr ~width in
  refresh_window t addr;
  v

let store_refill t ~addr ~width v =
  Vmem.store t.vmem ~addr ~width v;
  refresh_window t addr

let load ?(cls = Data) t ~addr ~width =
  let tr = t.tr in
  if
    addr = tr.Trace.run_next && width = tr.Trace.run_w
    && class_index cls = tr.Trace.run_ci
  then begin
    fused_account t;
    let o = addr - tr.Trace.win_base in
    if o >= 0 && o + width <= vpage_size then win_load tr.Trace.win_data o width
    else load_refill t ~addr ~width
  end
  else begin
    touch_general t ~cls ~addr ~width;
    Vmem.load t.vmem ~addr ~width
  end

let store ?(cls = Data) t ~addr ~width v =
  let tr = t.tr in
  if
    addr = tr.Trace.run_next && width = tr.Trace.run_w
    && class_index cls = tr.Trace.run_ci
  then begin
    fused_account t;
    let o = addr - tr.Trace.win_base in
    if tr.Trace.win_wr && o >= 0 && o + width <= vpage_size then
      win_store tr.Trace.win_data o width v
    else store_refill t ~addr ~width v
  end
  else begin
    touch_general t ~cls ~addr ~width;
    Vmem.store t.vmem ~addr ~width v
  end

let blit ?cls t ~src ~dst ~len =
  touch_range ?cls t ~addr:src ~len;
  touch_range ?cls t ~addr:dst ~len;
  Vmem.blit t.vmem ~src ~dst ~len

let fill ?cls t ~addr ~len ~byte =
  touch_range ?cls t ~addr ~len;
  Vmem.fill t.vmem ~addr ~len ~byte

let charge_alu ?cls t n =
  t.instrs <- t.instrs + n;
  let c = n * t.cfg.costs.alu in
  (match cls with
   | None ->
     t.compute_cycles <- t.compute_cycles + c;
     if t.profiling then t.prof n_classes c
   | Some cl ->
     let ci = class_index cl in
     t.cls_cycles.(ci) <- t.cls_cycles.(ci) + c;
     if t.profiling then t.prof ci c);
  t.clocks.(t.tid) <- t.clocks.(t.tid) + c

let set_thread t tid =
  flush_pending t;
  t.tid <- tid

let current_thread t = t.tid

let get_clock t tid =
  flush_pending t;
  t.clocks.(tid)

let set_clock t tid v =
  flush_pending t;
  t.clocks.(tid) <- v

let elapsed t =
  flush_pending t;
  Array.fold_left max 0 t.clocks

let snapshot t =
  flush_pending t;
  {
    cycles = elapsed t;
    instrs = t.instrs;
    mem_accesses = t.mem_accesses;
    llc_misses = Hierarchy.llc_misses t.hier;
    epc_faults = (match t.epc with None -> 0 | Some e -> Epc.faults e);
  }

let attribution t =
  flush_pending t;
  List.map
    (fun c ->
       let i = class_index c in
       (c, { accesses = t.cls_accesses.(i); cycles = t.cls_cycles.(i) }))
    all_classes

let compute_cycles t = t.compute_cycles

let attributed_cycles t =
  flush_pending t;
  Array.fold_left ( + ) t.compute_cycles t.cls_cycles

let cache_stats t =
  flush_pending t;
  Hierarchy.stats t.hier

let trace_stats t =
  flush_pending t;
  Trace.stats t.tr

let reset t =
  t.pend_k <- 0;
  (* Pending run accounting is discarded like [pend_k], not flushed:
     the stats it would land in are being zeroed. Recorder counters are
     zeroed with every other stat, but compiled sites stay — the access
     pattern they memoize is a property of the machine, not the run. *)
  Trace.reset t.tr;
  Array.fill t.clocks 0 (Array.length t.clocks) 0;
  t.tid <- 0;
  t.instrs <- 0;
  t.mem_accesses <- 0;
  Array.fill t.cls_accesses 0 n_classes 0;
  Array.fill t.cls_cycles 0 n_classes 0;
  t.compute_cycles <- 0;
  t.last_line <- -1;
  Hierarchy.flush t.hier;
  Hierarchy.reset_stats t.hier;
  Telemetry.reset t.tel;
  match t.epc with None -> () | Some e -> Epc.clear e

let epc_faults t = match t.epc with None -> 0 | Some e -> Epc.faults e
let epc_evictions t = match t.epc with None -> 0 | Some e -> Epc.evictions e
let llc_misses t = Hierarchy.llc_misses t.hier

(* ---------- site-attributed profiling ---------- *)

module Profile = Sb_telemetry.Profile

let profile_buckets =
  Array.of_list (List.map class_name all_classes @ [ "compute" ])

let set_charge_hook t hook =
  flush_pending t;
  match hook with
  | Some h ->
    (* The profiler needs every charge delivered at the site where it
       happens: kill any live run and stop promoting new ones. Both are
       stats-invariant — simulated metrics do not change. *)
    if t.tr.Trace.run_w >= 0 then
      t.tr.Trace.invalidations <- t.tr.Trace.invalidations + 1;
    kill_run t;
    t.tr.Trace.on <- false;
    t.prof <- h;
    t.profiling <- true;
    t.batch <- false
  | None ->
    t.profiling <- false;
    t.prof <- (fun _ _ -> ());
    t.batch <- t.fast && not (Telemetry.is_enabled t.tel);
    t.tr.Trace.on <- t.trace_capable

let attach_profiler t p =
  if Array.length (Profile.bucket_names p) <> n_classes + 1 then
    invalid_arg "Memsys.attach_profiler: profiler buckets must be profile_buckets";
  Profile.ensure_threads p t.cfg.Config.max_threads;
  Profile.set_tid p (fun () -> t.tid);
  set_charge_hook t (Some (Profile.charge p))

let detach_profiler t = set_charge_hook t None
