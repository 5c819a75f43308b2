module Config = Sb_machine.Config
module Vmem = Sb_vmem.Vmem
module Hierarchy = Sb_cache.Hierarchy
module Cache = Sb_cache.Cache
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
  l1 : Cache.t;             (* [Hierarchy.l1 hier] *)
  line_shift : int;
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
  (* Fast engine: two line memos, each a line-aligned address or -1.
     [last_line] is the line of the hierarchy's most recent access, which
     LRU leaves at way 0 of its L1 set: an access to it is an L1 hit
     costing [l1_cost] that changes nothing but the hit counter.
     [prev_line] is the line accessed just before [last_line] (never
     equal to it): LRU leaves it at way 1 of its set when [last_line]
     shares the set and at way 0 otherwise, so an access to it is an L1
     hit too, whose only other effect is that swap ([Cache.promote]);
     the two memos then trade places. A checked access alternates a
     data line with a metadata line (footer, shadow byte), and this
     pair of memos serves both. Every probe path updates them: a split
     access leaves its low line in [prev_line], [touch_range] and
     [reset] clear it. [prev_line] stays -1 when [two_lines] is false:
     on the naive engine, and when L1 has one way (the line before the
     last may have been evicted). *)
  mutable last_line : int;
  mutable prev_line : int;
  two_lines : bool;
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
}

let yield_quantum = 32

(* ---------- cost model ---------- *)

(* Cost of touching one cache line at [addr]: the L1 probe here, the
   rest of the hierarchy only on an L1 miss. *)
let line_cost t addr =
  let line = addr lsr t.line_shift in
  if Cache.access t.l1 ~line then t.l1_cost
  else
    match Hierarchy.below_l1 t.hier ~line with
    | Hierarchy.L2 -> t.l2_cost
    | Hierarchy.Llc -> t.llc_cost
    | Hierarchy.Dram ->
      let c = t.dram_cost in
      (match t.epc with
       | None -> c
       | Some epc ->
         if Epc.touch epc ~page:(addr lsr 12) then c else c + t.cfg.costs.epc_fault)
    | Hierarchy.L1 -> assert false (* [below_l1] never answers L1 *)

(* Apply a pending same-line streak: [pend_k] accesses, each an L1 hit
   of [l1_cost] cycles charged to class [pend_ci]. Must run before any
   other stats mutation (so a yield can never migrate the batch to
   another thread's clock) and before any stats read. *)
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
    Cache.count_mru_hits t.l1 k
  end

let create ?tel (cfg : Config.t) =
  let tel = match tel with Some t -> t | None -> Telemetry.disabled () in
  let fast = Sb_machine.Fastpath.is_enabled () in
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
      l1 = Hierarchy.l1 hier;
      line_shift = Sb_machine.Util.log2_floor cfg.line_size;
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
      prev_line = -1;
      two_lines = fast && cfg.l1.assoc >= 2;
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
    }
  in
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

(* [ci] comes from [class_index], so the class arrays need no bounds
   check. The yield countdown is inlined: one decrement and one compare
   per access, and the scheduler is asked only once per quantum. *)
let[@inline] charge_access t ci cost =
  Array.unsafe_set t.cls_accesses ci (Array.unsafe_get t.cls_accesses ci + 1);
  Array.unsafe_set t.cls_cycles ci (Array.unsafe_get t.cls_cycles ci + cost);
  t.clocks.(t.tid) <- t.clocks.(t.tid) + cost;
  if t.observing then t.observe ci cost;
  if t.profiling then t.prof ci cost;
  t.yield_countdown <- t.yield_countdown - 1;
  if t.yield_countdown <= 0 then begin
    t.yield_countdown <- yield_quantum;
    if Sb_machine.Eff.scheduler_active () then Effect.perform Sb_machine.Eff.Yield
  end

(* One access of class [ci]: the cost model every costed access and
   metadata touch goes through. *)
let access t ci ~addr ~width =
  let first = addr land t.line_mask in
  let last = (addr + width - 1) land t.line_mask in
  if first = last && first = t.last_line then begin
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
      Cache.count_mru_hits t.l1 1;
      charge_access t ci t.l1_cost
    end
  end
  else if first = last && first = t.prev_line then begin
    (* The line before the last one: an L1 hit at way 1 or way 0. *)
    if t.pend_k > 0 then flush_pending t;
    t.mem_accesses <- t.mem_accesses + 1;
    Cache.promote t.l1 ~line:(first lsr t.line_shift);
    t.prev_line <- t.last_line;
    t.last_line <- first;
    charge_access t ci t.l1_cost
  end
  else begin
    if t.pend_k > 0 then flush_pending t;
    t.mem_accesses <- t.mem_accesses + 1;
    (* The two line probes of a split access must run low-line-first:
       the line memos (and the L1 LRU order they rely on) need [last]
       to be the most recently probed line and [first] the one before,
       and OCaml evaluates [+] operands right-to-left, so the order is
       pinned with a let. *)
    let cost =
      if first = last then line_cost t addr
      else begin
        let c_first = line_cost t addr in
        c_first + line_cost t (addr + width - 1)
      end
    in
    if t.two_lines then t.prev_line <- (if first = last then t.last_line else first);
    if t.fast then t.last_line <- last;
    charge_access t ci cost
  end

let touch ?(cls = Data) t ~addr ~width = access t (class_index cls) ~addr ~width

let touch_range ?(cls = Data) t ~addr ~len =
  if len > 0 then begin
    if t.pend_k > 0 then flush_pending t;
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
    t.prev_line <- -1;
    let ci = class_index cls in
    t.mem_accesses <- t.mem_accesses + !n;
    t.cls_accesses.(ci) <- t.cls_accesses.(ci) + !n - 1;  (* charge_access adds 1 *)
    charge_access t ci !cost
  end

let load ?(cls = Data) t ~addr ~width =
  access t (class_index cls) ~addr ~width;
  Vmem.load t.vmem ~addr ~width

let store ?(cls = Data) t ~addr ~width v =
  access t (class_index cls) ~addr ~width;
  Vmem.store t.vmem ~addr ~width v

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

let trace_stats _ = Sb_machine.Trace.zero

let reset t =
  t.pend_k <- 0;
  Array.fill t.clocks 0 (Array.length t.clocks) 0;
  t.tid <- 0;
  t.instrs <- 0;
  t.mem_accesses <- 0;
  Array.fill t.cls_accesses 0 n_classes 0;
  Array.fill t.cls_cycles 0 n_classes 0;
  t.compute_cycles <- 0;
  t.last_line <- -1;
  t.prev_line <- -1;
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
    t.prof <- h;
    t.profiling <- true;
    t.batch <- false
  | None ->
    t.profiling <- false;
    t.prof <- (fun _ _ -> ());
    t.batch <- t.fast && not (Telemetry.is_enabled t.tel)

let attach_profiler t p =
  if Array.length (Profile.bucket_names p) <> n_classes + 1 then
    invalid_arg "Memsys.attach_profiler: profiler buckets must be profile_buckets";
  Profile.ensure_threads p t.cfg.Config.max_threads;
  Profile.set_tid p (fun () -> t.tid);
  set_charge_hook t (Some (Profile.charge p))

let detach_profiler t = set_charge_hook t None
