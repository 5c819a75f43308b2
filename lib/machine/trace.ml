(** Superblock trace recorder — the data plane of the [Trace] engine.

    The memory system interprets one access at a time; that per-access
    dispatch is the throughput ceiling the paper's own design argument
    points at (SGXBounds wins by amortizing per-access work — tagged
    pointers instead of per-access table walks; the same amortization
    applies one level up, to the simulator itself). The trace engine
    amortizes the *simulation* of an access stream: the hot inner loops
    of the workloads are strided (scans, sweeps, hammers), so when the
    recorder observes the same (stride, width, class) signature on
    consecutive accesses it promotes the stream to a {e run} — a
    superblock of pending accesses that is later replayed {e per cache
    line} instead of per access by a compiled flush closure.

    This module owns the recorder state and the per-site closure table;
    the fused execution paths and the closure compiler live in
    [Sb_sgx.Memsys], which is the only writer of these fields. The
    split keeps the recorder reusable (and testable) without dragging
    the cache/EPC layers into [lib/machine].

    {b Contract} (pinned by [test/test_trace.ml] and the tri-engine
    fuzz oracle): a run may defer accounting only between accesses of
    the run itself. Any other observation point — a stats read, a
    thread switch, a cooperative yield, an interposed probe
    ([touch_range]/[blit]/[fill] or a non-matching access), a page
    remap, a profiler attach — must flush (and for probes and remaps,
    kill) the run first, so observable simulation state is bit-for-bit
    the naive engine's at every read point. *)

(** Runs only make sense when several accesses share a cache line, so
    strides are capped below the line size; larger strides would flush
    one probe per access and amortize nothing. *)
let max_stride = 63

(** Per-site flush closures are indexed by a packed (stride, width,
    class) signature: 7 bits of stride bias, 2 bits of log2 width,
    3 bits of class index. *)
let sig_space = 4096

let pack_sig ~stride ~width ~ci =
  let wlog = match width with 1 -> 0 | 2 -> 1 | 4 -> 2 | _ -> 3 in
  ((stride + max_stride + 1) lsl 5) lor (wlog lsl 3) lor ci

(** Placeholder for "no closure compiled yet"; compared physically. *)
let no_flush : int -> int -> unit = fun _ _ -> ()

type stats = {
  superblocks : int;   (** runs promoted *)
  fused : int;         (** accesses executed through a fused path *)
  breaks : int;        (** runs killed by a pattern break or interposed probe *)
  invalidations : int; (** runs/windows killed by remap, reset or profiler attach *)
  sites : int;         (** distinct (stride, width, class) signatures compiled *)
}

type t = {
  (* [true] while the recorder may promote new runs. Cleared when the
     machine is created under a non-trace engine, when telemetry is
     enabled (each access must be observed individually), and while a
     profiler charge hook is attached; restored on detach if the
     machine was trace-capable at creation. *)
  mutable on : bool;
  (* Live run. [run_next] is the address the next access must hit to
     continue the run, or [min_int] when no run is active — that single
     compare is the whole fused-path dispatch. [run_k] accesses from
     [run_start] (stride [run_stride], width [run_w], class [run_ci])
     are accumulated but not yet accounted; [run_flush start k] applies
     them. *)
  mutable run_next : int;
  mutable run_w : int;
  mutable run_ci : int;
  mutable run_stride : int;
  mutable run_start : int;
  mutable run_k : int;
  mutable run_flush : int -> int -> unit;
  (* Cached translation window: the backing bytes of the page currently
     under the run, so fused data accesses skip Vmem entirely.
     [win_base] is the simulated address of byte 0 of [win_data], or
     [min_int] when invalid (killed by any unmap/protect via the
     Vmem hook). *)
  mutable win_data : Bytes.t;
  mutable win_base : int;
  mutable win_wr : bool;
  (* Stride detector: a run is promoted when the second consecutive
     stride matches (three accesses with the same (stride, width,
     class) signature). *)
  mutable last_addr : int;
  mutable last_stride : int;
  mutable last_w : int;
  mutable last_ci : int;
  (* Per-site compiled flush closures and hit counts, indexed by packed
     signature. Empty arrays when the recorder was created disabled. *)
  sites : (int -> int -> unit) array;
  site_hits : int array;
  (* Lifetime counters, [stats]. *)
  mutable superblocks : int;
  mutable fused : int;
  mutable breaks : int;
  mutable invalidations : int;
}

let create ~enabled =
  {
    on = enabled;
    run_next = min_int;
    run_w = -1;
    run_ci = -1;
    run_stride = 0;
    run_start = 0;
    run_k = 0;
    run_flush = no_flush;
    win_data = Bytes.empty;
    win_base = min_int;
    win_wr = false;
    last_addr = min_int;
    last_stride = max_int;
    last_w = -1;
    last_ci = -1;
    sites = (if enabled then Array.make sig_space no_flush else [||]);
    site_hits = (if enabled then Array.make sig_space 0 else [||]);
    superblocks = 0;
    fused = 0;
    breaks = 0;
    invalidations = 0;
  }

(** Fresh-run reset: drops (without flushing — callers that must
    account first flush themselves) the live run, the window, the
    detector state and the lifetime counters. Compiled site closures
    are kept — they capture only the machine they were compiled for, and
    recompiling them is pure overhead. *)
let reset t =
  t.run_next <- min_int;
  t.run_w <- -1;
  t.run_ci <- -1;
  t.run_k <- 0;
  t.run_flush <- no_flush;
  t.win_data <- Bytes.empty;
  t.win_base <- min_int;
  t.win_wr <- false;
  t.last_addr <- min_int;
  t.last_stride <- max_int;
  t.last_w <- -1;
  t.last_ci <- -1;
  if Array.length t.site_hits > 0 then
    Array.fill t.site_hits 0 sig_space 0;
  t.superblocks <- 0;
  t.fused <- 0;
  t.breaks <- 0;
  t.invalidations <- 0

let stats t : stats =
  let sites = ref 0 in
  Array.iter (fun f -> if f != no_flush then incr sites) t.sites;
  {
    superblocks = t.superblocks;
    fused = t.fused;
    breaks = t.breaks;
    invalidations = t.invalidations;
    sites = !sites;
  }
