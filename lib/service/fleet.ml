(** Enclave fleet: N instances of the sharded KV service, each on its
    own simulated machine (own {!Sb_vmem.Vmem}/EPC/cache), behind one
    front load balancer.

    The fleet is a discrete-event simulation at the host level. Each
    instance serves requests one at a time per worker; a request's
    service cycles are whatever its handler charges on that instance's
    machine, so the per-scheme EPC behaviour of a shard is exactly the
    single-machine model's. The balancer walks the open-loop arrival
    schedule in time order, routing each request by policy:

    - round-robin over the alive instances,
    - least-loaded by (queue depth + busy workers) at arrival time,
    - consistent-hash sharding of the YCSB key space ({!Ring}).

    Connection affinity pins a client id to its first-routed instance
    for the non-hash policies. A full per-instance accept queue sheds at
    the balancer, like {!Service}.

    Failure/restart: a kill at simulated time K loses the requests in
    flight on that instance, fails its queued requests over through the
    balancer, and relaunches a fresh enclave — teardown + re-attestation
    charged at the {!Sb_scone.Scone} lifecycle costs, plus the measured
    cycles of re-preloading its shard — before the instance rejoins the
    alive set. The ring never changes membership on failure: keys walk
    clockwise past the dead instance and snap back on restart.

    Determinism: every quantity is simulated (seeded arrival schedule,
    seeded op stream, measured machine cycles), kills are configured
    times, and ties break on instance index — so a run is a pure
    function of its config, bit-identical across the naive/fast/trace
    engines and for any host parallelism around it. Inside a run the
    instances are built, and under [Hash] and [Round_robin] also served,
    on their own domains (see {!run}); that changes no result either. *)

module Config = Sb_machine.Config
module Rng = Sb_machine.Rng
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Scone = Sb_scone.Scone
module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Wctx = Sb_workloads.Wctx
module Memcached_sim = Sb_apps.Memcached_sim
module Histogram = Sb_telemetry.Metrics.Histogram
open Sb_protection.Types

(* ---------- balancer policies ---------- *)

type policy = Round_robin | Least_loaded | Hash

let policy_name = function
  | Round_robin -> "round-robin"
  | Least_loaded -> "least-loaded"
  | Hash -> "hash"

let policy_of_string = function
  | "round-robin" | "rr" -> Some Round_robin
  | "least-loaded" | "ll" -> Some Least_loaded
  | "hash" | "consistent-hash" -> Some Hash
  | _ -> None

let policy_names = [ "round-robin"; "least-loaded"; "hash" ]

(* ---------- consistent-hash ring ---------- *)

module Ring = struct
  (** Consistent hashing with [vnodes] virtual points per instance on a
      splitmix-hashed ring. Key→owner is a pure function of (key,
      instance count), stable across runs and processes; adding or
      removing one instance remaps only the arc segments that gain or
      lose points — ~1/n of the key space, never a reshuffle. *)

  let vnodes = 64

  (* splitmix64 finalizer: deterministic, seedless, well-mixed *)
  let hash x =
    let open Int64 in
    let z = mul (add (of_int x) 0x9E3779B97F4A7C15L) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 30)) 0x94D049BB133111EBL in
    Int64.to_int (logxor z (shift_right_logical z 31)) land Stdlib.max_int

  (* points and keys hash from disjoint id spaces *)
  let point_hash inst v = hash ((((inst * vnodes) + v) * 2) + 0)
  let key_hash k = hash ((k * 2) + 1)

  type t = {
    hashes : int array;  (* sorted ring positions *)
    owners : int array;  (* owning instance per position *)
  }

  let make n =
    if n < 1 then invalid_arg "Ring.make: need at least one instance";
    let pts =
      Array.init (n * vnodes) (fun i ->
          (point_hash (i / vnodes) (i mod vnodes), i / vnodes))
    in
    Array.sort compare pts;
    { hashes = Array.map fst pts; owners = Array.map snd pts }

  (* index of the first point at or clockwise-after [h], wrapping *)
  let position t h =
    let n = Array.length t.hashes in
    let lo = ref 0 and hi = ref n in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.hashes.(mid) < h then lo := mid + 1 else hi := mid
    done;
    if !lo = n then 0 else !lo

  let owner t key = t.owners.(position t (key_hash key))

  (** First alive instance clockwise from the key's position — the
      failover route while an owner is down — or [-1] if nothing is up.
      A loop over the points, so the walk itself allocates nothing. *)
  let first_alive t ~alive key =
    let n = Array.length t.hashes in
    let i = ref (position t (key_hash key)) and steps = ref 0 in
    while !steps < n && not (alive t.owners.(!i)) do
      i := (!i + 1) mod n;
      incr steps
    done;
    if !steps < n then t.owners.(!i) else -1
end

(* ---------- per-instance accept queue ---------- *)

module Fifo = struct
  (** A FIFO of (op id, enqueue time) pairs held in two int rings, doubled
      when full: once the rings have grown to the deepest queue of the
      run, queueing and dequeueing a request allocate nothing. *)

  type t = {
    mutable ids : int array;
    mutable enqs : int array;
    mutable head : int;
    mutable len : int;
  }

  let create () = { ids = Array.make 16 0; enqs = Array.make 16 0; head = 0; len = 0 }
  let length q = q.len

  (* ring slot of the [i]-th queued request; capacities are powers of two *)
  let slot q i = (q.head + i) land (Array.length q.ids - 1)

  let push q ~id ~enq =
    if q.len = Array.length q.ids then begin
      let ids = Array.make (2 * q.len) 0 and enqs = Array.make (2 * q.len) 0 in
      for i = 0 to q.len - 1 do
        ids.(i) <- q.ids.(slot q i);
        enqs.(i) <- q.enqs.(slot q i)
      done;
      q.ids <- ids;
      q.enqs <- enqs;
      q.head <- 0
    end;
    let j = slot q q.len in
    q.ids.(j) <- id;
    q.enqs.(j) <- enq;
    q.len <- q.len + 1

  (* the head's fields; the queue must not be empty *)
  let head_id q = q.ids.(q.head)
  let head_enq q = q.enqs.(q.head)

  let pop q =
    q.head <- slot q 1;
    q.len <- q.len - 1

  (** The queued op ids, head first, and the queue emptied. *)
  let drain q =
    let ids = Array.init q.len (fun i -> q.ids.(slot q i)) in
    q.head <- 0;
    q.len <- 0;
    ids
end

(* ---------- configuration ---------- *)

type config = {
  instances : int;      (** fleet size, >= 1 *)
  workers : int;        (** simulated server threads per instance *)
  queue_cap : int;      (** per-instance accept-queue bound *)
  requests : int;       (** offered load: total arrivals *)
  rate_rps : float;     (** offered rate, requests per simulated second *)
  process : Loadgen.process;
  seed : int;
  scheme : string;
  env : Config.env;
  policy : policy;
  affinity : bool;      (** sticky client→instance routing (non-hash) *)
  clients : int;        (** distinct client connections for affinity *)
  workload : Ycsb.workload;
  dist : Ycsb.dist option;  (** key-distribution override *)
  records : int;        (** preloaded KV records (whole key space) *)
  value_bytes : int;
  kills : (int * int) list;
      (** (instance, simulated time) failure injections; each kill loses
          the in-flight requests, fails queued ones over and relaunches
          the instance after teardown + attestation + shard re-preload *)
}

let default =
  {
    instances = 2;
    workers = 2;
    queue_cap = 64;
    requests = 2000;
    rate_rps = 50_000.;
    process = Loadgen.Poisson;
    seed = 1;
    scheme = "sgxbounds";
    env = Config.Inside_enclave;
    policy = Hash;
    affinity = false;
    clients = 64;
    workload = Ycsb.A;
    dist = None;
    records = 4096;
    value_bytes = 96;
    kills = [];
  }

(* ---------- results ---------- *)

type inst_stats = {
  i_idx : int;
  i_completed : int;
  i_lost : int;
  i_restarts : int;
  i_max_queue : int;
  i_latency : Histogram.t;
  i_queue_wait : Histogram.t;
  i_spans : Spans.log option;
}

type stats = {
  offered : int;
  completed : int;
  dropped : int;        (** shed at the balancer (full queue / fleet down) *)
  failed_over : int;    (** requeued to another instance after a kill *)
  lost : int;           (** in flight on an instance when it died *)
  restarts : int;
  elapsed : int;        (** cycles from t=0 to the last completion *)
  records : int;        (** final record count after the stream's inserts *)
  latency : Histogram.t;      (** {!Latency.merge} over the instances *)
  queue_wait : Histogram.t;
  per_instance : inst_stats array;
}

let throughput_rps st =
  if st.elapsed <= 0 then 0.
  else float_of_int st.completed /. (float_of_int st.elapsed /. Loadgen.cycles_per_sec)

let drop_ratio st =
  if st.offered = 0 then 0. else float_of_int st.dropped /. float_of_int st.offered

let summary st = Latency.summary st.latency

(** One line capturing every merged and per-instance counter plus the
    exact histogram moments — what the determinism tests pin across
    engines and [--jobs]. *)
let fingerprint st =
  let s = summary st in
  Printf.sprintf
    "off=%d done=%d drop=%d fo=%d lost=%d rs=%d el=%d rec=%d \
     p50=%d p99=%d max=%d sum=%d qsum=%d inst=[%s]"
    st.offered st.completed st.dropped st.failed_over st.lost st.restarts
    st.elapsed st.records s.Latency.p50 s.Latency.p99 s.Latency.max
    (Histogram.sum st.latency) (Histogram.sum st.queue_wait)
    (String.concat ";"
       (Array.to_list
          (Array.map
             (fun i ->
                Printf.sprintf "%d/%d/%d/%d" i.i_completed i.i_lost i.i_restarts
                  i.i_max_queue)
             st.per_instance)))

(* ---------- per-instance server ---------- *)

type inst = {
  idx : int;
  mutable ms : Memsys.t;
  mutable serve : worker:int -> Ycsb.op -> unit;
  queue : Fifo.t;               (* (op id, enqueue time) *)
  free_at : int array;          (* per worker: busy until this clock *)
  mutable down_until : int;
  mutable pending_kills : int list;  (* ascending times *)
  mutable completed : int;
  mutable lost : int;
  mutable restarts : int;
  mutable max_queue : int;
  mutable shed : int;           (* arrivals turned away by a full queue *)
  mutable last_fin : int;       (* latest completion *)
  latency : Histogram.t;
  queue_wait : Histogram.t;
  spans : Spans.log option;
}

let next_kill inst = match inst.pending_kills with [] -> max_int | k :: _ -> k

let alive inst ~t = inst.down_until <= t

let load inst ~t =
  let busy = ref 0 in
  for w = 0 to Array.length inst.free_at - 1 do
    if inst.free_at.(w) > t then incr busy
  done;
  Fifo.length inst.queue + !busy

(* The worker that takes the queue head next: the earliest free one,
   lowest index on ties. *)
let next_worker inst =
  let w = ref 0 in
  for i = 1 to Array.length inst.free_at - 1 do
    if inst.free_at.(i) < inst.free_at.(!w) then w := i
  done;
  !w

(* The shard an instance preloads: under hash routing, exactly the keys
   it owns on the ring; under the replicating policies, every record. *)
let shard_keys (cfg : config) ring idx =
  let keys = ref [] in
  for k = cfg.records - 1 downto 0 do
    if cfg.policy <> Hash || Ring.owner ring k = idx then keys := k :: !keys
  done;
  !keys

(* Deterministic per-(instance, incarnation) seed. *)
let inst_seed (cfg : config) idx incarnation =
  (cfg.seed * 1_000_003) + (idx * 7919) + incarnation

(** Build one server incarnation: fresh machine, scheme, KV store, the
    shard preloaded, one connection and I/O buffer per worker. The
    machine's thread-0 clock after this is the setup cost in cycles. *)
let build (cfg : config) ring idx ~seed =
  let ms = Memsys.create (Config.default ~env:cfg.env ()) in
  let s = Harness.maker cfg.scheme ms in
  let ctx = Wctx.make ~seed s in
  let t = Memcached_sim.create ~value_bytes:cfg.value_bytes ctx in
  List.iter (fun k -> Memcached_sim.set_kv t k k) (shard_keys cfg ring idx);
  let conns = Array.init cfg.workers (fun _ -> Memcached_sim.open_conn t) in
  let bufs = Array.init cfg.workers (fun _ -> s.Scheme.malloc 1024) in
  let serve ~worker op =
    let conn = conns.(worker) and buf = bufs.(worker) in
    (match op with
     | Ycsb.Read k -> Memcached_sim.serve_request t ~conn ~buf ~key:k ~is_get:true
     | Ycsb.Update k | Ycsb.Insert k ->
       Memcached_sim.serve_request t ~conn ~buf ~key:k ~is_get:false
     | Ycsb.Rmw k ->
       (* one request envelope; the write-back is server-side *)
       Memcached_sim.serve_request t ~conn ~buf ~key:k ~is_get:true;
       Memcached_sim.set_kv t k k
     | Ycsb.Scan (k, len) ->
       Memcached_sim.serve_request t ~conn ~buf ~key:k ~is_get:true;
       for j = 1 to len - 1 do
         ignore (Memcached_sim.get t (k + j))
       done);
    (* nothing reads the response bytes back; dropping them keeps the
       connection from holding every response of the run *)
    Scone.clear_sent t.Memcached_sim.world conn
  in
  (ms, serve)

let install_spans_hook inst =
  match inst.spans with
  | Some log ->
    Memsys.set_charge_hook inst.ms
      (Some (Spans.charge_hook log (fun () -> Memsys.current_thread inst.ms)))
  | None -> ()

(* ---------- the discrete-event drive loop ---------- *)

(** Serve everything this instance can start at or before [t]: pop the
    queue head whenever the earliest-free worker can begin it before the
    horizon (and strictly before the instance's next scheduled kill).
    Each request runs to completion on the instance's machine — its
    measured cycles set the worker's next free time — and is classified
    immediately: completed if it finishes before the kill, lost if the
    kill lands mid-execution. A request leaves the queue only once it has
    run, so one that raises is still the queue head. *)
let advance_inst inst ops arrivals ~t =
  let horizon = min t (next_kill inst - 1) in
  let continue = ref true in
  while !continue do
    if Fifo.length inst.queue = 0 then continue := false
    else begin
      let id = Fifo.head_id inst.queue and enq = Fifo.head_enq inst.queue in
      let w = next_worker inst in
      let start = max inst.free_at.(w) enq in
      if start > horizon then continue := false
      else begin
        Memsys.set_thread inst.ms w;
        Memsys.set_clock inst.ms w start;
        (match inst.spans with
         | Some log -> Spans.begin_exec log ~worker:w
         | None -> ());
        inst.serve ~worker:w ops.(id);
        Fifo.pop inst.queue;
        let fin = Memsys.get_clock inst.ms w in
        inst.free_at.(w) <- fin;
        if fin <= next_kill inst then begin
          inst.completed <- inst.completed + 1;
          if fin > inst.last_fin then inst.last_fin <- fin;
          Histogram.observe inst.latency (fin - arrivals.(id));
          Histogram.observe inst.queue_wait (start - arrivals.(id));
          match inst.spans with
          | Some log ->
            Spans.finish log ~id ~worker:w ~arrival:arrivals.(id) ~dequeue:start ~fin
          | None -> ()
        end
        else begin
          (* the enclave dies with this request on the worker *)
          inst.lost <- inst.lost + 1;
          match inst.spans with
          | Some log -> Spans.abort log ~worker:w
          | None -> ()
        end
      end
    end
  done

(** [run ?spans cfg] drives the whole schedule and returns the merged
    stats. With [spans], each instance keeps its own slowest-K exemplar
    reservoir (observation only — stats are unchanged).

    The reference semantics is the per-arrival loop: at every arrival,
    apply the kills due, advance every instance to the arrival time, then
    route the arrival. [Least_loaded] runs exactly that, because its
    routing reads every instance's load. Under [Hash] and [Round_robin]
    the instance an arrival goes to depends only on the kill schedule
    (ring ownership, alive windows, the round-robin counter, sticky
    clients), and a full queue sheds against that instance's own queue.
    So those runs go epoch by epoch, an epoch being the span up to the
    next kill time: route the epoch's arrivals, then let each instance
    admit and serve its share on its own domain, then apply the kills.
    An instance advanced only at its own arrivals serves the same FIFO
    queue in the same order at the same start times as one advanced at
    every arrival, so both drivers give bit-identical results. Instances
    are built on their own domains too. *)
let run ?spans (cfg : config) =
  if cfg.instances < 1 then invalid_arg "Fleet.run: instances must be >= 1";
  if cfg.workers < 1 then invalid_arg "Fleet.run: workers must be >= 1";
  if cfg.queue_cap < 1 then invalid_arg "Fleet.run: queue_cap must be >= 1";
  if cfg.clients < 1 then invalid_arg "Fleet.run: clients must be >= 1";
  if cfg.records < 1 then invalid_arg "Fleet.run: records must be >= 1";
  List.iter
    (fun (i, at) ->
       if i < 0 || i >= cfg.instances then
         invalid_arg "Fleet.run: kill names an instance out of range";
       if at < 0 then invalid_arg "Fleet.run: kill time must be >= 0")
    cfg.kills;
  let rng = Rng.create cfg.seed in
  let arrivals =
    Loadgen.arrivals ~rng ~process:cfg.process ~rate_rps:cfg.rate_rps
      ~n:cfg.requests
  in
  let op_seed = Rng.split rng in
  let ops, final_records =
    Ycsb.generate ?dist:cfg.dist ~seed:op_seed ~workload:cfg.workload
      ~records:cfg.records ~n:cfg.requests ()
  in
  let ring = Ring.make cfg.instances in
  let jobs = min cfg.instances (Domain.recommended_domain_count ()) in
  let kills = List.sort compare (List.map (fun (i, at) -> (at, i)) cfg.kills) in
  match
    let make_inst idx =
      let ms, serve = build cfg ring idx ~seed:(inst_seed cfg idx 0) in
      let inst =
        {
          idx;
          ms;
          serve;
          queue = Fifo.create ();
          free_at = Array.make cfg.workers 0;
          down_until = 0;
          pending_kills =
            List.filter_map (fun (at, i) -> if i = idx then Some at else None) kills;
          completed = 0;
          lost = 0;
          restarts = 0;
          max_queue = 0;
          shed = 0;
          last_fin = 0;
          latency = Histogram.create (Printf.sprintf "fleet.%d.latency" idx);
          queue_wait = Histogram.create (Printf.sprintf "fleet.%d.queue_wait" idx);
          spans =
            Option.map (fun cap -> Spans.create ~cap ~workers:cfg.workers ()) spans;
        }
      in
      install_spans_hook inst;
      inst
    in
    (* the lowest-index failure is the one a sequential build would hit *)
    let built =
      Parallel_runner.map ~jobs
        (fun idx ->
           try Ok (make_inst idx) with e -> Error (e, Printexc.get_raw_backtrace ()))
        (Array.init cfg.instances Fun.id)
    in
    let insts =
      Array.map
        (function Ok inst -> inst | Error (e, bt) -> Printexc.raise_with_backtrace e bt)
        built
    in
    let dropped = ref 0 and failed_over = ref 0 in
    let rr = ref 0 in
    let sticky = Array.make cfg.clients (-1) in
    let advance_all ~t =
      for i = 0 to cfg.instances - 1 do
        advance_inst insts.(i) ops arrivals ~t
      done
    in
    (* Routing allocates nothing: every choice below is an instance
       index, [-1] when nothing is up. *)
    let rr_next ~t =
      let n = cfg.instances in
      let c = ref (-1) and tries = ref 0 in
      while !c < 0 && !tries < n do
        let i = !rr mod n in
        incr rr;
        incr tries;
        if alive insts.(i) ~t then c := i
      done;
      !c
    in
    let ll_pick ~t =
      let best = ref (-1) and best_load = ref 0 in
      for i = 0 to cfg.instances - 1 do
        if alive insts.(i) ~t then begin
          let l = load insts.(i) ~t in
          if !best < 0 || l < !best_load then begin
            best := i;
            best_load := l
          end
        end
      done;
      !best
    in
    (* [Ring.first_alive]'s predicate, built once per run: [pick] sets
       [now] instead of allocating a closure over [t] per request *)
    let now = ref 0 in
    let alive_now i = alive insts.(i) ~t:!now in
    (* The instance a request at time [t] goes to: chosen by policy
       among the alive ones, [-1] if nothing is up. *)
    let pick ~t ~id =
      match cfg.policy with
      | Hash ->
        now := t;
        Ring.first_alive ring ~alive:alive_now (Ycsb.op_key ops.(id))
      | Round_robin | Least_loaded ->
        let client = id mod cfg.clients in
        if cfg.affinity && sticky.(client) >= 0 && alive insts.(sticky.(client)) ~t then
          sticky.(client)
        else begin
          let c =
            match cfg.policy with
            | Round_robin -> rr_next ~t
            | Least_loaded -> ll_pick ~t
            | Hash -> assert false
          in
          if c >= 0 && cfg.affinity then sticky.(client) <- c;
          c
        end
    in
    (* Queue the request on [inst], or shed it if the queue is full.
       Touches nothing outside [inst] unless [requeue]. *)
    let admit inst ~t ~id ~requeue =
      if Fifo.length inst.queue >= cfg.queue_cap then inst.shed <- inst.shed + 1
      else begin
        Fifo.push inst.queue ~id ~enq:t;
        if Fifo.length inst.queue > inst.max_queue then
          inst.max_queue <- Fifo.length inst.queue;
        if requeue then incr failed_over
      end
    in
    let route ~t ~id ~requeue =
      let i = pick ~t ~id in
      if i < 0 then incr dropped else admit insts.(i) ~t ~id ~requeue
    in
    let do_kill inst ~at =
      inst.pending_kills <- List.tl inst.pending_kills;
      let queued = Fifo.drain inst.queue in
      inst.restarts <- inst.restarts + 1;
      (* relaunch: fresh enclave + shard re-preload, then the SCONE
         lifecycle bill — EPC teardown and the re-attestation round
         trip — before the instance rejoins the alive set *)
      let ms, serve =
        build cfg ring inst.idx ~seed:(inst_seed cfg inst.idx inst.restarts)
      in
      Memsys.charge_alu ms (Scone.enclave_teardown + Scone.enclave_attest);
      let ready = at + Memsys.get_clock ms 0 in
      inst.ms <- ms;
      inst.serve <- serve;
      install_spans_hook inst;
      Array.fill inst.free_at 0 cfg.workers ready;
      inst.down_until <- ready;
      (* the queued requests fail over through the balancer *)
      Array.iter (fun id -> route ~t:at ~id ~requeue:true) queued
    in
    let pending = ref kills in
    let process_kills_until t =
      let continue = ref true in
      while !continue do
        match !pending with
        | (at, i) :: rest when at <= t ->
          pending := rest;
          advance_all ~t:at;
          do_kill insts.(i) ~at
        | _ -> continue := false
      done
    in
    (match cfg.policy with
     | Least_loaded ->
       for id = 0 to cfg.requests - 1 do
         let t = arrivals.(id) in
         process_kills_until t;
         advance_all ~t;
         route ~t ~id ~requeue:false
       done;
       process_kills_until max_int;
       advance_all ~t:max_int
     | Hash | Round_robin ->
       let owner = Array.make cfg.requests (-1) in
       let rec epoch lo =
         let until = match !pending with (at, _) :: _ -> at | [] -> max_int in
         let hi = ref lo in
         while !hi < cfg.requests && arrivals.(!hi) < until do
           let id = !hi in
           let i = pick ~t:arrivals.(id) ~id in
           if i < 0 then incr dropped else owner.(id) <- i;
           incr hi
         done;
         let hi = !hi in
         (* The per-arrival loop's step at which a failure would have
            surfaced (arrival [id] is step [2 id + 1], the kills closing
            the epoch step [2 hi]): the raising request, still the queue
            head, runs at the first step after its enqueue whose
            horizon reaches its start. A requeued request (enqueued at
            a kill time, after its arrival) entered before [lo]. *)
         let failure_step inst =
           if Fifo.length inst.queue = 0 then 2 * hi
           else begin
             let id = Fifo.head_id inst.queue and enq = Fifo.head_enq inst.queue in
             let start = max inst.free_at.(next_worker inst) enq in
             let j = ref (if enq = arrivals.(id) then max lo (id + 1) else lo) in
             while !j < hi && arrivals.(!j) < start do incr j done;
             if !j < hi then (2 * !j) + 1 else 2 * hi
           end
         in
         let serve_share inst =
           match
             for id = lo to hi - 1 do
               if owner.(id) = inst.idx then begin
                 let t = arrivals.(id) in
                 advance_inst inst ops arrivals ~t;
                 admit inst ~t ~id ~requeue:false
               end
             done;
             advance_inst inst ops arrivals ~t:until
           with
           | () -> None
           | exception e -> Some (failure_step inst, e, Printexc.get_raw_backtrace ())
         in
         (* several failures: the earliest step wins, then the lowest index *)
         let earliest a b =
           match (a, b) with
           | None, _ -> b
           | Some (sa, _, _), Some (sb, _, _) when sb < sa -> b
           | _ -> a
         in
         (match Array.fold_left earliest None (Parallel_runner.map ~jobs serve_share insts) with
          | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
          | None -> ());
         if until < max_int then begin
           process_kills_until until;
           epoch hi
         end
       in
       epoch 0);
    let per_instance =
      Array.map
        (fun inst ->
           {
             i_idx = inst.idx;
             i_completed = inst.completed;
             i_lost = inst.lost;
             i_restarts = inst.restarts;
             i_max_queue = inst.max_queue;
             i_latency = inst.latency;
             i_queue_wait = inst.queue_wait;
             i_spans = inst.spans;
           })
        insts
    in
    let hs f = Array.to_list (Array.map f per_instance) in
    let sum f = Array.fold_left (fun a inst -> a + f inst) 0 insts in
    {
      offered = cfg.requests;
      completed = sum (fun i -> i.completed);
      dropped = !dropped + sum (fun i -> i.shed);
      failed_over = !failed_over;
      lost = sum (fun i -> i.lost);
      restarts = sum (fun i -> i.restarts);
      elapsed = Array.fold_left (fun a inst -> max a inst.last_fin) 0 insts;
      records = final_records;
      latency = Latency.merge "fleet.latency" (hs (fun i -> i.i_latency));
      queue_wait = Latency.merge "fleet.queue_wait" (hs (fun i -> i.i_queue_wait));
      per_instance;
    }
  with
  | st -> Ok st
  | exception App_crash msg -> Error msg
  | exception Sb_vmem.Vmem.Enclave_oom _ -> Error "enclave out of memory"
  | exception Violation v -> Error (Fmt.str "%a" pp_violation v)

(** Closed-loop fleet capacity: the whole schedule offered at t=0 with a
    queue deep enough to hold it — completions per second at full
    pressure, the number the capacity-vs-shards table plots. *)
let capacity cfg =
  let cfg =
    {
      cfg with
      rate_rps = 1e15;
      process = Loadgen.Fixed;
      queue_cap = max cfg.queue_cap cfg.requests;
    }
  in
  match run cfg with Ok st -> Some (throughput_rps st) | Error _ -> None

(** Run independent fleet configs across domains; results in order.
    Each config is self-contained, so any [--jobs] gives identical
    results. *)
let sweep ?jobs cfgs = Parallel_runner.map_list ?jobs run cfgs

(* ---------- fleetcap TSV schema ---------- *)

let capacity_tsv_header =
  "scheme\tshards\tpolicy\tycsb\trecords\tcapacity_kops\toffered_rps\t\
   completed\tdropped\tfailed_over\tlost\trestarts\tp50_cycles\tp99_cycles\tstatus"

(** One row of [results/fleet_capacity.tsv]: the closed-loop capacity of
    a (scheme, shard count) cell plus the open-loop run at the target
    rate that supplies its tail latency. *)
let capacity_tsv_line ~scheme ~shards ~policy ~workload ~records ~capacity_kops
    ~offered_rps outcome =
  match outcome with
  | Error msg ->
    Printf.sprintf "%s\t%d\t%s\t%s\t%d\t%.1f\t%.0f\t0\t0\t0\t0\t0\t0\t0\tcrashed: %s"
      scheme shards (policy_name policy) (Ycsb.name workload) records
      capacity_kops offered_rps msg
  | Ok st ->
    let s = summary st in
    Printf.sprintf "%s\t%d\t%s\t%s\t%d\t%.1f\t%.0f\t%d\t%d\t%d\t%d\t%d\t%d\t%d\tok"
      scheme shards (policy_name policy) (Ycsb.name workload) records
      capacity_kops offered_rps st.completed st.dropped st.failed_over st.lost
      st.restarts s.Latency.p50 s.Latency.p99
