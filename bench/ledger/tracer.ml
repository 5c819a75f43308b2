(** The traced pass's instruments, all in the ledger's own code around
    calls into the simulator's layers:

    - spans (name, start, end, parent, track = the domain that ran it),
      exported as a Chrome trace and reduced to self times;
    - a timing wrapper around {!Sb_protection.Scheme.t} that keeps a
      count/sum/max per operation and per cell — there are ~10^8 calls,
      far too many to keep as spans;
    - GC pauses read back from the runtime's own event ring
      ([runtime_events]). *)

module Json = Sb_telemetry.Json
module Scheme = Sb_protection.Scheme

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let seconds ns = float_of_int ns /. 1e9

(* ---------- spans ---------- *)

type span = {
  id : int;
  name : string;
  cat : string;    (** the layer the span's callee belongs to *)
  parent : int;    (** [-1] for a root *)
  track : int;     (** the domain that ran it *)
  start_ns : int;
  stop_ns : int;
  args : (string * Json.t) list;
}

type log = {
  workload : string;
  origin : int;
  next : int Atomic.t;
  lock : Mutex.t;
  mutable spans : span list;
}

let create_log workload =
  { workload; origin = now_ns (); next = Atomic.make 0; lock = Mutex.create (); spans = [] }

let fresh_id log = Atomic.fetch_and_add log.next 1

let track () = (Domain.self () :> int)

(** Record a span whose bounds were taken by the caller. *)
let record log ?(args = []) ~id ~parent ~cat ~start_ns ~stop_ns name =
  let sp = { id; name; cat; parent; track = track (); start_ns; stop_ns; args } in
  Mutex.protect log.lock (fun () -> log.spans <- sp :: log.spans)

(** [span log ~parent ~cat name f] runs [f id] inside a new span [id]
    (children pass [id] as their parent). *)
let span log ?(parent = -1) ~cat name f =
  let id = fresh_id log in
  let start_ns = now_ns () in
  let close () = record log ~id ~parent ~cat ~start_ns ~stop_ns:(now_ns ()) name in
  match f id with
  | r -> close (); r
  | exception e -> close (); raise e

let spans log = List.rev log.spans

let duration sp = sp.stop_ns - sp.start_ns

(** Self time of every span: its duration minus its children's. *)
let self_times log =
  let children = Hashtbl.create 256 in
  List.iter
    (fun sp ->
       if sp.parent >= 0 then
         Hashtbl.replace children sp.parent
           (duration sp + Option.value ~default:0 (Hashtbl.find_opt children sp.parent)))
    log.spans;
  List.map
    (fun sp -> (sp, duration sp - Option.value ~default:0 (Hashtbl.find_opt children sp.id)))
    (spans log)

(** Sum of durations and of self times per span name. *)
let by_name log =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (sp, self) ->
       let n, total, s = Option.value ~default:(0, 0, 0) (Hashtbl.find_opt tbl sp.name) in
       Hashtbl.replace tbl sp.name (n + 1, total + duration sp, s + self))
    (self_times log);
  List.sort compare (Hashtbl.fold (fun name v acc -> (name, v) :: acc) tbl [])

(** Chrome [trace_event] document: one complete ("X") event per span,
    timestamps in microseconds from the start of the log. *)
let chrome_json log =
  let us ns = Json.Int (ns / 1000) in
  let event sp =
    Json.Obj
      [
        ("name", Json.Str sp.name);
        ("cat", Json.Str sp.cat);
        ("ph", Json.Str "X");
        ("ts", us (sp.start_ns - log.origin));
        ("dur", us (duration sp));
        ("pid", Json.Int 1);
        ("tid", Json.Int sp.track);
        ( "args",
          Json.Obj
            ([ ("id", Json.Int sp.id); ("parent", Json.Int sp.parent);
               ("workload", Json.Str log.workload) ]
             @ sp.args) );
      ]
  in
  let sorted = List.sort (fun a b -> compare (a.start_ns, a.id) (b.start_ns, b.id)) log.spans in
  Json.Obj
    [ ("traceEvents", Json.List (List.map event sorted)); ("displayTimeUnit", Json.Str "ms") ]

(* ---------- scheme-operation timer ---------- *)

type op_stat = {
  mutable calls : int;
  mutable timed : int;  (** calls whose time is in [sum_ns] *)
  mutable sum_ns : int;
  mutable max_ns : int;
}

(** One stat per timed operation, in {!Catalogue.op_names} order. *)
type ops = op_stat array

let create_ops () =
  Array.init (List.length Catalogue.op_names) (fun _ ->
      { calls = 0; timed = 0; sum_ns = 0; max_ns = 0 })

let note st t0 =
  let d = now_ns () - t0 in
  st.timed <- st.timed + 1;
  st.sum_ns <- st.sum_ns + d;
  if d > st.max_ns then st.max_ns <- d

(* Inside a parallel region of several simulated threads, an access can
   yield to the scheduler mid-call and the other threads run before it
   returns, so the call's wall time is not its own: such calls are
   counted but not timed. [~shared] says whether that can happen. *)
let untimed ~shared = shared && Sb_machine.Eff.scheduler_active ()

(* Arity-specialised so a call allocates no closure; a scheme that
   raises (violation, enclave OOM) still has its time counted. *)
let t1 ~shared st f a =
  st.calls <- st.calls + 1;
  if untimed ~shared then f a
  else
    let t0 = now_ns () in
    match f a with r -> note st t0; r | exception e -> note st t0; raise e

let t2 ~shared st f a b =
  st.calls <- st.calls + 1;
  if untimed ~shared then f a b
  else
    let t0 = now_ns () in
    match f a b with r -> note st t0; r | exception e -> note st t0; raise e

let t3 ~shared st f a b c =
  st.calls <- st.calls + 1;
  if untimed ~shared then f a b c
  else
    let t0 = now_ns () in
    match f a b c with r -> note st t0; r | exception e -> note st t0; raise e

(** [s] with load, store, load_ptr, check_range, malloc and free timed
    into [ops]; every other operation is [s]'s own. [threads] is the
    simulated thread count the workload runs with. *)
let time_ops ~threads (ops : ops) (s : Scheme.t) =
  let shared = threads > 1 in
  {
    s with
    Scheme.load = t2 ~shared ops.(0) s.Scheme.load;
    store = t3 ~shared ops.(1) s.Scheme.store;
    load_ptr = t1 ~shared ops.(2) s.Scheme.load_ptr;
    check_range = t3 ~shared ops.(3) s.Scheme.check_range;
    malloc = t1 ~shared ops.(4) s.Scheme.malloc;
    free = t1 ~shared ops.(5) s.Scheme.free;
  }

let merge_ops (into : ops) (ops : ops) =
  Array.iteri
    (fun i st ->
       into.(i).calls <- into.(i).calls + st.calls;
       into.(i).timed <- into.(i).timed + st.timed;
       into.(i).sum_ns <- into.(i).sum_ns + st.sum_ns;
       into.(i).max_ns <- max into.(i).max_ns st.max_ns)
    ops

let ops_json (ops : ops) =
  Json.Obj
    (List.mapi
       (fun i name ->
          let st = ops.(i) in
          ( "op." ^ name,
            Json.Obj
              [ ("calls", Json.Int st.calls); ("timed", Json.Int st.timed);
                ("sum_ns", Json.Int st.sum_ns); ("max_ns", Json.Int st.max_ns) ] ))
       Catalogue.op_names)

(* ---------- GC pauses ---------- *)

(** Pauses are the outermost runtime phases of each domain's ring: the
    stretches in which that domain ran runtime (collector) code instead
    of the program. A systhread polls the ring every 10 ms so it cannot
    wrap. *)
type pauses = {
  depth : int array;  (** per ring: open runtime phases *)
  since : int array;  (** per ring: start of the outermost one *)
  mutable sum_ns : int;
  mutable max_ns : int;
  mutable count : int;
  mutable lost : int;  (** events the ring overwrote before a poll *)
}

type gc = {
  acc : pauses;
  cursor : Runtime_events.cursor;
  callbacks : Runtime_events.Callbacks.t;
  lock : Mutex.t;
  running : bool Atomic.t;
  mutable poller : Thread.t option;
}

let rings = 128

let counted = function
  | Runtime_events.EV_DOMAIN_CONDITION_WAIT | Runtime_events.EV_EXPLICIT_GC_STAT
  | Runtime_events.EV_EXPLICIT_GC_SET -> false
  | _ -> true

let events_started = ref false

let poll g =
  Mutex.protect g.lock (fun () -> ignore (Runtime_events.read_poll g.cursor g.callbacks None))

let gc_start () =
  if not !events_started then begin
    Runtime_events.start ();
    events_started := true
  end;
  let acc =
    { depth = Array.make rings 0; since = Array.make rings 0; sum_ns = 0; max_ns = 0; count = 0;
      lost = 0 }
  in
  let ts t = Int64.to_int (Runtime_events.Timestamp.to_int64 t) in
  let runtime_begin ring t phase =
    if counted phase && ring < rings then begin
      if acc.depth.(ring) = 0 then acc.since.(ring) <- ts t;
      acc.depth.(ring) <- acc.depth.(ring) + 1
    end
  in
  let runtime_end ring t phase =
    if counted phase && ring < rings && acc.depth.(ring) > 0 then begin
      acc.depth.(ring) <- acc.depth.(ring) - 1;
      if acc.depth.(ring) = 0 then begin
        let d = ts t - acc.since.(ring) in
        acc.sum_ns <- acc.sum_ns + d;
        acc.count <- acc.count + 1;
        if d > acc.max_ns then acc.max_ns <- d
      end
    end
  in
  let lost_events _ring n = acc.lost <- acc.lost + n in
  let g =
    {
      acc;
      cursor = Runtime_events.create_cursor None;
      callbacks = Runtime_events.Callbacks.create ~runtime_begin ~runtime_end ~lost_events ();
      lock = Mutex.create ();
      running = Atomic.make true;
      poller = None;
    }
  in
  (* drain what happened before this point: it belongs to other phases *)
  poll g;
  acc.sum_ns <- 0;
  acc.max_ns <- 0;
  acc.count <- 0;
  acc.lost <- 0;
  g.poller <-
    Some
      (Thread.create
         (fun () ->
            while Atomic.get g.running do
              Thread.delay 0.01;
              poll g
            done)
         ());
  g

let gc_stop g =
  Atomic.set g.running false;
  Option.iter Thread.join g.poller;
  poll g;
  Runtime_events.free_cursor g.cursor;
  g.acc
