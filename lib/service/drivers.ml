(** App adapters: turn each case-study simulator into a per-request
    service handler with one client connection per worker.

    Every adapter shares one server instance (heap, SCONE world) across
    workers — the contention the paper's Figure 13 measures — while each
    worker owns its connection channel and I/O buffers, like distinct
    client sockets multiplexed onto server threads. Nothing reads a
    response back, so each handler discards its connection's wire bytes
    after the write instead of keeping every response of the run.
    Request parameters (keys, get/set mix) are drawn from the context's
    seeded RNG, so the op sequence is a deterministic function of the
    seed and the service schedule. *)

module Scheme = Sb_protection.Scheme
module Scone = Sb_scone.Scone
module Rng = Sb_machine.Rng
module Wctx = Sb_workloads.Wctx
module Http_sim = Sb_apps.Http_sim
module Memcached_sim = Sb_apps.Memcached_sim
module Sqlite_sim = Sb_apps.Sqlite_sim

type app = Http | Memcached | Sqlite

let all = [ Http; Memcached; Sqlite ]

let name = function Http -> "http" | Memcached -> "memcached" | Sqlite -> "sqlite"

let of_string = function
  | "http" | "nginx" -> Some Http
  | "memcached" -> Some Memcached
  | "sqlite" -> Some Sqlite
  | _ -> None

let app_names = List.map name all

(* Preloaded working sets. Memcached's is sized like the closed-loop
   memaslap run (4096 items): large enough that MPX's bounds tables push
   the item working set out of the EPC — the paper's Figure 13a collapse
   — while native/sgxbounds still fit. *)
let memcached_keys = 4096
let sqlite_rows = 512

(** A built app plus its attack surface: the per-worker request buffer
    every handler parses. [e_requests.(w)] is worker [w]'s buffer as
    (raw address, request bytes) — what the symbolic interface auditor
    ({!Interface_audit}) taints before each request, since those bytes
    are exactly what an untrusted client controls. *)
type entries = {
  e_handler : worker:int -> unit;
  e_requests : (int * int) array;
}

(** [make_entries app ctx ~workers] builds the shared server state and
    returns the per-request handler {!Service.run} drives — serve
    exactly one request on the current Mt thread over worker [worker]'s
    connection — along with each worker's request-buffer region. *)
let make_entries app (ctx : Wctx.t) ~workers =
  let addr p = ctx.Wctx.s.Scheme.addr_of p in
  match app with
  | Http ->
    let srv = Http_sim.create_server ctx in
    let conns = Array.init workers (fun _ -> Http_sim.open_worker_conn srv) in
    {
      e_handler =
        (fun ~worker ->
           let wc = conns.(worker) in
           Http_sim.serve_request srv wc;
           Scone.clear_sent srv.Http_sim.world wc.Http_sim.wc_fd);
      (* recv_request fills and the parser scans the first 256 bytes *)
      e_requests =
        Array.map (fun wc -> (addr wc.Http_sim.wc_in, 256)) conns;
    }
  | Memcached ->
    let t = Memcached_sim.create ctx in
    for k = 0 to memcached_keys - 1 do
      Memcached_sim.set_kv t k k
    done;
    let conns = Array.init workers (fun _ -> Memcached_sim.open_conn t) in
    let bufs = Array.init workers (fun _ -> ctx.Wctx.s.Scheme.malloc 1024) in
    {
      e_handler =
        (fun ~worker ->
           (* memaslap mix: 9:1 get:set over a key space 25% wider than
              the preload, so some gets miss *)
           let key = Rng.int ctx.Wctx.rng (memcached_keys * 10 / 8) in
           let is_get = Rng.bernoulli ctx.Wctx.rng 0.9 in
           Memcached_sim.serve_request t ~conn:conns.(worker)
             ~buf:bufs.(worker) ~key ~is_get;
           Scone.clear_sent t.Memcached_sim.world conns.(worker));
      e_requests = Array.map (fun b -> (addr b, 1024)) bufs;
    }
  | Sqlite ->
    let t = Sqlite_sim.create ctx in
    for k = 0 to sqlite_rows - 1 do
      Sqlite_sim.insert_row t k
    done;
    let world = Scone.create ctx.Wctx.s in
    let conns =
      Array.init workers (fun _ -> Scone.open_channel world ~shield:Scone.No_shield)
    in
    let bufs = Array.init workers (fun _ -> ctx.Wctx.s.Scheme.malloc 256) in
    let query = String.make 48 'q' in
    let response_bytes = 64 in
    {
      e_handler =
        (fun ~worker ->
           let conn = conns.(worker) and buf = bufs.(worker) in
           (* the SQL text arrives and the result rows leave through SCONE *)
           Scone.feed world conn query;
           ignore (Scone.read world conn ~buf ~len:(String.length query));
           let key = Rng.int ctx.Wctx.rng sqlite_rows in
           Sqlite_sim.serve_query t key
             ~is_select:(Rng.bernoulli ctx.Wctx.rng 0.9);
           ignore (Scone.write world conn ~buf ~len:response_bytes);
           Scone.clear_sent world conn);
      e_requests = Array.map (fun b -> (addr b, 256)) bufs;
    }

(** [make app ctx ~workers]: just the handler (the historical entry
    point {!Service.run} and the fleet use). *)
let make app (ctx : Wctx.t) ~workers = (make_entries app ctx ~workers).e_handler
