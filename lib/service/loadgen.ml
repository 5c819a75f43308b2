(** Open-loop arrival processes.

    An open-loop generator decides request arrival times *independently
    of the server* — requests keep arriving on schedule whether or not
    earlier ones have finished, which is what exposes queueing delay and
    the overload knee that closed-loop drivers (our `*_bench` functions,
    ab, memaslap in its default mode) structurally cannot see.

    Arrival timestamps are simulated cycles on the machine's 1 GHz
    clock convention (1 simulated second = 1e9 cycles, as in the bench
    throughput figures), generated deterministically from a seeded
    {!Sb_machine.Rng}: the same (seed, process, rate, n) always yields
    the same schedule, on either memory engine and for any host
    parallelism. *)

module Rng = Sb_machine.Rng

let cycles_per_sec = 1_000_000_000.

type process =
  | Fixed
      (** constant inter-arrival gap — a paced benchmark client *)
  | Poisson
      (** exponential inter-arrival gaps — memoryless internet traffic *)
  | Burst of int
      (** groups of [k] back-to-back arrivals separated by [k] gaps:
          the same mean rate as [Fixed], maximally bunched *)

let default_burst = 16

let to_string = function
  | Fixed -> "fixed"
  | Poisson -> "poisson"
  | Burst _ -> "burst"

let of_string = function
  | "fixed" -> Some Fixed
  | "poisson" -> Some Poisson
  | "burst" -> Some (Burst default_burst)
  | _ -> None

let process_names = [ "fixed"; "poisson"; "burst" ]

(** [arrivals ~rng ~process ~rate_rps ~n] is the sorted array of [n]
    arrival timestamps (cycles, relative to the start of the run) of an
    open-loop client offering [rate_rps] requests per simulated second. *)
let arrivals ~rng ~process ~rate_rps ~n =
  if rate_rps <= 0. then invalid_arg "Loadgen.arrivals: rate must be positive";
  if n < 0 then invalid_arg "Loadgen.arrivals: negative request count";
  let gap = cycles_per_sec /. rate_rps in
  let a = Array.make n 0 in
  (* a loop-local float, not a ref captured by a closure, so the clock
     stays unboxed: one request costs its array slot and nothing else *)
  let t = ref 0. in
  for i = 0 to n - 1 do
    (match process with
     | Fixed -> t := !t +. gap
     | Poisson ->
       (* inverse-CDF exponential of [Rng.float]'s value, built here from
          the bits so it is not boxed; it is in [0,1), so the log
          argument stays strictly positive *)
       let u = float_of_int (Rng.bits rng land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53) in
       t := !t +. (-.log (1. -. u) *. gap)
     | Burst k ->
       let k = max 1 k in
       if i mod k = 0 then t := !t +. (gap *. float_of_int k));
    a.(i) <- int_of_float !t
  done;
  a
