(** Deterministic pseudo-random number generator (splitmix64).

    Every workload draws randomness from its own [Rng.t] seeded from the
    experiment id, so runs are reproducible bit-for-bit.

    The 64-bit state lives unboxed in an 8-byte buffer, read and written
    with the raw 64-bit bytes primitives: a mutable [int64] record field
    would box a fresh state on every draw. With [next_int64] inlined, a
    draw that returns an [int] ([bits], [int], [range], [split],
    [bernoulli]) allocates nothing. [float] still returns a boxed float
    to callers in other modules; a caller on a hot path builds the same
    value from [bits] locally (see [float]). *)

type t = Bytes.t

external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let create seed =
  let t = Bytes.create 8 in
  set64u t 0 (Int64.of_int seed);
  t

let[@inline] next_int64 t =
  let open Int64 in
  let z = add (get64u t 0) 0x9E3779B97F4A7C15L in
  set64u t 0 z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(** [bits t] is the next draw as a uniform non-negative 62-bit [int]:
    every other draw below is a function of it. *)
let bits t = Int64.to_int (next_int64 t) land max_int

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
let int t bound =
  assert (bound > 0);
  bits t mod bound

(* The unit float of one draw: its low 53 bits over 2^53. *)
let[@inline] unit_of_bits b = float_of_int (b land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)

(** [float t] is uniform in [0, 1): [bits t]'s low 53 bits over 2^53. *)
let float t = unit_of_bits (bits t)

(** Uniform in [lo, hi] inclusive. *)
let range t lo hi =
  assert (hi >= lo);
  lo + int t (hi - lo + 1)

(** True with probability [p]: [float t < p], without boxing the draw. *)
let bernoulli t p = unit_of_bits (bits t) < p

(** [split t] derives a fresh independent seed from [t]'s stream, for
    seeding a child generator whose consumption must not perturb the
    parent's sequence (e.g. one child per fuzz iteration, so iteration
    [i] is replayable without re-running iterations [0..i-1]'s draws). *)
let split t = bits t

(** [pick t arr] is a uniformly chosen element of [arr]. *)
let pick t arr = arr.(int t (Array.length arr))

(** A zipf-ish skewed key pick in [0, n): 80% of draws land in the first
    20% of the space, recursively. Cheap stand-in for memcached key
    popularity distributions. *)
let skewed t n =
  let rec go lo hi depth =
    if depth = 0 || hi - lo <= 1 then lo + int t (max 1 (hi - lo))
    else if bernoulli t 0.8 then go lo (lo + max 1 ((hi - lo) / 5)) (depth - 1)
    else go lo hi 0
  in
  go 0 n 1
