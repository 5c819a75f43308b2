(** YCSB-style workload generator: the standard A–F core-workload mixes
    over a keyed record store, as a deterministic op stream.

    The generator is pure: [generate ~seed ~workload ~records ~n] is the
    op schedule, computed up front from a seeded {!Sb_machine.Rng} with
    no reference to the server — the open-loop discipline of the rest of
    the service layer. Inserts extend the key space at generation time
    (key [records], then [records + 1], ...), so every op's key is
    bounded by the record count in force when it was drawn, and the
    stream replays identically on any engine and any host parallelism.

    Key distributions follow the YCSB core package: a Gray-et-al
    zipfian over the initial record range (theta 0.99; the popular keys
    are the low ids — we skip YCSB's hash-scrambling so skew is visible
    to tests and to the consistent-hash ring), "latest" as the same
    zipfian measured back from the most recent insert, and uniform. *)

module Rng = Sb_machine.Rng

type workload = A | B | C | D | E | F

let all = [ A; B; C; D; E; F ]

let name = function A -> "A" | B -> "B" | C -> "C" | D -> "D" | E -> "E" | F -> "F"

let of_string s =
  match String.uppercase_ascii s with
  | "A" -> Some A
  | "B" -> Some B
  | "C" -> Some C
  | "D" -> Some D
  | "E" -> Some E
  | "F" -> Some F
  | _ -> None

let workload_names = List.map name all

type dist = Uniform | Zipfian | Latest

let dist_name = function Uniform -> "uniform" | Zipfian -> "zipfian" | Latest -> "latest"

let dist_of_string = function
  | "uniform" -> Some Uniform
  | "zipfian" -> Some Zipfian
  | "latest" -> Some Latest
  | _ -> None

type op =
  | Read of int
  | Update of int
  | Insert of int
  | Scan of int * int  (** start key, length *)
  | Rmw of int         (** read-modify-write: get then set of one key *)

let op_key = function
  | Read k | Update k | Insert k | Scan (k, _) | Rmw k -> k

(** Operation mix of a workload: fractions sum to 1. [m_dist] is the
    request-key distribution; overridable per run. *)
type mix = {
  m_read : float;
  m_update : float;
  m_insert : float;
  m_scan : float;
  m_rmw : float;
  m_dist : dist;
}

(* The YCSB core-workload definitions (workloads/workload[a-f]). *)
let mix = function
  | A -> { m_read = 0.5; m_update = 0.5; m_insert = 0.; m_scan = 0.; m_rmw = 0.; m_dist = Zipfian }
  | B -> { m_read = 0.95; m_update = 0.05; m_insert = 0.; m_scan = 0.; m_rmw = 0.; m_dist = Zipfian }
  | C -> { m_read = 1.0; m_update = 0.; m_insert = 0.; m_scan = 0.; m_rmw = 0.; m_dist = Zipfian }
  | D -> { m_read = 0.95; m_update = 0.; m_insert = 0.05; m_scan = 0.; m_rmw = 0.; m_dist = Latest }
  | E -> { m_read = 0.; m_update = 0.; m_insert = 0.05; m_scan = 0.95; m_rmw = 0.; m_dist = Zipfian }
  | F -> { m_read = 0.5; m_update = 0.; m_insert = 0.; m_scan = 0.; m_rmw = 0.5; m_dist = Zipfian }

let max_scan_len = 16

(* ---------- zipfian (Gray et al., the YCSB generator) ---------- *)

let zipf_theta = 0.99

type zipf = {
  z_n : int;
  z_zetan : float;
  z_alpha : float;
  z_eta : float;
}

let zeta n theta =
  let s = ref 0. in
  for i = 1 to n do
    s := !s +. (1. /. (float_of_int i ** theta))
  done;
  !s

let zipf_make n =
  let n = max 1 n in
  let zetan = zeta n zipf_theta in
  let zeta2 = zeta 2 zipf_theta in
  {
    z_n = n;
    z_zetan = zetan;
    z_alpha = 1. /. (1. -. zipf_theta);
    z_eta =
      (1. -. ((2. /. float_of_int n) ** (1. -. zipf_theta)))
      /. (1. -. (zeta2 /. zetan));
  }

(* [Rng.float]'s value, built from the bits here: an inlined local float
   stays unboxed, where one returned from [Rng] is a fresh box per draw. *)
let[@inline] unit_float rng =
  float_of_int (Rng.bits rng land ((1 lsl 53) - 1)) /. float_of_int (1 lsl 53)

(** Draw from [0, z_n): rank 0 is the most popular key. *)
let zipf_draw z rng =
  let u = unit_float rng in
  let uz = u *. z.z_zetan in
  if uz < 1. then 0
  else if uz < 1. +. (0.5 ** zipf_theta) then 1
  else
    let k =
      int_of_float
        (float_of_int z.z_n *. (((z.z_eta *. u) -. z.z_eta +. 1.) ** z.z_alpha))
    in
    min (z.z_n - 1) (max 0 k)

(* ---------- op-stream generation ---------- *)

(** [generate ?dist ~seed ~workload ~records ~n ()] is [(ops, final)]:
    [n] operations over an initially-[records]-key store, and the record
    count after the stream's inserts. [dist] overrides the workload's
    standard key distribution. *)
let generate ?dist ~seed ~workload ~records ~n () =
  if records < 1 then invalid_arg "Ycsb.generate: records must be >= 1";
  if n < 0 then invalid_arg "Ycsb.generate: negative op count";
  let m = mix workload in
  let dist = Option.value dist ~default:m.m_dist in
  let rng = Rng.create seed in
  let zipf = zipf_make records in
  let cur = ref records in
  let key () =
    match dist with
    | Uniform -> Rng.int rng !cur
    | Zipfian ->
      (* the zipfian ranks cover the preloaded range; keys inserted
         mid-stream are only reachable through Latest (YCSB's D) *)
      zipf_draw zipf rng
    | Latest ->
      (* most recent insert = rank 0, measured back from the tail *)
      let k = !cur - 1 - zipf_draw zipf rng in
      max 0 k
  in
  let ops =
    Array.init n (fun _ ->
        let r = unit_float rng in
        let t1 = m.m_read in
        let t2 = t1 +. m.m_update in
        let t3 = t2 +. m.m_insert in
        let t4 = t3 +. m.m_scan in
        if r < t1 then Read (key ())
        else if r < t2 then Update (key ())
        else if r < t3 then begin
          let k = !cur in
          incr cur;
          Insert k
        end
        else if r < t4 then begin
          let k = key () in
          let len = Rng.range rng 1 max_scan_len in
          Scan (k, min len (!cur - k))
        end
        else Rmw (key ()))
  in
  (ops, !cur)
