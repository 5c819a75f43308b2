(** The percentile rule shared by every number the ledger summarises.

    It is the "exclusive" method of Python's [statistics.quantiles] (its
    default), so the quartiles the ledger reports are the ones a Python
    script computes from the same values: with [m] sorted values, cut
    point [i] of [n] sits at rank [i * (m + 1) / n], interpolated between
    its two neighbours and clamped to the first and last pair. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(** [quantiles ~n xs] is the [n - 1] cut points dividing [xs] into [n]
    groups. One value gives [n - 1] copies of it; no values raise
    [Invalid_argument]. *)
let quantiles ~n xs =
  if n < 1 then invalid_arg "Quantile.quantiles: n must be >= 1";
  let d = sorted xs in
  let ld = Array.length d in
  if ld = 0 then invalid_arg "Quantile.quantiles: no values";
  if ld = 1 then List.init (n - 1) (fun _ -> d.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun k ->
        let i = k + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((d.(j - 1) *. float_of_int (n - delta)) +. (d.(j) *. float_of_int delta))
        /. float_of_int n)

(** Middle value, or the mean of the two middle values. *)
let median xs =
  let d = sorted xs in
  let n = Array.length d in
  if n = 0 then invalid_arg "Quantile.median: no values";
  if n mod 2 = 1 then d.(n / 2) else (d.((n / 2) - 1) +. d.(n / 2)) /. 2.

(** First and third quartile. *)
let quartiles xs =
  match quantiles ~n:4 xs with
  | [ q1; _; q3 ] -> (q1, q3)
  | _ -> assert false

(** Distance between the quartiles as a share of the median: the
    run-to-run spread a bound is compared against. *)
let spread xs =
  let q1, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then if q3 = q1 then 0. else infinity else (q3 -. q1) /. Float.abs m

(** [percentile p xs] for a whole [p] in 1..99: the cut point at [p]
    percent by the same rule, kept within the values (with few values
    the rule extrapolates past the extremes). *)
let percentile p xs =
  if p < 1 || p > 99 then invalid_arg "Quantile.percentile: p must be in 1..99";
  let d = sorted xs in
  let q = List.nth (quantiles ~n:100 xs) (p - 1) in
  Float.min d.(Array.length d - 1) (Float.max d.(0) q)
