(** Compare two sets of runs of one metric on one workload.

    The rule of the repository's benchmark guide: a change is [Better]
    only when it wins at least nine tenths of the interleaved pairs (ties
    count for neither side) and its median moved by more than the
    parent's own quartile distance — or when every one of its runs beats
    every parent run. Otherwise a run-to-run spread wider than the
    metric's bound makes the comparison [Unresolved]; a median worse by
    more than the bound is [Worse]; anything else is [Same]. *)

type direction = Higher | Lower

let direction_of_string = function
  | "higher" -> Some Higher
  | "lower" -> Some Lower
  | _ -> None

type t = Better | Same | Worse | Unresolved

let name = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type report = {
  base_median : float;
  base_q1 : float;
  base_q3 : float;
  cand_median : float;
  cand_q1 : float;
  cand_q3 : float;
  worse_by : float;  (** signed share of the base median; > 0 is worse *)
  spread : float;    (** larger of the two sets' quartile spreads *)
  pairs : int;
  wins : int;        (** pairs the candidate won *)
  verdict : t;
}

(** [judge ~better ~bound ~base ~cand]: [base] and [cand] are the
    metric's values in run order; run [i] of each set forms pair [i]. *)
let judge ~better ~bound ~base ~cand =
  if base = [] || cand = [] then invalid_arg "Verdict.judge: empty run set";
  let beats x y = match better with Lower -> x < y | Higher -> x > y in
  let mb = Quantile.median base and mc = Quantile.median cand in
  let b1, b3 = Quantile.quartiles base and c1, c3 = Quantile.quartiles cand in
  let worse_by =
    let d = match better with Lower -> mc -. mb | Higher -> mb -. mc in
    if mb <> 0. then d /. Float.abs mb
    else if d > 0. then infinity
    else if d < 0. then neg_infinity
    else 0.
  in
  let rec zip acc xs ys =
    match (xs, ys) with x :: xs, y :: ys -> zip ((x, y) :: acc) xs ys | _ -> acc
  in
  let pairs = zip [] base cand in
  let wins = List.length (List.filter (fun (b, c) -> beats c b) pairs) in
  let npairs = List.length pairs in
  let spread = Float.max (Quantile.spread base) (Quantile.spread cand) in
  let all_better = List.for_all (fun c -> List.for_all (fun b -> beats c b) base) cand in
  let verdict =
    if all_better || (npairs > 0 && wins * 10 >= npairs * 9 && Float.abs (mc -. mb) > b3 -. b1)
    then Better
    else if spread > bound then Unresolved
    else if worse_by > bound then Worse
    else Same
  in
  { base_median = mb; base_q1 = b1; base_q3 = b3; cand_median = mc; cand_q1 = c1;
    cand_q3 = c3; worse_by; spread; pairs = npairs; wins; verdict }
