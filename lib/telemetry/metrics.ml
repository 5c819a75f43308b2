(** Counters and simulated-cycle histograms.

    Both are plain mutable records with integer arithmetic only: an
    increment is one load/add/store, cheap enough to leave compiled into
    hot simulation paths unconditionally. Anything more expensive (event
    construction, string formatting) lives behind the {!Telemetry}
    enabled guard instead. *)

module Counter = struct
  type t = {
    name : string;
    mutable v : int;
  }

  let create name = { name; v = 0 }
  let incr ?(by = 1) t = t.v <- t.v + by
  let value t = t.v
  let name t = t.name
  let reset t = t.v <- 0
end

module Histogram = struct
  (** Power-of-two bucketed histogram of non-negative integer samples
      (simulated cycles, sizes). Bucket 0 holds samples <= 1; bucket
      [i >= 1] holds samples in [2^i, 2^(i+1)). 62 buckets cover the
      whole positive [int] range on 64-bit. *)

  let nbuckets = 62

  type t = {
    name : string;
    buckets : int array;
    mutable count : int;
    mutable sum : int;
    mutable max : int;
  }

  let create name = { name; buckets = Array.make nbuckets 0; count = 0; sum = 0; max = 0 }

  let bucket_of v =
    if v <= 1 then 0 else min (nbuckets - 1) (Sb_machine.Util.log2_floor v)

  let observe t v =
    let v = max 0 v in
    let b = bucket_of v in
    t.buckets.(b) <- t.buckets.(b) + 1;
    t.count <- t.count + 1;
    t.sum <- t.sum + v;
    if v > t.max then t.max <- v

  let name t = t.name
  let count t = t.count
  let sum t = t.sum
  let max_value t = t.max
  let mean t = if t.count = 0 then 0.0 else float_of_int t.sum /. float_of_int t.count

  (** Non-empty buckets as [(lo, hi_exclusive, count)], ascending. *)
  let nonzero_buckets t =
    let acc = ref [] in
    for i = nbuckets - 1 downto 0 do
      if t.buckets.(i) > 0 then
        let lo = if i = 0 then 0 else 1 lsl i in
        let hi = 1 lsl (i + 1) in
        acc := (lo, hi, t.buckets.(i)) :: !acc
    done;
    !acc

  (** Smallest bucket upper bound below which at least [q] (0..1) of the
      samples fall — a coarse quantile, exact only at bucket edges. The
      overflow bucket has no representable upper bound ([1 lsl 62] wraps
      negative), so samples landing there report the observed max. *)
  let quantile t q =
    if t.count = 0 then 0
    else begin
      let target = int_of_float (ceil (q *. float_of_int t.count)) in
      let rec go i seen =
        if i >= nbuckets then t.max
        else
          let seen = seen + t.buckets.(i) in
          if seen >= target then
            if i = nbuckets - 1 then t.max else 1 lsl (i + 1)
          else go (i + 1) seen
      in
      go 0 0
    end

  (** Rank-interpolated quantile: locate the bucket holding the sample
      of rank [ceil (q * count)] and interpolate linearly by rank within
      the bucket's value range. The result always lies inside that
      bucket and never exceeds the observed max, so the error is bounded
      by the bucket width (a factor of 2) instead of {!quantile}'s
      round-up-to-edge bias. *)
  let quantile_interp t q =
    if t.count = 0 then 0
    else begin
      let target = max 1 (int_of_float (ceil (q *. float_of_int t.count))) in
      let rec go i seen =
        if i >= nbuckets then t.max
        else
          let inb = t.buckets.(i) in
          if seen + inb >= target then begin
            let lo = if i = 0 then 0 else 1 lsl i in
            (* the overflow bucket's only safe upper bound is the max *)
            let hi = if i = nbuckets - 1 then t.max + 1 else 1 lsl (i + 1) in
            let hi = Stdlib.max hi (lo + 1) in
            let frac = float_of_int (target - seen) /. float_of_int inb in
            Stdlib.min t.max (lo + int_of_float (frac *. float_of_int (hi - 1 - lo)))
          end
          else go (i + 1) (seen + inb)
      in
      go 0 0
    end

  (** Accumulate [src] into [dst]: bucketwise counts, count, sum, and
      max. Exact for everything the histogram itself represents exactly
      — merging per-shard histograms then asking for a quantile is the
      same as observing the pooled samples into one histogram, so the
      interpolated quantile keeps its factor-of-2 bound against the
      pooled exact reference. *)
  let merge_into dst src =
    for i = 0 to nbuckets - 1 do
      dst.buckets.(i) <- dst.buckets.(i) + src.buckets.(i)
    done;
    dst.count <- dst.count + src.count;
    dst.sum <- dst.sum + src.sum;
    if src.max > dst.max then dst.max <- src.max

  let reset t =
    Array.fill t.buckets 0 nbuckets 0;
    t.count <- 0;
    t.sum <- 0;
    t.max <- 0
end
