type t = {
  nsets : int;
  assoc : int;
  (* tags.(set * assoc + way); way 0 is most recently used. -1 = invalid. *)
  tags : int array;
  mutable hits : int;
  mutable misses : int;
  (* Fast engine: MRU-hit short-circuit (see Sb_machine.Fastpath). *)
  fast : bool;
}

let create ~size ~assoc ~line_size =
  let nsets = max 1 (size / (assoc * line_size)) in
  (* Power-of-two set count keeps indexing a mask. *)
  let nsets =
    if Sb_machine.Util.is_pow2 nsets then nsets
    else Sb_machine.Util.next_pow2 nsets / 2
  in
  let nsets = max 1 nsets in
  {
    nsets;
    assoc;
    tags = Array.make (nsets * assoc) (-1);
    hits = 0;
    misses = 0;
    fast = Sb_machine.Fastpath.is_enabled ();
  }

let access t ~line =
  let set = line land (t.nsets - 1) in
  let base = set * t.assoc in
  let tag = line in
  if t.fast then begin
    (* MRU fast path: a hit at way 0 needs no recency shuffle — the line
       is already most recently used. Otherwise probe and move-to-front
       in ONE carry pass: each way is read once and overwritten with its
       left neighbour as the scan advances, so when the tag is found at
       way [i] the prefix is already shifted and the state equals the
       naive probe-then-shuffle result; on a miss the full pass has
       performed the eviction shift. Bounds checks are elided: every
       index is in [base, base + assoc), in range by construction.
       Stats and final tag order are identical to the naive path.

       The pass is fully unrolled for the two associativities the
       default config uses (8 and 16): the carry chain then lives in
       registers and the loop-control dependency disappears. The
       ledger's per-op [cache.hit_ns] and [cache.miss_ns] time this
       probe. *)
    let tags = t.tags in
    if Array.unsafe_get tags base = tag then begin
      t.hits <- t.hits + 1;
      true
    end
    else begin
      let c0 = Array.unsafe_get tags base in
      Array.unsafe_set tags base tag;
      let hit =
        if t.assoc = 8 then begin
          let c1 = Array.unsafe_get tags (base + 1) in
          Array.unsafe_set tags (base + 1) c0;
          c1 = tag
          || (let c2 = Array.unsafe_get tags (base + 2) in
              Array.unsafe_set tags (base + 2) c1;
              c2 = tag
              || (let c3 = Array.unsafe_get tags (base + 3) in
                  Array.unsafe_set tags (base + 3) c2;
                  c3 = tag
                  || (let c4 = Array.unsafe_get tags (base + 4) in
                      Array.unsafe_set tags (base + 4) c3;
                      c4 = tag
                      || (let c5 = Array.unsafe_get tags (base + 5) in
                          Array.unsafe_set tags (base + 5) c4;
                          c5 = tag
                          || (let c6 = Array.unsafe_get tags (base + 6) in
                              Array.unsafe_set tags (base + 6) c5;
                              c6 = tag
                              || (let c7 = Array.unsafe_get tags (base + 7) in
                                  Array.unsafe_set tags (base + 7) c6;
                                  c7 = tag))))))
        end
        else if t.assoc = 16 then begin
          let c1 = Array.unsafe_get tags (base + 1) in
          Array.unsafe_set tags (base + 1) c0;
          c1 = tag
          || (let c2 = Array.unsafe_get tags (base + 2) in
              Array.unsafe_set tags (base + 2) c1;
              c2 = tag
              || (let c3 = Array.unsafe_get tags (base + 3) in
                  Array.unsafe_set tags (base + 3) c2;
                  c3 = tag
                  || (let c4 = Array.unsafe_get tags (base + 4) in
                      Array.unsafe_set tags (base + 4) c3;
                      c4 = tag
                      || (let c5 = Array.unsafe_get tags (base + 5) in
                          Array.unsafe_set tags (base + 5) c4;
                          c5 = tag
                          || (let c6 = Array.unsafe_get tags (base + 6) in
                              Array.unsafe_set tags (base + 6) c5;
                              c6 = tag
                              || (let c7 = Array.unsafe_get tags (base + 7) in
                                  Array.unsafe_set tags (base + 7) c6;
                                  c7 = tag
                                  || (let c8 = Array.unsafe_get tags (base + 8) in
                                      Array.unsafe_set tags (base + 8) c7;
                                      c8 = tag
                                      || (let c9 = Array.unsafe_get tags (base + 9) in
                                          Array.unsafe_set tags (base + 9) c8;
                                          c9 = tag
                                          || (let c10 = Array.unsafe_get tags (base + 10) in
                                              Array.unsafe_set tags (base + 10) c9;
                                              c10 = tag
                                              || (let c11 = Array.unsafe_get tags (base + 11) in
                                                  Array.unsafe_set tags (base + 11) c10;
                                                  c11 = tag
                                                  || (let c12 = Array.unsafe_get tags (base + 12) in
                                                      Array.unsafe_set tags (base + 12) c11;
                                                      c12 = tag
                                                      || (let c13 = Array.unsafe_get tags (base + 13) in
                                                          Array.unsafe_set tags (base + 13) c12;
                                                          c13 = tag
                                                          || (let c14 = Array.unsafe_get tags (base + 14) in
                                                              Array.unsafe_set tags (base + 14) c13;
                                                              c14 = tag
                                                              || (let c15 = Array.unsafe_get tags (base + 15) in
                                                                  Array.unsafe_set tags (base + 15) c14;
                                                                  c15 = tag))))))))))))))
        end
        else begin
          let lim = base + t.assoc in
          let rec pass i carry =
            if i >= lim then false  (* miss: [carry] is the evicted tag *)
            else begin
              let cur = Array.unsafe_get tags i in
              Array.unsafe_set tags i carry;
              if cur = tag then true else pass (i + 1) cur
            end
          in
          pass (base + 1) c0
        end
      in
      if hit then begin
        t.hits <- t.hits + 1;
        true
      end
      else begin
        t.misses <- t.misses + 1;
        false
      end
    end
  end
  else begin
    let rec find way = if way >= t.assoc then -1 else if t.tags.(base + way) = tag then way else find (way + 1) in
    let way = find 0 in
    if way >= 0 then begin
      (* Move to front to record recency. *)
      for i = way downto 1 do
        t.tags.(base + i) <- t.tags.(base + i - 1)
      done;
      t.tags.(base) <- tag;
      t.hits <- t.hits + 1;
      true
    end
    else begin
      for i = t.assoc - 1 downto 1 do
        t.tags.(base + i) <- t.tags.(base + i - 1)
      done;
      t.tags.(base) <- tag;
      t.misses <- t.misses + 1;
      false
    end
  end

(* Record an L1 hit whose probe the caller has already short-circuited:
   the memory system's last-line memo guarantees the line sits at way 0
   (every access leaves its line most recently used), so counting the
   hit is the only remaining effect of [access]. *)
let count_mru_hits t n = t.hits <- t.hits + n

(* Record an L1 hit on the line accessed just before the most recent
   one. By LRU that line sits at way 1 of its set when the most recent
   line shares the set (way 0 holds that line), and at way 0 otherwise,
   so [access] would find it in one of the first two ways and move it
   to the front: a swap of ways 0 and 1, or nothing. *)
let promote t ~line =
  let base = (line land (t.nsets - 1)) * t.assoc in
  let w0 = Array.unsafe_get t.tags base in
  if w0 <> line then begin
    t.tags.(base + 1) <- w0;
    Array.unsafe_set t.tags base line
  end;
  t.hits <- t.hits + 1

let flush t = Array.fill t.tags 0 (Array.length t.tags) (-1)
let hits t = t.hits
let misses t = t.misses

let reset_stats t =
  t.hits <- 0;
  t.misses <- 0
