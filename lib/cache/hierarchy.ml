type t = {
  l1 : Cache.t;
  l2 : Cache.t;
  llc : Cache.t;
  line_shift : int;
  costs : Sb_machine.Config.costs;
}

type served = L1 | L2 | Llc | Dram

let create (cfg : Sb_machine.Config.t) =
  let line_size = cfg.line_size in
  {
    l1 = Cache.create ~size:cfg.l1.size ~assoc:cfg.l1.assoc ~line_size;
    l2 = Cache.create ~size:cfg.l2.size ~assoc:cfg.l2.assoc ~line_size;
    llc = Cache.create ~size:cfg.llc.size ~assoc:cfg.llc.assoc ~line_size;
    line_shift = Sb_machine.Util.log2_floor line_size;
    costs = cfg.costs;
  }

let l1 t = t.l1

let below_l1 t ~line =
  if Cache.access t.l2 ~line then L2
  else if Cache.access t.llc ~line then Llc
  else Dram

let access t ~addr =
  let line = addr lsr t.line_shift in
  if Cache.access t.l1 ~line then L1 else below_l1 t ~line

let hit_cost t = function
  | L1 -> t.costs.l1_hit
  | L2 -> t.costs.l2_hit
  | Llc -> t.costs.llc_hit
  | Dram -> 0

let l1_hit_cost t = t.costs.l1_hit

let llc_misses t = Cache.misses t.llc

type level_stats = { hits : int; misses : int }

let stats t =
  let of_cache c = { hits = Cache.hits c; misses = Cache.misses c } in
  [ ("L1", of_cache t.l1); ("L2", of_cache t.l2); ("LLC", of_cache t.llc) ]

let flush t =
  Cache.flush t.l1;
  Cache.flush t.l2;
  Cache.flush t.llc

let reset_stats t =
  Cache.reset_stats t.l1;
  Cache.reset_stats t.l2;
  Cache.reset_stats t.llc
