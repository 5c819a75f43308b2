(** astar: a complete A* pathfinder over simulated memory.

    Grid nodes are individually heap-allocated records reached through a
    pointer table (the pointer-intensity that floods Intel MPX with
    bounds tables); the open list is a real binary min-heap in a flat
    array; parents are pointer fields written on relaxation, and the
    result path is reconstructed by chasing them — the access mix of the
    original SPEC program (graph of small objects + a hot priority
    queue).

    Node layout: [0] g-cost (4), [4] closed flag (4), [8] terrain cost
    (4), [16] parent pointer (8). *)

module Scheme = Sb_protection.Scheme
module Rng = Sb_machine.Rng
open Sb_protection.Types
open Wctx

let node_bytes = 28 (* +4B footer stays inside the 32-byte bin *)
let inf = 0x3FFFFFFF

type grid = {
  w : int;
  h : int;
  nodes : ptr;      (* pointer table, w*h entries *)
  heap : ptr;       (* binary heap of (key,1) packed as key*2^20|idx *)
  mutable heap_len : int;
}

let node g ctx i = ctx.s.Scheme.load_ptr (idx ctx g.nodes i 8)
let g_of ctx nd = ctx.s.Scheme.safe_load nd 4
let set_g ctx nd v = ctx.s.Scheme.safe_store nd 4 v
let closed ctx nd = ctx.s.Scheme.safe_load (ctx.s.Scheme.offset nd 4) 4 = 1
let set_closed ctx nd = ctx.s.Scheme.safe_store (ctx.s.Scheme.offset nd 4) 4 1
let terrain ctx nd = ctx.s.Scheme.safe_load (ctx.s.Scheme.offset nd 8) 4
let set_parent ctx nd p = ctx.s.Scheme.store_ptr (ctx.s.Scheme.offset nd 16) p
let parent ctx nd = ctx.s.Scheme.load_ptr (ctx.s.Scheme.offset nd 16)

(* ---- binary min-heap over (key, node index), packed in 8 bytes ---- *)

let pack key i = (key lsl 24) lor i
let key_of e = e lsr 24
let idx_of e = e land 0xFFFFFF

let heap_get ctx g i = ctx.s.Scheme.load (idx ctx g.heap i 8) 8
let heap_set ctx g i v = ctx.s.Scheme.store (idx ctx g.heap i 8) 8 v

let heap_capacity g = 4 * g.w * g.h

let heap_push ctx g key i =
  if g.heap_len >= heap_capacity g then () (* lazy-deletion overflow guard *)
  else begin
  let pos = ref g.heap_len in
  g.heap_len <- g.heap_len + 1;
  heap_set ctx g !pos (pack key i);
  (* sift up *)
  let continue_ = ref true in
  while !continue_ && !pos > 0 do
    work ctx 4;
    let par = (!pos - 1) / 2 in
    let pv = heap_get ctx g par and cv = heap_get ctx g !pos in
    if key_of pv > key_of cv then begin
      heap_set ctx g par cv;
      heap_set ctx g !pos pv;
      pos := par
    end
    else continue_ := false
  done
  end

let heap_pop ctx g =
  let top = heap_get ctx g 0 in
  g.heap_len <- g.heap_len - 1;
  if g.heap_len > 0 then begin
    heap_set ctx g 0 (heap_get ctx g g.heap_len);
    (* sift down *)
    let pos = ref 0 in
    let continue_ = ref true in
    while !continue_ do
      work ctx 4;
      let l = (2 * !pos) + 1 and r = (2 * !pos) + 2 in
      let smallest = ref !pos in
      if l < g.heap_len && key_of (heap_get ctx g l) < key_of (heap_get ctx g !smallest) then
        smallest := l;
      if r < g.heap_len && key_of (heap_get ctx g r) < key_of (heap_get ctx g !smallest) then
        smallest := r;
      if !smallest <> !pos then begin
        let a = heap_get ctx g !pos and b = heap_get ctx g !smallest in
        heap_set ctx g !pos b;
        heap_set ctx g !smallest a;
        pos := !smallest
      end
      else continue_ := false
    done
  end;
  top

(* ------------------------------------------------------------------ *)

let manhattan g a b =
  abs ((a mod g.w) - (b mod g.w)) + abs ((a / g.w) - (b / g.w))

let build ctx ~w ~h ~wall_pct =
  let nodes = array ctx (w * h) 8 in
  for i = 0 to (w * h) - 1 do
    let nd = ctx.s.Scheme.malloc node_bytes in
    set_g ctx nd inf;
    (* walls are very expensive terrain; start/goal rows stay open *)
    let wall = Rng.int ctx.rng 100 < wall_pct && i >= w && i < w * (h - 1) in
    ctx.s.Scheme.safe_store (ctx.s.Scheme.offset nd 8) 4
      (if wall then 10_000 else 1 + Rng.int ctx.rng 8);
    ctx.s.Scheme.store_ptr (idx ctx nodes i 8) nd
  done;
  { w; h; nodes; heap = array ctx (4 * w * h) 8; heap_len = 0 }

(* Relax the edge from the expanded node [nd] (path cost [gi]) to node
   [j]. *)
let relax ctx g ~goal nd gi j =
  let nj = node g ctx j in
  work ctx 8;
  if not (closed ctx nj) then begin
    let cand = gi + terrain ctx nj in
    if cand < g_of ctx nj then begin
      set_g ctx nj cand;
      set_parent ctx nj nd;
      heap_push ctx g (cand + manhattan g j goal) j
    end
  end

(** A* from node 0 to node w*h-1. Returns the path as node indices from
    start to goal, if one was found. *)
let search ctx g =
  let start = 0 and goal = (g.w * g.h) - 1 in
  let snode = node g ctx start in
  set_g ctx snode 0;
  heap_push ctx g (manhattan g start goal) start;
  let found = ref false in
  while g.heap_len > 0 && not !found do
    let e = heap_pop ctx g in
    let i = idx_of e in
    if i = goal then found := true
    else begin
      let nd = node g ctx i in
      if not (closed ctx nd) then begin
        set_closed ctx nd;
        let gi = g_of ctx nd in
        (* the in-grid neighbours, in a fixed order: +x, -x, +y, -y *)
        let x = i mod g.w and y = i / g.w in
        if x + 1 < g.w then relax ctx g ~goal nd gi (i + 1);
        if x > 0 then relax ctx g ~goal nd gi (i - 1);
        if y + 1 < g.h then relax ctx g ~goal nd gi (i + g.w);
        if y > 0 then relax ctx g ~goal nd gi (i - g.w)
      end
    end
  done;
  if not !found then None
  else begin
    (* reconstruct by chasing parent pointers; compare addresses to map
       nodes back to indices through the table *)
    let addr_to_index = Hashtbl.create (g.w * g.h) in
    for i = 0 to (g.w * g.h) - 1 do
      Hashtbl.replace addr_to_index (ctx.s.Scheme.addr_of (node g ctx i)) i
    done;
    let rec chase nd acc =
      match Hashtbl.find_opt addr_to_index (ctx.s.Scheme.addr_of nd) with
      | None -> acc
      | Some i ->
        if i = start then i :: acc
        else
          let p = parent ctx nd in
          if is_null ctx p then i :: acc else chase p (i :: acc)
    in
    Some (chase (node g ctx goal) [])
  end

(** The kernel: build the grid and run the search. [n] = node count. *)
let run ctx ~n =
  let w = 128 in
  let h = max 8 (n / w) in
  let g = build ctx ~w ~h ~wall_pct:25 in
  ignore (search ctx g)
