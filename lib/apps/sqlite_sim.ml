(** SQLite model: a B+-tree storage engine driven by a speedtest-like
    workload (the paper's Figure 1 / §1 motivating example).

    Faithful to what makes SQLite the paper's worst case for Intel MPX:
    it is *exceptionally pointer-intensive* — every key lookup descends
    the tree through child pointers stored in heap nodes, and every row
    is an individually allocated record reached through a leaf pointer.
    Bounds metadata for all those pointers is what drove MPX to 800-900
    bounds tables and an out-of-memory crash at tiny working sets.

    Layout of a node (all offsets in bytes):
      0   : key count (4)
      4   : leaf flag (4)
      8   : keys, [order] slots of 8
      8+8*order : children (internal: node pointers) or rows (leaf: row
                  pointers), [order+1] slots of 8

    Rows are 60-byte records (id + payload). *)

module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Rng = Sb_machine.Rng
open Sb_protection.Types
open Sb_workloads.Wctx

let order = 8
let node_bytes = 8 + (8 * order) + (8 * (order + 1))
let row_bytes = 60

type t = {
  ctx : Sb_workloads.Wctx.t;
  mutable root : ptr;
}

let keys_off i = 8 + (i * 8)
let child_off i = 8 + (8 * order) + (i * 8)

let nkeys t node = t.ctx.s.Scheme.safe_load node 4
let set_nkeys t node v = t.ctx.s.Scheme.store node 4 v
let is_leaf t node = t.ctx.s.Scheme.safe_load (t.ctx.s.Scheme.offset node 4) 4 = 1
let key_at t node i = t.ctx.s.Scheme.load (t.ctx.s.Scheme.offset node (keys_off i)) 8
let set_key t node i v = t.ctx.s.Scheme.store (t.ctx.s.Scheme.offset node (keys_off i)) 8 v
let child_at t node i = t.ctx.s.Scheme.load_ptr (t.ctx.s.Scheme.offset node (child_off i))
let set_child t node i p = t.ctx.s.Scheme.store_ptr (t.ctx.s.Scheme.offset node (child_off i)) p

let new_node t ~leaf =
  let n = t.ctx.s.Scheme.calloc 1 node_bytes in
  t.ctx.s.Scheme.store (t.ctx.s.Scheme.offset n 4) 4 (if leaf then 1 else 0);
  n

let create ctx =
  let t = { ctx; root = Sb_protection.Ptr.of_word 0 } in
  t.root <- new_node t ~leaf:true;
  t

(* Position of the first key >= k (linear scan, like SQLite's cell
   scan). The node is a fixed-size object and the scan is affine, so the
   per-key checks hoist to one range check per node visit. *)
let find_pos t node k =
  let n = nkeys t node in
  t.ctx.s.Scheme.check_range node node_bytes Sb_protection.Types.Read;
  let key_unch i =
    t.ctx.s.Scheme.load_unchecked (t.ctx.s.Scheme.offset node (keys_off i)) 8
  in
  let rec go i = if i >= n || key_unch i >= k then i else go (i + 1) in
  work t.ctx 4;
  go 0

let rec find_row t node k =
  let i = find_pos t node k in
  if is_leaf t node then
    if i < nkeys t node && key_at t node i = k then Some (child_at t node i) else None
  else begin
    let i = if i < nkeys t node && key_at t node i = k then i + 1 else i in
    find_row t (child_at t node i) k
  end

(* Split the full child [ci] of [parent]. *)
let split_child t parent ci =
  let child = child_at t parent ci in
  let right = new_node t ~leaf:(is_leaf t child) in
  let mid = order / 2 in
  let leaf = is_leaf t child in
  let move_from = if leaf then mid else mid + 1 in
  let moved = order - move_from in
  for i = 0 to moved - 1 do
    set_key t right i (key_at t child (move_from + i));
    set_child t right i (child_at t child (move_from + i))
  done;
  if not leaf then set_child t right moved (child_at t child order);
  set_nkeys t right moved;
  set_nkeys t child mid;
  (* shift parent entries right to make room *)
  let pn = nkeys t parent in
  for i = pn downto ci + 1 do
    set_key t parent i (key_at t parent (i - 1));
    set_child t parent (i + 1) (child_at t parent i)
  done;
  set_key t parent ci (key_at t child mid);
  set_child t parent (ci + 1) right;
  set_nkeys t parent (pn + 1)

let rec insert_nonfull t node k row =
  let i = find_pos t node k in
  if is_leaf t node then begin
    if i < nkeys t node && key_at t node i = k then set_child t node i row
    else begin
      let n = nkeys t node in
      for j = n downto i + 1 do
        set_key t node j (key_at t node (j - 1));
        set_child t node j (child_at t node (j - 1))
      done;
      set_key t node i k;
      set_child t node i row;
      set_nkeys t node (n + 1)
    end
  end
  else begin
    let i = if i < nkeys t node && key_at t node i = k then i + 1 else i in
    let c = child_at t node i in
    if nkeys t c = order then begin
      split_child t node i;
      insert_nonfull t node k row
    end
    else insert_nonfull t c k row
  end

let insert t k row =
  if nkeys t t.root = order then begin
    let new_root = new_node t ~leaf:false in
    set_child t new_root 0 t.root;
    t.root <- new_root;
    split_child t new_root 0
  end;
  insert_nonfull t t.root k row

(** Insert a row with key [k]; the row record is allocated and filled. *)
let insert_row t k =
  let row = t.ctx.s.Scheme.malloc row_bytes in
  t.ctx.s.Scheme.store row 8 k;
  for i = 1 to (row_bytes / 8) - 1 do
    t.ctx.s.Scheme.safe_store (t.ctx.s.Scheme.offset row (i * 8)) 8 (k * i)
  done;
  insert t k row

(** SELECT by key: descend, then read the whole row. *)
let select t k =
  match find_row t t.root k with
  | None -> false
  | Some row ->
    let acc = ref 0 in
    t.ctx.s.Scheme.check_range row row_bytes Read;
    for i = 0 to (row_bytes / 8) - 1 do
      acc := !acc + t.ctx.s.Scheme.load_unchecked (t.ctx.s.Scheme.offset row (i * 8)) 8
    done;
    work t.ctx 10;
    ignore !acc;
    true

(** UPDATE by key: rewrite half the row in place. *)
let update t k =
  match find_row t t.root k with
  | None -> false
  | Some row ->
    for i = 1 to row_bytes / 16 do
      t.ctx.s.Scheme.safe_store (t.ctx.s.Scheme.offset row (i * 8)) 8 (k + i)
    done;
    work t.ctx 8;
    true

(** DELETE by key: remove the leaf entry and free the row record.
    Like SQLite's lazy vacuum, underflowing leaves are left in place
    rather than eagerly merged. Returns whether the key existed. *)
let delete t k =
  let rec go node =
    let i = find_pos t node k in
    if is_leaf t node then begin
      if i < nkeys t node && key_at t node i = k then begin
        let row = child_at t node i in
        let n = nkeys t node in
        for j = i to n - 2 do
          set_key t node j (key_at t node (j + 1));
          set_child t node j (child_at t node (j + 1))
        done;
        set_nkeys t node (n - 1);
        t.ctx.s.Scheme.free row;
        work t.ctx 6;
        true
      end
      else false
    end
    else begin
      let i = if i < nkeys t node && key_at t node i = k then i + 1 else i in
      go (child_at t node i)
    end
  in
  go t.root

(** One point query for the service layer: SELECT (the common case) or
    UPDATE by key on the current thread. *)
let serve_query t key ~is_select =
  if is_select then ignore (select t key) else ignore (update t key)

(** The speedtest-like driver: [items] inserts, then 4 passes of selects,
    2 of updates, then deletion of every other row and a final select
    pass — the paper's Figure 1 is this at increasing [items]. *)
let speedtest ctx ~items =
  let t = create ctx in
  let key k = (k * 2654435761) land 0xFFFFFF in
  for k = 0 to items - 1 do
    insert_row t (key k)
  done;
  for _pass = 1 to 4 do
    for k = 0 to items - 1 do
      ignore (select t (key k))
    done
  done;
  for _pass = 1 to 2 do
    for k = 0 to items - 1 do
      ignore (update t (key k))
    done
  done;
  let k = ref 0 in
  while !k < items do
    ignore (delete t (key !k));
    k := !k + 2
  done;
  for k = 0 to items - 1 do
    ignore (select t (key k))
  done
