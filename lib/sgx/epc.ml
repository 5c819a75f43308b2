type event =
  | Fault of { page : int }              (** page loaded + decrypted into the EPC *)
  | Evict of { page : int; slot : int }  (** victim re-encrypted and written back *)

type t = {
  capacity : int;
  slots : int array;            (* page number per slot, -1 = free *)
  refbit : Bytes.t;
  (* Residency index, page -> slot, split by range. Pages in
     [0, table_pages) live only in [table], a direct-mapped table over
     the simulated address space (fast engine): the probe on every DRAM
     access is two array reads and a fault writes two array cells.
     Two-level like {!Sb_vmem.Vmem}'s page table: a directory of
     [leaf_size]-page leaves, each starting on the shared, never-written
     [empty_leaf] and given its own leaf on the first insert into it.
     Every other page lives in [index]: garbage addresses reach the EPC
     before Vmem faults them, and the naive engine (or a caller that did
     not supply the address-space size) has [table_pages] = 0, so there
     the hashtable is the whole index — the reference the fast engine
     is tested against. *)
  index : (int, int) Hashtbl.t;
  table : int array array;
  table_pages : int;
  mutable hand : int;
  mutable used : int;
  mutable faults : int;
  mutable evictions : int;
  mutable tracer : (event -> unit) option;
  (* Fast engine: last-page residency memo. Valid whenever it matches:
     the memo is overwritten by every touch, so a matching page was the
     immediately preceding access and is necessarily still resident in
     [last_slot] — no eviction can have intervened. Skips the index
     probe for same-page streaks. [no_page] = no memo (naive engine). *)
  mutable last_page : int;
  mutable last_slot : int;
  fast : bool;
}

(* The empty memo: not a page number, unlike -1, which a caller may
   touch. *)
let no_page = min_int

let leaf_bits = 10
let leaf_size = 1 lsl leaf_bits
let leaf_mask = leaf_size - 1
let empty_leaf = Array.make leaf_size (-1)

let create ?(num_pages = 0) ~capacity_pages () =
  let capacity = max 1 capacity_pages in
  let fast = Sb_machine.Fastpath.is_enabled () in
  let table_pages = if fast then num_pages else 0 in
  {
    capacity;
    slots = Array.make capacity (-1);
    refbit = Bytes.make capacity '\000';
    index = Hashtbl.create (capacity * 2);
    table = Array.make ((table_pages + leaf_mask) lsr leaf_bits) empty_leaf;
    table_pages;
    hand = 0;
    used = 0;
    faults = 0;
    evictions = 0;
    tracer = None;
    last_page = no_page;
    last_slot = 0;
    fast;
  }

let in_table t page = page >= 0 && page < t.table_pages

(* Record [page] as resident in [slot], or as not resident when [slot]
   is -1. *)
let set_slot t page slot =
  if in_table t page then begin
    let d = page lsr leaf_bits in
    if t.table.(d) == empty_leaf then t.table.(d) <- Array.make leaf_size (-1);
    Array.unsafe_set t.table.(d) (page land leaf_mask) slot
  end
  else if slot < 0 then Hashtbl.remove t.index page
  else Hashtbl.replace t.index page slot

let set_tracer t tracer = t.tracer <- tracer

(* CLOCK sweep: clear reference bits until an unreferenced victim is
   found; terminates within two laps. Leaves the hand just past the
   victim. *)
let sweep t =
  let s = ref t.hand in
  while Bytes.get t.refbit !s = '\001' do
    Bytes.set t.refbit !s '\000';
    s := (!s + 1) mod t.capacity
  done;
  t.hand <- (!s + 1) mod t.capacity;
  !s

let rec touch t ~page =
  if page = t.last_page then begin
    Bytes.unsafe_set t.refbit t.last_slot '\001';
    true
  end
  else touch_slow t ~page

and touch_slow t ~page =
  let slot =
    if in_table t page then
      Array.unsafe_get (Array.unsafe_get t.table (page lsr leaf_bits)) (page land leaf_mask)
    else match Hashtbl.find_opt t.index page with Some s -> s | None -> -1
  in
  if slot >= 0 then begin
    if t.fast then begin
      t.last_page <- page;
      t.last_slot <- slot
    end;
    Bytes.unsafe_set t.refbit slot '\001';
    true
  end
  else begin
    t.faults <- t.faults + 1;
    let slot =
      if t.used < t.capacity then begin
        let s = t.used in
        t.used <- t.used + 1;
        s
      end
      else begin
        let s = sweep t in
        t.evictions <- t.evictions + 1;
        let victim = t.slots.(s) in
        (match t.tracer with
         | None -> ()
         | Some f -> f (Evict { page = victim; slot = s }));
        set_slot t victim (-1);
        s
      end
    in
    (match t.tracer with None -> () | Some f -> f (Fault { page }));
    t.slots.(slot) <- page;
    Bytes.set t.refbit slot '\001';
    set_slot t page slot;
    if t.fast then begin
      t.last_page <- page;
      t.last_slot <- slot
    end;
    false
  end

let faults t = t.faults
let evictions t = t.evictions
let resident_pages t = t.used
let capacity_pages t = t.capacity

let reset_stats t =
  t.faults <- 0;
  t.evictions <- 0

let clear t =
  Array.fill t.table 0 (Array.length t.table) empty_leaf;
  Array.fill t.slots 0 t.capacity (-1);
  Bytes.fill t.refbit 0 t.capacity '\000';
  Hashtbl.reset t.index;
  t.hand <- 0;
  t.used <- 0;
  t.faults <- 0;
  t.evictions <- 0;
  t.last_page <- no_page;
  t.last_slot <- 0
