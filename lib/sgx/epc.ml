type event =
  | Fault of { page : int }              (** page loaded + decrypted into the EPC *)
  | Evict of { page : int; slot : int }  (** victim re-encrypted and written back *)

type t = {
  capacity : int;
  slots : int array;            (* page number per slot, -1 = free *)
  refbit : Bytes.t;
  index : (int, int) Hashtbl.t; (* page -> slot *)
  (* Fast engine: direct-mapped page -> slot table (-1 = not resident)
     covering the simulated address space, mirroring [index] exactly.
     Turns the residency probe on every DRAM access into two array reads
     instead of a hashtable lookup. Two-level like {!Sb_vmem.Vmem}'s
     page table: a directory of [leaf_size]-page leaves, each starting
     on the shared, never-written [empty_leaf] and given its own leaf on
     the first insert into it. [index] stays authoritative — it is
     maintained in both engines and still serves pages outside the
     table's range (garbage addresses reach the EPC before Vmem faults
     them). [table_pages] is 0 when naive or when the address-space size
     was not supplied. *)
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
     [last_slot] — no eviction can have intervened. Skips the hashtable
     lookup for same-page streaks. -1 = no memo (naive engine). *)
  mutable last_page : int;
  mutable last_slot : int;
  fast : bool;
}

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
    last_page = -1;
    last_slot = 0;
    fast;
  }

let table_set t page slot =
  if page >= 0 && page < t.table_pages then begin
    let d = page lsr leaf_bits in
    if t.table.(d) == empty_leaf then t.table.(d) <- Array.make leaf_size (-1);
    Array.unsafe_set t.table.(d) (page land leaf_mask) slot
  end

let set_tracer t tracer = t.tracer <- tracer

let emit t ev = match t.tracer with None -> () | Some f -> f ev

let rec touch t ~page =
  if page = t.last_page then begin
    Bytes.unsafe_set t.refbit t.last_slot '\001';
    true
  end
  else touch_slow t ~page

and touch_slow t ~page =
  let slot =
    (* Residency probe: direct-mapped table when the page is inside the
       simulated address space, hashtable otherwise. Both views are kept
       in sync on every insert and eviction. *)
    if page >= 0 && page < t.table_pages then
      Array.unsafe_get (Array.unsafe_get t.table (page lsr leaf_bits)) (page land leaf_mask)
    else
      match Hashtbl.find_opt t.index page with Some s -> s | None -> -1
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
        (* CLOCK sweep: clear reference bits until an unreferenced victim
           is found; guaranteed to terminate within two laps. *)
        let rec sweep () =
          let s = t.hand in
          t.hand <- (t.hand + 1) mod t.capacity;
          if Bytes.get t.refbit s = '\001' then begin
            Bytes.set t.refbit s '\000';
            sweep ()
          end
          else s
        in
        let s = sweep () in
        t.evictions <- t.evictions + 1;
        let victim = t.slots.(s) in
        emit t (Evict { page = victim; slot = s });
        Hashtbl.remove t.index victim;
        table_set t victim (-1);
        s
      end
    in
    emit t (Fault { page });
    t.slots.(slot) <- page;
    Bytes.set t.refbit slot '\001';
    Hashtbl.replace t.index page slot;
    table_set t page slot;
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
  t.last_page <- -1;
  t.last_slot <- 0
