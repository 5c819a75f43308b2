type t = int

external of_word : int -> t = "%identity"
external raw : t -> int = "%identity"

let addr_bits = 33
let addr_mask = (1 lsl addr_bits) - 1
let index_bits = 28
let max_index = (1 lsl index_bits) - 1

(* Without bounds: [-2^61, 2^62). With bounds: bit 62 (the sign bit)
   set, bit 61 clear, i.e. [[-2^62, -2^61)]. *)
let flag = 1 lsl 62
let has_bounds (p : t) = p < -(1 lsl 61)
let field_addr p = (p lsl (Sys.int_size - addr_bits)) asr (Sys.int_size - addr_bits)
let addr p = if has_bounds p then field_addr p else p
let with_addr p a = (p land lnot addr_mask) lor (a land addr_mask)
let move p d = if has_bounds p then with_addr p (field_addr p + d) else p + d
let index p = (p lsr addr_bits) land max_index
let at_index i a = flag lor (i lsl addr_bits) lor (a land addr_mask)

(* Entry [i] is [lo.(i)], [hi.(i)], [high.(i)]. [slots] is an open-
   addressing index over the entries by content: [i + 1], or 0 when
   free; it is kept at most half full. *)
type table = {
  mutable lo : int array;
  mutable hi : int array;
  mutable high : int array;
  mutable n : int;
  mutable slots : int array;
}

let table () =
  { lo = Array.make 8 0; hi = Array.make 8 0; high = Array.make 8 0; n = 0;
    slots = Array.make 16 0 }

let entries t = t.n

let hash lo hi high =
  let h = (lo * 0x9E3779B1) + (hi * 0x85EBCA77) + (high * 0xC2B2AE3D) in
  h lxor (h lsr 29)

(* The slot holding [(lo, hi, high)], or the free slot where it goes. *)
let rec probe t lo hi high i =
  let s = t.slots.(i) in
  if s = 0 then i
  else
    let e = s - 1 in
    if t.lo.(e) = lo && t.hi.(e) = hi && t.high.(e) = high then i
    else probe t lo hi high ((i + 1) land (Array.length t.slots - 1))

let grow t =
  let cap = 2 * Array.length t.lo in
  let extend a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 (Array.length a);
    b
  in
  t.lo <- extend t.lo;
  t.hi <- extend t.hi;
  t.high <- extend t.high;
  t.slots <- Array.make (2 * cap) 0;
  for e = 0 to t.n - 1 do
    let lo = t.lo.(e) and hi = t.hi.(e) and high = t.high.(e) in
    let i = probe t lo hi high (hash lo hi high land ((2 * cap) - 1)) in
    t.slots.(i) <- e + 1
  done

let intern t lo hi high =
  let i = probe t lo hi high (hash lo hi high land (Array.length t.slots - 1)) in
  let s = t.slots.(i) in
  if s <> 0 then s - 1
  else begin
    let e = t.n in
    if e > max_index then failwith "Ptr.bounded: register-bounds table full";
    t.lo.(e) <- lo;
    t.hi.(e) <- hi;
    t.high.(e) <- high;
    t.slots.(i) <- e + 1;
    t.n <- e + 1;
    if t.n = Array.length t.lo then grow t;
    e
  end

let bounded t ~lo ~hi ~high a = at_index (intern t lo hi high) a
let lo t p = t.lo.(index p)
let hi t p = t.hi.(index p)

let within t p w =
  let i = index p and a = field_addr p in
  t.lo.(i) <= a && a + w <= t.hi.(i)

let word t p =
  if has_bounds p then (t.high.(index p) lsl Sb_vmem.Vmem.addr_bits) lor field_addr p else p
