(** RIPE-style runtime intrusion prevention evaluator (§6.6, Table 4).

    The original RIPE fires 850 attack combinations; under the paper's
    SCONE/SGX configuration 16 remain viable (shellcode variants die on
    the int instruction, etc.). This module synthesizes those 16 as the
    cartesian product

      technique  ∈ {direct byte loop, direct unrolled, strcpy, memcpy}
      location   ∈ {stack, heap}
      target     ∈ {adjacent function pointer, in-struct function pointer}

    and runs each under a scheme. Outcomes are decided mechanically by
    each scheme's machinery — nothing is hard-coded:

    - every attack writes *contiguously* from the vulnerable buffer to
      the target (as RIPE's overflows do);
    - heap attacks reach the buffer through a pointer that untrusted
      setup code stored to memory with a plain (uninstrumented) store —
      Intel MPX's bndldx then yields INIT bounds and misses, while the
      SGXBounds tag survives the round trip (§3.2 type casts);
    - libc-based attacks (strcpy/memcpy) overflow inside uninstrumented
      libc: caught by wrappers that check (SGXBounds, ASan interceptors)
      and missed by MPX's weak wrappers;
    - in-struct attacks never leave the object, so object-granularity
      schemes (all three) miss them — the paper's 8/16 ceiling.

    Expected tally (Table 4): native 16/16 succeed; MPX prevents 2/16;
    AddressSanitizer 8/16; SGXBounds 8/16. *)

module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Scheme = Sb_protection.Scheme
module Libc = Sb_libc.Simlibc
open Sb_protection.Types

type technique = Direct_loop | Direct_unrolled | Strcpy_libc | Memcpy_libc
type location = Stack | Heap
type target = Adjacent_funcptr | Instruct_funcptr

type attack = {
  technique : technique;
  location : location;
  target : target;
}

type outcome =
  | Succeeded   (** the function pointer now holds the attacker's value *)
  | Prevented   (** the scheme detected the overflow (or contained it) *)
  | Failed      (** attack ran but did not corrupt the target *)

let attacker_value = 0x42424242424242 (* seven NUL-free 'B' bytes *)
let sentinel = 0x00C0FFEE

let all_attacks =
  List.concat_map
    (fun technique ->
       List.concat_map
         (fun location ->
            List.map
              (fun target -> { technique; location; target })
              [ Adjacent_funcptr; Instruct_funcptr ])
         [ Stack; Heap ])
    [ Direct_loop; Direct_unrolled; Strcpy_libc; Memcpy_libc ]

let technique_name = function
  | Direct_loop -> "direct-loop"
  | Direct_unrolled -> "direct-unrolled"
  | Strcpy_libc -> "strcpy"
  | Memcpy_libc -> "memcpy"

let location_name = function Stack -> "stack" | Heap -> "heap"

let target_name = function
  | Adjacent_funcptr -> "adjacent-funcptr"
  | Instruct_funcptr -> "in-struct-funcptr"

let name a =
  Printf.sprintf "%s/%s/%s" (technique_name a.technique) (location_name a.location)
    (target_name a.target)

let buf_bytes = 32

(** Build the vulnerable layout; returns (buffer ptr, raw address of the
    target function pointer, frame token to pop). *)
let setup (s : Scheme.t) a =
  match (a.location, a.target) with
  | Stack, Adjacent_funcptr ->
    let tok = s.Scheme.stack_push () in
    (* the function pointer lives above the buffer (allocated first;
       stacks grow down), so a positive overflow reaches it *)
    let fp = s.Scheme.stack_alloc 8 in
    Memsys.store s.Scheme.ms ~addr:(s.Scheme.addr_of fp) ~width:8 sentinel;
    let buf = s.Scheme.stack_alloc buf_bytes in
    (buf, s.Scheme.addr_of fp, Some tok)
  | Stack, Instruct_funcptr ->
    let tok = s.Scheme.stack_push () in
    let st = s.Scheme.stack_alloc (buf_bytes + 8) in
    Memsys.store s.Scheme.ms ~addr:(s.Scheme.addr_of st + buf_bytes) ~width:8 sentinel;
    (st, s.Scheme.addr_of st + buf_bytes, Some tok)
  | Heap, Adjacent_funcptr ->
    let buf = s.Scheme.malloc buf_bytes in
    let fpobj = s.Scheme.malloc 8 in
    Memsys.store s.Scheme.ms ~addr:(s.Scheme.addr_of fpobj) ~width:8 sentinel;
    (buf, s.Scheme.addr_of fpobj, None)
  | Heap, Instruct_funcptr ->
    let st = s.Scheme.malloc (buf_bytes + 8) in
    Memsys.store s.Scheme.ms ~addr:(s.Scheme.addr_of st + buf_bytes) ~width:8 sentinel;
    (st, s.Scheme.addr_of st + buf_bytes, None)

(** RIPE's heap attacks reach the vulnerable buffer through attack-setup
    structs in memory. The pointer round-trips through a plain store and
    load — uninstrumented code from the bounds trackers' viewpoint. *)
let launder (s : Scheme.t) p =
  let slot = s.Scheme.malloc 8 in
  Memsys.store s.Scheme.ms ~addr:(s.Scheme.addr_of slot) ~width:8 (Scheme.word s p);
  s.Scheme.load_ptr slot

let run_attack (s : Scheme.t) a =
  let buf, target_addr, tok = setup s a in
  let buf = match a.location with Heap -> launder s buf | Stack -> buf in
  let delta = target_addr - s.Scheme.addr_of buf in
  let result =
    match
      (match a.technique with
       | Direct_loop ->
         (* contiguous byte-wise overflow from buf[0] past the end *)
         for i = 0 to delta + 7 do
           let byte =
             if i >= delta && i < delta + 8 then (attacker_value lsr (8 * (i - delta))) land 0xff
             else 0x41
           in
           s.Scheme.store (s.Scheme.offset buf i) 1 byte
         done
       | Direct_unrolled ->
         (* same overflow with 8-byte stores *)
         let i = ref 0 in
         while !i < delta do
           s.Scheme.store (s.Scheme.offset buf !i) 8 0x41414141414141;
           i := !i + 8
         done;
         s.Scheme.store (s.Scheme.offset buf delta) 8 attacker_value
       | Strcpy_libc ->
         (* attacker-controlled NUL-free source string *)
         let src = s.Scheme.malloc (delta + 16) in
         let vm = Memsys.vmem s.Scheme.ms in
         for i = 0 to delta - 1 do
           Vmem.store vm ~addr:(s.Scheme.addr_of src + i) ~width:1 0x41
         done;
         Vmem.store vm ~addr:(s.Scheme.addr_of src + delta) ~width:8 attacker_value;
         Vmem.store vm ~addr:(s.Scheme.addr_of src + delta + 8) ~width:1 0;
         ignore (Libc.strcpy s ~dst:buf ~src)
       | Memcpy_libc ->
         let src = s.Scheme.malloc (delta + 16) in
         let vm = Memsys.vmem s.Scheme.ms in
         for i = 0 to delta - 1 do
           Vmem.store vm ~addr:(s.Scheme.addr_of src + i) ~width:1 0x41
         done;
         Vmem.store vm ~addr:(s.Scheme.addr_of src + delta) ~width:8 attacker_value;
         Libc.memcpy s ~dst:buf ~src ~len:(delta + 8))
    with
    | () ->
      (* attack code ran to completion: did it take the target? *)
      let v = Vmem.load (Memsys.vmem s.Scheme.ms) ~addr:target_addr ~width:8 in
      if v = attacker_value then Succeeded else Failed
    | exception Violation _ -> Prevented
    | exception Vmem.Fault _ -> Prevented (* e.g. ASan guard behaviour *)
  in
  (match tok with Some t -> (try s.Scheme.stack_pop t with _ -> ()) | None -> ());
  result

(** Run the full 16-attack matrix; returns per-attack outcomes. *)
let run_all (s : Scheme.t) = List.map (fun a -> (a, run_attack s a)) all_attacks

let count_prevented results =
  List.length (List.filter (fun (_, o) -> o = Prevented) results)

let count_succeeded results =
  List.length (List.filter (fun (_, o) -> o = Succeeded) results)
