(** Multithreading and metadata atomicity (paper §4.1, Figure 4c).

    Run with:  dune exec examples/mpx_race.exe

    Intel MPX keeps a pointer's bounds in a disjoint bounds table. A
    pointer store compiles to TWO operations — the data store and the
    bndstx — with no atomicity between them. Two threads racing on the
    same pointer slot can interleave so that the slot's value and its
    bounds entry belong to *different* objects. bndldx then sees the
    mismatch and hands out INIT (infinite) bounds: the loaded pointer is
    simply unprotected. An attacker who can race threads gets a window
    with no bounds checking at all.

    SGXBounds is immune by construction: pointer and upper bound live in
    the SAME 64-bit word, so every store/load of the pointer moves both
    atomically, and the lower bound is written once at creation.

    The deterministic scheduler below forces the bad interleaving. *)

module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Mt = Sb_mt.Mt
open Sb_protection.Types

(* Two threads store different pointers into the same shared slot; each
   thread's data store and metadata update are separated by a yield —
   exactly the non-atomicity of a compiled MPX pointer store. *)
let race (s : Scheme.t) ~slot ~obj1 ~obj2 =
  let store_racy q () =
    Memsys.store s.Scheme.ms ~addr:(s.Scheme.addr_of slot) ~width:8 (Scheme.word s q);
    Mt.yield ();           (* the other thread runs here *)
    s.Scheme.store_ptr slot q
  in
  Mt.run s.Scheme.ms [| store_racy obj1; store_racy obj2 |];
  (* one more half-finished update: thread A's data store lands after
     thread B's complete update *)
  s.Scheme.store_ptr slot obj1;
  Memsys.store s.Scheme.ms ~addr:(s.Scheme.addr_of slot) ~width:8 (Scheme.word s obj2);
  s.Scheme.load_ptr slot

let attempt name make =
  let ms = Memsys.create (Config.default ()) in
  let s = make ms in
  let slot = s.Scheme.malloc 8 in
  let obj1 = s.Scheme.malloc 16 in
  let obj2 = s.Scheme.malloc 32 in
  let p = race s ~slot ~obj1 ~obj2 in
  Fmt.pr "%-10s loaded pointer -> 0x%x@." name (s.Scheme.addr_of p);
  (* the pointer in the slot is obj2 (32 bytes); write at offset 40,
     which is out of bounds for either object *)
  match s.Scheme.store (s.Scheme.offset p 40) 1 0xEE with
  | () -> Fmt.pr "%-10s OOB write at +40 went through: UNDETECTED (desync!)@.@." name
  | exception Violation v -> Fmt.pr "%-10s OOB write caught: %a@.@." name pp_violation v

let () =
  Fmt.pr "== Racing pointer updates: MPX desync vs SGXBounds atomicity ==@.@.";
  attempt "mpx" Sb_mpx.Mpx.make;
  attempt "sgxbounds" (fun ms -> Sgxbounds.make ms);
  Fmt.pr "MPX's bounds entry no longer matches the stored pointer, so bndldx@.";
  Fmt.pr "returns INIT bounds and the access is unchecked. The SGXBounds tag@.";
  Fmt.pr "travels inside the pointer word itself — no window exists.@."
