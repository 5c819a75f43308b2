(** Shared fixtures for the test suites. *)

module Config = Sb_machine.Config
module Vmem = Sb_vmem.Vmem
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Ptr = Sb_protection.Ptr
open Sb_protection.Types

let cfg ?env ?scale () = Config.default ?env ?scale ()

let ms ?env ?scale () = Memsys.create (cfg ?env ?scale ())

type scheme_maker = Memsys.t -> Scheme.t

let native : scheme_maker = Sb_protection.Native.make
let sgxb : scheme_maker = fun m -> Sgxbounds.make m
let sgxb_noopt : scheme_maker = fun m -> Sgxbounds.make ~opts:Sgxbounds.no_opts m
let sgxb_boundless : scheme_maker = fun m -> Sgxbounds.make ~mode:Sgxbounds.Boundless_mode m
let asan : scheme_maker = fun m -> Sb_asan.Asan.make m
let mpx : scheme_maker = Sb_mpx.Mpx.make
let baggy : scheme_maker = fun m -> Sb_baggy.Baggy.make m

let fresh maker =
  let m = ms () in
  (m, maker m)

(** Run [f] and return [Some violation] if the scheme detected one. *)
let catches f =
  match f () with
  | () -> None
  | exception Violation v -> Some v

let check_detects name f =
  Alcotest.(check bool) name true (catches f <> None)

let check_allows name f =
  match f () with
  | () -> ()
  | exception Violation v ->
    Alcotest.failf "%s: unexpected violation: %a" name pp_violation v

(** All schemes that claim full object-bounds protection. *)
let protecting_schemes = [ ("sgxbounds", sgxb); ("asan", asan); ("mpx", mpx) ]

let all_schemes =
  [ ("native", native); ("sgxbounds", sgxb); ("asan", asan); ("mpx", mpx); ("baggy", baggy) ]

let qtest = QCheck_alcotest.to_alcotest

(** Minor-heap words allocated by [f ()]. Counts are exact and do not
    depend on when collections fall, so hot paths can be pinned at 0. *)
let minor_words f =
  let w0 = Gc.minor_words () in
  f ();
  Gc.minor_words () -. w0
