(** The metadata-management API (paper §4.3, Table 2).

    Run with:  dune exec examples/metadata_api.exe

    SGXBounds' memory layout keeps an object's metadata right after the
    object: the mandatory 4-byte lower bound, then one slot per plugin.
    Plugins get the paper's three hooks (on_create / on_access /
    on_delete). This example registers two:

    - the double-free guard from the paper ("a magic number to compare
      with"), which turns a silent heap corruption into a diagnostic;
    - an origin tracker that stamps an allocation-site id readable when
      debugging a detected violation. *)

module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Meta = Sgxbounds.Meta
open Sb_protection.Types

let () =
  Fmt.pr "== Metadata plugins: double-free guard + origin tracking ==@.@.";
  let ms = Memsys.create (Config.default ()) in
  let site_id = 4021 in
  let s =
    Sgxbounds.make ~plugins:[ Meta.double_free_guard; Meta.origin_tracker ~site:site_id ] ms
  in
  let p = s.Scheme.malloc 48 in
  Fmt.pr "allocated 48 bytes at 0x%x@." (s.Scheme.addr_of p);

  (* the metadata area sits right after the object: LB, then the plugin
     slots, in registration order *)
  let ub = Sgxbounds.Tagged.ub_of (Scheme.word s p) in
  let vm = Memsys.vmem ms in
  Fmt.pr "metadata area at 0x%x: LB=0x%x  magic=0x%x  site=%d@." ub
    (Sb_vmem.Vmem.load vm ~addr:ub ~width:4)
    (Sb_vmem.Vmem.load vm ~addr:(ub + 4) ~width:4)
    (Sb_vmem.Vmem.load vm ~addr:(ub + 8) ~width:4);

  s.Scheme.free p;
  Fmt.pr "first free: ok (magic cleared)@.";
  (match s.Scheme.free p with
   | () -> Fmt.pr "second free: NOT DETECTED (bug)@."
   | exception Violation v -> Fmt.pr "second free: %a@." pp_violation v);

  (* the origin tracker in action: find where a flagged object came from *)
  let q = s.Scheme.malloc 16 in
  (match s.Scheme.load (s.Scheme.offset q 99) 1 with
   | _ -> ()
   | exception Violation v ->
     let site = Sb_vmem.Vmem.load vm ~addr:(v.hi + 8) ~width:4 in
     Fmt.pr "@.out-of-bounds access detected; offending object was allocated at site %d@." site)
