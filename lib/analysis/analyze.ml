(** Sweep driver for the instrumentation auditor: run workloads under
    audited schemes, aggregate findings into reports (text and JSON),
    and self-test the auditor against seeded scenarios — the §4.1
    MPX bounds-table race and deliberately broken §4.4 annotations
    ("mutants") that a sound auditor must flag. *)

module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Registry = Sb_workloads.Registry
module Config = Sb_machine.Config
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Json = Sb_telemetry.Json
module Mt = Sb_mt.Mt
open Sb_protection.Types

(** The scheme line-up of the audit sweep (the paper's four headline
    schemes, from the capability table; the sgxbounds ablation variants
    share sgxbounds' kernel annotations). *)
let default_schemes = Sb_schemes.Scheme_info.headline_names

(** Smoke working-set size: the audit verifies per-object contracts, so
    it needs every code path, not the full Figure 7 working set. *)
let smoke_n (w : Registry.spec) = max 24 (w.Registry.default_n / 64)

type cell = {
  c_workload : string;
  c_scheme : string;
  c_n : int;
  c_threads : int;
  c_crashed : string option;
  c_ops : int;          (** scheme operations audited *)
  c_total : int;        (** finding occurrences (pre-deduplication) *)
  c_findings : Finding.t list;  (** deduplicated, capped; unified schema *)
  c_sym_total : int;    (** occurrences from the symbolic pass alone *)
  c_subset_ok : bool;   (** dynamic findings ⊆ unified findings (pin) *)
}

(** Run one audited (workload, scheme) cell on a fresh machine at smoke
    size (or [n]). The wrapper is {!Symex.wrap}, which carries the
    dynamic auditor in the same interposition layer — every sweep cell
    therefore also asserts the audit-subset soundness pin. A workload
    that never plants taint pays for the symbolic layer only its hooks'
    test of {!Symex.active} on each access, offset and check: on smoke
    hmmer under sgxbounds, the auditor alone takes 1.4x the host CPU
    time of the unwrapped run and with the symbolic layer 1.6x (best of
    15 runs each on a 2-vCPU Xeon VM). Race tracking is enabled only
    for multithreaded runs: a single-threaded run has no parallel
    regions to race in. *)
let run_cell ?(env = Config.Inside_enclave) ?(threads = 1) ?n ~scheme
    (w : Registry.spec) =
  let n = match n with Some n -> n | None -> smoke_n w in
  let handle = ref None in
  let wrap s =
    let s', a = Symex.wrap ~track_races:(threads > 1) s in
    handle := Some a;
    s'
  in
  let r =
    Fun.protect ~finally:Symex.unhook (fun () ->
        Harness.run_one ~wrap ~env ~threads ~n ~scheme w)
  in
  let a = Option.get !handle in
  {
    c_workload = w.Registry.name;
    c_scheme = scheme;
    c_n = n;
    c_threads = threads;
    c_crashed =
      (match r.Harness.outcome with
       | Harness.Completed _ -> None
       | Harness.Crashed msg -> Some msg);
    c_ops = Symex.ops a;
    c_total = Symex.total a;
    c_findings = Symex.findings a;
    c_sym_total = Symex.sym_total a;
    c_subset_ok = Symex.subset_ok a;
  }

(** Every (workload, scheme) cell, in workload-major order, fanned
    across [jobs] domains (default 1). Each cell owns its machine and
    its auditor, and the auditor's region tracer is per domain, so the
    cells are the same for any [jobs]. *)
let sweep ?env ?threads ?n ?jobs ~schemes workloads =
  let cells = List.concat_map (fun w -> List.map (fun s -> (w, s)) schemes) workloads in
  Parallel_runner.map_list ?jobs (fun (w, scheme) -> run_cell ?env ?threads ?n ~scheme w) cells

(* ---------- reports ---------- *)

let cells_findings cells = List.fold_left (fun acc c -> acc + c.c_total) 0 cells
let cells_crashed cells =
  List.length (List.filter (fun c -> c.c_crashed <> None) cells)

let cells_subset_bad cells =
  List.length (List.filter (fun c -> not c.c_subset_ok) cells)

let json_of_cell c =
  Json.Obj
    [
      ("workload", Json.Str c.c_workload);
      ("scheme", Json.Str c.c_scheme);
      ("n", Json.Int c.c_n);
      ("threads", Json.Int c.c_threads);
      ( "status",
        Json.Str (match c.c_crashed with None -> "completed" | Some _ -> "crashed") );
      ("ops_audited", Json.Int c.c_ops);
      ("findings", Json.Int c.c_total);
      ("symbolic_findings", Json.Int c.c_sym_total);
      ("subset_ok", Json.Bool c.c_subset_ok);
      ("detail", Json.List (List.map Finding.to_json c.c_findings));
    ]

let json_report cells =
  Json.Obj
    [
      ("cells", Json.List (List.map json_of_cell cells));
      ( "summary",
        Json.Obj
          [
            ("cells", Json.Int (List.length cells));
            ("crashed", Json.Int (cells_crashed cells));
            ("findings", Json.Int (cells_findings cells));
            ("subset_bad", Json.Int (cells_subset_bad cells));
          ] );
    ]

let print_report cells =
  List.iter
    (fun c ->
       let tag =
         match c.c_crashed with
         | Some msg -> "CRASHED: " ^ msg
         | None -> if c.c_total = 0 then "clean" else Printf.sprintf "%d finding(s)" c.c_total
       in
       Fmt.pr "%-18s %-12s n=%-8d ops=%-9d %s@." c.c_workload c.c_scheme c.c_n
         c.c_ops tag;
       List.iter (fun f -> Fmt.pr "    %a@." Finding.pp f) c.c_findings)
    cells;
  Fmt.pr "audit: %d cell(s), %d crashed, %d finding(s), %d subset pin failure(s)@."
    (List.length cells) (cells_crashed cells) (cells_findings cells)
    (cells_subset_bad cells)

(* ---------- self-test: seeded race + annotation mutants ---------- *)

let with_audited ?(track_races = false) scheme f =
  let ms = Memsys.create (Config.default ()) in
  let s = Harness.maker scheme ms in
  let s', a = Audit.wrap ~track_races s in
  Fun.protect ~finally:Audit.unhook (fun () -> f s' a)

(** The §4.1/Figure 4c scenario: two threads hammer one shared pointer
    slot. The slot word itself races under every scheme; only MPX also
    conflicts on disjoint metadata — the bounds-table entry its bndstx
    writes after (not atomically with) the data store. SGXBounds'
    pointer and bounds travel in one tagged word, so its store is the
    data store: no metadata to race on. *)
let shared_slot_kernel (s : Scheme.t) =
  let slot = s.Scheme.malloc 8 in
  let a = s.Scheme.malloc 32 in
  let b = s.Scheme.malloc 32 in
  Mt.run s.Scheme.ms
    [|
      (fun () ->
         for _ = 1 to 8 do
           s.Scheme.store_ptr slot a;
           Mt.yield ()
         done);
      (fun () ->
         for _ = 1 to 8 do
           s.Scheme.store_ptr slot b;
           Mt.yield ();
           ignore (s.Scheme.load_ptr slot)
         done);
    |]

(** A bad loop hoist: the range check covers half the iteration space. *)
let bad_hoist_kernel (s : Scheme.t) =
  let p = s.Scheme.malloc 64 in
  s.Scheme.check_range p 32 Read;
  for i = 0 to 15 do
    ignore (s.Scheme.load_unchecked (s.Scheme.offset p (i * 4)) 4)
  done;
  s.Scheme.free p

(** A bogus "compiler-proved" access straddling the object end. *)
let bad_safe_kernel (s : Scheme.t) =
  let p = s.Scheme.malloc 64 in
  ignore (s.Scheme.safe_load (s.Scheme.offset p 62) 4);
  s.Scheme.free p

(** A libc wrapper whose check disagrees with the bytes the body
    touches, plus raw traffic with no check at all. *)
let bad_libc_kernel (s : Scheme.t) =
  let p = s.Scheme.malloc 64 in
  s.Scheme.libc_check p 4 Read;
  s.Scheme.libc_touch "mutant_memcpy" p 8 Read;
  s.Scheme.libc_touch "rogue_memset" p 4 Write;
  s.Scheme.free p

(** A disciplined kernel: hoisted check covering the loop, in-bounds
    safe accesses, well-paired libc traffic. Must audit clean. *)
let clean_kernel (s : Scheme.t) =
  let p = s.Scheme.malloc 64 in
  let q = s.Scheme.malloc 64 in
  s.Scheme.check_range p 64 Write;
  for i = 0 to 15 do
    s.Scheme.store_unchecked (s.Scheme.offset p (i * 4)) 4 i
  done;
  ignore (s.Scheme.safe_load p 4);
  s.Scheme.safe_store (s.Scheme.offset q 60) 4 7;
  Sb_libc.Simlibc.memcpy s ~dst:q ~src:p ~len:64;
  s.Scheme.free p;
  s.Scheme.free q

let expect = Finding.expect

let selftests () =
  let mpx_race =
    with_audited ~track_races:true "mpx" (fun s a ->
        shared_slot_kernel s;
        expect "mpx-metadata-race"
          (Audit.count a Finding.Meta_race > 0 && Audit.count a Finding.Data_race > 0)
          (Printf.sprintf "meta=%d data=%d (expected both > 0)"
             (Audit.count a Finding.Meta_race)
             (Audit.count a Finding.Data_race)))
  in
  let sgxb_race =
    with_audited ~track_races:true "sgxbounds" (fun s a ->
        shared_slot_kernel s;
        expect "sgxbounds-no-metadata-race"
          (Audit.count a Finding.Meta_race = 0 && Audit.count a Finding.Data_race > 0)
          (Printf.sprintf "meta=%d data=%d (expected meta = 0, data > 0)"
             (Audit.count a Finding.Meta_race)
             (Audit.count a Finding.Data_race)))
  in
  let bad_hoist =
    with_audited "sgxbounds" (fun s a ->
        bad_hoist_kernel s;
        expect "bad-hoist-mutant"
          (Audit.count a Finding.Unchecked_uncovered > 0)
          (Printf.sprintf "unchecked-uncovered=%d (expected > 0)"
             (Audit.count a Finding.Unchecked_uncovered)))
  in
  let bad_safe =
    with_audited "sgxbounds" (fun s a ->
        bad_safe_kernel s;
        expect "bad-safe-mutant"
          (Audit.count a Finding.Safe_oob > 0)
          (Printf.sprintf "safe-oob=%d (expected > 0)" (Audit.count a Finding.Safe_oob)))
  in
  let bad_libc =
    with_audited "sgxbounds" (fun s a ->
        bad_libc_kernel s;
        expect "bad-libc-mutant"
          (Audit.count a Finding.Libc_mismatch > 0
           && Audit.count a Finding.Libc_unchecked > 0)
          (Printf.sprintf "libc-mismatch=%d libc-unchecked=%d (expected both > 0)"
             (Audit.count a Finding.Libc_mismatch)
             (Audit.count a Finding.Libc_unchecked)))
  in
  let cleans =
    List.map
      (fun scheme ->
         with_audited scheme (fun s a ->
             clean_kernel s;
             expect ("clean-kernel-" ^ scheme) (Audit.total a = 0)
               (Printf.sprintf "findings=%d (expected 0)" (Audit.total a))))
      default_schemes
  in
  [ mpx_race; sgxb_race; bad_hoist; bad_safe; bad_libc ] @ cleans

