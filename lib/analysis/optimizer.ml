(** The proof-carrying bounds-check optimizer (the missing §4.4
    compiler pass).

    An abstract interpreter over the recorded {!Sb_protection.Sitestream}
    op stream, with an affine-index/interval domain instead of
    {!Symex}'s taint: per static site it infers (base object, stride,
    extent) facts, relates them to the [check_range] sites the workload
    already issues (the dominator relation: a check dominates an access
    if it precedes it in the stream, refers to the same live object,
    covers the accessed bytes and licenses the direction), and emits an
    {e elision plan}:

    - {b eliminate} — sites dominated by an equal-or-wider live check on
      the same object route through [*_unchecked];
    - {b hoist} — affine runs and hot whole-object footprints get one
      widened check covering the iteration range, charged once at the
      first access, then elide like the rest.

    Every plan entry is a certificate (site, dominating site, object
    id, extent). Three independent layers verify them:

    + {!verify_plan} — this module's static certificate checker replays
      the recorded stream against the plan;
    + {!Sb_protection.Optimized.wrap} — re-verifies each certificate at
      runtime before taking an unchecked path (wrong plans lose
      elisions, never checks);
    + {!verify_replay} / {!fuzz_soundness} — dynamic oracles: the plan
      composed with {!Audit.wrap} must report zero findings, and the
      two-engine fuzz oracle must see bit-identical results and
      unchanged violation verdicts. *)

module Harness = Sb_harness.Harness
module Parallel_runner = Sb_harness.Parallel_runner
module Registry = Sb_workloads.Registry
module Config = Sb_machine.Config
module Fastpath = Sb_machine.Fastpath
module Rng = Sb_machine.Rng
module Memsys = Sb_sgx.Memsys
module Scheme = Sb_protection.Scheme
module Sitestream = Sb_protection.Sitestream
module Live = Sb_protection.Live
module Optimized = Sb_protection.Optimized
module Scheme_info = Sb_schemes.Scheme_info
module Json = Sb_telemetry.Json
module Trace = Sb_fuzz.Trace
module Oracle = Sb_fuzz.Oracle
module Replay = Sb_fuzz.Replay
open Sb_protection.Types

(* ---------- plan construction ---------- *)

(** Objects with at least this many checked accesses get one widened
    whole-footprint check instead of per-run checks. *)
let span_threshold = 8

(** Affine runs shorter than this are not worth a hoisted check (the
    widened check plus its address computation would cost as much as
    the checks it replaces). *)
let run_threshold = 2

(* Candidate sites are ranges of one object's in-bounds accesses: a
   maximal affine run (consecutive accesses of the object with equal op,
   width and stride) or, for an object with [span_threshold] accesses or
   more, all of them as one whole-object span. *)

(* Two access words of the same op and width. *)
let same_shape w w' =
  Sitestream.acc_op w = Sitestream.acc_op w' && Sitestream.acc_width w = Sitestream.acc_width w'

let build_plan ~workload ~scheme (t : Sitestream.t) : Optimized.plan =
  let nops = Sitestream.ops t in
  let nobjs = Sitestream.births t in
  let sizes = Array.make (max 1 nobjs) (-1) in
  let in_bounds w =
    let obj = Sitestream.obj_of w in
    obj >= 0 && sizes.(obj) >= 0 && Sitestream.acc_off w + Sitestream.acc_width w <= sizes.(obj)
  in
  (* pass 1: object sizes, in-bounds accesses per object, checks *)
  let start = Array.make (max 1 nobjs + 1) 0 in
  let chks : (int * int * int * access) list array = Array.make (max 1 nobjs) [] in
  Sitestream.iter t
    ~alloc:(fun obj size -> sizes.(obj) <- size)
    ~dead:(fun _ -> ())
    ~acc:(fun _ w ->
        if in_bounds w then begin
          let o = Sitestream.obj_of w + 1 in
          start.(o) <- start.(o) + 1
        end)
    ~chk:(fun idx obj off len dir ->
        if obj >= 0 && sizes.(obj) >= 0 && len > 0 && off >= 0 && off + len <= sizes.(obj)
        then chks.(obj) <- (idx, off, off + len, dir) :: chks.(obj));
  (* pass 2: object [o]'s accesses, in stream order, are the slots
     [start.(o)] to [start.(o + 1) - 1] of [a_idx] (clock) and [a_word].
     [sizes] is complete now, but an object's size was already known at
     each of its accesses in pass 1 (its birth comes first), so both
     passes keep the same accesses. *)
  for o = 1 to nobjs do start.(o) <- start.(o) + start.(o - 1) done;
  let naccs = start.(nobjs) in
  let a_idx = Array.make naccs 0 and a_word = Array.make naccs 0 in
  let fill = Array.sub start 0 (max 1 nobjs) in
  Sitestream.iter t
    ~alloc:(fun _ _ -> ())
    ~dead:(fun _ -> ())
    ~acc:(fun idx w ->
        if in_bounds w then begin
          let o = Sitestream.obj_of w in
          let k = fill.(o) in
          a_idx.(k) <- idx;
          a_word.(k) <- w;
          fill.(o) <- k + 1
        end)
    ~chk:(fun _ _ _ _ _ -> ());
  let off k = Sitestream.acc_off a_word.(k) in
  (* the end of the maximal affine run starting at slot [a], before [e] *)
  let run_end a e =
    if a + 1 >= e || not (same_shape a_word.(a) a_word.(a + 1)) then a + 1
    else begin
      let stride = off (a + 1) - off a in
      let j = ref (a + 2) in
      while !j < e && same_shape a_word.(!j - 1) a_word.(!j) && off !j - off (!j - 1) = stride do
        incr j
      done;
      !j
    end
  in
  (* pass 3: per object (in birth order), candidates in stream order,
     then the dominator decision against live checks *)
  let actions = Array.make nops Optimized.Pass in
  let sites = ref [] in
  let nsites = ref 0 in
  for obj = 0 to nobjs - 1 do
    let ochks = chks.(obj) in
    (* checks this pass has already decided to hoist for this object *)
    let planned = ref [] in
    let decide kind a b =
      let lo = ref max_int and hi = ref min_int and write = ref false in
      for k = a to b - 1 do
        let w = a_word.(k) in
        lo := min !lo (off k);
        hi := max !hi (off k + Sitestream.acc_width w);
        write := !write || Sitestream.acc_writes w
      done;
      let lo = !lo and hi = !hi and write = !write in
      let first = a_idx.(a) in
      let licensed (clo, chi, cdir) = clo <= lo && hi <= chi && (cdir = Write || not write) in
      let dir = if write then Write else Read in
      let dom_workload =
        List.exists (fun (cidx, clo, chi, cdir) -> cidx <= first && licensed (clo, chi, cdir)) ochks
      in
      let dom_planned =
        List.find_opt (fun (clo, chi, cdir, _) -> licensed (clo, chi, cdir)) !planned
      in
      let count = b - a in
      let make_site dom =
        let id = !nsites in
        nsites := id + 1;
        sites :=
          {
            Optimized.site_id = id;
            site_obj = obj;
            site_kind = kind;
            site_op = Sitestream.acc_op a_word.(a);
            site_base = off a;
            site_stride =
              (match kind with Optimized.Run when count >= 2 -> off (a + 1) - off a | _ -> 0);
            site_count = count;
            site_lo = lo;
            site_hi = hi;
            site_dir = dir;
            site_dom = dom;
          }
          :: !sites;
        id
      in
      let elide_all id =
        let e = Optimized.Elide id in
        for k = a to b - 1 do actions.(a_idx.(k)) <- e done
      in
      if dom_workload then elide_all (make_site (-1))
      else
        match dom_planned with
        | Some (_, _, _, dom_id) -> elide_all (make_site dom_id)
        | None ->
          if count >= run_threshold then begin
            let id = make_site !nsites in
            elide_all id;
            actions.(first) <- Optimized.Hoist id;
            planned := (lo, hi, dir, id) :: !planned
          end
    in
    let a = start.(obj) and e = start.(obj + 1) in
    if e - a >= span_threshold then decide Optimized.Span a e
    else begin
      let i = ref a in
      while !i < e do
        let j = run_end !i e in
        decide Optimized.Run !i j;
        i := j
      done
    end
  done;
  {
    Optimized.p_workload = workload;
    p_scheme = scheme;
    p_ops = nops;
    p_truncated = Sitestream.truncated t;
    p_sites = Array.of_list (List.rev !sites);
    p_actions = actions;
  }

(* ---------- the certificate verifier ---------- *)

type cert_failure = { cf_site : int; cf_reason : string }

let pp_cert_failure ppf f =
  Fmt.pf ppf "certificate %d: %s" f.cf_site f.cf_reason

(** Independently re-check every certificate of [plan] against the
    recorded stream: replays object lifetimes and live checks and
    demands, per elided access, a dominating licensed check — the same
    contract {!Audit} enforces dynamically. Returns all failures (a
    sound plan returns []). *)
let verify_plan (plan : Optimized.plan) (t : Sitestream.t) : cert_failure list =
  let nobjs = Sitestream.births t in
  let sizes = Array.make (max 1 nobjs) (-1) in
  let alive = Array.make (max 1 nobjs) false in
  let checks : (int * int * access) list array = Array.make (max 1 nobjs) [] in
  let failures = ref [] in
  let fail site reason = failures := { cf_site = site; cf_reason = reason } :: !failures in
  let sites = plan.Optimized.p_sites and actions = plan.Optimized.p_actions in
  Sitestream.iter t
    ~alloc:(fun obj size ->
        sizes.(obj) <- size;
        alive.(obj) <- true)
    ~dead:(fun obj ->
        alive.(obj) <- false;
        checks.(obj) <- [])
    ~chk:(fun _ obj off len dir ->
        if obj >= 0 && alive.(obj) && len > 0 && off >= 0 && off + len <= sizes.(obj)
        then checks.(obj) <- (off, off + len, dir) :: checks.(obj))
    ~acc:(fun idx w ->
        let action = if idx < Array.length actions then actions.(idx) else Optimized.Pass in
        match action with
        | Optimized.Pass -> ()
        | Optimized.Elide sid | Optimized.Hoist sid ->
          if sid < 0 || sid >= Array.length sites then fail sid "site id out of range"
          else begin
            let s = sites.(sid) in
            let obj = Sitestream.obj_of w in
            let off = Sitestream.acc_off w and width = Sitestream.acc_width w in
            if obj < 0 then fail sid "access has no single referent object"
            else if obj <> s.Optimized.site_obj then
              fail sid
                (Printf.sprintf "certificate names object %d but access hits object %d"
                   s.Optimized.site_obj obj)
            else if not alive.(obj) then fail sid "referent object is dead"
            else if s.Optimized.site_lo < 0 || s.Optimized.site_hi > sizes.(obj) then
              fail sid
                (Printf.sprintf "extent [%d,%d) exceeds object size %d"
                   s.Optimized.site_lo s.Optimized.site_hi sizes.(obj))
            else if off < s.Optimized.site_lo || off + width > s.Optimized.site_hi then
              fail sid
                (Printf.sprintf "access [%d,%d) outside certified extent [%d,%d)" off
                   (off + width) s.Optimized.site_lo s.Optimized.site_hi)
            else begin
              (match action with
               | Optimized.Hoist _ ->
                 checks.(obj) <-
                   (s.Optimized.site_lo, s.Optimized.site_hi, s.Optimized.site_dir)
                   :: checks.(obj)
               | _ -> ());
              let dir = if Sitestream.acc_writes w then Write else Read in
              if not (Live.covers off (off + width) dir checks.(obj)) then
                fail sid "no dominating live check licenses this access"
            end
          end);
  List.rev !failures

(* ---------- per-cell driver ---------- *)

type row = {
  r_workload : string;
  r_scheme : string;
  r_n : int;
  r_sites : int;
  r_hoist_sites : int;
  r_elim_sites : int;    (** sites dominated by a pre-existing check *)
  r_checks_before : int;
  r_checks_after : int;
  r_elided : int;        (** accesses routed through [*_unchecked] *)
  r_hoisted : int;       (** widened checks inserted *)
  r_fallbacks : int;     (** certificates rejected at runtime *)
  r_removed_pct : float;
  r_cycles_before : int;
  r_cycles_after : int;
  r_delta_pct : float;
  r_certs_bad : int;
  r_sound : bool;        (** all replay invariants held *)
  r_detail : string;
}

let data_accesses (m : Harness.metrics) =
  match List.assoc_opt Memsys.Data m.Harness.attribution with
  | Some cs -> cs.Memsys.accesses
  | None -> 0

let pct part whole = if whole = 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int whole

(** Record one (workload, scheme) cell through the site-stream recorder.
    The recorder is purely observational, so the run's metrics are those
    of an unoptimized run. *)
let record_cell ?env ?(threads = 1) ?n ~scheme (w : Registry.spec) =
  let n = match n with Some n -> n | None -> Analyze.smoke_n w in
  let stream = ref None in
  let wrap s =
    let s', t = Sitestream.wrap s in
    stream := Some t;
    s'
  in
  let r = Harness.run_one ~wrap ?env ~threads ~n ~scheme w in
  (r, Option.get !stream, n)

(** Record one cell and build its elision plan, for plan dumps. *)
let plan_of_cell ?env ?threads ?n ~scheme (w : Registry.spec) =
  let _r, stream, _n = record_cell ?env ?threads ?n ~scheme w in
  build_plan ~workload:w.Registry.name ~scheme stream

let print_plan (p : Optimized.plan) =
  Fmt.pr "plan %s/%s: %d ops, %d site(s)%s@." p.Optimized.p_workload
    p.Optimized.p_scheme p.Optimized.p_ops
    (Array.length p.Optimized.p_sites)
    (if p.Optimized.p_truncated then " (stream truncated: prefix only)" else "");
  Array.iter
    (fun (s : Optimized.site) ->
       Fmt.pr
         "  site %4d %-4s %-9s obj=%-4d base=%-6d stride=%-4d count=%-6d \
          extent=[%d,%d) dir=%s dom=%s@."
         s.Optimized.site_id
         (Optimized.site_kind_name s.Optimized.site_kind)
         (Scheme.op_name s.Optimized.site_op)
         s.Optimized.site_obj s.Optimized.site_base s.Optimized.site_stride
         s.Optimized.site_count s.Optimized.site_lo s.Optimized.site_hi
         (match s.Optimized.site_dir with Write -> "w" | Read -> "r")
         (if s.Optimized.site_dom = -1 then "workload-check"
          else if s.Optimized.site_dom = s.Optimized.site_id then "self-hoist"
          else Printf.sprintf "site %d" s.Optimized.site_dom))
    p.Optimized.p_sites

(** Record, plan, verify, and re-run one cell optimized; compare the two
    runs against the soundness invariants (same verdict, same data-class
    traffic, no runtime certificate rejections, no static certificate
    failures, cycles not up). *)
let optimize_cell ?env ?(threads = 1) ?n ~scheme (w : Registry.spec) : row =
  let r0, stream, n = record_cell ?env ~threads ?n ~scheme w in
  let plan = build_plan ~workload:w.Registry.name ~scheme stream in
  let certs_bad = List.length (verify_plan plan stream) in
  let stats = ref None in
  let wrap s =
    let s', st = Optimized.wrap plan s in
    stats := Some st;
    s'
  in
  let r1 = Harness.run_one ~wrap ?env ~threads ~n ~scheme w in
  let st = Option.get !stats in
  let hoist_sites =
    Array.fold_left
      (fun k (s : Optimized.site) -> if s.Optimized.site_dom = s.Optimized.site_id then k + 1 else k)
      0 plan.Optimized.p_sites
  in
  let base =
    {
      r_workload = w.Registry.name;
      r_scheme = scheme;
      r_n = n;
      r_sites = Array.length plan.Optimized.p_sites;
      r_hoist_sites = hoist_sites;
      r_elim_sites = Array.length plan.Optimized.p_sites - hoist_sites;
      r_checks_before = 0;
      r_checks_after = 0;
      r_elided = st.Optimized.elides;
      r_hoisted = st.Optimized.hoists;
      r_fallbacks = st.Optimized.fallbacks;
      r_removed_pct = 0.0;
      r_cycles_before = 0;
      r_cycles_after = 0;
      r_delta_pct = 0.0;
      r_certs_bad = certs_bad;
      r_sound = false;
      r_detail = "";
    }
  in
  match (r0.Harness.outcome, r1.Harness.outcome) with
  | Harness.Completed m0, Harness.Completed m1 ->
    let problems = ref [] in
    let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
    if certs_bad > 0 then note "%d certificate(s) failed static verification" certs_bad;
    if st.Optimized.fallbacks > 0 then
      note "%d certificate(s) rejected at runtime" st.Optimized.fallbacks;
    if m0.Harness.violations <> m1.Harness.violations then
      note "violation verdict changed (%d -> %d)" m0.Harness.violations
        m1.Harness.violations;
    if data_accesses m0 <> data_accesses m1 then
      note "data-class accesses changed (%d -> %d)" (data_accesses m0) (data_accesses m1);
    if m1.Harness.cycles > m0.Harness.cycles then
      note "cycles increased (%d -> %d)" m0.Harness.cycles m1.Harness.cycles;
    if m1.Harness.checks_done > m0.Harness.checks_done then
      note "checks increased (%d -> %d)" m0.Harness.checks_done m1.Harness.checks_done;
    {
      base with
      r_checks_before = m0.Harness.checks_done;
      r_checks_after = m1.Harness.checks_done;
      r_removed_pct = pct (m0.Harness.checks_done - m1.Harness.checks_done) m0.Harness.checks_done;
      r_cycles_before = m0.Harness.cycles;
      r_cycles_after = m1.Harness.cycles;
      r_delta_pct = -. pct (m0.Harness.cycles - m1.Harness.cycles) m0.Harness.cycles;
      r_sound = !problems = [];
      r_detail = String.concat "; " (List.rev !problems);
    }
  | Harness.Crashed a, Harness.Crashed b when a = b ->
    (* same verdict, nothing to measure *)
    { base with r_sound = certs_bad = 0; r_detail = "crashed (both runs): " ^ a }
  | o0, o1 ->
    let name = function
      | Harness.Completed _ -> "completed"
      | Harness.Crashed msg -> "crashed: " ^ msg
    in
    { base with r_sound = false;
      r_detail = Printf.sprintf "outcome diverged (%s vs %s)" (name o0) (name o1) }

(** The sweep line-up: schemes whose metadata could conceivably support
    object-keyed certificates. Only SGXBounds profits — ASan and MPX
    keep checking under [*_unchecked] (no per-object bounds to elide
    against), which the table shows as a 0% removal rate. *)
let default_sweep_schemes = [ "sgxbounds"; "asan"; "mpx" ]

let sweep ?env ?threads ?n ?jobs ?(schemes = default_sweep_schemes) workloads =
  let cells = List.concat_map (fun w -> List.map (fun s -> (w, s)) schemes) workloads in
  Parallel_runner.map_list ?jobs
    (fun (w, scheme) -> optimize_cell ?env ?threads ?n ~scheme w)
    cells

(* ---------- TSV / JSON / text reports ---------- *)

let elision_tsv_header =
  "workload\tscheme\tn\tsites\tchecks_before\tchecks_after\telided\thoisted\tremoved_pct\tcycles_before\tcycles_after\tcycle_delta_pct"

let tsv_of_rows rows =
  let b = Buffer.create 4096 in
  Buffer.add_string b (elision_tsv_header ^ "\n");
  List.iter
    (fun r ->
       Buffer.add_string b
         (Printf.sprintf "%s\t%s\t%d\t%d\t%d\t%d\t%d\t%d\t%.1f\t%d\t%d\t%.2f\n" r.r_workload
            r.r_scheme r.r_n r.r_sites r.r_checks_before r.r_checks_after r.r_elided
            r.r_hoisted r.r_removed_pct r.r_cycles_before r.r_cycles_after r.r_delta_pct))
    rows;
  Buffer.contents b

let dir_name = function Read -> "read" | Write -> "write"

let json_of_site (s : Optimized.site) =
  Json.Obj
    [
      ("id", Json.Int s.Optimized.site_id);
      ("object", Json.Int s.Optimized.site_obj);
      ("kind", Json.Str (Optimized.site_kind_name s.Optimized.site_kind));
      ("op", Json.Str (Scheme.op_name s.Optimized.site_op));
      ("base", Json.Int s.Optimized.site_base);
      ("stride", Json.Int s.Optimized.site_stride);
      ("count", Json.Int s.Optimized.site_count);
      ("lo", Json.Int s.Optimized.site_lo);
      ("hi", Json.Int s.Optimized.site_hi);
      ("dir", Json.Str (dir_name s.Optimized.site_dir));
      ("dominator", Json.Int s.Optimized.site_dom);
    ]

let json_of_plan (p : Optimized.plan) =
  let count f = Array.fold_left (fun k a -> if f a then k + 1 else k) 0 p.Optimized.p_actions in
  Json.Obj
    [
      ("workload", Json.Str p.Optimized.p_workload);
      ("scheme", Json.Str p.Optimized.p_scheme);
      ("ops", Json.Int p.Optimized.p_ops);
      ("truncated", Json.Bool p.Optimized.p_truncated);
      ("sites", Json.List (List.map json_of_site (Array.to_list p.Optimized.p_sites)));
      ( "actions",
        Json.Obj
          [
            ("hoist", Json.Int (count (function Optimized.Hoist _ -> true | _ -> false)));
            ("elide", Json.Int (count (function Optimized.Elide _ -> true | _ -> false)));
            ("pass", Json.Int (count (function Optimized.Pass -> true | _ -> false)));
          ] );
    ]

let json_of_row r =
  Json.Obj
    [
      ("workload", Json.Str r.r_workload);
      ("scheme", Json.Str r.r_scheme);
      ("n", Json.Int r.r_n);
      ("sites", Json.Int r.r_sites);
      ("hoist_sites", Json.Int r.r_hoist_sites);
      ("eliminated_sites", Json.Int r.r_elim_sites);
      ("checks_before", Json.Int r.r_checks_before);
      ("checks_after", Json.Int r.r_checks_after);
      ("elided", Json.Int r.r_elided);
      ("hoisted", Json.Int r.r_hoisted);
      ("fallbacks", Json.Int r.r_fallbacks);
      ("removed_pct", Json.Float r.r_removed_pct);
      ("cycles_before", Json.Int r.r_cycles_before);
      ("cycles_after", Json.Int r.r_cycles_after);
      ("cycle_delta_pct", Json.Float r.r_delta_pct);
      ("cert_failures", Json.Int r.r_certs_bad);
      ("sound", Json.Bool r.r_sound);
      ("detail", Json.Str r.r_detail);
    ]

let json_report rows =
  Json.Obj
    [
      ("rows", Json.List (List.map json_of_row rows));
      ( "summary",
        Json.Obj
          [
            ("cells", Json.Int (List.length rows));
            ( "unsound",
              Json.Int (List.length (List.filter (fun r -> not r.r_sound) rows)) );
            ( "elided",
              Json.Int (List.fold_left (fun k r -> k + r.r_elided) 0 rows) );
            ( "hoisted",
              Json.Int (List.fold_left (fun k r -> k + r.r_hoisted) 0 rows) );
          ] );
    ]

let print_rows rows =
  Fmt.pr "%-18s %-10s %9s %9s %8s %8s %8s %8s  %s@." "workload" "scheme" "before"
    "after" "elided" "hoisted" "removed" "cycles" "status";
  List.iter
    (fun r ->
       Fmt.pr "%-18s %-10s %9d %9d %8d %8d %7.1f%% %+7.2f%%  %s@." r.r_workload r.r_scheme
         r.r_checks_before r.r_checks_after r.r_elided r.r_hoisted r.r_removed_pct
         r.r_delta_pct
         (if r.r_sound then "sound" else "UNSOUND: " ^ r.r_detail))
    rows;
  let unsound = List.filter (fun r -> not r.r_sound) rows in
  Fmt.pr "optimize: %d cell(s), %d unsound@." (List.length rows) (List.length unsound)

(* ---------- dynamic verification ---------- *)

(** Replay a plan composed with {!Audit.wrap} (the dominating-check
    contract, independently enforced): the audited scheme sits inside
    the optimizer layer, so every hoisted check and every elided access
    the plan produces is re-judged by the auditor. Returns (audit
    findings, runtime certificate rejections). *)
let verify_replay ?env ?(threads = 1) ?n ~scheme (w : Registry.spec) plan =
  let n = match n with Some n -> n | None -> Analyze.smoke_n w in
  let audit = ref None and stats = ref None in
  let wrap s =
    let sa, a = Audit.wrap ~track_races:false s in
    audit := Some a;
    let so, st = Optimized.wrap plan sa in
    stats := Some st;
    so
  in
  let _r =
    Fun.protect ~finally:Audit.unhook (fun () ->
        Harness.run_one ~wrap ?env ~threads ~n ~scheme w)
  in
  (Audit.total (Option.get !audit), (Option.get !stats).Optimized.fallbacks)

(* ---------- Figure 10 ablation with the optimizer column ---------- *)

(** The Figure 10 ablation line-up plus an [sgxbounds-opt] column: the
    optimizer's plan applied on top of full sgxbounds (so it elides the
    checks the manual annotations leave behind). *)
let opt_result ?env ?threads ?n (w : Registry.spec) =
  let _r0, stream, n = record_cell ?env ?threads ?n ~scheme:"sgxbounds" w in
  let plan = build_plan ~workload:w.Registry.name ~scheme:"sgxbounds" stream in
  let r =
    Harness.run_one
      ~wrap:(fun s -> fst (Optimized.wrap plan s))
      ?env ?threads ~n ~scheme:"sgxbounds" w
  in
  { r with Harness.scheme = "sgxbounds-opt" }

let ablation_with_opt ?env ?threads ?n (w : Registry.spec) =
  Harness.run_ablation ?env ?threads ?n w @ [ opt_result ?env ?threads ?n w ]

(* ---------- fuzz-oracle soundness (two engines) ---------- *)

let engines = [ Fastpath.Naive; Fastpath.Fast ]

type fuzz_report = {
  fz_traces : int;
  fz_cells : int;       (** (trace, scheme) pairs exercised *)
  fz_elided : int;      (** accesses elided across all optimized replays *)
  fz_failures : string list;
}

(** The fuzz-oracle soundness gate: for seeded traces (about half of
    which contain deliberate violations), record each (trace, scheme)
    cell, build and statically verify a plan, then replay optimized
    under both engines. The optimized replays must be bit-identical
    to each other, must preserve the unoptimized run's verdict (stop,
    read values, counted violations, boundless accesses) per engine, may
    only remove cost, and — composed with {!Audit.wrap} — must report
    exactly the findings the unoptimized audited replay reports (zero on
    safe traces). *)
let fuzz_soundness ?(seed = 11) ?(iters = 24)
    ?(schemes = [ "sgxbounds"; "sgxbounds-boundless" ]) () : fuzz_report =
  let rng = Rng.create seed in
  let failures = ref [] in
  let cells = ref 0 in
  let elided = ref 0 in
  let fail trace_i scheme fmt =
    Printf.ksprintf
      (fun s -> failures := Printf.sprintf "trace %d [%s]: %s" trace_i scheme s :: !failures)
      fmt
  in
  for trace_i = 0 to iters - 1 do
    let trace = Trace.generate (Rng.create (Rng.split rng)) in
    let oplan = Oracle.analyze trace in
    List.iter
      (fun scheme ->
         incr cells;
         let maker =
           match Scheme_info.find_opt scheme with
           | Some i -> i.Scheme_info.trace_maker
           | None -> invalid_arg ("fuzz_soundness: unknown scheme " ^ scheme)
         in
         let run_plain kind = Replay.run_engine ~kind ~maker ~plan:oplan trace in
         let unopt = List.map run_plain engines in
         (* record under the naive engine; the stream is engine-invariant *)
         let stream = ref None in
         let rmaker ms =
           let s', t = Sitestream.wrap (maker ms) in
           stream := Some t;
           s'
         in
         ignore (Replay.run_engine ~kind:Fastpath.Naive ~maker:rmaker ~plan:oplan trace);
         let eplan =
           build_plan ~workload:(Printf.sprintf "trace-%d" trace_i) ~scheme
             (Option.get !stream)
         in
         (match verify_plan eplan (Option.get !stream) with
          | [] -> ()
          | fs ->
            fail trace_i scheme "%d certificate(s) failed static verification: %s"
              (List.length fs)
              (Fmt.str "%a" Fmt.(list ~sep:(any "; ") pp_cert_failure) fs));
         let run_opt kind =
           let stats = ref None in
           let omaker ms =
             let s', st = Optimized.wrap eplan (maker ms) in
             stats := Some st;
             s'
           in
           let r = Replay.run_engine ~kind ~maker:omaker ~plan:oplan trace in
           (r, Option.get !stats)
         in
         let opt = List.map run_opt engines in
         (* optimized replays agree bit-for-bit across engines *)
         let r0, _ = List.hd opt in
         List.iteri
           (fun i (r, _) ->
              if r <> r0 then
                fail trace_i scheme "optimized %s engine diverges from optimized naive"
                  (Fastpath.kind_name (List.nth engines i)))
           opt;
         (* per engine: the verdict and results of the unoptimized run *)
         List.iteri
           (fun i ((o : Replay.run), (st : Optimized.stats)) ->
              let u = List.nth unopt i in
              let en = Fastpath.kind_name (List.nth engines i) in
              elided := !elided + st.Optimized.elides;
              if o.Replay.stop <> u.Replay.stop then
                fail trace_i scheme "[%s] stop verdict changed" en;
              if o.Replay.reads <> u.Replay.reads then
                fail trace_i scheme "[%s] read values changed" en;
              if o.Replay.violations_counted <> u.Replay.violations_counted then
                fail trace_i scheme "[%s] counted violations changed (%d -> %d)" en
                  u.Replay.violations_counted o.Replay.violations_counted;
              if o.Replay.boundless_accesses <> u.Replay.boundless_accesses then
                fail trace_i scheme "[%s] boundless accesses changed" en;
              if o.Replay.cycles > u.Replay.cycles then
                fail trace_i scheme "[%s] cycles increased (%d -> %d)" en u.Replay.cycles
                  o.Replay.cycles;
              if o.Replay.checks_done > u.Replay.checks_done then
                fail trace_i scheme "[%s] checks increased" en)
           opt;
         (* audit composition: optimized findings = unoptimized findings,
            and zero on safe traces *)
         let audited omaker =
           let audit = ref None in
           let amaker ms =
             let sa, a = Audit.wrap ~track_races:false (omaker ms) in
             audit := Some a;
             sa
           in
           ignore
             (Fun.protect ~finally:Audit.unhook (fun () ->
                  Replay.run_engine ~kind:Fastpath.Naive ~maker:amaker ~plan:oplan trace));
           Audit.total (Option.get !audit)
         in
         (* Audit sits inside the optimizer layer, outside the scheme. *)
         let audited_unopt = audited maker in
         let audited_opt =
           let audit = ref None in
           let amaker ms =
             let sa, a = Audit.wrap ~track_races:false (maker ms) in
             audit := Some a;
             fst (Optimized.wrap eplan sa)
           in
           ignore
             (Fun.protect ~finally:Audit.unhook (fun () ->
                  Replay.run_engine ~kind:Fastpath.Naive ~maker:amaker ~plan:oplan trace));
           Audit.total (Option.get !audit)
         in
         if audited_opt <> audited_unopt then
           fail trace_i scheme "audited findings changed under the plan (%d -> %d)"
             audited_unopt audited_opt;
         let u0 = List.hd unopt in
         let safe = u0.Replay.stop = None && u0.Replay.violations_counted = 0 in
         if safe && audited_opt <> 0 then
           fail trace_i scheme "plan replay under Audit.wrap reports %d finding(s)"
             audited_opt)
      schemes
  done;
  { fz_traces = iters; fz_cells = !cells; fz_elided = !elided;
    fz_failures = List.rev !failures }

(* ---------- selftests ---------- *)

let selftest_workloads = [ "kmeans"; "matrixmul"; "blackscholes" ]

let selftests () : Analyze.selftest list =
  let expect name cond detail =
    { Analyze.st_name = name; st_pass = cond; st_detail = detail }
  in
  (* sound cells: certificates verify, runtime accepts them all, and the
     replays preserve every invariant *)
  let cell_tests =
    List.map
      (fun wname ->
         let w = Registry.find wname in
         let r = optimize_cell ~scheme:"sgxbounds" w in
         expect ("optimize-" ^ wname)
           (r.r_sound && r.r_certs_bad = 0 && r.r_fallbacks = 0 && r.r_sites > 0
            && r.r_elided > 0)
           (Printf.sprintf "sites=%d elided=%d hoisted=%d certs_bad=%d fallbacks=%d %s"
              r.r_sites r.r_elided r.r_hoisted r.r_certs_bad r.r_fallbacks r.r_detail))
      selftest_workloads
  in
  (* audit-composed replay: the dominating-check contract holds *)
  let audit_tests =
    List.map
      (fun wname ->
         let w = Registry.find wname in
         let _r, stream, _n = record_cell ~scheme:"sgxbounds" w in
         let plan = build_plan ~workload:wname ~scheme:"sgxbounds" stream in
         let findings, fallbacks = verify_replay ~scheme:"sgxbounds" w plan in
         expect ("audit-replay-" ^ wname)
           (findings = 0 && fallbacks = 0)
           (Printf.sprintf "findings=%d fallbacks=%d (expected 0/0)" findings fallbacks))
      selftest_workloads
  in
  (* a tampered certificate must be caught statically AND rejected at
     runtime without changing the verdict *)
  let tamper_tests =
    let w = Registry.find "kmeans" in
    let _r, stream, n = record_cell ~scheme:"sgxbounds" w in
    let plan = build_plan ~workload:"kmeans" ~scheme:"sgxbounds" stream in
    let tamper f = { plan with Optimized.p_sites = Array.map f plan.Optimized.p_sites } in
    let widened =
      tamper (fun s ->
          if s.Optimized.site_dom = s.Optimized.site_id then
            { s with Optimized.site_hi = s.Optimized.site_hi + 64 }
          else s)
    in
    let retargeted =
      tamper (fun s -> { s with Optimized.site_obj = s.Optimized.site_obj + 1 })
    in
    let caught p = verify_plan p stream <> [] in
    let runtime_rejects p =
      let stats = ref None in
      let wrap s =
        let s', st = Optimized.wrap p s in
        stats := Some st;
        s'
      in
      let r = Harness.run_one ~wrap ~n ~scheme:"sgxbounds" w in
      let st = Option.get !stats in
      (match r.Harness.outcome with
       | Harness.Completed m -> m.Harness.violations = 0
       | Harness.Crashed _ -> false)
      && st.Optimized.fallbacks > 0
    in
    [
      expect "tampered-extent-caught" (caught widened)
        "certificate widened past its object flagged by the verifier";
      expect "tampered-object-caught" (caught retargeted)
        "certificate naming the wrong object flagged by the verifier";
      expect "tampered-extent-runtime" (runtime_rejects widened)
        "widened certificate rejected at runtime, verdict kept";
      expect "tampered-object-runtime" (runtime_rejects retargeted)
        "retargeted certificate rejected at runtime, verdict kept";
    ]
  in
  (* plan determinism across both engines *)
  let determinism =
    let w = Registry.find "matrixmul" in
    let plan_under kind =
      Fastpath.with_kind kind (fun () ->
          let _r, stream, _n = record_cell ~scheme:"sgxbounds" w in
          build_plan ~workload:"matrixmul" ~scheme:"sgxbounds" stream)
    in
    let plans = List.map plan_under engines in
    let p0 = List.hd plans in
    expect "plan-engine-determinism"
      (List.for_all (fun p -> p = p0) plans)
      (Printf.sprintf "sites=%s"
         (String.concat "/"
            (List.map
               (fun (p : Optimized.plan) ->
                  string_of_int (Array.length p.Optimized.p_sites))
               plans)))
  in
  cell_tests @ audit_tests @ tamper_tests @ [ determinism ]
