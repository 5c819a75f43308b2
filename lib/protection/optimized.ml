(** Runtime layer of the proof-carrying bounds-check optimizer.

    [wrap plan inner] consults an elision plan at runtime: checked-family
    accesses whose op-stream index carries an [Elide] certificate are
    routed through the inner scheme's [*_unchecked] accessors; a [Hoist]
    certificate first charges a one-time widened range check covering
    the site's certified extent, then elides like the rest of its site.

    The plan is {e untrusted input}. Every elision is re-verified
    against live state before the unchecked accessor is taken:

    - the access must resolve to the certificate's object (same birth
      index, so a stale certificate never transfers to a reallocation
      reusing the address);
    - a live check on that object — a range check the workload issued,
      or a hoisted check this layer inserted — must cover the accessed
      bytes and license the direction (a [Write] check licenses both
      directions, a [Read] check only reads: the same dominating-check
      contract {!Sb_analysis.Audit} enforces);
    - a hoisted check's extent must lie within the live object, or it is
      not inserted;
    - narrowed pointers ([Ptr.has_bounds p]) are never elided.

    Any certificate that fails re-verification falls back to the fully
    checked path and is counted in [fallbacks] — so a wrong (or
    adversarial) plan can only {e lose} elisions, never weaken a check:
    violation verdicts and simulation results are preserved by
    construction. Telemetry flows through the inner scheme: inserted
    checks count [checks_done]/[checks_hoisted], elided accesses count
    [checks_elided] (under schemes whose [*_unchecked] really skips the
    check; ASan/MPX keep checking and gain nothing, which is the
    paper's point about per-object bounds in the pointer). *)

open Types

type action = Pass | Elide of int | Hoist of int

type site_kind = Run | Span

let site_kind_name = function Run -> "run" | Span -> "span"

(** A certificate: one static site with its referent object (by birth
    index), affine facts, certified extent (object-relative, half-open)
    and the dominating check it elides against ([site_dom = site_id]:
    the site hoists its own widened check; [site_dom = -1]: dominated by
    a range check the workload itself issues before the site). *)
type site = {
  site_id : int;
  site_obj : int;
  site_kind : site_kind;
  site_op : Scheme.op;
  site_base : int;      (** object-relative offset of the first access *)
  site_stride : int;    (** 0 for [Span] sites *)
  site_count : int;     (** dynamic accesses certified *)
  site_lo : int;
  site_hi : int;
  site_dir : access;    (** direction of the licensing check *)
  site_dom : int;
}

type plan = {
  p_workload : string;
  p_scheme : string;
  p_ops : int;          (** op-stream length of the recording run *)
  p_truncated : bool;   (** recorder hit its event cap: plan covers a prefix *)
  p_sites : site array;
  p_actions : action array;  (** indexed by op-stream position *)
}

let empty_plan ~workload ~scheme =
  { p_workload = workload; p_scheme = scheme; p_ops = 0; p_truncated = false;
    p_sites = [||]; p_actions = [||] }

type stats = {
  mutable hoists : int;     (** widened checks inserted *)
  mutable elides : int;     (** accesses routed through [*_unchecked] *)
  mutable fallbacks : int;  (** certificates failed re-verification *)
  mutable passes : int;     (** ops with no certificate *)
}

let wrap (plan : plan) (inner : Scheme.t) : Scheme.t * stats =
  (* Birth indices mirror the recorder's: allocation order is part of
     the deterministic stream. *)
  let live = Live.create () in
  let st = { hoists = 0; elides = 0; fallbacks = 0; passes = 0 } in
  let ops = ref 0 in
  (* The guarded access path: consult the plan at this op index and
     verify the certificate against live state. *)
  let guarded op p width =
    let k = !ops in
    ops := k + 1;
    let action = if k < Array.length plan.p_actions then plan.p_actions.(k) else Pass in
    match action with
    | Pass ->
      st.passes <- st.passes + 1;
      false
    | (Elide sid | Hoist sid) as act ->
      let verified =
        sid >= 0 && sid < Array.length plan.p_sites && not (Ptr.has_bounds p)
        &&
        let s = plan.p_sites.(sid) in
        let a = Scheme.addr inner p in
        match Live.lookup live a with
        | Some o when o.id = s.site_obj ->
          (match act with
           | Hoist _ when s.site_lo >= 0 && s.site_lo < s.site_hi && o.lo + s.site_hi <= o.hi ->
             (* the one-time widened check, charged through the scheme *)
             Scheme.check_at inner p (o.lo + s.site_lo - a) (s.site_hi - s.site_lo) s.site_dir;
             st.hoists <- st.hoists + 1;
             Live.add_check o (o.lo + s.site_lo) (o.lo + s.site_hi) s.site_dir
           | _ -> ());
          Live.covered o a (a + width) (if Sitestream.writes op then Write else Read)
        | _ -> false
      in
      if verified then st.elides <- st.elides + 1 else st.fallbacks <- st.fallbacks + 1;
      verified
  in
  (* Workload-issued checks dominate plan sites: remember the ones that
     are provably within their live object (the only ones the analyzer
     may certify against). *)
  let workload_check _ p len dir =
    if len > 0 && not (Ptr.has_bounds p) then begin
      let a = Scheme.addr inner p in
      match Live.lookup live a with
      | Some o when a + len <= o.hi -> Live.add_check o a (a + len) dir
      | _ -> ()
    end
  in
  ( Scheme.intercept
      {
        Scheme.no_hooks with
        live = Some live;
        before = (fun op -> if op = Scheme.Check_range then Some workload_check else None);
        elide =
          (function
            | (Scheme.Load | Scheme.Store | Scheme.Load_ptr | Scheme.Store_ptr) as op ->
              Some (fun p width -> guarded op p width)
            | _ -> None);
      }
      inner,
    st )
