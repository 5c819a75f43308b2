(** The one finding schema shared by the dynamic auditor ({!Audit}) and
    the symbolic interface auditor ({!Symex}).

    Both passes observe the same {!Sb_protection.Scheme.t} operation
    vocabulary, so a finding is always "operation [site] implicated
    [extent] byte(s) at [addr] inside object [obj]" — only the [kind]
    says whether the evidence was concrete (a §4.4 contract broken on a
    real run) or symbolic (attacker-derived data reached a sink without
    a dominating check). `analyze --json` emits exactly this record for
    both passes, and {!Symex} guarantees the dynamic findings of a run
    are a subset of the symbolic ones (it wraps {!Audit} inside). *)

module Json = Sb_telemetry.Json

type kind =
  (* dynamic (concrete-run) kinds, from Audit *)
  | Unchecked_uncovered  (** [*_unchecked] without a covering live check *)
  | Check_oob            (** [check_range]/[libc_check] extent exceeds its object *)
  | Safe_oob             (** [safe_*] not statically in-bounds *)
  | Libc_mismatch        (** [libc_check] width disagrees with bytes touched *)
  | Libc_unchecked       (** raw libc traffic with no matching [libc_check] *)
  | Data_race            (** conflicting unsynchronized data accesses *)
  | Meta_race            (** conflicting unsynchronized metadata accesses *)
  (* symbolic (taint) kinds, from Symex *)
  | Tainted_deref        (** attacker-derived pointer reaches an access *)
  | Tainted_extent       (** out-of-object access while tainted data is live *)
  | Tainted_libc         (** libc extent attack the wrapper does not stop *)
  | Double_fetch         (** same request byte fetched twice, store between *)
  | Phase_disorder       (** handler state-machine phase regression *)

let kind_name = function
  | Unchecked_uncovered -> "unchecked-uncovered"
  | Check_oob -> "check-oob"
  | Safe_oob -> "safe-oob"
  | Libc_mismatch -> "libc-mismatch"
  | Libc_unchecked -> "libc-unchecked"
  | Data_race -> "data-race"
  | Meta_race -> "meta-race"
  | Tainted_deref -> "tainted-deref"
  | Tainted_extent -> "tainted-extent"
  | Tainted_libc -> "tainted-libc"
  | Double_fetch -> "double-fetch"
  | Phase_disorder -> "phase-disorder"

let dynamic_kinds =
  [ Unchecked_uncovered; Check_oob; Safe_oob; Libc_mismatch; Libc_unchecked;
    Data_race; Meta_race ]

let symbolic_kinds =
  [ Tainted_deref; Tainted_extent; Tainted_libc; Double_fetch; Phase_disorder ]

let all_kinds = dynamic_kinds @ symbolic_kinds

type t = {
  kind : kind;
  site : string;   (** scheme entry point, libc function or phase hook *)
  addr : int;      (** faulting address (0 for control-flow findings) *)
  obj : int;       (** base address of the referent object, 0 if unknown *)
  extent : int;    (** bytes implicated *)
  thread : int;
  detail : string;
}

let pp ppf f =
  Fmt.pf ppf "[%s] %s: %d byte(s) at 0x%x (object 0x%x, thread %d): %s"
    (kind_name f.kind) f.site f.extent f.addr f.obj f.thread f.detail

let to_json f =
  Json.Obj
    [
      ("kind", Json.Str (kind_name f.kind));
      ("site", Json.Str f.site);
      ("object", Json.Int f.obj);
      ("extent", Json.Int f.extent);
      ("addr", Json.Int f.addr);
      ("thread", Json.Int f.thread);
      ("detail", Json.Str f.detail);
    ]

(** [f] appears in [fs] (the subset pin compares findings structurally,
    ignoring the free-text detail which differs per pass). *)
let same a b =
  a.kind = b.kind && a.site = b.site && a.addr = b.addr && a.obj = b.obj
  && a.extent = b.extent && a.thread = b.thread

let subset smaller larger =
  List.for_all (fun f -> List.exists (same f) larger) smaller

(* ---------- selftests ---------- *)

(** One check of an analysis's own selftest suite: the auditor's
    ({!Analyze}), the symbolic pass's ({!Symex}) and the optimizer's. *)
type selftest = { st_name : string; st_pass : bool; st_detail : string }

let expect st_name st_pass st_detail = { st_name; st_pass; st_detail }

(** Print one row per selftest and a summary line; [true] iff all
    passed. *)
let print_selftests sts =
  let width = List.fold_left (fun w st -> max w (String.length st.st_name)) 28 sts in
  List.iter
    (fun st ->
       Fmt.pr "%-*s %s  %s@." width st.st_name
         (if st.st_pass then "pass" else "FAIL")
         st.st_detail)
    sts;
  let failed = List.filter (fun st -> not st.st_pass) sts in
  Fmt.pr "selftest: %d/%d passed@." (List.length sts - List.length failed)
    (List.length sts);
  failed = []
