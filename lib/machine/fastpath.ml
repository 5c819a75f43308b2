(** Engine selection for the memory-engine implementations.

    The simulator keeps two behaviourally identical implementations of
    its hot layers (cache probe, address translation, EPC residency,
    access charging):

    - [Naive] — the straightforward reference code every optimisation is
      proven against;
    - [Fast] — MRU fast paths, a two-line L1 memo, unboxed codecs,
      same-line streak batching.

    Selection is sampled once per component at [create] time, so a
    component never changes engine mid-life and two components with
    different engines can coexist (that is what the differential tests
    and the fuzz oracle do).

    Both engines must produce bit-for-bit identical simulation results
    (cycles, hit/miss counts, EPC faults, attribution) — only host
    wall-clock and allocation may differ. [test/test_fastpath.ml] pins
    this.

    Set [SGXBOUNDS_ENGINE] to [naive] or [fast] to pick the start-up
    engine; any other value is rejected at start-up (exit 2). The
    default is [Fast]. *)

type kind = Naive | Fast

let kind_name = function Naive -> "naive" | Fast -> "fast"

let kind_of_string = function
  | "naive" -> Some Naive
  | "fast" -> Some Fast
  | _ -> None

let initial_kind () =
  match Sys.getenv_opt "SGXBOUNDS_ENGINE" with
  | Some s ->
    (match kind_of_string (String.lowercase_ascii (String.trim s)) with
     | Some k -> k
     | None ->
       Printf.eprintf "sgxbounds: unknown SGXBOUNDS_ENGINE=%S (expected naive|fast)\n%!" s;
       exit 2)
  | None -> Fast

let is_fast = function Fast -> true | Naive -> false

(* A bool so the cross-domain cell stays a word-sized immediate. *)
let cell : bool Atomic.t = Atomic.make (is_fast (initial_kind ()))

let kind () = if Atomic.get cell then Fast else Naive

(** [true] under the [Fast] engine. *)
let is_enabled () = Atomic.get cell

(** Run [f] with the engine forced to [k], restoring the previous
    selection afterwards. Only components *created* inside [f] are
    affected. *)
let with_kind k f =
  let prev = Atomic.get cell in
  Atomic.set cell (is_fast k);
  Fun.protect ~finally:(fun () -> Atomic.set cell prev) f
