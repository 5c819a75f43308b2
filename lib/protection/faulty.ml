(** Fault injection: deliberately broken wrappers around a working
    {!Scheme.t}.

    The fuzzer's harness-sanity check: a differential tester that has
    never been seen to catch a broken checker proves nothing. Wrapping a
    real scheme with one of these faults must make the fuzz campaign
    report a missed violation and shrink it to a tiny counterexample
    (pinned in [test/test_fuzz.ml]). *)

type fault =
  | Elide_every_nth of int
      (** every n-th instrumented load/store skips its bounds check —
          the shape of a miscompiled or raced check elision *)
  | Deaf_libc  (** libc wrappers check nothing — the paper's MPX setup,
                   grafted onto a scheme whose contract says otherwise *)

let fault_of_string = function
  | "elide-checks" -> Some (Elide_every_nth 3)
  | "deaf-libc" -> Some Deaf_libc
  | _ -> None

let fault_names = [ "elide-checks"; "deaf-libc" ]

(** [inject fault s] returns [s] with the fault grafted on. The wrapper
    keeps its own deterministic counter, so the same trace replayed
    twice (or under both engines) elides the same accesses. *)
let inject fault (s : Scheme.t) : Scheme.t =
  let elide =
    match fault with
    | Elide_every_nth n ->
      let k = ref 0 in
      (function
        | Scheme.Load | Scheme.Store -> Some (fun _ _ -> incr k; !k mod n = 0)
        | _ -> None)
    | Deaf_libc -> fun op -> if op = Scheme.Libc_check then Some (fun _ _ -> true) else None
  in
  Scheme.intercept { Scheme.no_hooks with elide } s
