(** Profiling meta-scheme: interpose on every {!Scheme.t} operation and
    bracket it in a {!Sb_telemetry.Profile} site, so every cycle the
    memory system charges during the operation — the data access itself
    plus all metadata traffic the scheme issues for it — lands on an
    "op:<name>" site under whatever site the caller is in.

    The wrapper only intercepts calls through the scheme record; a
    scheme's internal helpers never pass through it again, so there is
    no double counting. Like the other meta-schemes ({!Faulty},
    auditing), semantics are delegated verbatim — simulated metrics are
    unchanged, only attribution is added. *)

module Profile = Sb_telemetry.Profile

(** [wrap prof s]: a scheme equal to [s] with every record operation
    bracketed in its "op:<name>" site of [prof], except opening and
    closing a stack frame and pointer arithmetic. [prof] must already
    be attached to [s]'s machine for the charges to arrive
    ({!Sb_sgx.Memsys.attach_profiler}). *)
let wrap prof (s : Scheme.t) =
  (* Site ids order the profile's rows; interning the last op first
     keeps the row order every committed profile was made with. *)
  let sites =
    List.filter_map
      (function
        | Scheme.Stack_push | Scheme.Stack_pop | Scheme.Offset | Scheme.Addr_of -> None
        | op -> Some (op, Profile.intern prof ("op:" ^ Scheme.op_name op)))
      (List.rev Scheme.ops)
  in
  Scheme.intercept
    {
      Scheme.no_hooks with
      enter =
        (fun op ->
           match List.assoc_opt op sites with
           | Some id -> Some (fun () -> Profile.enter prof id)
           | None -> None);
      leave =
        (fun op -> if List.mem_assoc op sites then Some (fun () -> Profile.exit prof) else None);
    }
    s
