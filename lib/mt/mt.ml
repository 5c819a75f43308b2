module Memsys = Sb_sgx.Memsys
module Eff = Sb_machine.Eff
module Config = Sb_machine.Config
open Effect.Deep

type t = Memsys.t

(* Thread states. *)
let pending = 0
let suspended = 1
let finished = 2

let yield () = if Eff.scheduler_active () then Effect.perform Eff.Yield

(* Observer of parallel-region starts, for happens-before tracking by
   the instrumentation auditor (Sb_analysis). Domain-local for the same
   reason as [Eff.scheduler_key]: each domain schedules its own
   cooperative threads, so a tracer installed by one domain must not
   fire for regions of another. *)
let region_tracer_key : (int -> unit) option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let set_region_tracer f = Domain.DLS.set region_tracer_key f

let run_some ms fns n =
  let max_threads = (Memsys.cfg ms).Config.max_threads in
  if n > max_threads then
    invalid_arg
      (Printf.sprintf "Mt.run: %d threads exceed the machine's %d hardware threads"
         n max_threads);
  let start = Memsys.get_clock ms (Memsys.current_thread ms) in
  for i = 0 to n - 1 do
    Memsys.set_clock ms i start
  done;
  (* Per-thread state, one int each: nothing is allocated when a
     thread changes state. *)
  let state = Array.make n pending in
  (* The continuation of each suspended thread. The array is made from
     the first continuation the region captures: a slot is read only
     while its thread is [suspended], and by then it holds that thread's
     own continuation. *)
  let conts = ref [||] in
  (* Resume the runnable thread whose clock is smallest (the lowest id
     on a tie): simulated parallel time advances evenly across cores.
     -1 when every thread has finished. *)
  let pick () =
    let best = ref (-1) in
    for i = 0 to n - 1 do
      if state.(i) <> finished
         && (!best < 0 || Memsys.get_clock ms i < Memsys.get_clock ms !best)
      then best := i
    done;
    !best
  in
  (* One deep handler per thread, built once per region along with the
     [Some] its [effc] returns for [Yield]: a yield allocates only the
     continuation the runtime captures. Other effects are forwarded to
     the enclosing handler; exceptions propagate out of [loop]. *)
  let handler i =
    let suspend =
      Some
        (fun (k : (unit, unit) continuation) ->
           if Array.length !conts = 0 then conts := Array.make n k;
           !conts.(i) <- k;
           state.(i) <- suspended)
    in
    {
      retc = (fun () -> state.(i) <- finished);
      exnc = raise;
      effc =
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
           match eff with Eff.Yield -> suspend | _ -> None);
    }
  in
  let handlers = Array.init n handler in
  (* Each resume returns when the thread next yields or finishes. *)
  let rec loop () =
    let i = pick () in
    if i >= 0 then begin
      Memsys.set_thread ms i;
      if state.(i) = pending then match_with fns.(i) () handlers.(i)
      else continue !conts.(i) ();
      loop ()
    end
  in
  (match Domain.DLS.get region_tracer_key with
   | Some tracer -> tracer n
   | None -> ());
  Eff.set_scheduler_active true;
  Fun.protect
    ~finally:(fun () ->
      Eff.set_scheduler_active false;
      (* Sequential code continues on thread 0 at the region's elapsed
         time (the slowest thread). *)
      let mx = ref 0 in
      for i = 0 to n - 1 do
        mx := max !mx (Memsys.get_clock ms i)
      done;
      Memsys.set_thread ms 0;
      Memsys.set_clock ms 0 !mx)
    loop

(** Run each closure of [fns] as a cooperative simulated thread (thread
    [i] runs [fns.(i)]), interleaved by the min-clock scheduler until all
    finish. An empty array is a no-op; asking for more threads than the
    machine's [Config.max_threads] hardware contexts is an
    [Invalid_argument], as is starting a region inside another. *)
let run ms fns =
  if Eff.scheduler_active () then invalid_arg "Mt.run: nested parallel regions";
  let n = Array.length fns in
  if n > 0 then run_some ms fns n

let parallel_for ms ~threads ~lo ~hi f =
  let n = max 1 threads in
  let total = hi - lo in
  if total > 0 then begin
    let chunk = (total + n - 1) / n in
    let fns =
      Array.init n (fun t ->
          let a = lo + (t * chunk) in
          let b = min hi (a + chunk) in
          fun () ->
            for i = a to b - 1 do
              f i
            done)
    in
    run ms fns
  end
