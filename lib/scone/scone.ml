module Memsys = Sb_sgx.Memsys
module Vmem = Sb_vmem.Vmem
module Scheme = Sb_protection.Scheme
module Config = Sb_machine.Config
module Telemetry = Sb_telemetry.Telemetry
open Sb_protection.Types

type shield = No_shield | Encrypted

type channel = {
  id : int;
  shield : shield;
  (* bytes waiting to be read (plaintext): [rx] from [rx_pos] on. A feed
     onto a drained channel keeps the caller's string as is, and a read
     only moves the cursor, so neither copies in the steady state. *)
  mutable rx : string;
  mutable rx_pos : int;
  tx : Buffer.t;               (* bytes written by the app (plaintext view) *)
}

type fd = int

type t = {
  s : Scheme.t;
  ms : Memsys.t;
  inside : bool;
  (* the per-thread syscall slot inside enclave memory that arguments are
     staged through (SCONE's lock-free request queues) *)
  syscall_slot : ptr;
  slot_bytes : int;
  channels : (int, channel) Hashtbl.t;
  mutable next_fd : int;
  mutable syscalls : int;
}

(* Cost constants (cycles). SCONE's asynchronous syscalls avoid enclave
   exits: a call is an enqueue + wake of an outside syscall thread. *)
let queue_round_trip = 600   (* enqueue, outside thread service, response *)
let kernel_syscall = 300     (* plain syscall when running outside *)
let shield_per_byte = 4      (* AES-GCM-ish per-byte cost inside the enclave *)

(* Enclave lifecycle costs (cycles), charged when a fleet instance is
   torn down and relaunched mid-run: EREMOVE of the EPC pages plus
   ECREATE/EADD/EINIT of the replacement, and the remote-attestation
   round trip (quote generation + IAS exchange) before clients trust the
   new instance. Dwarfs any single request, as it should — failover is
   expensive, which is exactly what the fleet experiments measure. *)
let enclave_teardown = 300_000
let enclave_attest = 2_000_000

let slot_default = 16 * 1024

let create s =
  let ms = s.Scheme.ms in
  let inside = (Memsys.cfg ms).Config.env = Config.Inside_enclave in
  {
    s;
    ms;
    inside;
    syscall_slot = s.Scheme.malloc slot_default;
    slot_bytes = slot_default;
    channels = Hashtbl.create 16;
    next_fd = 3;
    syscalls = 0;
  }

let scheme t = t.s

let open_channel t ~shield =
  let id = t.next_fd in
  t.next_fd <- id + 1;
  Hashtbl.replace t.channels id { id; shield; rx = ""; rx_pos = 0; tx = Buffer.create 256 };
  id

let chan t fd =
  match Hashtbl.find t.channels fd with
  | c -> c
  | exception Not_found -> raise (App_crash (Printf.sprintf "SCONE: bad file descriptor %d" fd))

let pending c = String.length c.rx - c.rx_pos

let feed t fd bytes =
  let c = chan t fd in
  if pending c = 0 then c.rx <- bytes
  else c.rx <- String.sub c.rx c.rx_pos (pending c) ^ bytes;
  c.rx_pos <- 0

let sent t fd = Buffer.contents (chan t fd).tx
let clear_sent t fd = Buffer.clear (chan t fd).tx
let syscalls t = t.syscalls

(* Syscall and shield costs also land in the telemetry hub (counters
   [scone.syscalls], [scone.shield_bytes], [scone.shield_cycles]) so a
   service run can attribute boundary-crossing overhead per request. *)
let charge_transition t =
  t.syscalls <- t.syscalls + 1;
  Telemetry.incr (Memsys.telemetry t.ms) "scone.syscalls";
  Memsys.charge_alu t.ms (if t.inside then queue_round_trip else kernel_syscall)

let charge_shield t c len =
  if t.inside && c.shield = Encrypted && len > 0 then begin
    let tel = Memsys.telemetry t.ms in
    Telemetry.incr tel ~by:len "scone.shield_bytes";
    Telemetry.incr tel ~by:(shield_per_byte * len) "scone.shield_cycles";
    Memsys.charge_alu t.ms (shield_per_byte * len)
  end

(* Copy [len] bytes from the app buffer to the syscall slot in chunks:
   the SCONE argument copy. Only performed inside the enclave (outside,
   the kernel reads user memory directly). *)
let stage_copy t ~app_addr ~len =
  if t.inside && len > 0 then begin
    let i = ref 0 in
    let slot_addr = t.s.Scheme.addr_of t.syscall_slot in
    while !i < len do
      let chunk = min (len - !i) t.slot_bytes in
      Memsys.blit t.ms ~src:(app_addr + !i) ~dst:slot_addr ~len:chunk;
      i := !i + chunk
    done
  end

(* Zero-length transfers (len = 0, or a read from an empty channel) are
   free: the model counts only effective syscalls, so no transition,
   shield or copy cost is charged and the buffer is never checked. *)
let read t fd ~buf ~len =
  let c = chan t fd in
  let n = min len (pending c) in
  if n > 0 then begin
    (* the wrapper checks the destination before anything is written *)
    t.s.Scheme.libc_check buf n Write;
    charge_transition t;
    charge_shield t c n;
    let app = t.s.Scheme.addr_of buf in
    let vm = Memsys.vmem t.ms in
    if t.inside then begin
      (* the outside syscall thread deposits data in the syscall slot,
         then the enclave copies it into the application buffer *)
      let slot = t.s.Scheme.addr_of t.syscall_slot in
      let i = ref 0 in
      while !i < n do
        let chunk = min (n - !i) t.slot_bytes in
        Vmem.write_substring vm ~addr:slot c.rx ~off:(c.rx_pos + !i) ~len:chunk;
        Memsys.touch_range t.ms ~addr:slot ~len:chunk;
        Memsys.blit t.ms ~src:slot ~dst:(app + !i) ~len:chunk;
        i := !i + chunk
      done
    end
    else begin
      Vmem.write_substring vm ~addr:app c.rx ~off:c.rx_pos ~len:n;
      Memsys.touch_range t.ms ~addr:app ~len:n
    end;
    c.rx_pos <- c.rx_pos + n
  end;
  n

let write t fd ~buf ~len =
  let c = chan t fd in
  if len > 0 then begin
    t.s.Scheme.libc_check buf len Read;
    charge_transition t;
    stage_copy t ~app_addr:(t.s.Scheme.addr_of buf) ~len;
    charge_shield t c len;
    let addr = t.s.Scheme.addr_of buf in
    Memsys.touch_range t.ms ~addr ~len;
    Vmem.add_to_buffer (Memsys.vmem t.ms) c.tx ~addr ~len
  end;
  len
