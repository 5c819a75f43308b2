(** Pinned output digests: one [bench/ledger/expected/<workload>.tsv]
    per workload, a line per output keyed by [(kind, a, b)] — for a cell
    [(kind, workload, scheme)], for a fleet run [("fleet", scheme, seed)]
    — so the order in which cells ran never matters. The digest is the
    MD5 of the output's canonical text (a JSON document or a fleet
    fingerprint). *)

type key = { kind : string; a : string; b : string }

type t = (key, string) Hashtbl.t

let digest text = Digest.to_hex (Digest.string text)

let key_to_string k = Printf.sprintf "%s %s/%s" k.kind k.a k.b

let of_list entries =
  let t = Hashtbl.create 64 in
  List.iter (fun (k, d) -> Hashtbl.replace t k d) entries;
  t

(** Parse the TSV; [#] lines and blank lines are comments. *)
let parse text =
  let t = Hashtbl.create 64 in
  List.iteri
    (fun i line ->
       let line = String.trim line in
       if line <> "" && line.[0] <> '#' then
         match String.split_on_char '\t' line with
         | [ kind; a; b; d ] when String.length d = 32 -> Hashtbl.replace t { kind; a; b } d
         | _ -> failwith (Printf.sprintf "expected digests: malformed line %d: %S" (i + 1) line))
    (String.split_on_char '\n' text);
  t

(** Canonical text: a header comment, then the lines sorted by key. *)
let to_tsv ~header (t : t) =
  let lines =
    Hashtbl.fold (fun k d acc -> Printf.sprintf "%s\t%s\t%s\t%s" k.kind k.a k.b d :: acc) t []
  in
  String.concat "\n" (("# " ^ header) :: List.sort compare lines) ^ "\n"

type check = Match | Mismatch | Missing

let check (t : t) key text =
  match Hashtbl.find_opt t key with
  | None -> Missing
  | Some d -> if d = digest text then Match else Mismatch
