(** [BENCHMARK.json]: the benchmark's workloads, its end-to-end metrics
    with their regression bounds, and its per-layer metrics. [compare]
    takes the bounds from here; the test suite checks the document
    against {!Catalogue}. *)

module Json = Sb_telemetry.Json

type end_to_end = {
  e_name : string;
  e_unit : string;
  e_better : Verdict.direction;
  e_bound : float;
}

type per_layer = { p_name : string; p_unit : string; p_better : Verdict.direction }

type t = {
  command : string list;
  paths : string list;
  run_seconds : int;
  workloads : (string * string) list;  (** name, why *)
  end_to_end : end_to_end list;
  per_layer : per_layer list;
}

let keys = [ "command"; "paths"; "run_seconds"; "workloads"; "end_to_end"; "per_layer" ]

(** [[A-Za-z0-9_.-]+] *)
let is_name s =
  let ok = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false in
  s <> "" && String.for_all ok s

(** [[A-Za-z0-9_/%.-]+] *)
let is_unit s =
  let ok = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
    | _ -> false
  in
  s <> "" && String.for_all ok s

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let field obj k =
  match Json.member k obj with Some v -> v | None -> fail "missing key %S" k

let str what = function Json.Str s -> s | _ -> fail "%s: expected a string" what

let list what = function Json.List xs -> xs | _ -> fail "%s: expected a list" what

let exact_keys what obj expected =
  match obj with
  | Json.Obj kvs ->
    let got = List.sort compare (List.map fst kvs) in
    if got <> List.sort compare expected then
      fail "%s: keys are [%s], expected exactly [%s]" what (String.concat ", " got)
        (String.concat ", " expected)
  | _ -> fail "%s: expected an object" what

let name what v =
  let s = str what v in
  if not (is_name s) then fail "%s: %S is not a valid name" what s;
  s

let unit_ what v =
  let s = str what v in
  if not (is_unit s) then fail "%s: %S is not a valid unit" what s;
  s

let better what v =
  match Verdict.direction_of_string (str what v) with
  | Some d -> d
  | None -> fail "%s: better must be \"higher\" or \"lower\"" what

let number what = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> fail "%s: expected a number" what

let of_json doc =
  exact_keys "BENCHMARK.json" doc keys;
  let command = List.map (str "command") (list "command" (field doc "command")) in
  let paths = List.map (str "paths") (list "paths" (field doc "paths")) in
  let run_seconds =
    match field doc "run_seconds" with
    | Json.Int i -> i
    | _ -> fail "run_seconds: expected a whole number"
  in
  let workloads =
    List.map
      (fun w ->
         exact_keys "workload" w [ "name"; "why" ];
         (name "workload name" (field w "name"), str "why" (field w "why")))
      (list "workloads" (field doc "workloads"))
  in
  let end_to_end =
    List.map
      (fun e ->
         exact_keys "end_to_end metric" e [ "name"; "unit"; "better"; "bound" ];
         { e_name = name "metric name" (field e "name"); e_unit = unit_ "unit" (field e "unit");
           e_better = better "better" (field e "better");
           e_bound = number "bound" (field e "bound") })
      (list "end_to_end" (field doc "end_to_end"))
  in
  let per_layer =
    List.map
      (fun p ->
         exact_keys "per_layer metric" p [ "name"; "unit"; "better" ];
         { p_name = name "metric name" (field p "name"); p_unit = unit_ "unit" (field p "unit");
           p_better = better "better" (field p "better") })
      (list "per_layer" (field doc "per_layer"))
  in
  let names =
    List.map fst workloads @ List.map (fun e -> e.e_name) end_to_end
    @ List.map (fun p -> p.p_name) per_layer
  in
  List.iter
    (fun n -> if List.length (List.filter (( = ) n) names) > 1 then fail "name %S used twice" n)
    names;
  { command; paths; run_seconds; workloads; end_to_end; per_layer }

let parse text =
  match Json.parse text with
  | Error msg -> Error ("BENCHMARK.json: " ^ msg)
  | Ok doc -> ( try Ok (of_json doc) with Invalid msg -> Error ("BENCHMARK.json: " ^ msg))

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> parse text
  | exception Sys_error msg -> Error msg
