(** The layer cost ledger: host cost of the simulator, end to end on
    four workloads and layer by layer in a separate traced pass.

    Usage (from the repository root):
      dune build ./bench/ledger/ledger.exe
      L=_build/default/bench/ledger/ledger.exe
      $L run --seed 1 --out _ledger/ledger.jsonl   # all workloads, one process each
      $L run --workload grid-spec --trace _ledger/trace
      $L bless                                     # re-pin bench/ledger/expected/*.tsv
      $L layers [--trace _ledger/trace]            # per-op benches, est.*.share table
      $L compare A.jsonl B.jsonl [--interleave N]

    [run] repeats whole rounds of a workload for [--seconds] (at least
    one round) and reports the median round. It prints a table, appends
    one JSON record per workload to [--out], and ends with one line
    [{"correct", "attempted", "failed", "metrics"}] holding the
    end-to-end metrics of [BENCHMARK.json] — or, with [--trace DIR], its
    per-layer metrics, measured in a traced round that follows one
    untraced round. *)

module Json = Sb_telemetry.Json
module Fastpath = Sb_machine.Fastpath

let expected_dir = "bench/ledger/expected"

(** Set-up repetitions per run: [setup_s] is their median. *)
let setup_reps = 3

let die code fmt = Printf.ksprintf (fun msg -> prerr_endline ("ledger: " ^ msg); exit code) fmt

(* ---------- host facts ---------- *)

let now_s () = Tracer.seconds (Tracer.now_ns ())

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Process-wide: in OCaml 5.1 [Gc.minor_words] counts the calling
   domain only, [Gc.quick_stat] every domain. *)
let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

let read_file path = In_channel.with_open_bin path In_channel.input_all

let mkdir dir = try Sys.mkdir dir 0o755 with Sys_error _ -> ()

let append_lines path lines =
  mkdir (Filename.dirname path);
  Out_channel.with_open_gen [ Open_append; Open_creat; Open_binary ] 0o644 path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)

(** Peak resident set (VmHWM) of this process, in MiB. *)
let peak_rss_mb () =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' (read_file "/proc/self/status"))
  in
  match line with
  | Some l ->
    Scanf.sscanf (String.sub l 6 (String.length l - 6)) " %d kB" (fun kb ->
        float_of_int kb /. 1024.)
  | None -> nan

(** The checkout's git revision, read from [.git] without running git;
    ["unknown"] outside a git checkout. *)
let git_rev () =
  let trim = String.trim in
  match trim (read_file ".git/HEAD") with
  | head when String.length head > 5 && String.sub head 0 5 = "ref: " -> (
      let ref_ = String.sub head 5 (String.length head - 5) in
      match trim (read_file (".git/" ^ ref_)) with
      | sha -> sha
      | exception Sys_error _ -> (
          match
            List.find_opt
              (fun l -> Filename.check_suffix l (" " ^ ref_))
              (String.split_on_char '\n' (read_file ".git/packed-refs"))
          with
          | Some l -> List.hd (String.split_on_char ' ' l)
          | None -> "unknown"
          | exception Sys_error _ -> "unknown"))
  | sha -> sha
  | exception Sys_error _ -> "unknown"

(* ---------- JSON with every digit ---------- *)

let float_text f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec go p =
      let s = Printf.sprintf "%.*g" p f in
      if p >= 17 || float_of_string s = f then s else go (p + 1)
    in
    go 15

(** {!Json.to_string}, but floats keep every digit (the telemetry
    printer rounds to six) and non-finite floats print as [null]. *)
let rec json_text = function
  | Json.Float f when Float.is_finite f -> float_text f
  | Json.Float _ -> "null"
  | Json.List xs -> "[" ^ String.concat "," (List.map json_text xs) ^ "]"
  | Json.Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Json.to_string (Json.Str k) ^ ":" ^ json_text v) kvs)
    ^ "}"
  | v -> Json.to_string v

let metric_json (m : Catalogue.metric) v =
  (m.Catalogue.name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str m.Catalogue.unit_) ])

let find_metric name =
  match Catalogue.find_end_to_end name with
  | Some m -> m
  | None -> (
      match Catalogue.find_per_layer name with
      | Some m -> m
      | None -> die 3 "internal: %s is not in the catalogue" name)

let metrics_json values = Json.Obj (List.map (fun (n, v) -> metric_json (find_metric n) v) values)

let number = function Json.Float f -> Some f | Json.Int i -> Some (float_of_int i) | _ -> None

(** The value of metric [name] in a record or [layers.json] entry. *)
let metric_value entry name =
  let ( let* ) = Option.bind in
  let* metrics = Json.member "metrics" entry in
  let* m = Json.member name metrics in
  let* v = Json.member "value" m in
  number v

(* ---------- one workload, in this process ---------- *)

let load_expected name =
  let path = Filename.concat expected_dir (name ^ ".tsv") in
  match read_file path with
  | text -> ( try Expected.parse text with Failure msg -> die 2 "%s: %s" path msg)
  | exception Sys_error _ ->
    die 2 "%s not found: run from the repository root (or `ledger bless` it)" path

(** The per-op benches, run by [layers --json] in a process of their
    own: a Bechamel run leaves the heap in a state that makes every
    later round of this process peak several times higher. *)
let per_op_costs () =
  let ic =
    Unix.open_process_args_in Sys.executable_name [| Sys.executable_name; "layers"; "--json" |]
  in
  let text = In_channel.input_all ic in
  match (Unix.close_process_in ic, Json.parse (String.trim text)) with
  | Unix.WEXITED 0, Ok (Json.Obj kvs) ->
    List.map (fun (k, v) -> (k, Option.value ~default:nan (number v))) kvs
  | _ -> die 3 "the per-op benches failed"

type round_stat = { wall : float; cpu : float; alloc : float; r : Workloads.round }

let timed_round (w : Workloads.t) ~seed expected =
  Gc.full_major ();
  let a0 = alloc_words () and c0 = cpu_s () and t0 = now_s () in
  let r = w.Workloads.run ~seed expected in
  let wall = now_s () -. t0 in
  { wall; cpu = cpu_s () -. c0; alloc = alloc_words () -. a0; r }

(** Per-layer values of one traced round, checked against the catalogue:
    exactly the metrics the catalogue says this workload has. *)
let traced_layers (w : Workloads.t) ~seed ~expected ~untraced ~trace_dir =
  let log = Tracer.create_log w.Workloads.name in
  Gc.full_major ();
  let g0 = Gc.quick_stat () in
  let gc = Tracer.gc_start () in
  let t0 = now_s () in
  let r, layers = w.Workloads.traced ~seed expected log in
  let traced_wall = now_s () -. t0 in
  let pauses = Tracer.gc_stop gc in
  let g1 = Gc.quick_stat () in
  let ns = per_op_costs () in
  let cpu = Quantile.median (List.map (fun s -> s.cpu) untraced) in
  let wall = Quantile.median (List.map (fun s -> s.wall) untraced) in
  let f = float_of_int in
  let per_access =
    if List.mem w.Workloads.name Catalogue.grids then
      ("host.ns_per_access", cpu *. 1e9 /. f (max 1 layers.Workloads.accesses))
      :: Micro.shares ~ns ~accesses:layers.Workloads.accesses
           ~llc_misses:layers.Workloads.llc_misses ~epc_faults:layers.Workloads.epc_faults
           ~cpu_s:cpu
    else []
  in
  let values =
    layers.Workloads.values
    @ [
      ("gc.minor_count", f (g1.Gc.minor_collections - g0.Gc.minor_collections));
      ("gc.major_count", f (g1.Gc.major_collections - g0.Gc.major_collections));
      ("gc.pause_s", Tracer.seconds pauses.Tracer.sum_ns);
      ("gc.pause_max_ms", f pauses.Tracer.max_ns /. 1e6);
      ("gc.top_heap_mb", f g1.Gc.top_heap_words *. f (Sys.word_size / 8) /. 1048576.);
      ("trace.overhead_s", traced_wall -. wall);
    ]
    @ ns @ per_access
  in
  let expected_names =
    List.filter_map
      (fun (m : Catalogue.metric) ->
         if List.mem w.Workloads.name m.Catalogue.on then Some m.Catalogue.name else None)
      Catalogue.per_layer
  in
  let got = List.map fst values in
  List.iter
    (fun n -> if not (List.mem n got) then die 3 "internal: traced %s lacks %s" w.Workloads.name n)
    expected_names;
  List.iter
    (fun n ->
       if not (List.mem n expected_names) then
         die 3 "internal: traced %s measured %s, which the catalogue does not list for it"
           w.Workloads.name n)
    got;
  (* the trace files *)
  mkdir trace_dir;
  Out_channel.with_open_bin
    (Filename.concat trace_dir (w.Workloads.name ^ ".trace.json"))
    (fun oc -> output_string oc (json_text (Tracer.chrome_json log)));
  let layers_path = Filename.concat trace_dir "layers.json" in
  let others =
    match Json.parse (read_file layers_path) with
    | Ok (Json.Obj kvs) -> List.filter (fun (k, _) -> k <> w.Workloads.name) kvs
    | _ | (exception Sys_error _) -> []
  in
  let spans =
    List.map
      (fun (name, (n, total, self)) ->
         ( name,
           Json.Obj
             [ ("count", Json.Int n); ("total_s", Json.Float (Tracer.seconds total));
               ("self_s", Json.Float (Tracer.seconds self)) ] ))
      (Tracer.by_name log)
  in
  let entry =
    Json.Obj
      [
        ("seed", Json.Int seed);
        ("engine", Json.Str (Fastpath.kind_name (Fastpath.kind ())));
        ("untraced_cpu_s", Json.Float cpu);
        ("gc_lost_events", Json.Int pauses.Tracer.lost);
        ("metrics", metrics_json values);
        ("spans", Json.Obj spans);
      ]
  in
  Out_channel.with_open_bin layers_path (fun oc ->
      output_string oc (json_text (Json.Obj (others @ [ (w.Workloads.name, entry) ]))));
  (r, values)

let print_metrics title values =
  Printf.printf "  %s\n" title;
  List.iter
    (fun (n, v) -> Printf.printf "    %-36s %16.6g %s\n" n v (find_metric n).Catalogue.unit_)
    values

let run_one ~(w : Workloads.t) ~seed ~seconds ~trace_dir ~out =
  let expected = load_expected w.Workloads.name in
  let started = Unix.gettimeofday () in
  let name = w.Workloads.name in
  Printf.printf "== %s (seed %d, engine %s)\n%!" name seed (Fastpath.kind_name (Fastpath.kind ()));
  (* untraced rounds: whole passes for [seconds]; a traced run needs
     one, as the baseline of the tracing overhead *)
  let t_begin = now_s () in
  let first = timed_round w ~seed (Some expected) in
  (* the peak of one round in a fresh process: more rounds could only
     raise it, so it would depend on how many fit in [seconds] *)
  let peak = peak_rss_mb () in
  let rec rounds acc =
    let last = List.hd acc in
    if trace_dir = None && now_s () -. t_begin +. last.wall <= float_of_int seconds then
      rounds (timed_round w ~seed (Some expected) :: acc)
    else List.rev acc
  in
  let untraced = rounds [ first ] in
  let setups =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        let t0 = now_s () in
        w.Workloads.setup ~seed;
        now_s () -. t0)
  in
  let med f = Quantile.median (List.map f untraced) in
  let rate count = med (fun s -> float_of_int (count s.r) /. s.wall) in
  let end_to_end =
    List.filter
      (fun (n, _) -> List.mem name (find_metric n).Catalogue.on)
      [
        ("wall_s", med (fun s -> s.wall));
        ("cpu_s", med (fun s -> s.cpu));
        ("setup_s", Quantile.median setups);
        ("alloc_gw", med (fun s -> s.alloc) /. 1e9);
        ("peak_rss_mb", peak);
        ("sim_maps", rate (fun r -> r.Workloads.accesses) /. 1e6);
        ("host_kreq_s", rate (fun r -> r.Workloads.completed) /. 1e3);
      ]
  in
  let traced =
    Option.map
      (fun dir -> traced_layers w ~seed ~expected ~untraced ~trace_dir:dir)
      trace_dir
  in
  let outs =
    List.map (fun s -> s.r.Workloads.out) untraced
    @ match traced with Some (r, _) -> [ r.Workloads.out ] | None -> []
  in
  let ops = List.fold_left (fun acc o -> acc + o.Workloads.ops) 0 outs in
  let failed = List.fold_left (fun acc o -> acc + o.Workloads.failed) 0 outs in
  let notes = List.concat_map (fun o -> List.rev o.Workloads.notes) outs in
  (* table *)
  Printf.printf "  %d round(s) of %s; wall per round: %s s\n" (List.length untraced) name
    (String.concat ", " (List.map (fun s -> Printf.sprintf "%.3f" s.wall) untraced));
  print_metrics "end to end (median round)" end_to_end;
  let gmeans = (List.hd untraced).r.Workloads.gmeans in
  if gmeans <> [] then begin
    Printf.printf "  simulated overhead gmean (not gated; the digests pin it):\n";
    List.iter
      (fun (s, g) ->
         Printf.printf "    %-10s %.2fx   paper %.2fx\n" s g
           (Option.value ~default:nan (List.assoc_opt s w.Workloads.paper)))
      gmeans
  end;
  Option.iter (fun (_, values) -> print_metrics "per layer (traced round)" values) traced;
  Printf.printf "  ops %d, failed %d\n" ops failed;
  List.iteri (fun i n -> if i < 10 then Printf.printf "  FAILED: %s\n" n) notes;
  (* record *)
  let record =
    Json.Obj
      ([
        ("workload", Json.Str name);
        ("seed", Json.Int seed);
        ("engine", Json.Str (Fastpath.kind_name (Fastpath.kind ())));
        ("host_cores", Json.Int (Domain.recommended_domain_count ()));
        ("ocaml", Json.Str Sys.ocaml_version);
        ("rev", Json.Str (git_rev ()));
        ("started_unix", Json.Float started);
        ("seconds", Json.Int seconds);
        ("traced", Json.Bool (traced <> None));
        ("rounds", Json.Int (List.length untraced));
        ("ops_total", Json.Int ops);
        ("ops_failed", Json.Int failed);
        ("failures", Json.List (List.map (fun n -> Json.Str n) notes));
        ("metrics", metrics_json end_to_end);
        ("round_wall_s", Json.List (List.map (fun s -> Json.Float s.wall) untraced));
        ("setup_runs_s", Json.List (List.map (fun s -> Json.Float s) setups));
        ( "gmeans",
          Json.Obj
            (List.map
               (fun (s, g) ->
                  ( s,
                    Json.Obj
                      [ ("simulated", Json.Float g);
                        ( "paper",
                          Json.Float
                            (Option.value ~default:nan (List.assoc_opt s w.Workloads.paper)) ) ] ))
               gmeans) );
      ]
       @
       match traced with
       | Some (_, values) -> [ ("layers", metrics_json values) ]
       | None -> [])
  in
  Option.iter (fun path -> append_lines path [ json_text record ]) out;
  (* the benchmark line: every metric BENCHMARK.json lists for this mode *)
  let listed, values =
    match traced with
    | Some (_, values) -> (Catalogue.listed_per_layer, values)
    | None -> (Catalogue.listed_end_to_end, end_to_end)
  in
  let metrics =
    List.map
      (fun (m : Catalogue.metric) ->
         match List.assoc_opt m.Catalogue.name values with
         | Some v when Float.is_finite v -> metric_json m v
         | _ -> die 3 "%s: no finite value for %s" name m.Catalogue.name)
      listed
  in
  print_endline
    (json_text
       (Json.Obj
          [ ("correct", Json.Bool (failed = 0)); ("attempted", Json.Int ops);
            ("failed", Json.Int failed); ("metrics", Json.Obj metrics) ]));
  failed = 0

(* ---------- several workloads, one process each ---------- *)

let scratch_dir = "_ledger"

let run_all ~names ~seed ~seconds ~trace_dir ~out =
  mkdir scratch_dir;
  let records = Filename.concat scratch_dir (Printf.sprintf "run-%d.jsonl" (Unix.getpid ())) in
  let oks =
    List.map
      (fun name ->
         let args =
           [ Sys.executable_name; "run"; "--workload"; name; "--seed"; string_of_int seed;
             "--seconds"; string_of_int seconds; "--out"; records ]
           @ match trace_dir with Some d -> [ "--trace"; d ] | None -> []
         in
         let pid =
           Unix.create_process Sys.executable_name (Array.of_list args) Unix.stdin Unix.stdout
             Unix.stderr
         in
         match snd (Unix.waitpid [] pid) with
         | Unix.WEXITED 0 -> true
         | Unix.WEXITED 1 -> false
         | _ -> die 2 "%s: the workload's process failed" name)
      names
  in
  let lines = String.split_on_char '\n' (try read_file records with Sys_error _ -> "") in
  (try Sys.remove records with Sys_error _ -> ());
  let lines = List.filter (fun l -> String.trim l <> "") lines in
  Option.iter (fun path -> append_lines path lines) out;
  (* summary table *)
  let metrics = List.map (fun (m : Catalogue.metric) -> m.Catalogue.name) Catalogue.end_to_end in
  Printf.printf "\n== ledger summary (seed %d)\n%-14s" seed "workload";
  List.iter (fun m -> Printf.printf " %12s" m) metrics;
  Printf.printf " %10s %6s\n" "ops" "failed";
  List.iter
    (fun l ->
       match Json.parse l with
       | Ok r ->
         let get k = Json.member k r in
         Printf.printf "%-14s"
           (Option.value ~default:"?" (Option.bind (get "workload") Json.to_str));
         List.iter
           (fun m ->
              match metric_value r m with
              | Some v -> Printf.printf " %12.4g" v
              | None -> Printf.printf " %12s" "-")
           metrics;
         let int k = Option.value ~default:0 (Option.bind (get k) Json.to_int) in
         Printf.printf " %10d %6d\n" (int "ops_total") (int "ops_failed")
       | Error _ -> ())
    lines;
  Printf.printf "units:";
  List.iter
    (fun (m : Catalogue.metric) -> Printf.printf " %s=%s" m.Catalogue.name m.Catalogue.unit_)
    Catalogue.end_to_end;
  print_newline ();
  List.for_all Fun.id oks

(* ---------- bless ---------- *)

(** Run one untraced round of each workload (seed 1, plus every seed the
    workload pins separately) and rewrite its expected digests. *)
let bless names =
  List.iter
    (fun name ->
       let w = Option.get (Workloads.find name) in
       let seeds = List.sort_uniq compare (1 :: w.Workloads.pinned_seeds) in
       let entries =
         List.concat_map
           (fun seed ->
              let r = w.Workloads.run ~seed None in
              List.map (fun (k, text) -> (k, Expected.digest text)) r.Workloads.out.Workloads.texts)
           seeds
       in
       let path = Filename.concat expected_dir (name ^ ".tsv") in
       let header =
         Printf.sprintf
           "%s: MD5 of each output's canonical text, keyed (kind, a, b); regenerate with \
            `ledger.exe bless`"
           name
       in
       Out_channel.with_open_bin path (fun oc ->
           output_string oc (Expected.to_tsv ~header (Expected.of_list entries)));
       Printf.printf "wrote %s (%d digests, engine %s)\n%!" path (List.length entries)
         (Fastpath.kind_name (Fastpath.kind ())))
    names

(* ---------- layers ---------- *)

let layers ~trace_dir ~json =
  let ns = Micro.run () in
  if json then begin
    print_endline (json_text (Json.Obj (List.map (fun (n, v) -> (n, Json.Float v)) ns)));
    exit 0
  end;
  Printf.printf "%-36s %12s\n" "per-op host cost" "ns/call";
  List.iter (fun (n, v) -> Printf.printf "%-36s %12.2f\n" n v) ns;
  Option.iter
    (fun dir ->
       let path = Filename.concat dir "layers.json" in
       match Json.parse (read_file path) with
       | Ok (Json.Obj entries) ->
         Printf.printf "\n%-14s %12s %12s %12s   (count x ns / untraced cpu_s)\n" "workload"
           "est.epc" "est.cache" "est.vmem";
         List.iter
           (fun (name, e) ->
              let num = metric_value e in
              match
                ( num "memsys.accesses", num "cache.llc.misses", num "epc.faults",
                  Option.bind (Json.member "untraced_cpu_s" e) number )
              with
              | Some a, Some l, Some f, Some cpu when List.mem name Catalogue.grids ->
                let sh =
                  Micro.shares ~ns ~accesses:(int_of_float a) ~llc_misses:(int_of_float l)
                    ~epc_faults:(int_of_float f) ~cpu_s:cpu
                in
                Printf.printf "%-14s" name;
                List.iter (fun (_, v) -> Printf.printf " %12.3f" v) sh;
                print_newline ()
              | _ -> ())
           entries
       | _ | (exception Sys_error _) -> die 2 "%s: no traced run recorded there" path)
    trace_dir

(* ---------- compare ---------- *)

type run = { r_workload : string; r_started : float; r_values : (string * float) list }

let load_runs path =
  let text = try read_file path with Sys_error msg -> die 2 "%s" msg in
  List.filter_map
    (fun l ->
       match Json.parse l with
       | _ when String.trim l = "" -> None
       (* a traced run's end-to-end numbers come from one round beside the
          benches and the traced pass: not comparable *)
       | Ok r when Json.member "traced" r = Some (Json.Bool true) -> None
       | Ok r ->
         let names =
           match Json.member "metrics" r with Some (Json.Obj kvs) -> List.map fst kvs | _ -> []
         in
         let field k f d = Option.value ~default:d (Option.bind (Json.member k r) f) in
         Some
           {
             r_workload = field "workload" Json.to_str "?";
             r_started = field "started_unix" number 0.;
             r_values =
               List.filter_map (fun k -> Option.map (fun v -> (k, v)) (metric_value r k)) names;
           }
       | Error msg -> die 2 "%s: %s" path msg)
    (String.split_on_char '\n' text)

(** Pair the two sets' runs of one workload. With [interleave = Some n]
    the runs, ordered by start time, must alternate between the sets and
    give at least [n] pairs; each pair is two neighbouring runs. *)
let pair_runs ~interleave ~workload base cand =
  match interleave with
  | None -> (base, cand)
  | Some n ->
    let tagged =
      List.sort
        (fun (_, a) (_, b) -> compare a.r_started b.r_started)
        (List.map (fun r -> (`A, r)) base @ List.map (fun r -> (`B, r)) cand)
    in
    let rec pairs acc = function
      | (ta, a) :: (tb, b) :: rest when ta <> tb ->
        let a, b = if ta = `A then (a, b) else (b, a) in
        pairs ((a, b) :: acc) rest
      | [] -> Some (List.rev acc)
      | _ -> None
    in
    (match pairs [] tagged with
     | Some ps when List.length ps >= n -> (List.map fst ps, List.map snd ps)
     | Some ps ->
       die 2 "%s: %d interleaved pair(s), --interleave asks for %d" workload (List.length ps) n
     | None -> die 2 "%s: the two sets' runs do not alternate in time" workload)

let compare_files ~a ~b ~interleave =
  let doc =
    match Bench_doc.load "BENCHMARK.json" with Ok d -> d | Error msg -> die 2 "%s" msg
  in
  let base = load_runs a and cand = load_runs b in
  let bad = ref 0 in
  Printf.printf "%-13s %-12s %-6s %24s %24s %8s %6s  %s\n" "workload" "metric" "unit"
    "A median [q1,q3]" "B median [q1,q3]" "B vs A" "wins" "verdict";
  List.iter
    (fun (workload, _) ->
       let of_w rs = List.filter (fun r -> r.r_workload = workload) rs in
       match (of_w base, of_w cand) with
       | [], _ | _, [] -> Printf.printf "%-13s (no runs in both sets)\n" workload
       | rb, rc ->
         let rb, rc = pair_runs ~interleave ~workload rb rc in
         List.iter
           (fun (e : Bench_doc.end_to_end) ->
              let vals rs =
                List.filter_map (fun r -> List.assoc_opt e.Bench_doc.e_name r.r_values) rs
              in
              match (vals rb, vals rc) with
              | [], _ | _, [] -> ()
              | vb, vc ->
                let rep =
                  Verdict.judge ~better:e.Bench_doc.e_better ~bound:e.Bench_doc.e_bound ~base:vb
                    ~cand:vc
                in
                if rep.Verdict.verdict = Verdict.Worse || rep.Verdict.verdict = Verdict.Unresolved
                then incr bad;
                let q m q1 q3 = Printf.sprintf "%.4g [%.4g,%.4g]" m q1 q3 in
                Printf.printf
                  "%-13s %-12s %-6s %24s %24s %+7.1f%% %3d/%-2d  %s (bound %.0f%%, spread %.1f%%)\n"
                  workload e.Bench_doc.e_name e.Bench_doc.e_unit
                  (q rep.Verdict.base_median rep.Verdict.base_q1 rep.Verdict.base_q3)
                  (q rep.Verdict.cand_median rep.Verdict.cand_q1 rep.Verdict.cand_q3)
                  (100. *. (rep.Verdict.cand_median -. rep.Verdict.base_median)
                   /. rep.Verdict.base_median)
                  rep.Verdict.wins rep.Verdict.pairs
                  (Verdict.name rep.Verdict.verdict) (100. *. e.Bench_doc.e_bound)
                  (100. *. rep.Verdict.spread))
           doc.Bench_doc.end_to_end)
    doc.Bench_doc.workloads;
  !bad = 0

(* ---------- command line ---------- *)

let usage () =
  prerr_endline
    "usage: ledger.exe run [--workload W]... [--seed S] [--seconds N] [--out FILE] [--trace DIR]\n\
    \       ledger.exe bless [--workload W]...\n\
    \       ledger.exe layers [--trace DIR] [--json]\n\
    \       ledger.exe compare A.jsonl B.jsonl [--interleave N]";
  exit 2

type opts = {
  mutable names : string list;
  mutable seed : int;
  mutable seconds : int;
  mutable out : string option;
  mutable trace : string option;
  mutable interleave : int option;
  mutable files : string list;
  mutable json : bool;
}

let parse args =
  let o =
    { names = []; seed = 1; seconds = Catalogue.run_seconds; out = None; trace = None;
      interleave = None; files = []; json = false }
  in
  let int flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die 2 "%s expects an integer, got %S" flag v
  in
  let rec go = function
    | "--workload" :: v :: rest ->
      if not (List.mem v Catalogue.workloads) then
        die 2 "unknown workload %S (valid: %s)" v (String.concat ", " Catalogue.workloads);
      o.names <- o.names @ [ v ];
      go rest
    | "--seed" :: v :: rest -> o.seed <- int "--seed" v; go rest
    | "--seconds" :: v :: rest ->
      o.seconds <- int "--seconds" v;
      if o.seconds < 1 then die 2 "--seconds must be >= 1";
      go rest
    | "--out" :: v :: rest -> o.out <- Some v; go rest
    | "--trace" :: v :: rest -> o.trace <- Some v; go rest
    | "--interleave" :: v :: rest -> o.interleave <- Some (int "--interleave" v); go rest
    | "--json" :: rest -> o.json <- true; go rest
    | v :: _ when String.length v > 1 && v.[0] = '-' -> die 2 "unknown or incomplete option %S" v
    | v :: rest -> o.files <- o.files @ [ v ]; go rest
    | [] -> ()
  in
  go args;
  o

let run_cmd o =
  let names = if o.names = [] then Catalogue.workloads else o.names in
  let ok =
    match names with
    | [ name ] ->
      run_one ~w:(Option.get (Workloads.find name)) ~seed:o.seed ~seconds:o.seconds
        ~trace_dir:o.trace ~out:o.out
    | _ -> run_all ~names ~seed:o.seed ~seconds:o.seconds ~trace_dir:o.trace ~out:o.out
  in
  exit (if ok then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "run" :: args -> run_cmd (parse args)
  | _ :: "bless" :: args ->
    let o = parse args in
    if not (Sys.file_exists expected_dir) then
      die 2 "%s not found: run from the repository root" expected_dir;
    bless (if o.names = [] then Catalogue.workloads else o.names)
  | _ :: "layers" :: args ->
    let o = parse args in
    layers ~trace_dir:o.trace ~json:o.json
  | _ :: "compare" :: args -> (
      let o = parse args in
      match o.files with
      | [ a; b ] -> exit (if compare_files ~a ~b ~interleave:o.interleave then 0 else 1)
      | _ -> usage ())
  | _ -> usage ()
