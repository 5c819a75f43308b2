#!/bin/sh
# Repo health check: build, test suite, CLI smoke tests.
# Exits non-zero on the first failure.
set -eu

cd "$(dirname "$0")"

echo "== dune build --profile dev (opaque modules) and its test suite"
# The default build is release (dune-workspace), which inlines across
# modules. Build and test the dev profile, where every module is
# compiled -opaque, in a build directory of its own, so an allocation
# pin that holds in only one profile fails here.
dune build --profile dev --build-dir _build_dev
dune runtest --profile dev --build-dir _build_dev

echo "== dune build (release, the default)"
dune build

echo "== per-access modules compare inline (no polymorphic compare)"
# A polymorphic = or <= compiles to a C call (caml_equal, caml_lessequal,
# ...) rather than an inline compare. The modules on the per-access path
# must reference none: annotate the compared values' types instead.
poly_bad=0
for m in Live Scheme Audit Symex Sitestream Optimized Memsys Vmem Cache Hierarchy Epc \
  Ptr Native Sgxbounds Tagged Asan Mpx Baggy Freelist; do
  # a library's main module (Sgxbounds) has no "lib__" prefix
  lc=$(echo "$m" | tr 'A-Z' 'a-z')
  obj=$(find _build/default/lib -path '*/native/*' \( -name "*__$m.o" -o -name "$lc.o" \))
  if [ -z "$obj" ]; then
    echo "$m: no native object under _build/default/lib" >&2
    poly_bad=1
    continue
  fi
  calls=$(nm -u $obj | grep -Eo 'caml_(equal|notequal|compare|lessequal|lessthan|greaterequal|greaterthan)$' | sort -u | tr '\n' ' ' | sed 's/ $//')
  if [ -n "$calls" ]; then
    echo "$m: references polymorphic compare: $calls" >&2
    poly_bad=1
  fi
done
test "$poly_bad" = 0

echo "== dune runtest (default = fast memory engine)"
dune runtest

echo "== dune runtest (naive memory engine)"
SGXBOUNDS_ENGINE=naive dune runtest --force

CLI="_build/default/bin/sgxbounds_cli.exe"

echo "== fuzz smoke: 500 traces x all schemes x both engines"
# Deterministic in the seed; on failure the CLI prints the shrunk
# counterexample and the exact replay command. Each trace is replayed
# under the naive and fast engines and the records compared.
"$CLI" fuzz --seed 1 --iters 500 -q

echo "== CLI smoke: run -w kmeans -s sgxbounds --stats --json"
out=$("$CLI" run -w kmeans -s sgxbounds --stats --json)

# The JSON must parse, the run must have completed, and the attribution
# must sum exactly to elapsed cycles (single-threaded run).
if command -v jq >/dev/null 2>&1; then
  echo "$out" | jq -e '.status == "completed"' >/dev/null
  echo "$out" | jq -e '.metrics.attributed_cycles == .metrics.cycles' >/dev/null
  echo "$out" | jq -e '.telemetry.counters | type == "object"' >/dev/null
else
  # jq-less fallback: at least verify the completion marker is present.
  echo "$out" | grep -q '"status":"completed"'
fi

echo "== CLI smoke: run -w kmeans -s sgxbounds --trace"
trace=$(mktemp /tmp/sgxbounds-trace.XXXXXX.json)
trap 'rm -f "$trace"' EXIT
"$CLI" run -w kmeans -s sgxbounds --trace "$trace" >/dev/null
if command -v jq >/dev/null 2>&1; then
  jq -e '.traceEvents | length > 0' "$trace" >/dev/null
  jq -e '[.traceEvents[] | select(.name == "epc_fault")] | length > 0' "$trace" >/dev/null
  jq -e '[.traceEvents[] | select(.ph == "X")] | length > 0' "$trace" >/dev/null
else
  grep -q '"traceEvents"' "$trace"
fi

echo "== bench engines: fast engine == naive engine over every workload x scheme (-j 2)"
# Prints the cell count and the fingerprint of the agreed-on metrics;
# exits 1 on any cell where the two engines differ.
_build/default/bench/main.exe -j 2 engines

echo "== bench reproduce: regenerate every file under results/ (-j 2), compare bytes"
# The one writer of results/: regenerates every committed data file,
# checks the claims on its typed rows (elision floor, Table-4 matrix
# pins, fleet shard counts), and exits 1 if any file differs (rewritten
# in place, so the drift shows in git diff) or is produced by nothing.
# The committed files were generated under -j 1, so this also pins
# -j invariance; R randomises every Hashtbl and s=4k,o=200 shrinks the
# minor heap and makes the major GC eager: neither may show.
OCAMLRUNPARAM='R,s=4k,o=200' _build/default/bench/main.exe -j 2 reproduce
# MPX's extra cycles over SGXBounds must land on bounds-table sites
if command -v jq >/dev/null 2>&1; then
  jq -e '[.sites[].by_bucket.bounds_table] | add > 0' results/profile_diff_memcached.json >/dev/null
else
  grep -q '"bounds_table"' results/profile_diff_memcached.json
fi
if _build/default/bench/main.exe --smoke reproduce >/dev/null 2>&1; then
  echo "reproduce accepted smoke sizes" >&2
  exit 1
fi

echo "== CLI smoke: serve --smoke (underload + overload shed)"
serve_out=$("$CLI" serve --app memcached --scheme sgxbounds --rate 400000 --smoke --json)
if command -v jq >/dev/null 2>&1; then
  echo "$serve_out" | jq -e '.completed + .dropped == .offered' >/dev/null
  echo "$serve_out" | jq -e '.latency_cycles.p50 <= .latency_cycles.p99' >/dev/null
  # request spans must agree with the aggregate counters: every span's
  # sojourn decomposes into queue wait + execution, the slowest recorded
  # span IS the latency histogram max, per-span class cycles sum to the
  # exec window, and the per-class attribution carries real cycles.
  echo "$serve_out" | jq -e '[.spans.slowest[] | .sojourn == .queue_wait + .exec] | all' >/dev/null
  echo "$serve_out" | jq -e '.spans.slowest[0].sojourn == .latency_cycles.max' >/dev/null
  echo "$serve_out" | jq -e '[.spans.slowest[] | .exec == ([.classes[]] | add)] | all' >/dev/null
  echo "$serve_out" | jq -e '[.attribution[].cycles] | add > 0' >/dev/null
else
  echo "$serve_out" | grep -q '"completed"'
fi
# Chrome-trace sink: slowest-request exemplar spans as trace events
serve_trace=$(mktemp /tmp/sgxbounds-serve-trace.XXXXXX.json)
trap 'rm -f "$trace" "$serve_trace"' EXIT
"$CLI" serve --app memcached --scheme sgxbounds --rate 400000 --smoke \
  --trace "$serve_trace" >/dev/null
if command -v jq >/dev/null 2>&1; then
  jq -e '.traceEvents | length > 1' "$serve_trace" >/dev/null
  jq -e '[.traceEvents[] | select(.ph == "X")] | length > 0' "$serve_trace" >/dev/null
else
  grep -q '"traceEvents"' "$serve_trace"
fi
# overload with a tiny queue must shed, not deadlock
shed_out=$("$CLI" serve --app http --scheme sgxbounds --rate 5000000 \
  --process burst --queue 4 --smoke --json)
if command -v jq >/dev/null 2>&1; then
  echo "$shed_out" | jq -e '.dropped > 0' >/dev/null
  echo "$shed_out" | jq -e '.max_queue <= 4' >/dev/null
else
  echo "$shed_out" | grep -q '"dropped"'
fi

echo "== CLI smoke: serve --fleet (underload, overload shed, failover)"
# underloaded fleet: everything completes; per-instance spans re-add to
# the merged counters and each span decomposes into wait + exec
fleet_out=$("$CLI" serve --scheme sgxbounds --rate 300000 --fleet 3 --policy hash \
  --ycsb A --records 1024 --requests 400 --workers 2 --seed 1 --json)
if command -v jq >/dev/null 2>&1; then
  echo "$fleet_out" | jq -e '.completed + .dropped + .lost == .offered' >/dev/null
  echo "$fleet_out" | jq -e '([.instances[].completed] | add) == .completed' >/dev/null
  echo "$fleet_out" | jq -e '[.instances[] | .spans.recorded == .completed] | all' >/dev/null
  echo "$fleet_out" | jq -e '[.instances[].spans.slowest[] | .sojourn == .queue_wait + .exec] | all' >/dev/null
  echo "$fleet_out" | jq -e '.latency_cycles.p50 <= .latency_cycles.p99' >/dev/null
else
  echo "$fleet_out" | grep -q '"completed"'
fi
# overloaded fleet with tiny queues must shed at the balancer, not wedge
fleet_shed=$("$CLI" serve --scheme sgxbounds --rate 5000000 --fleet 2 --policy round-robin \
  --ycsb B --records 256 --requests 300 --workers 1 --queue 4 --process fixed --json)
if command -v jq >/dev/null 2>&1; then
  echo "$fleet_shed" | jq -e '.dropped > 0' >/dev/null
  echo "$fleet_shed" | jq -e '[.instances[].max_queue] | max <= 4' >/dev/null
  echo "$fleet_shed" | jq -e '.completed + .dropped + .lost == .offered' >/dev/null
else
  echo "$fleet_shed" | grep -q '"dropped"'
fi
# mid-run kill: the instance restarts, accounting still closes, and the
# whole run is deterministic (two invocations are byte-identical)
fleet_kill_cmd() {
  "$CLI" serve --scheme sgxbounds --rate 2500000 --fleet 3 --policy hash \
    --ycsb B --records 512 --requests 400 --workers 1 --queue 32 --seed 11 \
    --kill 0@100000,2@200000 --json
}
fleet_kill=$(fleet_kill_cmd)
if command -v jq >/dev/null 2>&1; then
  echo "$fleet_kill" | jq -e '.restarts == 2' >/dev/null
  echo "$fleet_kill" | jq -e '.lost + .failed_over > 0' >/dev/null
  echo "$fleet_kill" | jq -e '.completed + .dropped + .lost == .offered' >/dev/null
  echo "$fleet_kill" | jq -e '[.instances[] | .spans.recorded == .completed] | all' >/dev/null
fi
test "$fleet_kill" = "$(fleet_kill_cmd)"

echo "== CLI smoke: profile (site attribution, 1 workload x 2 schemes)"
prof_out=$("$CLI" profile -w kmeans -s sgxbounds -n 512 --json)
if command -v jq >/dev/null 2>&1; then
  echo "$prof_out" | jq -e '.total_cycles > 0' >/dev/null
  echo "$prof_out" | jq -e '.sites | length > 1' >/dev/null
else
  echo "$prof_out" | grep -q '"total_cycles"'
fi
"$CLI" profile -w kmeans -s mpx -n 512 --json | grep -q '"total_cycles"'
# collapsed-stack flamegraph export: non-empty "site;...;site cycles" lines
collapsed=$(mktemp /tmp/sgxbounds-collapsed.XXXXXX.txt)
trap 'rm -f "$trace" "$serve_trace" "$collapsed"' EXIT
"$CLI" profile -w kmeans -s sgxbounds -n 512 --out "$collapsed" >/dev/null
test -s "$collapsed"
grep -Eq '^[^ ]+ [0-9]+$' "$collapsed"

echo "== bench score: deterministic perf gate vs committed baseline"
score_a=$(mktemp /tmp/sgxbounds-score-a.XXXXXX.json)
score_b=$(mktemp /tmp/sgxbounds-score-b.XXXXXX.json)
trap 'rm -f "$trace" "$serve_trace" "$collapsed" "$score_a" "$score_b"' EXIT
_build/default/bench/main.exe --smoke --baseline BENCH.json \
  --label ci --out "$score_a" score >/dev/null
_build/default/bench/main.exe --smoke --baseline BENCH.json \
  --label ci --out "$score_b" score >/dev/null
# the score is simulated-work based: consecutive runs must be bit-identical
cmp "$score_a" "$score_b"
"$CLI" validate-bench "$score_a"
# the timed and scored build is the release build: without
# dune-workspace the default build is dev and this fails
if command -v jq >/dev/null 2>&1; then
  jq -e '.profile == "release"' "$score_a" >/dev/null
else
  grep -q '"profile":"release"' "$score_a"
fi
# the gate is two-sided: a deliberate slowdown (env-injected extra
# allocation) and a deliberate too-good-to-be-true improvement (deflated
# measurement = stale baseline) must both trip it
if SGXBOUNDS_SCORE_PERTURB=100 _build/default/bench/main.exe --smoke \
     --baseline BENCH.json --out "$score_a" score >/dev/null 2>&1; then
  echo "score gate failed to catch a deliberate slowdown" >&2
  exit 1
fi
if SGXBOUNDS_SCORE_PERTURB=-50 _build/default/bench/main.exe --smoke \
     --baseline BENCH.json --out "$score_a" score >/dev/null 2>&1; then
  echo "score gate failed to catch a deliberate improvement" >&2
  exit 1
fi
# the allocation score only compares over identical simulated work: a
# baseline whose kernel ran one more cycle must trip the gate too
if command -v jq >/dev/null 2>&1; then
  jq '.kernels[0].cycles += 1' BENCH.json >"$score_b"
  if _build/default/bench/main.exe --smoke --baseline "$score_b" \
       --out "$score_a" score >/dev/null 2>&1; then
    echo "score gate failed to catch simulated-work drift" >&2
    exit 1
  fi
fi
# the baseline is read and checked before any kernel runs: a missing,
# non-JSON, wrong-shape or other-profile baseline exits 1 without
# printing a kernel row
wrong_profile=$(sed 's/"profile":"release"/"profile":"dev"/' BENCH.json)
case "$wrong_profile" in
  *'"profile":"dev"'*) ;;
  *) echo "BENCH.json has no \"profile\":\"release\" field" >&2; exit 1 ;;
esac
for bad in '' 'not json' '{"engine":"fast","smoke":true}' "$wrong_profile"; do
  rm -f "$score_b"
  [ -z "$bad" ] || echo "$bad" >"$score_b"
  rc=0
  out=$(_build/default/bench/main.exe --smoke --baseline "$score_b" \
          --out "$score_a" score 2>/dev/null) || rc=$?
  if [ "$rc" != 1 ]; then
    echo "score with unusable baseline '$bad' exited $rc, expected 1" >&2
    exit 1
  fi
  if echo "$out" | grep -Eq '^(access-mix|kmeans|mcf|memcached)/'; then
    echo "score measured kernels before rejecting the baseline '$bad'" >&2
    exit 1
  fi
done

echo "== CHANGES.md: one '## PR N —' entry per PR, newest first"
# strictly descending numbers means every heading is also unique
awk '/^## PR [0-9]+ —/ {
       n = $3 + 0
       if (seen && n >= prev) {
         printf "CHANGES.md:%d: PR %d follows PR %d (headings must be unique and descend)\n", NR, n, prev > "/dev/stderr"
         bad = 1
       }
       prev = n; seen = 1
     }
     END { exit bad }' CHANGES.md

echo "== the committed bench document validates"
"$CLI" validate-bench BENCH.json

echo "== audit selftest: seeded race + annotation mutants"
"$CLI" analyze --selftest >/dev/null

echo "== audit sweep: all workloads x 4 schemes must be clean"
# Exits non-zero on any contract violation or race finding; the JSON
# summary is additionally asserted to be all-clean when jq is present.
audit_out=$("$CLI" analyze --json)
# the sweep fans its cells across domains: the document must not change
test "$audit_out" = "$("$CLI" analyze --json -j 2)"
if command -v jq >/dev/null 2>&1; then
  echo "$audit_out" | jq -e '.summary.findings == 0 and .summary.crashed == 0' >/dev/null
  echo "$audit_out" | jq -e '[.cells[] | select(.ops_audited == 0)] | length == 0' >/dev/null
  # the symbolic pass rides along on every concrete sweep: its subset
  # soundness pin must hold in every cell
  echo "$audit_out" | jq -e '.summary.subset_bad == 0' >/dev/null
  echo "$audit_out" | jq -e '[.cells[].subset_ok] | all' >/dev/null
else
  echo "$audit_out" | grep -q '"findings":0'
fi

echo "== symbolic audit selftest: TeeRex corpus pins"
"$CLI" analyze --symbolic --selftest >/dev/null

echo "== symbolic audit: shipped service handlers must be clean"
sym_out=$("$CLI" analyze --symbolic --json)
if command -v jq >/dev/null 2>&1; then
  echo "$sym_out" | jq -e '(.summary.findings == 0) and (.summary.bad == 0) and .summary.subset_ok' >/dev/null
  echo "$sym_out" | jq -e '[.cells[] | select(.ops_audited == 0)] | length == 0' >/dev/null
else
  echo "$sym_out" | grep -q '"findings":0'
fi

echo "== symbolic audit: seeded-buggy corpus must trip a non-zero exit"
if sym_corpus=$("$CLI" analyze --symbolic --corpus --json); then
  echo "expected non-zero exit on the buggy corpus" >&2
  exit 1
fi
if command -v jq >/dev/null 2>&1; then
  # both passes emit the one unified finding schema
  echo "$sym_corpus" | jq -e '([.cells[].detail[]] | length) > 0' >/dev/null
  echo "$sym_corpus" | jq -e '[.cells[].detail[] | has("kind") and has("site") and has("object") and has("extent")] | all' >/dev/null
  echo "$sym_corpus" | jq -e '.summary.subset_ok' >/dev/null
  # Table-4 shape: unprotected flagged on every class, sgxbounds never
  echo "$sym_corpus" | jq -e '[.cells[] | select(.scheme == "native" and .class != "good") | .status == "flagged"] | all' >/dev/null
  echo "$sym_corpus" | jq -e '[.cells[] | select(.scheme == "sgxbounds") | .status != "flagged"] | all' >/dev/null
fi

echo "== optimizer selftest: certificates, tamper rejection, determinism"
# Exits non-zero if any certificate fails verification (static or
# runtime), if a tampered plan slips through, or if plans differ
# across engines.
"$CLI" analyze --optimize --selftest >/dev/null

echo "== fuzz smoke: 200 symbolic seed traces through the differential oracle"
"$CLI" fuzz --symbolic-seeds 200 -q

echo "== CLI smoke: malformed input is a usage error before anything runs"
# One row per malformed command line: the exit code it must give, then
# its argv. Names match exactly (no prefixes), every count is checked on
# every path, and flag conflicts are usage errors too (a fleet-only
# option without --fleet, --corpus without --symbolic, --app with -w
# on profile); cmdliner exits
# 124 for all of them. Long options must be spelled out: cmdliner alone
# would read `--out' as `--outside' and run the native machine.
while IFS='|' read -r want args; do
  rc=0
  "$CLI" $args >/dev/null 2>&1 </dev/null || rc=$?
  if [ "$rc" != "$want" ]; then
    echo "sgxbounds_cli $args: exited $rc, expected $want" >&2
    exit 1
  fi
done <<'ROWS'
124|run -w nosuchworkload -s sgxbounds
124|run -w kmeans -s nosuchscheme
124|run -w kmeans -s sgxbounds-h
124|run -w x26 -s sgxbounds
124|run -w kmeans -s sgxbounds -n 512 --out --json
124|run -w kmeans -n 0
124|stats -w kmeans -n 0
124|run -w kmeans -t 0
124|serve --app nosuchapp --rate 1000
124|serve --rate 1000 --fleet 2 --policy nosuchpolicy
124|serve --rate 1000 --fleet 2 --policy least
124|serve --rate 1000 --fleet 2 --ycsb Z
124|serve --rate 1000 --fleet 2 --kill banana
124|serve --rate 1000 --smoke --policy nosuch
124|serve --rate 1000 --smoke --ycsb Z
124|serve --rate 1000 --smoke --dist foo
124|serve --rate 1000 --smoke --kill banana
124|serve --rate 1000 --smoke --records 0
124|serve --rate 1000 --fleet 0 --smoke
124|serve --rate 1000 --fleet 2 --smoke --trace /dev/null
124|serve --rate 1000 --fleet 2 --smoke --app http
124|serve --rate 1000 --fleet 2 --smoke --kill 2@100
124|serve --rate 1000 --smoke --kill 0@5 --policy round-robin
124|serve --rate 1000 --smoke --policy hash
124|serve --rate 1000 --smoke --ycsb B
124|serve --rate 1000 --smoke --dist uniform
124|serve --rate 1000 --smoke --records 64
124|serve --rate 1000 --smoke --clients 8
124|serve --rate 1000 --smoke --affinity
124|serve --rate 1000 --smoke --kill 0@5
124|analyze -w nosuchworkload
124|analyze -s nosuchscheme
124|analyze --symbolic -w nosuch
124|analyze --symbolic -w kmeans
124|analyze --corpus
124|analyze --corpus -w kmeans
124|profile -w kmeans --app nope
124|profile -w kmeans --app http
124|profile -w kmeans --app memcached
124|fuzz --symbolic-seeds 1 --iters 0
124|fuzz --symbolic-seeds 0
ROWS
# experiment names are resolved before the first experiment runs
rc=0
out=$(_build/default/bench/main.exe table4 nosuch 2>/dev/null) || rc=$?
if [ "$rc" = 0 ] || echo "$out" | grep -q 'Table 4'; then
  echo "bench/main.exe table4 nosuch: exited $rc after running Table 4" >&2
  exit 1
fi
if SGXBOUNDS_ENGINE=trace "$CLI" list >/dev/null 2>&1; then
  echo "expected failure for the removed trace engine" >&2
  exit 1
fi

echo "all checks passed"
