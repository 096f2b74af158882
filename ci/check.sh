#!/usr/bin/env bash
# The whole of CI, in order: tier 1 (build, test, lint, docs), the two-store
# `--exp all` bundle, the flaky-network coverage gate and the query daemon
# over a stored campaign. Needs rustfmt, clippy, python3, curl and taskset;
# takes no arguments; writes its outputs to target/ci/. Traces each command.
set -euxo pipefail
cd "$(dirname "$0")/.."
out=target/ci repro=target/release/repro store=$out/serve-store
rm -rf $out && mkdir -p $out
check() { python3 ci/checks.py "$@"; }
# `exits N cmd...` runs cmd, which must exit with status N.
exits() { local code=0; "${@:2}" || code=$?; [ $code -eq $1 ] || exit 1; }

cargo build --release
cargo test -q
# Every test takes a telemetry handle of its own instead of a
# process-wide lock; these suites fail first if a lock comes back.
cargo test -q -p telemetry -- --test-threads 16
cargo test -q -p serve --test serve_e2e -- --test-threads 8
# Std threads serve every socket; scanner and classify never see planted truth.
test ! -e vendor/tokio && ! grep -rnE '\basync fn\b|\.await\b' --include=*.rs crates tests examples || exit 1
tree=$(cargo tree --offline -e normal -p scanner -p classify) && ! grep -E 'worldgen|resolversim' <<<"$tree" || exit 1
! grep -rnE 'universe\.|\.resolver_at\(|\.reachable\(' crates/scanner/src crates/classify/src || exit 1
# The store's I/O is a value: scanstore keeps no process-wide state, and
# only the std `Disk` (vfs.rs) and the recorder's append-only stream
# (recorder.rs: no fault point, no crash claim) name `fs::`, outside the
# `#[cfg(test)]` module that ends a file.
! grep -rnE '\bstatic\s+(mut\b|\w+\s*:.*(Atomic|Mutex|RwLock|OnceLock))|thread_local!' crates/scanstore/src || exit 1
for f in crates/scanstore/src/*.rs; do
  case $f in */vfs.rs | */recorder.rs) continue ;; esac
  ! sed '/^#\[cfg(test)\]/,$d' "$f" | grep -nHE --label="$f" '\bfs::' || exit 1
done
# Clippy compiles the examples; this runs all six (`loopback_scan`
# exits non-zero unless its loopback fleet shows the expected rows).
for e in examples/*.rs; do cargo run --release --offline --example "$(basename "$e" .rs)"; done
# The bit-vector edit distance leans on wrapping arithmetic and the
# wire walker on offset arithmetic over untrusted lengths; debug and
# release differ exactly there (overflow checks): run the
# kernel-vs-DP, detector-vs-oracle, walker-vs-decoder and
# written-vs-built-reply equivalence tests under both.
cargo test -q --release -p htmlsim -p classify -p dnswire -p resolversim
# The benchmark links netsim and the crates above it but is its own
# package, outside the workspace: compile and test it here so an API
# change cannot break it unnoticed. Then every workload on small inputs
# (< 60 s): each run checks its output digest, its coverage and its
# validity bounds (netsim.dark_ratio >= 0.90, the serve cache-hit bounds).
cargo test -q --offline --manifest-path gwbench/Cargo.toml
cargo run --release --quiet --offline --manifest-path gwbench/Cargo.toml -- --all --quick
cargo fmt --check
cargo clippy --workspace --all-targets -- -D warnings
RUSTDOCFLAGS='-D warnings' cargo doc --offline --no-deps --workspace

# Twice, into two stores: a store and a trace are pure functions
# of (seed, scale, flags) — every byte of every campaign directory,
# every line of the stream — whatever the two lanes' threads did.
# The second run shares one core among lanes and stampers.
for run in a b; do
  pin=; [ $run = b ] && pin='taskset -c 0'
  $pin $repro --exp all --weeks 3 --scale 0.0002 --snoop-sample 200 \
    --metrics $out/metrics-all.json --profile $out/repro.folded \
    --store $out/store-$run --trace $out/trace-$run.jsonl
done
test -s $out/repro.folded
diff -r $out/store-a $out/store-b
cmp $out/trace-a.jsonl $out/trace-b.jsonl
check bundle $out/metrics-all.json
check telemetry $out/metrics-all.json $out/trace-a.jsonl

# Churn probes each host exactly once per round, so burst loss
# directly erodes its coverage; the retry engine must win it back.
$repro --exp fig2 --weeks 2 --scale 0.0002 --faults flaky --strict-coverage 95 \
  --metrics $out/metrics-chaos.json
check chaos $out/metrics-chaos.json
exits 3 $repro --exp fig2 --weeks 2 --scale 0.0002 --faults flaky --retries 1 \
  --strict-coverage 95 --metrics $out/metrics-chaos-neg.json
echo "ok: single-probe campaign failed the gate as expected"

$repro --exp fig1 --weeks 4 --scale 0.0002 --store $store
# Two same-seed selftests must print byte-identical reports: a
# response body is a pure function of (store bytes, request).
$repro serve --store $store --selftest --seed 7 \
  --metrics $out/serve-metrics.json > $out/selftest-a.json
$repro serve --store $store --selftest --seed 7 > $out/selftest-b.json
cmp $out/selftest-a.json $out/selftest-b.json
check selftest $out/selftest-a.json $out/serve-metrics.json

# A traced daemon with SLO objectives, a child of this shell: `wait`
# returns its exit status, and the trap stops it if a check fails first.
$repro serve --store $store --addr 127.0.0.1:0 \
  --slo p99=50ms,err=1% --trace $out/serve-trace.jsonl \
  --metrics $out/daemon-metrics.json > $out/daemon.out 2> $out/daemon.err &
DAEMON=$!
trap 'code=$?; kill "$DAEMON" 2> /dev/null && wait "$DAEMON" || :; exit $code' EXIT
for i in $(seq 1 100); do
  grep -q 'listening on' $out/daemon.out && break
  sleep 0.1
done
ADDR=$(sed -n 's#^listening on http://##p' $out/daemon.out)
test -n "$ADDR"
# Idle, it waits in the kernel: the controller's 25 ms timer is 40
# wake-ups a second, and idle workers block in accept. The daemon
# runs several threads, so sum over every one.
switches() { cat /proc/$DAEMON/task/*/status | awk '/^voluntary_ctxt_switches/ {s += $2} END {print s}'; }
BEFORE=$(switches); sleep 1
test $(( $(switches) - BEFORE )) -lt 500
curl -sf "http://$ADDR/healthz"
curl -sf "http://$ADDR/campaigns" | python3 -m json.tool > /dev/null
curl -sf "http://$ADDR/admin/scrub" | python3 -m json.tool > /dev/null
curl -sf "http://$ADDR/coverage?campaign=weekly" | grep -q '"generation":4'
$repro serve --fleet "$ADDR" --store $store --seed 7 | check fleet -
curl -sf "http://$ADDR/metrics" | check scrape -
curl -sf -H 'Accept: text/plain' "http://$ADDR/metrics" > $out/metrics.prom
grep -q '^# TYPE serve_latency_us histogram' $out/metrics.prom
grep -q 'serve_latency_us_bucket{endpoint="classify",le="+Inf"}' $out/metrics.prom
curl -sf "http://$ADDR/slo" | check slo -
curl -sf "http://$ADDR/debug/requests?limit=8" | check debug_requests -
$repro tail --addr "$ADDR" --once --json | check tail_live -
kill -TERM "$DAEMON"
wait "$DAEMON"
trap - EXIT
grep -q 'drained' $out/daemon.err
check drained $out/daemon-metrics.json
test -s $out/serve-trace.jsonl
$repro tail --file $out/serve-trace.jsonl --once --json | check tail_file -

# Every chaos profile must pass, and the report line — booleans
# only, no timings — must be byte-identical across same-seed runs.
# The corruption profile attacks a copy of the store.
for profile in overload corruption malformed; do
  $repro serve --store $store --selftest --chaos $profile > $out/chaos-$profile-a.json
  check chaos_profile $out/chaos-$profile-a.json $profile
  $repro serve --store $store --selftest --chaos $profile > $out/chaos-$profile-b.json 2> /dev/null
  cmp $out/chaos-$profile-a.json $out/chaos-$profile-b.json
done

# Last: it damages the store, then the writer's open repairs it.
$repro scrub --store $store
$repro scrub --store $store --json | python3 -m json.tool
cp -r $store/weekly $out/weekly-before
seg=$(ls $store/weekly/seg-*.gws | tail -n 1)
truncate -s $(( $(stat -c %s "$seg") / 2 )) "$seg"
exits 1 $repro scrub --store $store
# Re-collecting rolls the torn week back and commits it again, byte for byte.
$repro --exp fig1 --weeks 4 --scale 0.0002 --store $store
$repro scrub --store $store
for f in $out/weekly-before/seg-*.gws; do cmp "$f" "$store/weekly/${f##*/}"; done
echo "ok: scrub flagged the damaged store; the writer reopen repaired it"
