#!/usr/bin/env bash
# CI gate: build, tests, formatting, lints. Run from anywhere.
#
#   scripts/ci.sh          the standard gate
#   scripts/ci.sh --full   additionally runs the heavy sweeps
#                          (54-bug degradation corpus, --features slow-tests)
#   scripts/ci.sh --fast   the seconds-scale inner-loop lane: the
#                          SWAR/scalar packet-scan differential, the
#                          streaming-law proptests, the snapshot
#                          aggregation differential and retention rule,
#                          the fan-out helper's contract and idle-core
#                          budget, the telemetry site aggregates, the
#                          payload-decoder fuzzers, the points-to solver
#                          vs its reference and its unit tests, the
#                          dense PC table and module identity, the
#                          step 4–5 allocation pins, and batch dedup
#                          under parallelism
set -euo pipefail
cd "$(dirname "$0")/.."

FULL=0
[[ "${1:-}" == "--full" ]] && FULL=1

if [[ "${1:-}" == "--fast" ]]; then
  echo "==> fast lane: SWAR vs scalar packet-scan differential"
  cargo test --release -q -p lazy-trace --test scan_diff
  echo "==> fast lane: streaming-diagnosis law proptests"
  cargo test --release -q -p lazy-snorlax --test streaming_laws
  echo "==> fast lane: dense snapshot aggregation vs the per-event-hash reference (executed sets; instances on pointer-operand PCs only)"
  cargo test --release -q -p lazy-snorlax --lib processing::aggregate_tests
  echo "==> fast lane: retention rule (corpus targets and access kinds have pointer operands; mysql-3596 traces keep <= 100 kB)"
  cargo test --release -q --test retention
  echo "==> fast lane: fan-out helper contract (order, per-task panics, inline, concurrency, idle-core budget, busy marks)"
  cargo test --release -q -p lazy-trace --lib fanout::tests
  echo "==> fast lane: idle-core rule end to end (every core busy: no helper spawned, renders unchanged; one-snapshot folds never spawn)"
  cargo test --release -q --test idle_cores
  echo "==> fast lane: every closed span reaches its site aggregate, on any thread"
  cargo test --release -q -p lazy-obs --lib site::tests
  echo "==> fast lane: payload-decoder fuzzing (arbitrary, cut, flipped, forged-count payloads)"
  cargo test --release -q -p lazy-snorlax --test payload_fuzz
  echo "==> fast lane: points-to solver vs the pre-rewrite reference (every operand's set and every counter; whole-program, scoped, cache scratch/delta/exact-hit; borrowed views = owned sets)"
  cargo test --release -q -p lazy-analysis --lib reference::tests
  echo "==> fast lane: points-to solver units (the per-thread variable table is lent and given back unset; small sets track a BTreeSet)"
  cargo test --release -q -p lazy-analysis --lib andersen::tests
  echo "==> fast lane: dense PC table and module identity (below TEXT_BASE, misaligned, alignment gaps and max_pc resolve to nothing; dense register numbers; the fingerprint follows the current name)"
  cargo test --release -q -p lazy-ir --lib module::tests
  echo "==> fast lane: allocation pins (mysql-3596 scoped solve <= 200, candidate selection <= 20 allocations)"
  cargo test --release -q --test alloc_pin
  echo "==> fast lane: batch dedup groups reads by full equality, never by their structural key alone"
  cargo test --release -q -p lazy-snorlax --lib batch::tests
  echo "==> fast lane: batch dedup under parallelism (20 four-worker runs per batch: one decode per distinct snapshot, dedup hits = references - distinct, every render = sequential diagnose; a same-key mangled success and a corrupt failing job)"
  cargo test --release -q --test batch_dedup
  echo "CI OK (fast lane)"
  exit 0
fi

# The workspace, not just the root package (its sole default member):
# the daemon, fleet and routing smokes below run ./target/release/snorlax.
echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> cargo test (workspace)"
cargo test -q --workspace

# The telemetry-off configuration must stay green: every lazy-obs
# primitive compiles to a ZST no-op, and the pipeline + obs test suites
# pass without instrumentation.
echo "==> cargo test (telemetry off: --no-default-features)"
cargo test -q --no-default-features
cargo test -q -p lazy-obs --no-default-features

if [[ "$FULL" == "1" ]]; then
  echo "==> full lane: 54-bug sweeps (--features slow-tests)"
  cargo test --release -q --features slow-tests
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Panic-lint gate for the pipeline crates: their crate roots carry
# #![deny(clippy::unwrap_used, clippy::expect_used)] (tests exempt via
# cfg_attr), so a plain -D warnings pass fails on any new unwrap/expect
# in non-test code. Deliberately NOT passed as command-line -D flags:
# those would leak onto every workspace dependency compiled in the same
# invocation (lazy-ir legitimately uses expect()).
echo "==> panic-lint gate (lazy-trace, lazy-snorlax, lazy-obs)"
cargo clippy -q -p lazy-trace -p lazy-snorlax -p lazy-obs --lib -- -D warnings
# The same gate with telemetry off: selected alone, neither crate turns
# on lazy-obs's `enabled`, so its no-op guards (no `Drop`) are what
# they lint against.
echo "==> panic-lint gate, telemetry off (lazy-trace, then lazy-snorlax, each alone)"
cargo clippy -q -p lazy-trace --lib -- -D warnings
cargo clippy -q -p lazy-snorlax --lib -- -D warnings

# The decode smoke also enforces the decode gates: the bench binary
# asserts the one_core (adaptive never loses to fused) and walk_table
# (steady-state compiled >= 1.3x one-shot fused) gates internally, so a
# routing or walk-table regression fails this build right here.
echo "==> decode bench smoke (--fast, enforces one_core + walk_table gates)"
cargo run --release -q -p lazy-bench --bin decode -- --fast --out /tmp/BENCH_decode_ci.json

# The bench artifact must carry the per-stage telemetry the default
# build promises: the enabled flag, the embedded telemetry object, the
# decoder's own stage span, the adaptive routing counters, and the
# walk-table lifecycle counters.
echo "==> BENCH_decode.json telemetry fields"
for field in '"telemetry_enabled": true' '"telemetry":' '"decode.stream"' \
             '"decode.shard.routed_fused"' '"decode.shard.routed_sharded"' \
             '"decode.walk_table.build"' '"decode.walk_table.hit"'; do
  grep -qF "$field" /tmp/BENCH_decode_ci.json \
    || { echo "FAIL: bench output missing $field"; exit 1; }
  grep -qF "$field" BENCH_decode.json \
    || { echo "FAIL: checked-in BENCH_decode.json missing $field (regenerate: cargo run --release -p lazy-bench --bin decode)"; exit 1; }
done
rm -f /tmp/BENCH_decode_ci.json

echo "==> fault-injection smoke (--fast)"
cargo run --release -q -p lazy-bench --bin faults -- --fast

# End-to-end daemon smoke over a real TCP connection: serve on an
# ephemeral loopback port, submit one failure report, expect a rendered
# root cause back, then drain gracefully.
echo "==> snorlaxd loopback smoke"
SERVE_LOG=$(mktemp)
./target/release/snorlax serve mysql-3596 --port 0 > "$SERVE_LOG" &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 100); do
  # cmd_serve prints the bound address before entering the accept loop.
  ADDR=$(sed -n 's/^snorlaxd listening on \([0-9.:]*\) .*/\1/p' "$SERVE_LOG")
  [[ -n "$ADDR" ]] && break
  sleep 0.1
done
[[ -n "$ADDR" ]] || { echo "FAIL: snorlaxd never reported its address"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
./target/release/snorlax submit mysql-3596 --addr "$ADDR" | grep -q "root cause" \
  || { echo "FAIL: remote diagnosis reported no root cause"; kill "$SERVE_PID" 2>/dev/null; exit 1; }
./target/release/snorlax submit --addr "$ADDR" --shutdown > /dev/null
wait "$SERVE_PID" || { echo "FAIL: snorlaxd exited nonzero"; exit 1; }
grep -q "snorlaxd drained:" "$SERVE_LOG" \
  || { echo "FAIL: snorlaxd did not report a graceful drain"; exit 1; }
rm -f "$SERVE_LOG"

# The daemon bench doubles as the many-connection smoke: besides the
# loopback-vs-in-process lanes it holds 256 concurrent submitter
# connections against one readiness loop on an ephemeral port (bounded
# wall-clock: the bench asserts every submitter is served) and dribbles
# one request through the slow-writer lane so the partial-frame resume
# counter self-registers.
echo "==> daemon bench smoke (loopback + 256-connection lane)"
cargo run --release -q -p lazy-bench --bin daemon -- --reports 4 --rounds 1 --out /tmp/BENCH_daemon_ci.json

# Same artifact contract as the decode bench: the enabled flag, the
# embedded telemetry object, the daemon's own request span, the
# aggregation span and its retained-instance counter, the fan-out's
# helper-spawn counter, the per-connection lifecycle counters of the
# readiness loop, the slow-writer lane's partial-frame resume counter,
# and the concurrent submitter lane summary.
echo "==> BENCH_daemon.json telemetry fields"
for field in '"telemetry_enabled": true' '"telemetry":' '"daemon.request"' \
             '"process.aggregate"' '"process.instances_retained_total"' \
             '"fanout.helpers_spawned_total"' \
             '"daemon.conn.accepted_total"' '"daemon.conn.closed_total"' \
             '"daemon.conn.open"' '"daemon.partial_frame_resumes_total"' \
             '"concurrent"' '"busy_retries"'; do
  grep -qF "$field" /tmp/BENCH_daemon_ci.json \
    || { echo "FAIL: bench output missing $field"; exit 1; }
  grep -qF "$field" BENCH_daemon.json \
    || { echo "FAIL: checked-in BENCH_daemon.json missing $field (regenerate: cargo run --release -p lazy-bench --bin daemon)"; exit 1; }
done
rm -f /tmp/BENCH_daemon_ci.json

# Fleet smoke over real TCP: two warm shard daemons on ephemeral
# loopback ports, 4 interleaved reports routed through one FleetRouter,
# then a graceful drain of both. The CLI names each report's root cause
# and failed-shard count and cross-checks it against single-node, so
# one grep per report proves byte-identity with no shard lost; the
# shard-stats lines (answered over the FleetStats frame) prove the
# persistent points-to caches actually went warm across reports. The
# CLI exits non-zero on any divergence or failed shard.
echo "==> fleet loopback routing smoke (2 shards, 4 reports)"
SHARD1_LOG=$(mktemp); SHARD2_LOG=$(mktemp)
./target/release/snorlax fleet serve-shard mysql-3596 --port 0 > "$SHARD1_LOG" &
SHARD1_PID=$!
./target/release/snorlax fleet serve-shard mysql-3596 --port 0 > "$SHARD2_LOG" &
SHARD2_PID=$!
ADDR1=""; ADDR2=""
for _ in $(seq 1 100); do
  ADDR1=$(sed -n 's/^snorlaxd listening on \([0-9.:]*\) .*/\1/p' "$SHARD1_LOG")
  ADDR2=$(sed -n 's/^snorlaxd listening on \([0-9.:]*\) .*/\1/p' "$SHARD2_LOG")
  [[ -n "$ADDR1" && -n "$ADDR2" ]] && break
  sleep 0.1
done
[[ -n "$ADDR1" && -n "$ADDR2" ]] \
  || { echo "FAIL: fleet shards never reported their addresses"; kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null; exit 1; }
# Capture rather than pipe into grep -q: -q exits at first match and
# the still-printing CLI would die on EPIPE.
ROUTE_OUT=$(./target/release/snorlax fleet route mysql-3596 --addrs "$ADDR1,$ADDR2" --reports 4) \
  || { echo "FAIL: fleet route exited nonzero (a shard failed or a report diverged)"; echo "$ROUTE_OUT"; kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null; exit 1; }
[[ "$(grep -c "root cause \[" <<< "$ROUTE_OUT")" == "4" ]] && ! grep -q "root cause \[none\]" <<< "$ROUTE_OUT" \
  || { echo "FAIL: not every routed report named a root cause"; kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null; exit 1; }
[[ "$(grep -c ", 0 shard(s) failed, " <<< "$ROUTE_OUT")" == "4" ]] \
  || { echo "FAIL: a fleet shard failed during the smoke"; kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null; exit 1; }
[[ "$(grep -c "byte-identical to single-node: yes" <<< "$ROUTE_OUT")" == "4" ]] \
  || { echo "FAIL: not every routed report was byte-identical to single-node"; kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null; exit 1; }
grep -q "4 reports routed" <<< "$ROUTE_OUT" \
  || { echo "FAIL: the router did not key all 4 reports to one bug"; kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null; exit 1; }
grep -Eq "shard [01]: .* [1-9][0-9]* exact " <<< "$ROUTE_OUT" \
  || { echo "FAIL: no shard reported warm points-to cache hits"; kill "$SHARD1_PID" "$SHARD2_PID" 2>/dev/null; exit 1; }
./target/release/snorlax submit --addr "$ADDR1" --shutdown > /dev/null
./target/release/snorlax submit --addr "$ADDR2" --shutdown > /dev/null
wait "$SHARD1_PID" || { echo "FAIL: shard 1 exited nonzero"; exit 1; }
wait "$SHARD2_PID" || { echo "FAIL: shard 2 exited nonzero"; exit 1; }
grep -q "snorlaxd drained:" "$SHARD1_LOG" && grep -q "snorlaxd drained:" "$SHARD2_LOG" \
  || { echo "FAIL: a fleet shard did not report a graceful drain"; exit 1; }
rm -f "$SHARD1_LOG" "$SHARD2_LOG"

echo "==> fleet bench smoke (--fast)"
cargo run --release -q -p lazy-bench --bin fleet -- --fast --out /tmp/BENCH_fleet_ci.json

# Same artifact contract as the other benches: the enabled flag, the
# embedded telemetry object, and the coordinator's own span — plus the
# concurrent-routing lane's warm-cache proof (per-shard exact-hit
# counters) and the session-lifecycle eviction counters the TTL sweep
# feeds (stream hub + fleet shard).
echo "==> BENCH_fleet.json telemetry fields"
for field in '"telemetry_enabled": true' '"telemetry":' '"fleet.diagnose"' \
             '"process.aggregate"' \
             '"concurrent"' '"warm_cache_exact_hits"' '"cache_exact_hits"' \
             '"sessions_evicted"' '"stream.sessions_evicted_total"' \
             '"fleet.sessions_evicted_total"'; do
  grep -qF "$field" /tmp/BENCH_fleet_ci.json \
    || { echo "FAIL: bench output missing $field"; exit 1; }
  grep -qF "$field" BENCH_fleet.json \
    || { echo "FAIL: checked-in BENCH_fleet.json missing $field (regenerate: cargo run --release -p lazy-bench --bin fleet)"; exit 1; }
done
rm -f /tmp/BENCH_fleet_ci.json

# Streaming lane: the stream bench is the convergence smoke — on its
# three --fast corpus bugs it internally asserts the acceptance gates
# (median reports-to-convergence strictly below the full-batch count,
# at least one bug converging in <= 50% of its batch reports, every
# streaming render byte-identical to batch over the consumed prefix).
echo "==> streaming bench smoke (--fast, enforces convergence gates)"
cargo run --release -q -p lazy-bench --bin stream -- --fast --out /tmp/BENCH_stream_ci.json

# Same artifact contract as the other benches: the enabled flag, the
# embedded telemetry object, the per-fold span, and the streaming
# counters that prove the sequential test actually ran.
echo "==> BENCH_stream.json telemetry fields"
for field in '"telemetry_enabled": true' '"telemetry":' '"stream.fold"' \
             '"stream.reports_total"' '"stream.converged_total"'; do
  grep -qF "$field" /tmp/BENCH_stream_ci.json \
    || { echo "FAIL: bench output missing $field"; exit 1; }
  grep -qF "$field" BENCH_stream.json \
    || { echo "FAIL: checked-in BENCH_stream.json missing $field (regenerate: cargo run --release -p lazy-bench --bin stream)"; exit 1; }
done
rm -f /tmp/BENCH_stream_ci.json

echo "CI OK"
