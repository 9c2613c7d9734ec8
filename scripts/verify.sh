#!/usr/bin/env bash
# Tier-1 verify flow for wabench.
#
# Runs, in order:
#   1. cargo build --release          (the seed tier-1 build)
#   2. cargo test -q                  (the seed tier-1 test suite)
#   3. crate suites: svc's reactor, concurrency and resilience tests,
#      and every wabench-router and wabench-obs test, each test binary
#      under a 300 s timeout so a hang fails the gate
#   4. cargo clippy --workspace --all-targets -- -D warnings
#   5. wabench-lint over crates/suite/programs (exits nonzero on findings)
#   6. wabench-served smoke: socket round-trip, 3 jobs cold + 3 warm,
#      asserting warm artifact loads beat cold compiles
#   7. trace smoke: span capture -> Chrome trace -> validator
#   8. prof smoke: record a baseline, diff it clean, prove the gate
#      fires under a synthetic 2x slowdown, and round-trip folded stacks
#   9. docs check: every intra-repo markdown link in README.md,
#      EXPERIMENTS.md, and docs/*.md resolves
#  10. chaos smoke: fig6 under a 5% fault plan is bit-identical to a
#      clean run, and the two chaos passes together exercise at least
#      one retry, one interpreter fallback, and one store repair
#  11. audit smoke: wabench-audit over the whole suite with the proof
#      verifier compiled in (--features verify-ir) must report zero
#      proof violations and at least 4000 eliminated checks
#  12. load smoke: a short fixed-seed wabench-load run against a live
#      wabench-served produces a well-formed BENCH_*.json with completed
#      jobs and zero protocol errors, and wabench-prof diff accepts the
#      artifact against itself
#  13. live telemetry smoke: a fixed-seed load run against a sampling
#      server stitches client+server request spans into a Chrome trace
#      that wabench-trace-check accepts, and wabench-top --once reports
#      a window (completed count, nonzero QPS, ordered quantiles) that
#      agrees with the run's BENCH artifact
#  14. alert & postmortem smoke: a server with the alert engine, the
#      continuous profiler, and a deterministic 20ms delay fault armed
#      must fire the p99 rule, write a flight-recorder bundle that
#      wabench-doctor diagnoses (naming the delay site), and list
#      profile windows; a fault-free control run under the same engine
#      fires nothing and writes no bundle
#  15. router smoke: a fixed-seed load through wabench-router over two
#      wabench-served shards completes with zero protocol errors and
#      both shards serving jobs; wabench-top/wabench-doctor degrade
#      gracefully against the router socket; a chaos pass with one
#      shard armed 'crash=1.0' (the process aborts on its first job)
#      still completes the run with at least one failover
#
# Offline / vendored-cargo caveat: this workspace builds fully offline.
# Every external dependency (proptest, criterion, rand, ...) is a path
# dependency on an API-compatible stub under vendor/ — see
# vendor/README.md. If a cargo invocation here fails trying to reach
# crates.io (e.g. "failed to get `...` as a dependency"), the cause is a
# new non-path dependency in some Cargo.toml, NOT a network outage to be
# retried: point the dependency at a vendor/ stub instead.

set -euo pipefail
cd "$(dirname "$0")/.."

step() { printf '\n== %s ==\n' "$*" >&2; }

step "tier-1 build (release)"
cargo build --release

step "tier-1 tests"
cargo test -q

step "crate suites (svc reactor/concurrency/resilience, router, obs)"
# Cargo runs each test binary through `timeout` (the target runner), so
# a hung test fails here in minutes instead of stalling the gate. A
# first step toward running every workspace test: svc's telemetry_live
# stays out while it counts jobs in process-global metrics, which
# another scheduler in the same test binary also feeds.
per_binary_timeout=(--config "target.'cfg(unix)'.runner = ['timeout', '300']")
cargo test -q "${per_binary_timeout[@]}" -p wabench-svc \
    --test reactor --test concurrency --test resilience
cargo test -q "${per_binary_timeout[@]}" -p wabench-router
cargo test -q "${per_binary_timeout[@]}" -p wabench-obs

step "clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

step "wabench-lint (source diagnostics over all suite programs)"
cargo run -q -p wabench-harness --bin wabench-lint

step "wabench-served smoke (socket protocol + artifact store, cold vs warm)"
cargo build -q --release -p wabench-svc
./target/release/wabench-served smoke --jobs 3

step "trace smoke (span capture -> Chrome trace export -> validator)"
trace_tmp="$(mktemp -d)"
trap 'rm -rf "$trace_tmp"' EXIT
cargo run -q --release -p wabench-harness --bin wabench-run -- \
    crc32 --jobs 2 --trace-out "$trace_tmp/trace.json" > /dev/null
cargo run -q --release -p wabench-obs --bin wabench-trace-check -- \
    "$trace_tmp/trace.json"

step "prof smoke (baseline record -> clean diff -> slowdown gate -> folded export)"
prof=./target/release/wabench-prof
cargo build -q --release -p wabench-prof
"$prof" record --out "$trace_tmp/base.jsonl" \
    --bench crc32 --engine wasm3 --engine wamr --level O1 --reps 3
# An unchanged tree must diff clean...
"$prof" diff --base "$trace_tmp/base.jsonl"
# ...and the gate must actually fire when runs slow down 2x (the
# synthetic-slowdown hook); a diff that cannot fail guards nothing.
if WABENCH_PROF_SLOWDOWN=2 "$prof" diff --base "$trace_tmp/base.jsonl" > "$trace_tmp/diff.out"; then
    echo "prof smoke FAILED: 2x slowdown did not trip the regression gate" >&2
    exit 1
fi
grep -q "REGRESSION" "$trace_tmp/diff.out"
# Folded stacks from a 4-worker scheduler run parse and agree with the
# Chrome exporter (depth cross-check lives in the prof test suite).
"$prof" fold --out "$trace_tmp/stacks.folded" --bench crc32 --level O1 --workers 4 \
    --chrome "$trace_tmp/prof-trace.json"
cargo run -q --release -p wabench-obs --bin wabench-trace-check -- \
    "$trace_tmp/prof-trace.json"
test -s "$trace_tmp/stacks.folded"

step "docs check (intra-repo markdown links resolve)"
scripts/docs-check.sh

step "chaos smoke (fault injection: figures bit-identical, recovery paths exercised)"
harness=./target/release/wabench-harness
cargo build -q --release -p wabench-harness
plan='seed=7,compile=0.05,panic=0.02,store.read=0.05'
# A clean fig6 (simulated, deterministic) is the reference...
"$harness" fig6 --scale test --jobs 4 --out "$trace_tmp/clean6.md" \
    > /dev/null 2>&1
# ...the same figure under 5% faults must reproduce it bit-for-bit:
# degraded/failed cells are skipped by the warm pass and recomputed
# cleanly by the serial pass.
"$harness" fig6 --scale test --jobs 4 --faults "$plan" \
    --store "$trace_tmp/chaos-store" --out "$trace_tmp/chaos6.md" \
    > "$trace_tmp/chaos6.log" 2>&1
cmp "$trace_tmp/clean6.md" "$trace_tmp/chaos6.md" || {
    echo "chaos smoke FAILED: fig6 differs under fault injection" >&2
    exit 1
}
# A second chaos pass (Exec jobs this time) reuses the store directory,
# so keyed read-corruption faults now hit populated entries: together
# the two runs must show every recovery path engaging.
"$harness" fig4 --scale test --jobs 4 --faults "$plan" \
    --store "$trace_tmp/chaos-store" --out "$trace_tmp/chaos4.md" \
    > "$trace_tmp/chaos4.log" 2>&1
grep -h '^resilience:' "$trace_tmp/chaos6.log" "$trace_tmp/chaos4.log"
for counter in retries fallbacks repairs; do
    total=$(grep -h '^resilience:' "$trace_tmp/chaos6.log" "$trace_tmp/chaos4.log" \
        | grep -oE "$counter=[0-9]+" | cut -d= -f2 | awk '{s += $1} END {print s}')
    if [ "${total:-0}" -lt 1 ]; then
        echo "chaos smoke FAILED: no $counter recorded across chaos runs" >&2
        exit 1
    fi
done

step "audit smoke (static check-elimination proofs re-verified on the suite)"
# All 50 programs x O0..O3 with every eliminated check's proof
# obligation independently re-derived: zero violations, and the
# eliminated-check floor catches an analysis that silently stops
# proving anything (full suite currently eliminates ~4300).
cargo run -q --release --features verify-ir -p wabench-harness \
    --bin wabench-audit -- --min-eliminated 4000

step "load smoke (open-loop generator -> live server -> BENCH artifact gate)"
loadgen=./target/release/wabench-load
cargo build -q --release -p wabench-load
sock="$trace_tmp/load.sock"
./target/release/wabench-served serve --socket "$sock" --workers 2 \
    --store "$trace_tmp/load-store" > "$trace_tmp/served.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
if ! [ -S "$sock" ]; then
    echo "load smoke FAILED: wabench-served socket never appeared" >&2
    cat "$trace_tmp/served.log" >&2
    exit 1
fi
# wabench-load itself exits nonzero on zero completed jobs or any
# protocol error, so a 0 here already covers both health assertions.
"$loadgen" run --seed 7 --mix fig1 --qps 200 --jobs 20 --phases cold,warm \
    --socket "$sock" --out "$trace_tmp/BENCH_smoke.json" \
    | tee "$trace_tmp/load.out"
./target/release/wabench-served shutdown --socket "$sock" > /dev/null
wait "$served_pid" 2> /dev/null || true
# The artifact must carry the schema tag prof's sniffing keys on...
head -c 64 "$trace_tmp/BENCH_smoke.json" | grep -q '^{"schema":"wabench-bench"'
grep -q '"completed":' "$trace_tmp/BENCH_smoke.json"
# ...and the SLO gate must accept a run compared against itself.
"$prof" diff --base "$trace_tmp/BENCH_smoke.json" --cur "$trace_tmp/BENCH_smoke.json"

step "live telemetry smoke (sampler window -> wabench-top --once; stitched request traces)"
top=./target/release/wabench-top
sock="$trace_tmp/top.sock"
./target/release/wabench-served serve --socket "$sock" --workers 2 \
    --store "$trace_tmp/top-store" --sample-ms 25 > "$trace_tmp/served-top.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
if ! [ -S "$sock" ]; then
    echo "telemetry smoke FAILED: wabench-served socket never appeared" >&2
    cat "$trace_tmp/served-top.log" >&2
    exit 1
fi
"$loadgen" run --seed 11 --mix fig1 --qps 200 --jobs 20 --phases cold,warm \
    --socket "$sock" --out "$trace_tmp/BENCH_top.json" \
    --stitch-out "$trace_tmp/requests.json" | tee "$trace_tmp/load-top.out"
sleep 0.2 # two+ sampler intervals, so the final completions get sampled
"$top" --once --socket "$sock" | tee "$trace_tmp/top.out"
./target/release/wabench-served shutdown --socket "$sock" > /dev/null
wait "$served_pid" 2> /dev/null || true
# The stitched trace must pair client and server spans per request and
# pass the same validator as every other trace artifact...
grep -q '"client.request"' "$trace_tmp/requests.json"
grep -q '"server.job"' "$trace_tmp/requests.json"
cargo run -q --release -p wabench-obs --bin wabench-trace-check -- \
    "$trace_tmp/requests.json"
# ...and the live window must agree with the BENCH artifact: the same
# completed count, nonzero QPS, and ordered quantiles.
bench_completed=$(grep -oE '"completed":[0-9]+' "$trace_tmp/BENCH_top.json" \
    | head -1 | cut -d: -f2)
awk -F= -v bench="$bench_completed" '
    $1 == "completed" { completed = $2 + 0 }
    $1 == "qps"       { qps = $2 + 0 }
    $1 == "p50_ns"    { p50 = $2 + 0 }
    $1 == "p99_ns"    { p99 = $2 + 0 }
    END {
        if (completed != bench) {
            print "telemetry smoke FAILED: window completed " completed \
                " != artifact completed " bench; exit 1
        }
        if (qps <= 0) { print "telemetry smoke FAILED: qps=" qps; exit 1 }
        if (p50 <= 0 || p99 < p50) {
            print "telemetry smoke FAILED: quantiles p50=" p50 " p99=" p99; exit 1
        }
    }' "$trace_tmp/top.out"

step "alert & postmortem smoke (SLO rules -> flight recorder -> wabench-doctor)"
doctor=./target/release/wabench-doctor
served=./target/release/wabench-served
sock="$trace_tmp/alert.sock"
pm_dir="$trace_tmp/postmortems"
# Every job is delayed 20ms (rate 1.0, seeded), far over the 5ms p99
# ceiling, so the rule fires deterministically.
"$served" serve --socket "$sock" --workers 2 --sample-ms 25 --profile-ms 50 \
    --faults 'seed=7,delay=1.0:20ms' --alerts 'p99=5ms:1s' \
    --postmortem-dir "$pm_dir" > "$trace_tmp/served-alert.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
if ! [ -S "$sock" ]; then
    echo "alert smoke FAILED: wabench-served socket never appeared" >&2
    cat "$trace_tmp/served-alert.log" >&2
    exit 1
fi
"$loadgen" run --seed 13 --mix fig1 --qps 100 --jobs 10 --phases cold \
    --socket "$sock" --out "$trace_tmp/BENCH_alert.json" > /dev/null
sleep 0.2 # let the sampler cover the delayed completions
"$served" alerts --socket "$sock" | tee "$trace_tmp/alerts.out"
"$prof" windows --socket "$sock" | tee "$trace_tmp/windows.out"
"$served" shutdown --socket "$sock" > /dev/null
wait "$served_pid" 2> /dev/null || true
# The p99 rule must have fired (live now, or as a logged transition)...
grep -qE 'firing p99:' "$trace_tmp/alerts.out" || {
    echo "alert smoke FAILED: p99 rule never fired under a 20ms delay fault" >&2
    exit 1
}
# ...the continuous profiler must have sealed at least one window...
grep -q '^window #' "$trace_tmp/windows.out" || {
    echo "alert smoke FAILED: no continuous-profile windows buffered" >&2
    exit 1
}
# ...and the flight recorder must have written a versioned bundle.
bundle=$(ls "$pm_dir"/postmortem-*-p99.json 2> /dev/null | head -1)
if [ -z "$bundle" ]; then
    echo "alert smoke FAILED: no postmortem bundle in $pm_dir" >&2
    exit 1
fi
head -c 32 "$bundle" | grep -q '^{"schema":"wabench-postmortem"'
# The doctor must diagnose the bundle (exit 1 = findings) and name the
# injected delay site as a root-cause candidate.
rc=0
"$doctor" --bundle "$bundle" | tee "$trace_tmp/doctor.out" || rc=$?
if [ "$rc" -ne 1 ]; then
    echo "alert smoke FAILED: doctor exit $rc on a bundle with findings" >&2
    exit 1
fi
grep -q 'site=delay' "$trace_tmp/doctor.out" || {
    echo "alert smoke FAILED: doctor did not name the injected delay site" >&2
    exit 1
}
# Control: the same engine with a generous ceiling and no faults must
# stay quiet — no firing rules, no transitions, no bundle written.
sock="$trace_tmp/alert-clean.sock"
pm_clean="$trace_tmp/postmortems-clean"
"$served" serve --socket "$sock" --workers 2 --sample-ms 25 \
    --alerts 'p99=250ms:1s' --postmortem-dir "$pm_clean" \
    > "$trace_tmp/served-clean.log" 2>&1 &
served_pid=$!
for _ in $(seq 1 50); do [ -S "$sock" ] && break; sleep 0.1; done
"$loadgen" run --seed 13 --mix fig1 --qps 100 --jobs 10 --phases cold \
    --socket "$sock" --out "$trace_tmp/BENCH_clean.json" > /dev/null
sleep 0.2
"$served" alerts --socket "$sock" | tee "$trace_tmp/alerts-clean.out"
"$served" shutdown --socket "$sock" > /dev/null
wait "$served_pid" 2> /dev/null || true
grep -q 'armed (0 firing, 0 logged' "$trace_tmp/alerts-clean.out" || {
    echo "alert smoke FAILED: rules fired on a fault-free run" >&2
    exit 1
}
if [ -d "$pm_clean" ] && [ -n "$(ls -A "$pm_clean" 2> /dev/null)" ]; then
    echo "alert smoke FAILED: postmortem written on a fault-free run" >&2
    exit 1
fi

step "router smoke (2-shard fleet -> failover chaos)"
routerbin=./target/release/wabench-router
cargo build -q --release -p wabench-router
wait_sock() { # wait_sock PATH LABEL LOG
    for _ in $(seq 1 50); do [ -S "$1" ] && return 0; sleep 0.1; done
    echo "router smoke FAILED: $2 socket never appeared" >&2
    cat "$3" >&2
    exit 1
}
s0="$trace_tmp/rshard0.sock"; s1="$trace_tmp/rshard1.sock"
rsock="$trace_tmp/router.sock"
"$served" serve --socket "$s0" --workers 2 --store "$trace_tmp/rstore0" \
    > "$trace_tmp/rshard0.log" 2>&1 &
shard0_pid=$!
"$served" serve --socket "$s1" --workers 2 --store "$trace_tmp/rstore1" \
    > "$trace_tmp/rshard1.log" 2>&1 &
shard1_pid=$!
wait_sock "$s0" shard-0 "$trace_tmp/rshard0.log"
wait_sock "$s1" shard-1 "$trace_tmp/rshard1.log"
"$routerbin" serve --socket "$rsock" \
    --backend shard-0="$s0" --backend shard-1="$s1" \
    > "$trace_tmp/router.log" 2>&1 &
router_pid=$!
wait_sock "$rsock" router "$trace_tmp/router.log"
# wabench-load exits nonzero on zero completed jobs or any protocol
# error, so a 0 here covers both; clients speak the ordinary protocol
# to the router socket.
"$loadgen" run --seed 7 --mix fig1 --qps 200 --jobs 20 --phases cold,warm \
    --socket "$rsock" --out "$trace_tmp/BENCH_router.json" \
    | tee "$trace_tmp/load-router.out"
head -c 64 "$trace_tmp/BENCH_router.json" | grep -q '^{"schema":"wabench-bench"'
grep -q '"backends":' "$trace_tmp/BENCH_router.json"
# Both shards must have served traffic (the ring splits fig1's cells).
"$routerbin" status --socket "$rsock" | tee "$trace_tmp/router-status.out"
for shard in shard-0 shard-1; do
    fwd=$(grep -oE "^shard $shard .* ([0-9]+) forwarded" "$trace_tmp/router-status.out" \
        | grep -oE '[0-9]+ forwarded' | cut -d' ' -f1)
    if [ "${fwd:-0}" -lt 1 ]; then
        echo "router smoke FAILED: $shard served no jobs" >&2
        exit 1
    fi
done
# Pointed at the router, wabench-top and wabench-doctor must degrade
# gracefully (per-shard requests are refused with the router: prefix),
# not error out.
"$top" --once --socket "$rsock" > "$trace_tmp/top-router.out" 2>&1 || {
    echo "router smoke FAILED: wabench-top errored against the router socket" >&2
    cat "$trace_tmp/top-router.out" >&2
    exit 1
}
grep -q '^sampling=0' "$trace_tmp/top-router.out"
rc=0
"$doctor" --socket "$rsock" > "$trace_tmp/doctor-router.out" 2>&1 || rc=$?
if [ "$rc" -gt 1 ]; then
    echo "router smoke FAILED: wabench-doctor exit $rc against the router socket" >&2
    cat "$trace_tmp/doctor-router.out" >&2
    exit 1
fi
"$routerbin" shutdown --socket "$rsock" > /dev/null
wait "$router_pid" 2> /dev/null || true
"$served" shutdown --socket "$s0" > /dev/null
"$served" shutdown --socket "$s1" > /dev/null
wait "$shard0_pid" "$shard1_pid" 2> /dev/null || true

# Chaos pass: one shard armed with the crash fault aborts its whole
# process on the first job it picks up; the run must still complete
# with zero protocol errors, the dead shard's keys failing over.
c0="$trace_tmp/cshard0.sock"; c1="$trace_tmp/cshard1.sock"
crsock="$trace_tmp/crouter.sock"
"$served" serve --socket "$c0" --workers 2 --faults 'seed=7,crash=1.0' \
    > "$trace_tmp/cshard0.log" 2>&1 &
cshard0_pid=$!
"$served" serve --socket "$c1" --workers 2 \
    > "$trace_tmp/cshard1.log" 2>&1 &
cshard1_pid=$!
wait_sock "$c0" chaos-shard-0 "$trace_tmp/cshard0.log"
wait_sock "$c1" chaos-shard-1 "$trace_tmp/cshard1.log"
"$routerbin" serve --socket "$crsock" \
    --backend shard-0="$c0" --backend shard-1="$c1" \
    > "$trace_tmp/crouter.log" 2>&1 &
crouter_pid=$!
wait_sock "$crsock" chaos-router "$trace_tmp/crouter.log"
"$loadgen" run --seed 7 --mix fig1 --qps 200 --jobs 20 --phases cold \
    --socket "$crsock" --out "$trace_tmp/BENCH_chaos_router.json" \
    | tee "$trace_tmp/load-chaos-router.out"
"$routerbin" status --socket "$crsock" | tee "$trace_tmp/crouter-status.out"
failovers=$(grep -oE '[0-9]+ failovers' "$trace_tmp/crouter-status.out" \
    | cut -d' ' -f1 | awk '{s += $1} END {print s}')
if [ "${failovers:-0}" -lt 1 ]; then
    echo "router smoke FAILED: shard crash caused no failovers" >&2
    exit 1
fi
"$routerbin" shutdown --socket "$crsock" > /dev/null
wait "$crouter_pid" 2> /dev/null || true
"$served" shutdown --socket "$c1" > /dev/null
wait "$cshard0_pid" "$cshard1_pid" 2> /dev/null || true

step "verify OK"
