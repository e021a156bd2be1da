#!/bin/sh
# Local CI gate: formatting, lints, and the tier-1 suite (ROADMAP.md).
set -eu

cd "$(dirname "$0")"

echo "== cargo fmt --check"
cargo fmt --all -- --check

echo "== cargo clippy"
cargo clippy --workspace --all-targets -- -D warnings

echo "== tier-1: cargo build --release && cargo test -q"
cargo build --release
cargo test -q

echo "== determinism loop (50 runs)"
# Repeated checks must report identical violations and identical
# deterministic work counters (EngineStats::work). Scheduling telemetry
# such as work steals varies run to run; looping makes a leak of it into
# the compared counters fail here instead of once in a while.
for run in $(seq 1 50); do
    out=$(cargo test -q --release -p odrc-bench --test determinism 2>&1) \
        || { echo "$out"; echo "determinism failed on run $run of 50"; exit 1; }
done

echo "== fault-injection suite (seeded FaultPlan matrix)"
# The device fault paths and the engine's graceful-degradation
# machinery, including the 100-seed schedule matrix over the paper's
# uart and aes layouts and 25 seeded schedules under a parallel delta
# re-check (release mode keeps the matrix fast).
cargo test -q --release -p odrc-xpu --test faults
cargo test -q --release -p odrc --test fault_injection

echo "== planner equivalence (fixed fault seeds)"
# The planned parallel engine must report byte-identical violations to
# the sequential reference, with and without injected faults, and the
# planner's scene and row-upload sharing must hold as absolute counts.
# The vendored proptest derives every case's seed from the test name,
# so the fault schedules exercised here are fixed run to run.
cargo test -q --release -p odrc --test plan_equivalence

echo "== host executor equivalence (thread-count matrix)"
# The work-stealing host executor must report byte-identical violations
# for every host_threads count, in both modes, and under seeded fault
# schedules.
cargo test -q --release -p odrc --test host_parallel_equivalence

echo "== dispatch equivalence (mode/thread matrix, 25 fault seeds)"
# The persistent-pool dispatch layer: pooled workers, fused batches,
# and replayed launch graphs — all byte-identical to the sequential
# baseline across modes and host thread counts, and under seeded fault
# schedules. (Fused batches tick the same fault ordinals as direct
# stream calls: pinned in the xpu stream tests.)
cargo test -q --release -p odrc --test dispatch_equivalence

echo "== perf gate (kernel-wait + host scaling vs committed baseline)"
# Re-measures the aes parallel configuration against the committed
# BENCH_pipeline.json: fails on a kernel-wait regression beyond 25%
# (+10ms grace) or 2-thread host scaling below 0.95x of serial.
# min-of-5 repeats: the gate compares minima, and 3 repeats has been
# observed to let a single noisy scheduling window trip the limit.
cargo run -q --release -p odrc-bench --bin pipeline -- --gate BENCH_pipeline.json --repeat 5

echo "== pipeline bench smoke run"
# The pipeline benchmark on the small uart design: asserts both modes
# agree and exercises the JSON emitter.
# Runs from target/ so the committed aes/jpeg BENCH_pipeline.json
# record is not clobbered by the smoke design.
(cd target && cargo run -q --release -p odrc-bench --bin pipeline -- --designs uart --json)

echo "== host-threads smoke run"
# The same smoke deck with the host fan-out forced on: asserts both
# modes still agree with two host worker threads.
(cd target && cargo run -q --release -p odrc-bench --bin pipeline -- --designs uart --host-threads 2)

echo "== kill/resume smoke (tiny --deadline, then --resume to completion)"
# Run lifecycle end to end at the CLI level: a sub-millisecond deadline
# deterministically interrupts the run (exit 4) and leaves a loadable
# checkpoint; a --resume run finishes the check (exit 1: the generated
# layout has violations) and completes the journal; a second --resume
# then restores every signable rule and must report byte-identically.
rm -rf target/ci-resume
mkdir -p target/ci-resume
./target/release/odrc-genlayout aes target/ci-resume/aes.gds
cat > target/ci-resume/beol.rules <<'EOF'
width     layer=19 min=18   name=M1.W.1
space     layer=20 min=20   name=M2.S.1
area      layer=19 min=1400 name=M1.A.1
enclosure inner=30 outer=19 min=4 name=V1.M1.EN.1
rectilinear
EOF
status=0
./target/release/odrc target/ci-resume/aes.gds \
    --rules target/ci-resume/beol.rules --parallel \
    --deadline 0.001 --checkpoint-dir target/ci-resume/ckpt \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 4 ] || { echo "expected exit 4 from deadline run, got $status"; exit 1; }
[ -f target/ci-resume/ckpt/odrc-journal.bin ] || { echo "no checkpoint journal written"; exit 1; }
status=0
./target/release/odrc target/ci-resume/aes.gds \
    --rules target/ci-resume/beol.rules --parallel \
    --resume target/ci-resume/ckpt --report target/ci-resume/first.csv \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from resumed run, got $status"; exit 1; }
status=0
./target/release/odrc target/ci-resume/aes.gds \
    --rules target/ci-resume/beol.rules --parallel \
    --resume target/ci-resume/ckpt --report target/ci-resume/second.csv \
    --stats-json target/ci-resume/second.json \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from second resume, got $status"; exit 1; }
if grep -q '"rules_resumed": 0,' target/ci-resume/second.json; then
    echo "second resume restored no rules from the completed journal"
    exit 1
fi
cmp target/ci-resume/first.csv target/ci-resume/second.csv \
    || { echo "resumed reports differ"; exit 1; }

echo "== serve smoke (daemon, concurrent clients, shared cache tier, SIGTERM drain)"
# The multi-tenant service end to end at the CLI level: a daemon on an
# ephemeral port serves two truly concurrent uart clients (both cold),
# then a third warm client that must be fed from the shared cache tier
# the first pair populated — all three reports byte-identical — and
# finally drains cleanly on SIGTERM.
rm -rf target/ci-serve
mkdir -p target/ci-serve
./target/release/odrc-genlayout uart target/ci-serve/uart.gds
./target/release/odrc serve --addr 127.0.0.1:0 --workers 2 --host-threads 2 \
    --cache target/ci-serve/cache --port-file target/ci-serve/port &
serve_pid=$!
tries=0
while [ ! -s target/ci-serve/port ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "daemon never wrote its port file"; exit 1; }
    sleep 0.1
done
addr=$(cat target/ci-serve/port)
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --report target/ci-serve/cold-a.csv >/dev/null 2>&1 &
cold_a=$!
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --report target/ci-serve/cold-b.csv >/dev/null 2>&1 &
cold_b=$!
status=0; wait "$cold_a" || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from cold client a, got $status"; exit 1; }
status=0; wait "$cold_b" || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from cold client b, got $status"; exit 1; }
cmp target/ci-serve/cold-a.csv target/ci-serve/cold-b.csv \
    || { echo "concurrent clients reported different violations"; exit 1; }
status=0
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --report target/ci-serve/warm.csv --stats-json target/ci-serve/warm.json \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from warm client, got $status"; exit 1; }
cmp target/ci-serve/cold-a.csv target/ci-serve/warm.csv \
    || { echo "cache-served report differs from the cold run"; exit 1; }
if grep -q '"cache_hits_shared":0[,}]' target/ci-serve/warm.json; then
    echo "warm client saw no shared cache hits"
    exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "daemon did not drain cleanly on SIGTERM"; exit 1; }
[ -f target/ci-serve/cache/odrc-cache.bin ] \
    || { echo "drained daemon did not persist its cache tier"; exit 1; }

echo "== chaos smoke (kill -9 mid-run, restart, idempotent resubmit, rule-boundary resume)"
# Crash-safe serving end to end: a daemon armed to die at a rule
# boundary takes a keyed job and is killed mid-run; a restarted daemon
# on the same checkpoint and cache directories re-admits the job from
# its journal, resumes past the already-checkpointed rules, and the
# resubmitted key yields a report byte-identical to a one-shot run
# with the original exit code.
rm -rf target/ci-chaos
mkdir -p target/ci-chaos
status=0
./target/release/odrc target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --report target/ci-chaos/oneshot.csv \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from one-shot baseline, got $status"; exit 1; }
./target/release/odrc serve --addr 127.0.0.1:0 --workers 2 --host-threads 2 \
    --cache target/ci-chaos/cache --checkpoint-dir target/ci-chaos/ckpt \
    --chaos-kill-at-rule 2 --port-file target/ci-chaos/port >/dev/null 2>&1 &
serve_pid=$!
tries=0
while [ ! -s target/ci-chaos/port ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "chaos daemon never wrote its port file"; exit 1; }
    sleep 0.1
done
addr=$(cat target/ci-chaos/port)
# The daemon aborts (SIGKILL-equivalent) at the second rule boundary;
# the client's submission fails, but the admission and two rules'
# checkpoints are already on disk.
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --key ci-chaos-1 >/dev/null 2>&1 || true
wait "$serve_pid" 2>/dev/null || true
[ -f target/ci-chaos/ckpt/odrc-jobs.bin ] \
    || { echo "killed daemon left no job journal"; exit 1; }
rm -f target/ci-chaos/port
./target/release/odrc serve --addr 127.0.0.1:0 --workers 2 --host-threads 2 \
    --cache target/ci-chaos/cache --checkpoint-dir target/ci-chaos/ckpt \
    --port-file target/ci-chaos/port >/dev/null 2>&1 &
serve_pid=$!
tries=0
while [ ! -s target/ci-chaos/port ]; do
    tries=$((tries + 1))
    [ "$tries" -le 100 ] || { echo "restarted daemon never wrote its port file"; exit 1; }
    sleep 0.1
done
addr=$(cat target/ci-chaos/port)
status=0
./target/release/odrc client target/ci-serve/uart.gds \
    --rules target/ci-resume/beol.rules --addr "$addr" \
    --key ci-chaos-1 --retries 5 --backoff-ms 100 \
    --report target/ci-chaos/resumed.csv --stats-json target/ci-chaos/resumed.json \
    >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from resubmitted key, got $status"; exit 1; }
cmp target/ci-chaos/oneshot.csv target/ci-chaos/resumed.csv \
    || { echo "post-crash report differs from the one-shot run"; exit 1; }
if grep -q '"rules_resumed":0[,}]' target/ci-chaos/resumed.json; then
    echo "restarted daemon resumed no rules from the checkpoint"
    exit 1
fi
kill -TERM "$serve_pid"
wait "$serve_pid" || { echo "restarted daemon did not drain cleanly"; exit 1; }

echo "== out-of-core smoke (scaled chip, quarter-RSS budget, worker kill + resume)"
# Out-of-core checking end to end at the CLI level on a multi-million-
# polygon chip generated on demand (never checked in): the unbudgeted
# in-core run's observed peak-RSS sets a shard budget of one quarter of
# it, which must force LRU eviction; then the same check runs across
# two crash-isolated shard worker processes with worker 0 chaos-killed
# mid-rule — it must be re-admitted and resume from its (rule, shard)
# journal. Both out-of-core reports must be byte-identical to the
# in-core run. (The budget bounds shard-scene residency; whole-process
# RSS additionally carries the layout itself, so the smoke asserts
# eviction pressure, not an absolute RSS ceiling.)
rm -rf target/ci-ooc
mkdir -p target/ci-ooc
./target/release/odrc-genlayout jpeg target/ci-ooc/chip.gds --scale 20
cat > target/ci-ooc/ooc.rules <<'EOF'
space layer=19 min=18 name=M1.S.1
space layer=19 min=36 projection=100 name=M1.S.2
space layer=20 min=20 name=M2.S.1
enclosure inner=30 outer=19 min=4 name=V1.M1.EN.1
enclosure inner=31 outer=20 min=6 name=V2.M2.EN.1
EOF
status=0
./target/release/odrc target/ci-ooc/chip.gds --rules target/ci-ooc/ooc.rules \
    --report target/ci-ooc/incore.csv --stats-json target/ci-ooc/incore.json \
    --max-print 0 >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from in-core run, got $status"; exit 1; }
peak=$(sed -n 's/.*"peak_rss_bytes": \([0-9][0-9]*\).*/\1/p' target/ci-ooc/incore.json)
[ -n "$peak" ] || { echo "in-core run recorded no peak_rss_bytes"; exit 1; }
budget=$((peak / 4))
status=0
./target/release/odrc target/ci-ooc/chip.gds --rules target/ci-ooc/ooc.rules \
    --memory-budget "$budget" \
    --report target/ci-ooc/budgeted.csv --stats-json target/ci-ooc/budgeted.json \
    --max-print 0 >/dev/null 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from budgeted run, got $status"; exit 1; }
if grep -q '"shards_evicted": 0,' target/ci-ooc/budgeted.json; then
    echo "quarter-RSS budget ($budget bytes) forced no shard eviction"
    exit 1
fi
cmp target/ci-ooc/incore.csv target/ci-ooc/budgeted.csv \
    || { echo "budgeted report differs from the in-core run"; exit 1; }
status=0
./target/release/odrc target/ci-ooc/chip.gds --rules target/ci-ooc/ooc.rules \
    --memory-budget "$budget" --shard-workers 2 --chaos-kill-at-shard 5 \
    --report target/ci-ooc/workers.csv --stats-json target/ci-ooc/workers.json \
    --max-print 0 >target/ci-ooc/workers.log 2>&1 || status=$?
[ "$status" -eq 1 ] || { echo "expected exit 1 from shard-worker run, got $status"; exit 1; }
grep -q "re-admitting" target/ci-ooc/workers.log \
    || { echo "chaos-killed shard worker was never re-admitted"; exit 1; }
if grep -q '"shards_resumed": 0,' target/ci-ooc/workers.json; then
    echo "re-admitted worker resumed no shards from its journal"
    exit 1
fi
cmp target/ci-ooc/incore.csv target/ci-ooc/workers.csv \
    || { echo "post-kill shard-worker report differs from the in-core run"; exit 1; }

echo "== ci.sh: all green"
