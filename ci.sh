#!/usr/bin/env bash
# Repo CI gate: build, the whole workspace's tests under a timeout (some
# involve real threads and real files, so a deadlock would otherwise hang
# the pipeline), lints, and the gates that drive the built binaries.
set -euo pipefail
cd "$(dirname "$0")"

# One exit handler for the whole script: every background process is
# appended to PIDS when it starts and every temp dir to DIRS when it is
# made. `reap` waits for jobs and forgets them, so the handler never
# signals a pid the shell has already collected; `reap_server` is `reap`
# with a bound, for the kv_server processes.
PIDS=()
DIRS=()
cleanup() {
    local pid
    for pid in "${PIDS[@]}"; do
        # A timed background run is a subshell; take its child with it.
        pkill -P "$pid" 2>/dev/null || true
        kill "$pid" 2>/dev/null || true
    done
    rm -rf "${DIRS[@]}"
}
trap cleanup EXIT
reap() {
    local pid keep=()
    for pid in "$@"; do wait "$pid"; done
    for pid in "${PIDS[@]}"; do
        [[ " $* " == *" $pid "* ]] || keep+=("$pid")
    done
    PIDS=("${keep[@]}")
}
# `reap` for kv_server processes that have been told to go (a Shutdown
# ack, a kill): a server whose drain deadlocks fails the gate, named,
# instead of hanging the pipeline on a bare `wait`.
reap_server() {
    local gate="$1" pid waited; shift
    for pid in "$@"; do
        waited=0
        while kill -0 "$pid" 2>/dev/null; do
            if (( waited >= 300 )); then
                echo "$gate: kv_server (pid $pid) has not exited 30 s after it was told to"
                exit 1
            fi
            sleep 0.1; waited=$((waited + 1))
        done
    done
    reap "$@"
}

echo "==> cargo build --release --workspace"
# --workspace: the gates below run db_bench, kv_server and repro, which a
# root-package build alone leaves stale.
cargo build --release --workspace

echo "==> cargo test -q --workspace (every crate's unit, integration and doc tests; 900s timeout)"
# One run covers the suites the gates below used to pick out by name:
# the real-thread concurrency, shard, memtable and crash-recovery stress
# tests (a deadlock there would otherwise hang the pipeline), the stats,
# TTL, checkpoint, read-accounting, live-tuning and server protocol tests.
timeout 900 cargo test -q --workspace

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings (every intra-doc link resolves, nothing public links a private item)"
RUSTDOCFLAGS='-D warnings' cargo doc --no-deps --workspace

echo "==> house rules: non-test lines under crates/*/src, allocations per get, scanned entry and built entry"
# The number every PR reports the delta of, computed one way: each file
# cut at its first #[cfg(test)], the rule crates/lsm/tests/retired.rs
# applies to the sources it scans. Printed, not gated.
find crates/*/src -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { lines++ }
    END { print "non-test lines under crates/*/src: " lines }'
# And the allocation figures PRs report, as their tests (already run and
# gated above) print them: warm and cold gets and the scan (ROADMAP 3(b)),
# flush and merge (the table build).
cargo test -q -p lsm-kvs --test get_allocs --test scan_cost --test build_allocs -- --nocapture 2>&1 \
    | grep -E 'allocations over .* gets|allocations per (scanned entry|entry)' || true

echo "==> sharding gate: --shards 1 must be byte-identical to no flag"
./target/release/db_bench --benchmarks fillrandom --num 20000 > /tmp/ci-noshard.txt
./target/release/db_bench --benchmarks fillrandom --num 20000 --shards 1 > /tmp/ci-shard1.txt
diff /tmp/ci-noshard.txt /tmp/ci-shard1.txt
rm -f /tmp/ci-noshard.txt /tmp/ci-shard1.txt
echo "==> sharding gate: four shards on the virtual clock must match their golden"
./target/release/db_bench --benchmarks fillrandom,readrandom --num 20000 --shards 4 \
    | diff results/golden/db_bench_shards4_20000.txt -

echo "==> crash-recovery gate: 25 wall-clock power-cut cycles (120s timeout)"
CRASH_DIR="$(mktemp -d)"; DIRS+=("$CRASH_DIR")
timeout 120 ./target/release/db_bench --crash-loop 25 --db "$CRASH_DIR"

echo "==> serving gate: kv_server end-to-end (remote bench, stats RPC, clean shutdown)"
SERVE_DIR="$(mktemp -d)"; DIRS+=("$SERVE_DIR")
./target/release/kv_server --db "$SERVE_DIR" --listen 127.0.0.1:7491 &
SERVER_PID=$!; PIDS+=("$SERVER_PID")
sleep 1
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 5000 \
    --remote 127.0.0.1:7491 --threads 4 > /tmp/ci-remote.txt
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 5000 \
    --remote 127.0.0.1:7491 --threads 4 --stats_dump >> /tmp/ci-remote.txt
# Batched remote reads: MultiGet frames end-to-end against the live
# server, with the Stats RPC proving the engine's batched path ran.
timeout 120 ./target/release/db_bench --benchmarks multireadrandom --multiget_batch 32 \
    --num 5000 --remote 127.0.0.1:7491 --threads 2 --stats_dump >> /tmp/ci-remote.txt
grep -q "^fillrandom" /tmp/ci-remote.txt
grep -q "^readrandom" /tmp/ci-remote.txt
grep -q "^multireadrandom" /tmp/ci-remote.txt
grep -Eq "rocksdb.multiget_batches COUNT : [1-9]" /tmp/ci-remote.txt
grep -Eq "rocksdb.multiget_keys_read COUNT : [1-9]" /tmp/ci-remote.txt
grep -Eq "rocksdb.db.multiget.micros .* COUNT : [1-9]" /tmp/ci-remote.txt
# The Stats RPC must return a parseable dump: the engine's section plus
# the server's own counters.
grep -q "\*\* DB Stats \*\*" /tmp/ci-remote.txt
grep -q "\*\* Server Stats \*\*" /tmp/ci-remote.txt
grep -q "requests_ok" /tmp/ci-remote.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7491
reap_server "serving gate" "$SERVER_PID"
rm -f /tmp/ci-remote.txt

echo "==> live-retune gate: SetOptions mid-load, no reopen, tuned config survives restart"
RETUNE_DIR="$(mktemp -d)"; DIRS+=("$RETUNE_DIR")
./target/release/kv_server --db "$RETUNE_DIR" --listen 127.0.0.1:7492 --load-options-file &
RETUNE_PID=$!; PIDS+=("$RETUNE_PID")
sleep 1
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 20000 \
    --remote 127.0.0.1:7492 --threads 2 > /tmp/ci-retune-bench.txt &
BENCH_PID=$!; PIDS+=("$BENCH_PID")
timeout 30 ./target/release/kv_server --set-remote 127.0.0.1:7492 \
    --option max_background_jobs=6 --option level0_slowdown_writes_trigger=30 \
    > /tmp/ci-retune-set.txt
reap "$BENCH_PID"
grep -q "^fillrandom" /tmp/ci-retune-bench.txt
# The dump returned by --set-remote reflects the new values...
grep -q "max_background_jobs=6" /tmp/ci-retune-set.txt
# ...and so does a later independent dump from the still-running server.
timeout 30 ./target/release/kv_server --get-remote 127.0.0.1:7492 > /tmp/ci-retune-get.txt
grep -q "max_background_jobs=6" /tmp/ci-retune-get.txt
grep -q "level0_slowdown_writes_trigger=30" /tmp/ci-retune-get.txt
# An immutable option must be refused (all-or-nothing, server untouched).
if timeout 30 ./target/release/kv_server --set-remote 127.0.0.1:7492 \
    --option num_levels=3 > /dev/null 2>&1; then
    echo "immutable option was accepted over SetOptions"; exit 1
fi
# Zero protocol errors across the whole exchange.
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 1000 \
    --remote 127.0.0.1:7492 --stats_dump > /tmp/ci-retune-stats.txt
grep -q "protocol_errors: 0" /tmp/ci-retune-stats.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7492
reap_server "live-retune gate" "$RETUNE_PID"
# Restart over the same directory: --load-options-file must resume the
# tuned configuration from the persisted OPTIONS file.
./target/release/kv_server --db "$RETUNE_DIR" --listen 127.0.0.1:7492 --load-options-file &
RETUNE_PID=$!; PIDS+=("$RETUNE_PID")
sleep 1
timeout 30 ./target/release/kv_server --get-remote 127.0.0.1:7492 > /tmp/ci-retune-resume.txt
grep -q "max_background_jobs=6" /tmp/ci-retune-resume.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7492
reap_server "live-retune gate (restart)" "$RETUNE_PID"
rm -f /tmp/ci-retune-bench.txt /tmp/ci-retune-set.txt /tmp/ci-retune-get.txt \
      /tmp/ci-retune-stats.txt /tmp/ci-retune-resume.txt

echo "==> cluster gate: range routing, WAL-shipping replication, leader-kill failover"
CL_A="$(mktemp -d)"; CL_AR="$(mktemp -d)"; CL_B="$(mktemp -d)"
DIRS+=("$CL_A" "$CL_AR" "$CL_B")
./target/release/kv_server --db "$CL_A" --listen 127.0.0.1:7493 \
    --replica-listen 127.0.0.1:7495 &
CL_A_PID=$!; PIDS+=("$CL_A_PID")
./target/release/kv_server --db "$CL_AR" --listen 127.0.0.1:7494 \
    --follower-of 127.0.0.1:7495 &
CL_AR_PID=$!; PIDS+=("$CL_AR_PID")
./target/release/kv_server --db "$CL_B" --listen 127.0.0.1:7496 &
CL_B_PID=$!; PIDS+=("$CL_B_PID")
sleep 1
# Healthy fleet: fill both ranges and read them back through the
# range-routing client (replication riding along on range A).
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 20000 \
    --cluster '127.0.0.1:7493~127.0.0.1:7494,127.0.0.1:7496' --threads 4 \
    > /tmp/ci-cluster.txt
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 20000 \
    --cluster '127.0.0.1:7493~127.0.0.1:7494,127.0.0.1:7496' --threads 4 \
    >> /tmp/ci-cluster.txt
grep -q "^fillrandom" /tmp/ci-cluster.txt
grep -Eq "^readrandom.*\([0-9]+ of [0-9]+ found\)" /tmp/ci-cluster.txt
# Kill the range-A leader while a synced fill is mid-flight. The write
# that hits the dead node surfaces an honest error (so the bench may
# abort), but the cluster client promotes the follower on the way.
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 400000 \
    --cluster '127.0.0.1:7493~127.0.0.1:7494,127.0.0.1:7496' --threads 4 \
    > /tmp/ci-cluster-kill.txt 2>&1 &
CL_BENCH_PID=$!; PIDS+=("$CL_BENCH_PID")
sleep 2
kill -9 "$CL_A_PID"
reap_server "cluster gate (killed leader)" "$CL_A_PID" || true
reap "$CL_BENCH_PID" || true
# Failover read-back: the promoted follower now leads range A. This
# run only succeeds if it accepts writes (readrandom preloads), i.e.
# if the Promote actually happened.
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 20000 \
    --cluster '127.0.0.1:7494,127.0.0.1:7496' --threads 4 --stats_dump \
    > /tmp/ci-cluster-failover.txt
grep -Eq "^readrandom.*\([0-9]+ of [0-9]+ found\)" /tmp/ci-cluster-failover.txt
grep -q "\*\* Cluster: 2 nodes \*\*" /tmp/ci-cluster-failover.txt
# Zero protocol errors on every surviving node across the whole drill.
if grep -E "protocol_errors: [1-9]" /tmp/ci-cluster-failover.txt; then
    echo "cluster drill left protocol errors behind"; exit 1
fi
grep -q "protocol_errors: 0" /tmp/ci-cluster-failover.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7494
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7496
reap_server "cluster gate" "$CL_AR_PID" "$CL_B_PID"
rm -f /tmp/ci-cluster.txt /tmp/ci-cluster-kill.txt /tmp/ci-cluster-failover.txt

echo "==> YCSB gate: all six mixes in sim with per-op histograms, deterministic"
./target/release/db_bench --ycsb all --scale 0.002 > /tmp/ci-ycsb.txt
for m in a b c d e f; do grep -q "^ycsb_$m" /tmp/ci-ycsb.txt; done
grep -q "Microseconds per scan:" /tmp/ci-ycsb.txt
grep -q "Microseconds per read-modify-write:" /tmp/ci-ycsb.txt
./target/release/db_bench --ycsb a --scale 0.002 > /tmp/ci-ycsb-a2.txt
./target/release/db_bench --ycsb a --scale 0.002 | diff /tmp/ci-ycsb-a2.txt -
rm -f /tmp/ci-ycsb.txt /tmp/ci-ycsb-a2.txt

echo "==> YCSB gate: mix E against a live server (chunked scans over the wire)"
YCSB_DIR="$(mktemp -d)"; DIRS+=("$YCSB_DIR")
./target/release/kv_server --db "$YCSB_DIR" --listen 127.0.0.1:7498 &
YCSB_PID=$!; PIDS+=("$YCSB_PID")
sleep 1
timeout 120 ./target/release/db_bench --ycsb e --scale 0.001 \
    --remote 127.0.0.1:7498 --threads 2 --stats_dump > /tmp/ci-ycsb-remote.txt
grep -q "^ycsb_e" /tmp/ci-ycsb-remote.txt
grep -q "Microseconds per scan:" /tmp/ci-ycsb-remote.txt
grep -q "Microseconds per write:" /tmp/ci-ycsb-remote.txt
grep -q "protocol_errors: 0" /tmp/ci-ycsb-remote.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7498
reap_server "YCSB gate" "$YCSB_PID"
rm -f /tmp/ci-ycsb-remote.txt

echo "==> checkpoint gate: online backup/restore over RPC"
CKPT_DIR="$(mktemp -d)"; DIRS+=("$CKPT_DIR")
./target/release/kv_server --db "$CKPT_DIR" --listen 127.0.0.1:7499 &
CKPT_PID=$!; PIDS+=("$CKPT_PID")
sleep 1
# Checkpoint while a write stream is in flight, then restore by opening
# the checkpoint directory as a database of its own.
timeout 120 ./target/release/db_bench --benchmarks fillrandom --num 30000 \
    --remote 127.0.0.1:7499 --threads 2 --sync false > /dev/null &
CKPT_BENCH_PID=$!; PIDS+=("$CKPT_BENCH_PID")
sleep 1
timeout 30 ./target/release/kv_server --checkpoint-remote 127.0.0.1:7499 \
    --checkpoint-dir backups/ci-ckpt
reap "$CKPT_BENCH_PID"
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7499
reap_server "checkpoint gate" "$CKPT_PID"
test -f "$CKPT_DIR/backups/ci-ckpt/CURRENT"
./target/release/kv_server --db "$CKPT_DIR/backups/ci-ckpt" --listen 127.0.0.1:7499 &
CKPT_PID=$!; PIDS+=("$CKPT_PID")
sleep 1
timeout 120 ./target/release/db_bench --benchmarks readrandom --num 5000 \
    --remote 127.0.0.1:7499 --stats_dump > /tmp/ci-ckpt.txt
grep -Eq "^readrandom.*\(5000 of 5000 found\)" /tmp/ci-ckpt.txt
grep -q "protocol_errors: 0" /tmp/ci-ckpt.txt
timeout 30 ./target/release/kv_server --shutdown 127.0.0.1:7499
reap_server "checkpoint gate (restore)" "$CKPT_PID"
rm -f /tmp/ci-ckpt.txt

echo "==> golden gate: sim output must match results/golden (determinism and no drift at once)"
# A change that means to move sim output regenerates the golden with the
# same command, in the same commit, and says why.
./target/release/repro table5 | diff results/golden/table5.txt -
./target/release/db_bench --benchmarks fillrandom,readrandom --num 20000 \
    | diff results/golden/db_bench_fill_read_20000.txt -
./target/release/db_bench --ycsb all --scale 0.002 | diff results/golden/ycsb_all_0.002.txt -
# The paper reproduction at the one scale EXPERIMENTS.md reports, the
# default --scale 0.04: every "ours" number there comes from these two
# goldens (tests/experiments_doc.rs holds the doc to them). The two runs
# share nothing, so they run side by side: this gate adds 8 to 10 minutes
# on 2 vCPUs (`all` takes that long on its own, `ablate` 3.5 to 4.5). Each
# is timed, so every log shows where ROADMAP 3(a)'s "`repro all` under
# 5 min CPU" stands (user + sys of the `repro all` line).
REPRO_DIR="$(mktemp -d)"; DIRS+=("$REPRO_DIR")
( TIMEFORMAT='repro ablate: wall %0R s, user %0U s, sys %0S s'
  time ./target/release/repro ablate > "$REPRO_DIR/ablate.txt" ) &
ABLATE_PID=$!; PIDS+=("$ABLATE_PID")
# A subshell here too: `time` charges a command with every child its shell
# reaped meanwhile, and this shell reaps `ablate`.
( TIMEFORMAT='repro all: wall %0R s, user %0U s, sys %0S s'
  time ./target/release/repro all --out "$REPRO_DIR" | diff results/golden/repro_all.txt - )
for csv in results/*.csv; do diff "$csv" "$REPRO_DIR/$(basename "$csv")"; done
reap "$ABLATE_PID"
diff results/golden/repro_ablate.txt "$REPRO_DIR/ablate.txt"

echo "==> perf gate: the benchmark harness builds against the crates, passes its tests, smoke-runs"
# Read-only use: nothing under perf/ or BENCHMARK.json changes here.
cargo build --release --offline --manifest-path perf/Cargo.toml
timeout 600 cargo test --release --offline --manifest-path perf/Cargo.toml
timeout 300 ./perf/target/release/perf run --smoke

echo "CI OK"
