#!/usr/bin/env bash
# The repository's CI gate: build, test, telemetry self-check, perf
# regression diff against the committed baselines, and lint the zoo
# corpus. Everything here is hermetic (no network, no extra tools
# beyond cargo + coreutils) and leaves the tree exactly as it found it.
#
# Usage:  ./ci.sh
# Env:    BDDFC_BENCH_THRESHOLD  max allowed median_ns growth in percent
#                                before bench_diff fails (default 100,
#                                i.e. 2x — the in-tree harness guards
#                                coarse regressions, and shared-runner
#                                medians over 10 iterations routinely
#                                swing tens of percent; tighten locally
#                                on quiet hardware).
#         BDDFC_SKIP_BENCH=1     skip the bench regression step (the
#                                slowest stage) for a quick pre-push run.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> cargo test --release --manifest-path benchmark/Cargo.toml (the benchmark builds and agrees with the library)"
cargo test --release --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo doc --no-deps --workspace (no broken intra-doc links)"
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" cargo doc --no-deps --workspace --offline

echo "==> cargo test --release --test overhead (Null-sink overhead guard; self-skips in debug)"
cargo test --release --offline --test overhead

echo "==> bddfc-prof --check (deterministic telemetry self-check)"
cargo run -q --release -p bddfc-bench --bin bddfc-prof -- --workload e13 --check

if [ "${BDDFC_SKIP_BENCH:-0}" != "1" ]; then
    echo "==> benches vs committed BENCH_*.json baselines"
    threshold="${BDDFC_BENCH_THRESHOLD:-100}"
    tmp=$(mktemp -d)
    targets="chase join rewrite types pipeline"
    # Put the committed baselines back however the step ends, a failing
    # bench or bench_diff included, so the gate leaves a clean tree.
    restore_baselines() {
        for t in $targets; do
            if [ -f "$tmp/BENCH_$t.baseline.json" ]; then
                cp "$tmp/BENCH_$t.baseline.json" "crates/bench/BENCH_$t.json"
            fi
        done
        rm -rf "$tmp"
    }
    trap restore_baselines EXIT
    for t in $targets; do
        cp "crates/bench/BENCH_$t.json" "$tmp/BENCH_$t.baseline.json"
    done
    # The bench binaries append fresh rows to the committed files (their
    # cwd under cargo is crates/bench/); bench_diff matches rows by
    # (name, threads) with last-occurrence-wins, so diffing the saved
    # baseline against the appended file compares old vs fresh.
    BDDFC_BENCH_JSON=1 cargo bench --workspace
    for t in $targets; do
        cargo run -q --release -p bddfc-bench --bin bench_diff -- \
            "$tmp/BENCH_$t.baseline.json" "crates/bench/BENCH_$t.json" \
            --threshold "$threshold"
    done
    restore_baselines
    trap - EXIT
else
    echo "==> benches skipped (BDDFC_SKIP_BENCH=1)"
fi

echo "==> bddfc-lint --zoo --deny error"
cargo run -q --release -p bddfc-lint --bin bddfc-lint -- --zoo --deny error

echo "==> bddfc-lint tests/corpus --deny-prefix B00 (corpus hygiene gate)"
cargo run -q --release -p bddfc-lint --bin bddfc-lint -- \
    tests/corpus/*.dlg --deny-prefix B00

echo "==> bddfc-analyze --zoo byte-identity across BDDFC_THREADS {1,2,7}"
atmp=$(mktemp -d)
for n in 1 2 7; do
    BDDFC_THREADS=$n cargo run -q --release -p bddfc-analyze --bin bddfc-analyze -- \
        --zoo --json > "$atmp/analyze.$n.json"
done
diff -u "$atmp/analyze.1.json" "$atmp/analyze.2.json"
diff -u "$atmp/analyze.1.json" "$atmp/analyze.7.json"
rm -rf "$atmp"

echo "==> bddfc-fuzz --replay tests/corpus (committed differential corpus)"
cargo run -q --release -p bddfc-fuzz --bin bddfc-fuzz -- --replay tests/corpus

echo "==> bddfc-fuzz --budget-ms 5000 (fresh-seed differential smoke)"
cargo run -q --release -p bddfc-fuzz --bin bddfc-fuzz -- --seed 1 --budget-ms 5000

echo "==> bddfc-fuzz join_kernel_vs_hom (join kernel rows vs hom oracle)"
cargo run -q --release -p bddfc-fuzz --bin bddfc-fuzz -- \
    --seed 1 --budget-ms 5000 --prop join_kernel_vs_hom

echo "==> bddfc-fuzz chase_vs_datalog_reference (chase fixpoint vs hom-only datalog reference)"
cargo run -q --release -p bddfc-fuzz --bin bddfc-fuzz -- \
    --seed 1 --budget-ms 5000 --prop chase_vs_datalog_reference

echo "==> bddfc-serve golden transcript (incremental service smoke)"
cargo run -q --release -p bddfc-serve --bin bddfc-serve -- tests/serve/session.dlg \
    < tests/serve/session.commands | diff -u tests/serve/session.golden -

echo "==> bddfc-serve --metrics-tcp scrape (Prometheus exposition smoke)"
# Drive the golden session through a live server over a fifo, scrape the
# metrics endpoint mid-session with bddfc-top (the only TCP client this
# gate needs), then quit and diff the transcript as usual. Only the
# bench step builds bddfc-top as a side effect, so build it here.
cargo build -q --release -p bddfc-bench --bin bddfc-top
mtmp=$(mktemp -d)
mkfifo "$mtmp/in"
./target/release/bddfc-serve tests/serve/session.dlg --metrics-tcp 0 \
    < "$mtmp/in" > "$mtmp/out" 2> "$mtmp/err" &
serve_pid=$!
exec 3> "$mtmp/in"
addr=""
for _ in $(seq 1 100); do
    addr=$(sed -n 's/^bddfc-serve: metrics on //p' "$mtmp/err")
    [ -n "$addr" ] && break
    sleep 0.1
done
[ -n "$addr" ] || { echo "ci: metrics endpoint never announced"; cat "$mtmp/err"; exit 1; }
grep -v '^quit$' tests/serve/session.commands >&3
scrape=""
for _ in $(seq 1 100); do
    scrape=$(./target/release/bddfc-top --addr "$addr" --raw)
    echo "$scrape" | grep -q 'bddfc_requests_total{command="query"} 3' && break
    sleep 0.1
done
echo "$scrape" | grep -q '^# TYPE bddfc_requests_total counter$' \
    || { echo "ci: scrape is missing its TYPE headers"; printf '%s\n' "$scrape"; exit 1; }
echo "$scrape" | grep -q 'bddfc_requests_total{command="query"} 3' \
    || { echo "ci: scrape never showed the session's request counters"; printf '%s\n' "$scrape"; exit 1; }
./target/release/bddfc-top --addr "$addr" --once | grep -q '^query ' \
    || { echo "ci: bddfc-top --once rendered no query row"; exit 1; }
echo quit >&3
exec 3>&-
wait "$serve_pid"
diff -u tests/serve/session.golden "$mtmp/out"
rm -rf "$mtmp"

echo "==> bddfc-fuzz serve_vs_scratch_chase (incremental serve vs from-scratch chase)"
cargo run -q --release -p bddfc-fuzz --bin bddfc-fuzz -- \
    --seed 1 --budget-ms 5000 --prop serve_vs_scratch_chase

echo "==> bddfc-fuzz dred_seeded_vs_full (seeded DRed re-derivation vs a full round)"
cargo run -q --release -p bddfc-fuzz --bin bddfc-fuzz -- \
    --seed 1 --budget-ms 5000 --prop dred_seeded_vs_full

echo "==> bddfc-fuzz static_bound_vs_observed_rounds (certificates vs the real chase)"
cargo run -q --release -p bddfc-fuzz --bin bddfc-fuzz -- \
    --seed 1 --budget-ms 5000 --prop static_bound_vs_observed_rounds

echo "ci: ok"
