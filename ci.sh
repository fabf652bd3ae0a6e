#!/bin/sh
# Local mirror of .github/workflows/ci.yml — run before pushing.
#
#   ./ci.sh        tier-1: build, the default (smoke) test suite, clippy
#   ./ci.sh full   additionally runs every #[ignore]d heavyweight test:
#                  the full differential matrix, the metamorphic sweep,
#                  the incremental-vs-recompute IVM matrix, the
#                  exhaustive crash-point sweeps (every mutating fs op
#                  × three unsynced-byte fates, with and without
#                  maintained views), and any other long-running suites
#                  (~ a few minutes)
#
# The smoke suite already includes the strided crash sweep
# (tests/crash_recovery.rs, AIO_CRASH_STRIDE=3), corruption fuzzing and
# the WAL property tests.
set -eux

mode="${1:-smoke}"

cargo build --release --workspace
case "$mode" in
full)
    cargo test -q --workspace -- --include-ignored
    ;;
smoke)
    cargo test -q --workspace
    ;;
*)
    echo "usage: $0 [full]" >&2
    exit 2
    ;;
esac
cargo clippy --workspace --all-targets -- -D warnings

# trace smoke: EXPLAIN ANALYZE must print an annotated plan and emit
# schema-valid JSONL (the binary validates and prints "jsonl schema: OK").
repro_bin="$(pwd)/target/release/repro"
trace_dir="$(mktemp -d)"
(cd "$trace_dir" && "$repro_bin" explain pagerank) |
    tee "$trace_dir/explain.out"
grep -q "jsonl schema: OK" "$trace_dir/explain.out"
test -s "$trace_dir/TRACE_pagerank.jsonl"
test -s "$trace_dir/TRACE_pagerank.json"
rm -rf "$trace_dir"

# optimizer smoke: the cost-based A/B must run, agree across levels
# (asserted inside the binary) and emit a non-empty BENCH_optimizer.json.
# The equivalence suite itself is part of the default `cargo test` above.
opt_dir="$(mktemp -d)"
(cd "$opt_dir" && "$repro_bin" optimizer --scale 0.01) |
    tee "$opt_dir/optimizer.out"
grep -q "optimizer=cost" "$opt_dir/optimizer.out"
test -s "$opt_dir/BENCH_optimizer.json"
rm -rf "$opt_dir"

# durability smoke: WAL + fsync A/B at reduced scale plus recovery replay
# throughput. The overhead percentage is only meaningful at full scale
# (tiny runs are noise-dominated), so smoke checks the experiment runs and
# the recovery bar holds; `./ci.sh full` enforces both bars at 1M edges.
dur_dir="$(mktemp -d)"
(cd "$dur_dir" && "$repro_bin" durability --scale 0.02) |
    tee "$dur_dir/durability.out"
test -s "$dur_dir/BENCH_durability.json"
grep -q "≥10k records/s bar: PASS" "$dur_dir/durability.out"
rm -rf "$dur_dir"

# columnar smoke: the row vs batch A/B must run at reduced scale with
# identical results in both modes (asserted inside the binary) and emit a
# well-formed BENCH_columnar.json. The batch-vs-everything differential
# smoke (tests/columnar_equivalence.rs) is part of the default `cargo
# test` above; the ≥2x speedup bar is only meaningful at full scale and
# is enforced by `./ci.sh full`.
col_dir="$(mktemp -d)"
(cd "$col_dir" && "$repro_bin" columnar --scale 0.02) |
    tee "$col_dir/columnar.out"
grep -q "speedup" "$col_dir/columnar.out"
test -s "$col_dir/BENCH_columnar.json"
grep -q '"experiment": "columnar"' "$col_dir/BENCH_columnar.json"
grep -q '"verdict"' "$col_dir/BENCH_columnar.json"
rm -rf "$col_dir"

# wcoj smoke: binary vs worst-case-optimal multiway join A/B at reduced
# scale with identical results in both engines (asserted inside the
# binary, which also asserts the cost optimizer picks MultiwayJoin) and a
# well-formed BENCH_wcoj.json. The pattern differential matrix
# (tests/wcoj_equivalence.rs) is part of the default `cargo test` above;
# the ≥5x triangle speedup bar is only meaningful at full scale and is
# enforced by `./ci.sh full`.
wcoj_dir="$(mktemp -d)"
(cd "$wcoj_dir" && "$repro_bin" wcoj --scale 0.02) |
    tee "$wcoj_dir/wcoj.out"
grep -q "speedup" "$wcoj_dir/wcoj.out"
test -s "$wcoj_dir/BENCH_wcoj.json"
grep -q '"experiment": "wcoj"' "$wcoj_dir/BENCH_wcoj.json"
grep -q '"verdict"' "$wcoj_dir/BENCH_wcoj.json"
rm -rf "$wcoj_dir"

# mvcc smoke: the snapshot-isolation A/B must run at reduced scale with
# identical answers on the serial, COW and every-reader-fleet arm
# (asserted inside the binary) and emit a well-formed BENCH_mvcc.json.
# The interleaving sweep (tests/mvcc_isolation.rs) and the sessions
# differential matrix are part of the default `cargo test` above; the
# ≤15% COW-overhead and starvation-freedom bars are enforced at full
# scale by `./ci.sh full`.
mvcc_dir="$(mktemp -d)"
(cd "$mvcc_dir" && "$repro_bin" mvcc --scale 0.02) |
    tee "$mvcc_dir/mvcc.out"
grep -q "pinned readers" "$mvcc_dir/mvcc.out"
test -s "$mvcc_dir/BENCH_mvcc.json"
grep -q '"experiment": "mvcc"' "$mvcc_dir/BENCH_mvcc.json"
grep -q '"overhead_verdict"' "$mvcc_dir/BENCH_mvcc.json"
grep -q '"starvation_verdict"' "$mvcc_dir/BENCH_mvcc.json"
rm -rf "$mvcc_dir"

# incremental smoke: the view-maintenance A/B must run at reduced scale,
# take the frontier (wcc) and re-converge (pagerank) paths with answers
# equal to the cold recompute (asserted inside the binary), and emit a
# well-formed BENCH_incremental.json. The incremental-vs-recompute
# differential suite (tests/ivm_differential.rs) and the strided IVM
# crash sweep are part of the default `cargo test` above; the ≥5x / ≥2x
# refresh-speedup bars are only meaningful at full scale and are
# enforced by `./ci.sh full`.
ivm_dir="$(mktemp -d)"
(cd "$ivm_dir" && "$repro_bin" incremental --scale 0.02) |
    tee "$ivm_dir/incremental.out"
grep -q "frontier" "$ivm_dir/incremental.out"
grep -q "reconverge" "$ivm_dir/incremental.out"
grep -q "speedup" "$ivm_dir/incremental.out"
test -s "$ivm_dir/BENCH_incremental.json"
grep -q '"experiment": "incremental"' "$ivm_dir/BENCH_incremental.json"
grep -q '"verdict"' "$ivm_dir/BENCH_incremental.json"
rm -rf "$ivm_dir"

# metrics smoke: the metrics layer must export valid Prometheus
# exposition + JSON and the engine must be able to query its own
# aio_metrics / aio_query_log system tables (all asserted inside the
# binary). The differential suite (tests/metrics_system_tables.rs) is
# part of the default `cargo test` above; the ≤2% enabled-overhead bar
# is only meaningful at full scale and is enforced by `./ci.sh full`.
met_dir="$(mktemp -d)"
(cd "$met_dir" && "$repro_bin" metrics --scale 0.2) |
    tee "$met_dir/metrics.out"
grep -q "prometheus exposition: OK" "$met_dir/metrics.out"
grep -q "json export: OK" "$met_dir/metrics.out"
grep -q "self-query:" "$met_dir/metrics.out"
test -s "$met_dir/METRICS.prom"
test -s "$met_dir/METRICS.json"
grep -q "# TYPE aio_" "$met_dir/METRICS.prom"
rm -rf "$met_dir"

if [ "$mode" = full ]; then
    # zero-cost-when-disabled bar: <2% overhead on a ~1M-edge hash join
    # (writes BENCH_trace_overhead.json; the binary prints the verdict).
    overhead_out="$(cargo run --release -p aio-bench --bin repro -- trace_overhead)"
    echo "$overhead_out"
    echo "$overhead_out" | grep -q "bar: PASS"

    # durability bars at full scale: WAL overhead ≤25% on the 1M-edge
    # load + PageRank, recovery ≥10k records/s (BENCH_durability.json).
    dur_out="$(cargo run --release -p aio-bench --bin repro -- durability)"
    echo "$dur_out"
    echo "$dur_out" | grep -q "≤25% bar: PASS"
    echo "$dur_out" | grep -q "≥10k records/s bar: PASS"

    # columnar bar at full scale: ≥2x single-core speedup on at least one
    # of join / group-by / PageRank (BENCH_columnar.json).
    col_out="$(cargo run --release -p aio-bench --bin repro -- columnar)"
    echo "$col_out"
    echo "$col_out" | grep -q "≥2x bar: PASS"

    # wcoj bar at full scale: ≥5x triangle-counting speedup over the
    # binary-join plan on the 1M-edge power-law graph (BENCH_wcoj.json).
    wcoj_out="$(cargo run --release -p aio-bench --bin repro -- wcoj)"
    echo "$wcoj_out"
    echo "$wcoj_out" | grep -q "≥5x bar: PASS"

    # metrics bar at full scale: ≤2% overhead with metrics *enabled* on
    # the 1M-edge hash join (BENCH_metrics_overhead.json).
    met_out="$(cargo run --release -p aio-bench --bin repro -- metrics_overhead)"
    echo "$met_out"
    echo "$met_out" | grep -q "<2% bar: PASS"
    test -s BENCH_metrics_overhead.json

    # mvcc bars at full scale: ≤15% copy-on-write writer overhead vs the
    # serial baseline on the 1M-edge PageRank, and starvation-freedom for
    # every fleet of {1, 4, 16} pinned readers (BENCH_mvcc.json).
    mvcc_out="$(cargo run --release -p aio-bench --bin repro -- mvcc)"
    echo "$mvcc_out"
    echo "$mvcc_out" | grep -q "≤15% bar: PASS"
    echo "$mvcc_out" | grep -q "starvation-freedom bar: PASS"
    test -s BENCH_mvcc.json

    # incremental bars at full scale: a 1k-edge insert batch on the
    # 1M-edge power-law graph refreshes the WCC view ≥5x faster than a
    # cold rebuild and re-converges the PageRank view ≥2x faster
    # (BENCH_incremental.json).
    ivm_out="$(cargo run --release -p aio-bench --bin repro -- incremental)"
    echo "$ivm_out"
    echo "$ivm_out" | grep -q ">=5x: PASS"
    echo "$ivm_out" | grep -q ">=2x: PASS"
    test -s BENCH_incremental.json
fi

# benchmark self-test (~3 s): at a tiny size, every planted engine fault
# must be caught by the benchmark's answer checks and every disarmed run
# must be clean, so an engine change that breaks those checks, or blinds
# their fault detection, fails here. It runs last so that a failure here
# never hides the bars above.
cargo run --release --offline --manifest-path perfbench/Cargo.toml -- --selftest
