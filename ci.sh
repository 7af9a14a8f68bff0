#!/usr/bin/env bash
# Hermetic CI pipeline: every step runs with --offline against an empty
# cargo registry (the workspace has no external dependencies by design —
# see README "Offline builds"). Run locally with ./ci.sh.
#
# The pipeline is split into four groups so the GitHub workflow can run
# them as parallel jobs; with no argument every group runs in order:
#
#   ./ci.sh lint        # fmt, clippy, netcrafter-lint (+ fixture corpus)
#   ./ci.sh build-test  # release build, bench check, workspace tests
#   ./ci.sh figures     # figure/trace/scheduler/checkpoint equivalence,
#                       # scheduler microbench, perf-regression gate
#   ./ci.sh topology    # scale-out fabrics: fat-tree-8/torus-8 smoke
#                       # sweeps, event-vs-legacy scheduler + checkpoint
#                       # equivalence, topology perf gate
#   ./ci.sh sweep       # prefix-sharing sweeps: cold vs shared byte
#                       # diff under both schedulers, sweep perf
#                       # gate (hit ratio), wall-clock speedup floor
#   ./ci.sh paper       # paper-scale golden check: exec cycles of eight
#                       # fig14 cells vs ci/paper_golden.txt
#   ./ci.sh all         # everything (default)
#
# Artifacts (fig14 trace + time series, checkpoint snapshot, fresh bench
# report) are left in $CI_ARTIFACT_DIR (default: ./ci-artifacts) for the
# workflow to upload. When $GITHUB_STEP_SUMMARY is set, per-step wall
# times are appended to it as a markdown table.
set -euo pipefail
cd "$(dirname "$0")"

mode=${1:-all}
case "$mode" in
    lint | build-test | figures | topology | sweep | paper | all) ;;
    *)
        echo "usage: ./ci.sh [lint|build-test|figures|topology|sweep|paper|all]" >&2
        exit 2
        ;;
esac

artifact_dir=${CI_ARTIFACT_DIR:-ci-artifacts}
mkdir -p "$artifact_dir"

seq_err=$(mktemp)
par_err=$(mktemp)
cache_dir=$(mktemp -d)
ckpt_dir=$(mktemp -d)
trap 'rm -rf "$cache_dir" "$ckpt_dir"; rm -f "$seq_err" "$par_err"' EXIT

if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
    {
        echo ""
        echo "### ci.sh $mode step timing"
        echo ""
        echo "| step | seconds |"
        echo "| --- | --- |"
    } >>"$GITHUB_STEP_SUMMARY"
fi

# Runs one named step (a function below), echoing it and recording its
# wall time in the GitHub step summary when available.
run_step() {
    local name="$1"
    shift
    echo "==> $name"
    local t0=$SECONDS
    "$@"
    local dt=$((SECONDS - t0))
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        echo "| $name | $dt |" >>"$GITHUB_STEP_SUMMARY"
    fi
}

step_fmt() {
    cargo fmt --check
}

# Beyond the default warn set, a curated subset of pedantic lints is
# denied (kept small on purpose: each one either hardens determinism
# reasoning or removes a class of silent fallback). `clippy::unwrap_used`
# is enforced through crate-root `#![warn(...)]` attributes in every
# sim-facing crate (tests are exempt via cfg_attr), which -D warnings
# turns into errors here.
step_clippy() {
    cargo clippy --workspace --all-targets --offline -- -D warnings \
        -D clippy::explicit_iter_loop \
        -D clippy::semicolon_if_nothing_returned \
        -D clippy::redundant_closure_for_method_calls \
        -D clippy::map_unwrap_or \
        -D clippy::cloned_instead_of_copied
}

# The in-tree linter must pass the workspace with zero unwaived findings;
# the JSON report and the regenerated field inventory are kept as CI
# artifacts. The workspace pass runs against the committed field-inventory
# baseline (activating snapshot-version-bump), and the freshly emitted
# inventory must be byte-identical to the committed one — a stale baseline
# fails here even if no rule fired. Each known-bad fixture must keep
# failing (nonzero exit) so a linter regression cannot silently turn the
# workspace pass into a no-op; fixtures with a `.baseline.json` companion
# are run against it.
step_netcrafter_lint() {
    local t0=$SECONDS
    cargo run --offline -q -p netcrafter-lint -- --jobs 4 \
        --baseline ci/lint-field-inventory.json \
        --report "$artifact_dir/lint-report.json" \
        --emit-inventory "$artifact_dir/lint-field-inventory.json"
    if ! cmp -s ci/lint-field-inventory.json "$artifact_dir/lint-field-inventory.json"; then
        echo "FAIL: ci/lint-field-inventory.json is stale — regenerate with" >&2
        echo "  cargo run -p netcrafter-lint -- --jobs 4 --emit-inventory ci/lint-field-inventory.json" >&2
        exit 1
    fi
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        echo "| netcrafter-lint workspace pass (--jobs 4) | $((SECONDS - t0)) |" >>"$GITHUB_STEP_SUMMARY"
    fi
    local bad baseline_args
    for bad in crates/lint/tests/fixtures/bad_*.rs; do
        baseline_args=()
        if [[ -f "${bad%.rs}.baseline.json" ]]; then
            baseline_args=(--baseline "${bad%.rs}.baseline.json")
        fi
        if cargo run --offline -q -p netcrafter-lint -- --as-crate net \
            "${baseline_args[@]}" "$bad" >/dev/null; then
            echo "FAIL: netcrafter-lint passed known-bad fixture $bad" >&2
            exit 1
        fi
    done
}

step_build_release() {
    cargo build --release --offline
}

step_check_benches() {
    cargo check --offline -p netcrafter-bench --benches --features criterion-bench
}

step_test_workspace() {
    cargo test -q --workspace --offline
}

step_figures_smoke() {
    if ! seq_out=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick fig14 2>"$seq_err"); then
        echo "FAIL: sequential figures run failed:" >&2
        cat "$seq_err" >&2
        exit 1
    fi
    if ! par_out=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick fig14 --jobs 4 2>"$par_err"); then
        echo "FAIL: parallel figures run failed:" >&2
        cat "$par_err" >&2
        exit 1
    fi
    if [[ "$seq_out" != "$par_out" ]]; then
        echo "FAIL: parallel figure output differs from sequential" >&2
        diff <(echo "$seq_out") <(echo "$par_out") >&2 || true
        echo "--- sequential stderr ---" >&2
        cat "$seq_err" >&2
        echo "--- parallel stderr ---" >&2
        cat "$par_err" >&2
        exit 1
    fi
}

# A cache filled by one run must fully satisfy an identical re-run.
step_figures_cache() {
    cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick fig14 --jobs 4 --cache-dir "$cache_dir" >/dev/null 2>&1
    local warm_stderr
    warm_stderr=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick fig14 --jobs 4 --cache-dir "$cache_dir" 2>&1 >/dev/null)
    if ! grep -q "0 simulated" <<<"$warm_stderr"; then
        echo "FAIL: warm cache re-simulated configurations:" >&2
        echo "$warm_stderr" >&2
        exit 1
    fi
}

step_trace_determinism() {
    cargo run --release --offline -q -p netcrafter-bench --bin simulate -- \
        --workload GUPS --variant netcrafter --cus 2 --scale tiny \
        --trace "$artifact_dir/trace-a.json" \
        --timeseries "$artifact_dir/timeseries-a.jsonl" >/dev/null
    cargo run --release --offline -q -p netcrafter-bench --bin simulate -- \
        --workload GUPS --variant netcrafter --cus 2 --scale tiny \
        --trace "$artifact_dir/trace-b.json" \
        --timeseries "$artifact_dir/timeseries-b.jsonl" >/dev/null
    if ! cmp -s "$artifact_dir/trace-a.json" "$artifact_dir/trace-b.json"; then
        echo "FAIL: event traces of identical runs differ" >&2
        cmp "$artifact_dir/trace-a.json" "$artifact_dir/trace-b.json" >&2 || true
        exit 1
    fi
    if ! cmp -s "$artifact_dir/timeseries-a.jsonl" "$artifact_dir/timeseries-b.jsonl"; then
        echo "FAIL: time series of identical runs differ" >&2
        cmp "$artifact_dir/timeseries-a.jsonl" "$artifact_dir/timeseries-b.jsonl" >&2 || true
        exit 1
    fi
    mv "$artifact_dir/trace-a.json" "$artifact_dir/fig14-trace.json"
    mv "$artifact_dir/timeseries-a.jsonl" "$artifact_dir/fig14-timeseries.jsonl"
    rm -f "$artifact_dir/trace-b.json" "$artifact_dir/timeseries-b.jsonl"
}

# The event-driven scheduler is a pure host-speed optimisation: the fig14
# matrix, the event trace and the time series must be bit-identical to
# the Legacy tick-everything referee.
step_scheduler_equivalence() {
    local legacy_out
    if ! legacy_out=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick fig14 --legacy-scheduler 2>"$seq_err"); then
        echo "FAIL: legacy-scheduler figures run failed:" >&2
        cat "$seq_err" >&2
        exit 1
    fi
    if [[ "$seq_out" != "$legacy_out" ]]; then
        echo "FAIL: legacy-scheduler figure output differs from event-driven" >&2
        diff <(echo "$seq_out") <(echo "$legacy_out") >&2 || true
        exit 1
    fi
    cargo run --release --offline -q -p netcrafter-bench --bin simulate -- \
        --workload GUPS --variant netcrafter --cus 2 --scale tiny \
        --legacy-scheduler \
        --trace "$artifact_dir/trace-legacy.json" \
        --timeseries "$artifact_dir/timeseries-legacy.jsonl" >/dev/null
    if ! cmp -s "$artifact_dir/fig14-trace.json" "$artifact_dir/trace-legacy.json"; then
        echo "FAIL: legacy-scheduler event trace differs from event-driven" >&2
        cmp "$artifact_dir/fig14-trace.json" "$artifact_dir/trace-legacy.json" >&2 || true
        exit 1
    fi
    if ! cmp -s "$artifact_dir/fig14-timeseries.jsonl" "$artifact_dir/timeseries-legacy.jsonl"; then
        echo "FAIL: legacy-scheduler time series differs from event-driven" >&2
        cmp "$artifact_dir/fig14-timeseries.jsonl" "$artifact_dir/timeseries-legacy.jsonl" >&2 || true
        exit 1
    fi
    rm -f "$artifact_dir/trace-legacy.json" "$artifact_dir/timeseries-legacy.jsonl"
}

# Checkpoint → restore → continue must be byte-identical to the
# uninterrupted run: metrics dump, event trace and time series alike,
# with the snapshot taken at the cold run's midpoint and the restored
# half replayed under both schedulers (a snapshot is scheduler-
# portable by design). The snapshot itself is kept as a CI artifact
# under the name given as $1; any further arguments (e.g. --topology)
# are appended to every simulate invocation.
step_checkpoint_equivalence() {
    local artifact_name="$1"
    shift
    rm -rf "$ckpt_dir/snaps"
    local base=(--workload GUPS --variant netcrafter --cus 2 --scale tiny "$@")
    local sim=(cargo run --release --offline -q -p netcrafter-bench --bin simulate --)
    "${sim[@]}" "${base[@]}" \
        --trace "$ckpt_dir/cold-trace.json" \
        --timeseries "$ckpt_dir/cold-ts.jsonl" \
        --dump-metrics >"$ckpt_dir/cold.txt"
    local cycles mid
    cycles=$(awk -F': *' '/^execution cycles/ {print $2}' "$ckpt_dir/cold.txt")
    if [[ -z "$cycles" || "$cycles" -lt 2 ]]; then
        echo "FAIL: cannot read execution cycles from the cold run" >&2
        exit 1
    fi
    mid=$((cycles / 2))
    "${sim[@]}" "${base[@]}" \
        --checkpoint-at "$mid" --checkpoint-dir "$ckpt_dir/snaps" \
        --trace "$ckpt_dir/mid-trace.json" \
        --timeseries "$ckpt_dir/mid-ts.jsonl" \
        --dump-metrics >"$ckpt_dir/mid.txt"
    if ! diff "$ckpt_dir/cold.txt" "$ckpt_dir/mid.txt" >&2 ||
        ! cmp -s "$ckpt_dir/cold-trace.json" "$ckpt_dir/mid-trace.json" ||
        ! cmp -s "$ckpt_dir/cold-ts.jsonl" "$ckpt_dir/mid-ts.jsonl"; then
        echo "FAIL: pausing at cycle $mid to checkpoint perturbed the run" >&2
        exit 1
    fi
    local snap
    snap=$(echo "$ckpt_dir"/snaps/ckpt-*.bin)
    if [[ ! -f "$snap" ]]; then
        echo "FAIL: --checkpoint-at $mid wrote no snapshot" >&2
        exit 1
    fi
    cp "$snap" "$artifact_dir/$artifact_name"
    local sched
    for sched in "" "--legacy-scheduler"; do
        local tag="event"
        [[ -n "$sched" ]] && tag="${sched#--}"
        # shellcheck disable=SC2086  # an empty $sched must vanish
        "${sim[@]}" "${base[@]}" $sched \
            --restore-from "$snap" \
            --trace "$ckpt_dir/warm-trace.json" \
            --timeseries "$ckpt_dir/warm-ts.jsonl" \
            --dump-metrics >"$ckpt_dir/warm.txt" 2>"$ckpt_dir/warm.err"
        if ! grep -q "simulated from cycle $mid" "$ckpt_dir/warm.err"; then
            echo "FAIL ($tag): restored run did not resume from cycle $mid:" >&2
            cat "$ckpt_dir/warm.err" >&2
            exit 1
        fi
        if ! diff "$ckpt_dir/cold.txt" "$ckpt_dir/warm.txt" >&2; then
            echo "FAIL ($tag): restored metrics differ from the uninterrupted run" >&2
            exit 1
        fi
        if ! cmp -s "$ckpt_dir/cold-trace.json" "$ckpt_dir/warm-trace.json"; then
            echo "FAIL ($tag): restored event trace differs from the uninterrupted run" >&2
            cmp "$ckpt_dir/cold-trace.json" "$ckpt_dir/warm-trace.json" >&2 || true
            exit 1
        fi
        if ! cmp -s "$ckpt_dir/cold-ts.jsonl" "$ckpt_dir/warm-ts.jsonl"; then
            echo "FAIL ($tag): restored time series differs from the uninterrupted run" >&2
            cmp "$ckpt_dir/cold-ts.jsonl" "$ckpt_dir/warm-ts.jsonl" >&2 || true
            exit 1
        fi
    done
}

# Informational (never gated — CI hosts vary): the idle-heavy/dense
# legacy-vs-event numbers land next to the other
# artifacts so a PR's claimed speedups can be checked against CI metal.
step_scheduler_microbench() {
    cargo bench --offline -q -p netcrafter-bench --features criterion-bench \
        --bench engine_scheduler | tee "$artifact_dir/engine-scheduler-bench.txt"
}

step_perf_gate() {
    cargo run --release --offline -q -p netcrafter-bench --bin bench_gate -- \
        emit "$artifact_dir/BENCH_fig14.json" --jobs 4
    cargo run --release --offline -q -p netcrafter-bench --bin bench_gate -- \
        check ci/BENCH_fig14.baseline.json "$artifact_dir/BENCH_fig14.json"
}

# The topology sweep figure (mesh / fat-tree-8 / fat-tree-16 / torus-8 ×
# baseline/NetCrafter) must render identically sequential and on 4
# workers; the rendered table is kept as a CI artifact.
step_topology_figure() {
    if ! topo_out=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick topology 2>"$seq_err"); then
        echo "FAIL: topology figure run failed:" >&2
        cat "$seq_err" >&2
        exit 1
    fi
    local par_out
    if ! par_out=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick topology --jobs 4 2>"$par_err"); then
        echo "FAIL: parallel topology figure run failed:" >&2
        cat "$par_err" >&2
        exit 1
    fi
    if [[ "$topo_out" != "$par_out" ]]; then
        echo "FAIL: parallel topology figure output differs from sequential" >&2
        diff <(echo "$topo_out") <(echo "$par_out") >&2 || true
        exit 1
    fi
    printf '%s\n' "$topo_out" >"$artifact_dir/topology-figure.txt"
}

# Multi-hop routing is deterministic: the topology figure and a traced
# fat-tree-8/torus-8 simulate run must be byte-identical under the
# event-driven scheduler and the Legacy referee.
step_topology_scheduler_equivalence() {
    local out
    if ! out=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick topology --legacy-scheduler 2>"$seq_err"); then
        echo "FAIL: legacy-scheduler topology figure run failed:" >&2
        cat "$seq_err" >&2
        exit 1
    fi
    if [[ "$topo_out" != "$out" ]]; then
        echo "FAIL: legacy-scheduler topology figure output differs from event-driven" >&2
        diff <(echo "$topo_out") <(echo "$out") >&2 || true
        exit 1
    fi
    local spec fabric
    for spec in fat-tree:k=4 torus:2x2x2; do
        fabric=${spec%%:*}
        local ref_trace="$artifact_dir/topology-$fabric-trace.json"
        local ref_ts="$artifact_dir/topology-$fabric-timeseries.jsonl"
        cargo run --release --offline -q -p netcrafter-bench --bin simulate -- \
            --topology "$spec" --workload GUPS --variant netcrafter --cus 2 --scale tiny \
            --trace "$ref_trace" --timeseries "$ref_ts" >/dev/null
        cargo run --release --offline -q -p netcrafter-bench --bin simulate -- \
            --topology "$spec" --workload GUPS --variant netcrafter --cus 2 --scale tiny \
            --legacy-scheduler \
            --trace "$ckpt_dir/alt-trace.json" \
            --timeseries "$ckpt_dir/alt-ts.jsonl" >/dev/null
        if ! cmp -s "$ref_trace" "$ckpt_dir/alt-trace.json"; then
            echo "FAIL ($spec): legacy-scheduler event trace differs from event-driven" >&2
            cmp "$ref_trace" "$ckpt_dir/alt-trace.json" >&2 || true
            exit 1
        fi
        if ! cmp -s "$ref_ts" "$ckpt_dir/alt-ts.jsonl"; then
            echo "FAIL ($spec): legacy-scheduler time series differs from event-driven" >&2
            cmp "$ref_ts" "$ckpt_dir/alt-ts.jsonl" >&2 || true
            exit 1
        fi
    done
}

# Prefix sharing is a pure host-speed optimisation: a warmup-window
# fig14 sweep resolved through in-memory snapshot forks must render
# byte-identically to the cold (--no-prefix-share) sweep, under both the
# event-driven scheduler and the Legacy referee.
step_sweep_equivalence() {
    local warmup=2800 cold_out shared_out sched
    if ! cold_out=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
        --quick fig14 --warmup "$warmup" --no-prefix-share 2>"$seq_err"); then
        echo "FAIL: cold warmup-window figures run failed:" >&2
        cat "$seq_err" >&2
        exit 1
    fi
    for sched in "" "--legacy-scheduler"; do
        local tag="event"
        [[ -n "$sched" ]] && tag="${sched#--}"
        # shellcheck disable=SC2086  # an empty $sched must vanish
        if ! shared_out=$(cargo run --release --offline -q -p netcrafter-bench --bin figures -- \
            --quick fig14 --warmup "$warmup" --jobs 4 $sched 2>"$par_err"); then
            echo "FAIL ($tag): prefix-shared figures run failed:" >&2
            cat "$par_err" >&2
            exit 1
        fi
        if [[ "$cold_out" != "$shared_out" ]]; then
            echo "FAIL ($tag): prefix-shared figure output differs from cold" >&2
            diff <(echo "$cold_out") <(echo "$shared_out") >&2 || true
            echo "--- prefix-shared stderr ---" >&2
            cat "$par_err" >&2
            exit 1
        fi
        if ! grep -q "prefix-hit ratio" "$par_err"; then
            echo "FAIL ($tag): prefix-shared sweep reported no prefix stats:" >&2
            cat "$par_err" >&2
            exit 1
        fi
    done
}

# The sweep matrix's exec cycles and its deterministic prefix-hit ratio
# are hard-gated against the committed baseline; the measured hit ratio
# also lands in the step summary.
step_sweep_perf_gate() {
    cargo run --release --offline -q -p netcrafter-bench --bin bench_gate -- \
        emit "$artifact_dir/BENCH_sweep.json" --matrix sweep --jobs 4
    cargo run --release --offline -q -p netcrafter-bench --bin bench_gate -- \
        check ci/BENCH_sweep.baseline.json "$artifact_dir/BENCH_sweep.json"
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        local ratio
        ratio=$(grep -o '"prefix_hit_ratio": [0-9.]*' "$artifact_dir/BENCH_sweep.json" | awk '{print $2}')
        echo "| sweep prefix-hit ratio | ${ratio:-?} |" >>"$GITHUB_STEP_SUMMARY"
    fi
}

# Wall-clock win of prefix sharing on the 30-job sweep matrix. The
# numbers always land in the artifacts; the 1.5x floor at --jobs 4 is
# only enforced when the host really has >= 4 cores (a 1-core container
# measures worker oversubscription, not the tree).
step_sweep_speedup() {
    cargo bench --offline -q -p netcrafter-bench --features criterion-bench \
        --bench sweep_prefix | tee "$artifact_dir/sweep-prefix-bench.txt"
    local cores speedup
    cores=$(nproc)
    speedup=$(awk '/jobs4/ { for (i = 1; i < NF; i++) if ($i == "speedup") print $(i + 1) }' \
        "$artifact_dir/sweep-prefix-bench.txt" | tr -d 'x')
    if [[ -z "$speedup" ]]; then
        echo "FAIL: cannot parse the jobs4 speedup from the sweep_prefix bench" >&2
        exit 1
    fi
    if [[ -n "${GITHUB_STEP_SUMMARY:-}" ]]; then
        echo "| sweep prefix-share speedup (--jobs 4, $cores cores) | ${speedup}x |" >>"$GITHUB_STEP_SUMMARY"
    fi
    if ((cores >= 4)); then
        if awk -v s="$speedup" 'BEGIN { exit !(s < 1.5) }'; then
            echo "FAIL: prefix-shared sweep speedup ${speedup}x < 1.5x on a $cores-core host" >&2
            exit 1
        fi
    else
        echo "note: $cores core(s) < 4 — recording sweep speedup, skipping the 1.5x floor"
    fi
}

step_topology_perf_gate() {
    cargo run --release --offline -q -p netcrafter-bench --bin bench_gate -- \
        emit "$artifact_dir/BENCH_topology.json" --matrix topology --jobs 4
    cargo run --release --offline -q -p netcrafter-bench --bin bench_gate -- \
        check ci/BENCH_topology.baseline.json "$artifact_dir/BENCH_topology.json"
}

# The committed baselines above pin tiny and quick scale; this pins the
# regime the paper's evaluation runs in. Each cell's full metrics dump is
# kept as an artifact so a mismatch can be attributed.
step_paper_golden() {
    local dumps="$artifact_dir/paper-golden" got="" workload variant cycles
    mkdir -p "$dumps"
    for workload in GUPS SPMV PR MT; do
        for variant in baseline netcrafter; do
            cargo run --release --offline -q -p netcrafter-bench --bin simulate -- \
                --workload "$workload" --variant "$variant" --scale paper \
                --dump-metrics >"$dumps/$workload-$variant.txt"
            cycles=$(awk -F': *' '/^execution cycles/ {print $2}' "$dumps/$workload-$variant.txt")
            got+="$workload $variant $cycles"$'\n'
        done
    done
    if ! diff <(grep -v '^#' ci/paper_golden.txt) <(printf '%s' "$got") >&2; then
        echo "FAIL: paper-scale execution cycles differ from ci/paper_golden.txt" >&2
        exit 1
    fi
}

if [[ "$mode" == lint || "$mode" == all ]]; then
    run_step "cargo fmt --check" step_fmt
    run_step "cargo clippy --workspace --all-targets -- -D warnings + curated pedantic subset" step_clippy
    run_step "netcrafter-lint: determinism & invariant static analysis" step_netcrafter_lint
fi

if [[ "$mode" == build-test || "$mode" == all ]]; then
    run_step "cargo build --release --offline" step_build_release
    run_step "cargo check benches (criterion-bench feature)" step_check_benches
    run_step "cargo test -q --workspace" step_test_workspace
fi

if [[ "$mode" == figures || "$mode" == all ]]; then
    run_step "figures smoke run: --quick fig14, sequential vs 4 workers" step_figures_smoke
    run_step "figures cache smoke run: warm cache must re-simulate nothing" step_figures_cache
    run_step "trace determinism: two identical --trace runs must be byte-identical" step_trace_determinism
    run_step "scheduler equivalence: event-driven vs --legacy-scheduler" step_scheduler_equivalence
    run_step "checkpoint equivalence: uninterrupted vs midpoint checkpoint + restore" step_checkpoint_equivalence fig14-checkpoint.bin
    run_step "scheduler microbench: speedup numbers kept as a CI artifact" step_scheduler_microbench
    run_step "perf-regression gate: fig14 headline numbers vs committed baseline" step_perf_gate
fi

if [[ "$mode" == topology || "$mode" == all ]]; then
    run_step "topology figure: --quick topology, sequential vs 4 workers" step_topology_figure
    run_step "topology scheduler equivalence: fat-tree-8 & torus-8, event-driven vs --legacy-scheduler" step_topology_scheduler_equivalence
    run_step "topology checkpoint equivalence: fat-tree-8 midpoint checkpoint + restore" step_checkpoint_equivalence topology-checkpoint.bin --topology fat-tree:k=4
    run_step "perf-regression gate: topology matrix vs committed baseline" step_topology_perf_gate
fi

if [[ "$mode" == sweep || "$mode" == all ]]; then
    run_step "sweep equivalence: cold vs prefix-shared fig14, event-driven and --legacy-scheduler" step_sweep_equivalence
    run_step "perf-regression gate: sweep matrix + prefix-hit ratio vs committed baseline" step_sweep_perf_gate
    run_step "sweep speedup: prefix-sharing wall-clock floor" step_sweep_speedup
fi

if [[ "$mode" == paper || "$mode" == all ]]; then
    run_step "paper-scale golden check: exec cycles of eight fig14 cells" step_paper_golden
fi

echo "CI OK ($mode)"
