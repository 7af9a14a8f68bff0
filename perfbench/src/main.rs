//! Repository benchmark for the NetCrafter simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload gups-paper|mt-paper|sweep-quick|sweep-prefix|all[,...] \
//!     [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Each workload runs one untimed reference pass, then repeats timed
//! passes for `--seconds`. `--trace 0` reports the end-to-end metrics;
//! `--trace 1` adds traced passes and reports the per-layer metrics
//! (spans are written to `.perfbench/`). Every simulation's output is
//! checked; the last stdout line is a JSON summary, and the exit code
//! is 1 when any check failed. `all` runs the benchmark workloads;
//! `sweep-prefix` is a correctness check of prefix-sharing sweeps that
//! fails at the commit that added it. See `perfbench/README.md` for what
//! each workload and metric is for.

mod checks;
mod spans;
mod suite;
mod yardstick;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use netcrafter_multigpu::{JobSpec, RunResult, SystemVariant};
use netcrafter_proto::Metrics;

use spans::Spans;
use suite::{Kind, Outcome, BASE_SEED, POLLED_METRICS, SWEEP_WARMUP};
use yardstick::Yardstick;

const USAGE: &str =
    "usage: perfbench --workload <gups-paper|mt-paper|sweep-quick|sweep-prefix|all>[,...] \
                     [--seed N] [--seconds S] [--trace 0|1]";

/// Directory the traced run writes its spans to.
const SPANS_DIR: &str = ".perfbench";

struct Args {
    kinds: Vec<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut kinds = None;
    let mut args = Args {
        kinds: Vec::new(),
        seed: 0,
        seconds: 10,
        trace: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                kinds = Some(if v == "all" {
                    Kind::ALL.to_vec()
                } else {
                    v.split(',')
                        .map(|n| Kind::parse(n).ok_or(format!("unknown workload {n:?}")))
                        .collect::<Result<_, _>>()?
                });
            }
            "--seed" => args.seed = parse_num(&flag, &value()?)?,
            "--seconds" => args.seconds = parse_num(&flag, &value()?)?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    args.kinds = kinds.ok_or("--workload is required")?;
    Ok(args)
}

fn parse_num(flag: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("{flag} takes a whole number, not {v:?}"))
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    /// For a ratio: the metrics holding its numerator and denominator.
    base: Option<(&'static str, &'static str)>,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        base: None,
    }
}

fn ratio_metric(
    name: &'static str,
    num: f64,
    den: f64,
    unit: &'static str,
    base: (&'static str, &'static str),
) -> Metric {
    Metric {
        name,
        value: ratio(num, den),
        unit,
        base: Some(base),
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Simulations attempted and failed, with the reason for each failure.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
}

impl Tally {
    fn record(&mut self, job: &JobSpec, stage: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.problems.push(format!(
                "{} ({stage}): {}",
                job.memo_key(),
                problems.join("; ")
            ));
        }
    }

    /// Records each of `results` as one simulation that must reproduce
    /// the reference pass byte for byte, then drops the results.
    fn same_as(
        &mut self,
        jobs: &[JobSpec],
        reference: &Reference,
        results: Vec<Outcome>,
        stage: &str,
    ) {
        for ((job, want), got) in jobs.iter().zip(&reference.digests).zip(results) {
            let problems = match (want, got) {
                (_, None) => vec!["panicked or hit the watchdog".to_owned()],
                (Some(w), Some(g)) if *w == digest(&g) => Vec::new(),
                _ => vec![format!("result differs from {}", reference.label)],
            };
            self.record(job, stage, problems);
        }
    }
}

/// What the untimed reference pass fixed. Only digests and sums are
/// kept, so the results themselves do not stay on the heap while later
/// passes are timed.
struct Reference {
    /// What the reference results came from, for failure messages.
    label: &'static str,
    /// Per cell: digest of `RunResult::to_kv`, `None` if the cell failed.
    digests: Vec<Option<u64>>,
    /// Per cell: simulated exec cycles, `None` if the cell failed.
    exec_cycles: Vec<Option<u64>>,
    /// Every cell's metrics, summed.
    merged: Metrics,
}

fn digest(r: &RunResult) -> u64 {
    netcrafter_proto::fnv1a64(r.to_kv().as_bytes())
}

struct Report {
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
    tally: Tally,
    /// Per untraced pass: host seconds for the whole pass and for set-up.
    walls: Vec<f64>,
    setups: Vec<f64>,
    /// Factor that scales this run's host seconds to the reference host
    /// speed (see [`yardstick`]).
    to_reference: f64,
    traced_passes: usize,
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs`, interpolating linearly between ranks; 0 for
/// no samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = (v.len() - 1) as f64 * q;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

/// Peak resident set of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("peak RSS is read from /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("/proc/self/status has a VmHWM line");
    kb / 1024.0
}

/// Geomean over the pass's applications of Baseline ÷ NetCrafter exec
/// cycles (the paper's Figure 14 metric).
fn nc_speedup(jobs: &[JobSpec], exec_cycles: &[Option<u64>]) -> f64 {
    let exec = |v: SystemVariant, w| {
        jobs.iter()
            .zip(exec_cycles)
            .find(|(j, _)| j.variant == v && j.workload == w)
            .and_then(|(_, &e)| e)
            .map(|e| e as f64)
    };
    let speedups: Vec<f64> = jobs
        .iter()
        .filter(|j| j.variant == SystemVariant::NetCrafter)
        .filter_map(|j| {
            Some(
                exec(SystemVariant::Baseline, j.workload)?
                    / exec(SystemVariant::NetCrafter, j.workload)?,
            )
        })
        .collect();
    netcrafter_bench::geomean(&speedups)
}

fn measure(kind: Kind, args: &Args) -> Report {
    let workload_seed = BASE_SEED.wrapping_add(args.seed);
    let runner = kind.runner(workload_seed);
    let jobs = kind.jobs(&runner);
    let mut tally = Tally::default();

    // Untimed reference pass: warms the process up and fixes the
    // results every later pass must reproduce.
    let mut reference = Reference {
        label: if kind.shares_prefixes() {
            "the prefix-shared reference sweep"
        } else if kind.is_sweep() {
            "the reference sweep"
        } else {
            "the reference pass"
        },
        digests: Vec::with_capacity(jobs.len()),
        exec_cycles: Vec::with_capacity(jobs.len()),
        merged: Metrics::new(),
    };
    for (job, r) in jobs
        .iter()
        .zip(suite::untraced_pass(kind, workload_seed).results)
    {
        let problems = match &r {
            None => vec!["panicked or hit the watchdog".to_owned()],
            Some(r) => {
                let mut p = checks::counter_identities(job, r);
                if kind.is_sweep() && r.exec_cycles <= SWEEP_WARMUP {
                    p.push(format!(
                        "ended at cycle {} inside the {SWEEP_WARMUP}-cycle warmup window",
                        r.exec_cycles
                    ));
                }
                reference.merged.merge(&r.metrics);
                p
            }
        };
        tally.record(job, "reference pass", problems);
        reference.digests.push(r.as_deref().map(digest));
        reference.exec_cycles.push(r.map(|r| r.exec_cycles));
    }
    if kind.shares_prefixes() {
        let cold = kind.runner(workload_seed).with_prefix_share(false);
        let results = suite::sweep(&cold, &jobs);
        tally.same_as(
            &jobs,
            &reference,
            results,
            "cold sweep without prefix sharing",
        );
    }

    let yardstick = Yardstick::new();
    let mut yards = Vec::new();
    let mut walls = Vec::new();
    let mut setups = Vec::new();
    let mut traced = Vec::new();
    let mut spans = Spans::new();
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    loop {
        yards.push(yardstick.time());
        let pass = suite::untraced_pass(kind, workload_seed);
        walls.push(pass.wall_s);
        setups.push(pass.setup_s);
        tally.same_as(&jobs, &reference, pass.results, "untraced pass");
        if args.trace {
            let mut t = suite::traced_pass(kind, workload_seed, &reference.exec_cycles, &mut spans);
            tally.same_as(
                &jobs,
                &reference,
                std::mem::take(&mut t.results),
                "traced pass",
            );
            if kind.is_sweep() {
                let sweep_results = std::mem::take(&mut t.sweep_results);
                tally.same_as(&jobs, &reference, sweep_results, "traced sweep");
            }
            traced.push(t);
        }
        if Instant::now() >= deadline {
            break;
        }
    }

    let merged = &reference.merged;
    let cycles: u64 = reference.exec_cycles.iter().flatten().sum();
    let c = |k: &str| merged.counter(k) as f64;
    let to_reference = yardstick::REFERENCE_S / median(&yards);
    let wall = median(&walls) * to_reference;
    let end_to_end = vec![
        metric("wall_ref_s", wall, "s"),
        metric("setup_s", median(&setups) * to_reference, "s"),
        metric(
            "sim_insts_per_s",
            ratio(c("total.cu.instructions"), wall),
            "inst/s",
        ),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
        metric("nc_speedup", nc_speedup(&jobs, &reference.exec_cycles), "x"),
        metric(
            "ok_share",
            1.0 - ratio(tally.failed as f64, tally.attempted as f64),
            "fraction",
        ),
    ];

    let per_layer = if args.trace {
        if let Err(e) = write_spans(kind, args.seed, &spans) {
            eprintln!("perfbench: cannot write spans: {e}");
        }
        layer_metrics(merged, cycles as f64, &spans, &traced, &walls)
    } else {
        Vec::new()
    };
    Report {
        end_to_end,
        per_layer,
        tally,
        walls,
        setups,
        to_reference,
        traced_passes: traced.len(),
    }
}

fn write_spans(kind: Kind, seed: u64, spans: &Spans) -> std::io::Result<()> {
    std::fs::create_dir_all(SPANS_DIR)?;
    let path = format!("{SPANS_DIR}/spans-{}-seed{seed}.json", kind.name());
    std::fs::write(&path, spans.to_json(kind.name(), seed))?;
    eprintln!("perfbench: spans written to {path}");
    Ok(())
}

/// Per-layer metrics. Counts come from the reference pass (every pass
/// reproduces them exactly); host times are medians over traced passes.
fn layer_metrics(
    m: &Metrics,
    cycles: f64,
    spans: &Spans,
    traced: &[suite::Traced],
    walls: &[f64],
) -> Vec<Metric> {
    let c = |k: &str| m.counter(k) as f64;
    let secs = |name: &str| median(&spans.self_secs_by_pass(name));
    let last = traced
        .last()
        .expect("a traced run makes at least one traced pass");
    let prefix = last.prefix.unwrap_or_default();
    let generate = secs("workloads.generate");
    let build = secs("multigpu.build");
    let run = secs("multigpu.run");
    let harvest = secs("multigpu.harvest");
    let msgs = c("sys.messages");
    let walk = m.latency("total.gmmu.walk_latency");
    let inter_read = m.latency("total.cu.inter_cluster_read_latency");
    let lookups = c("total.l2tlb.hits") + c("total.l2tlb.misses");
    let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let untraced_wall = median(walls);

    let mut out = vec![
        metric("workloads.generate_s", generate, "s"),
        metric("workloads.mem_ops", last.mem_ops as f64, "count"),
        metric("multigpu.build_s", build, "s"),
        metric("multigpu.run_s", run, "s"),
        metric("multigpu.harvest_s", harvest, "s"),
        metric("multigpu.total_s", generate + build + run + harvest, "s"),
        ratio_metric(
            "multigpu.off_run_share",
            generate + build + harvest,
            generate + build + run + harvest,
            "fraction",
            (
                "workloads.generate_s+multigpu.build_s+multigpu.harvest_s",
                "multigpu.total_s",
            ),
        ),
        metric("sim.msgs", msgs, "count"),
        metric("sim.cycles", cycles, "count"),
        ratio_metric(
            "sim.ns_per_msg",
            run * 1e9,
            msgs,
            "ns",
            ("multigpu.run_s", "sim.msgs"),
        ),
        ratio_metric(
            "sim.ns_per_cycle",
            run * 1e9,
            cycles,
            "ns",
            ("multigpu.run_s", "sim.cycles"),
        ),
    ];
    for (name, n) in POLLED_METRICS.into_iter().zip(last.polled) {
        out.push(metric(name, n as f64, "count"));
    }
    out.extend([
        metric("sim.snapshot.save_s", secs("sim.snapshot.save"), "s"),
        metric("sim.snapshot.restore_s", secs("sim.snapshot.restore"), "s"),
        metric("sim.snapshot.bytes", last.snapshot_bytes as f64, "bytes"),
        metric("vm.gmmu_requests", c("total.gmmu.requests"), "count"),
        metric("vm.l2tlb_lookups", lookups, "count"),
        ratio_metric(
            "vm.l2tlb_lookups_per_req",
            lookups,
            c("total.gmmu.requests"),
            "ratio",
            ("vm.l2tlb_lookups", "vm.gmmu_requests"),
        ),
        metric("vm.walks", c("total.gmmu.walks"), "count"),
        ratio_metric(
            "vm.walks_per_req",
            c("total.gmmu.walks"),
            c("total.gmmu.requests"),
            "ratio",
            ("vm.walks", "vm.gmmu_requests"),
        ),
        metric("vm.walk_latency_sum", walk.sum as f64, "cycles"),
        metric("vm.walk_latency_samples", walk.count as f64, "count"),
        ratio_metric(
            "vm.walk_latency_mean",
            walk.sum as f64,
            walk.count as f64,
            "cycles",
            ("vm.walk_latency_sum", "vm.walk_latency_samples"),
        ),
        metric("gpu.cu_instructions", c("total.cu.instructions"), "count"),
        metric("gpu.cu_idle_cycles", c("total.cu.idle_cycles"), "cycles"),
        ratio_metric(
            "gpu.cu_idle_per_inst",
            c("total.cu.idle_cycles"),
            c("total.cu.instructions"),
            "cycles/inst",
            ("gpu.cu_idle_cycles", "gpu.cu_instructions"),
        ),
        metric(
            "gpu.inter_read_latency_sum",
            inter_read.sum as f64,
            "cycles",
        ),
        metric("gpu.inter_reads", inter_read.count as f64, "count"),
        ratio_metric(
            "gpu.inter_read_latency_mean",
            inter_read.sum as f64,
            inter_read.count as f64,
            "cycles",
            ("gpu.inter_read_latency_sum", "gpu.inter_reads"),
        ),
        metric(
            "gpu.rdma_wire_bytes",
            c("total.rdma.wire_bytes_out"),
            "bytes",
        ),
        metric("mem.l1_misses", c("total.l1.misses"), "count"),
        ratio_metric(
            "mem.l1_mpki",
            1000.0 * c("total.l1.misses"),
            c("total.cu.instructions"),
            "miss/kinst",
            ("mem.l1_misses", "gpu.cu_instructions"),
        ),
        metric("mem.l2_mshr_retries", c("total.l2.mshr_retries"), "count"),
        metric("mem.dram_reads", c("total.dram.reads"), "count"),
        metric("net.inter_flits", c("net.inter.flits"), "count"),
        metric(
            "net.inter_capacity_flits",
            c("net.inter.capacity_flits"),
            "count",
        ),
        ratio_metric(
            "net.inter_util",
            c("net.inter.flits"),
            c("net.inter.capacity_flits"),
            "fraction",
            ("net.inter_flits", "net.inter_capacity_flits"),
        ),
        metric("net.inter_ptw_bytes", c("net.inter.ptw_bytes"), "bytes"),
        metric("net.inter_data_bytes", c("net.inter.data_bytes"), "bytes"),
        ratio_metric(
            "net.ptw_byte_share",
            c("net.inter.ptw_bytes"),
            c("net.inter.ptw_bytes") + c("net.inter.data_bytes"),
            "fraction",
            (
                "net.inter_ptw_bytes",
                "net.inter_ptw_bytes+net.inter_data_bytes",
            ),
        ),
        metric("core.cq_pushed", c("net.inter.cq.pushed"), "count"),
        metric("core.cq_absorbed", c("net.inter.cq.absorbed"), "count"),
        ratio_metric(
            "core.cq_stitch_ratio",
            c("net.inter.cq.absorbed"),
            c("net.inter.cq.pushed"),
            "fraction",
            ("core.cq_absorbed", "core.cq_pushed"),
        ),
        metric(
            "core.cq_pool_events",
            c("net.inter.cq.pool_events"),
            "count",
        ),
        metric(
            "core.cq_pool_expired_unstitched",
            c("net.inter.cq.pool_expired_unstitched"),
            "count",
        ),
        ratio_metric(
            "core.cq_pool_expired_share",
            c("net.inter.cq.pool_expired_unstitched"),
            c("net.inter.cq.pool_events"),
            "fraction",
            ("core.cq_pool_expired_unstitched", "core.cq_pool_events"),
        ),
        metric("core.trim_considered", c("total.trim.considered"), "count"),
        metric("core.trim_trimmed", c("total.trim.trimmed"), "count"),
        ratio_metric(
            "core.trim_ratio",
            c("total.trim.trimmed"),
            c("total.trim.considered"),
            "fraction",
            ("core.trim_trimmed", "core.trim_considered"),
        ),
        metric("bench.sweep_s", secs("bench.sweep"), "s"),
        metric(
            "bench.simulated_jobs",
            prefix.simulated_jobs as f64,
            "count",
        ),
        metric("trace.traced_wall_s", traced_wall, "s"),
        metric("trace.untraced_wall_s", untraced_wall, "s"),
        metric("trace.overhead_s", traced_wall - untraced_wall, "s"),
    ]);
    out
}

fn print_table(title: &str, metrics: &[Metric]) {
    println!("  {title}:");
    for m in metrics {
        let base = m
            .base
            .map(|(n, d)| format!("  = {n} / {d}"))
            .unwrap_or_default();
        println!("    {:<34} {:>18.6} {:<12}{base}", m.name, m.value, m.unit);
    }
}

/// Quantiles of a per-pass timing, so the spread between passes is
/// visible.
fn print_spread(name: &str, xs: &[f64]) {
    let at = |q| quantile(xs, q);
    println!(
        "    {name} over {} passes: min {:.6} p10 {:.6} q1 {:.6} median {:.6} q3 {:.6} max {:.6}",
        xs.len(),
        at(0.0),
        at(0.1),
        at(0.25),
        at(0.5),
        at(0.75),
        at(1.0)
    );
}

fn json_metrics(out: &mut String, prefix: &str, metrics: &[Metric]) {
    for m in metrics {
        if !out.ends_with('{') {
            out.push_str(", ");
        }
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        write!(
            out,
            "\"{prefix}{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        )
        .expect("writing to a String cannot fail");
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut json = String::from("{");
    for &kind in &args.kinds {
        let t0 = Instant::now();
        let report = measure(kind, &args);
        println!(
            "== {} (seed {}, workload seed {:#x}): {} untraced + {} traced passes in {:.1} s ==",
            kind.name(),
            args.seed,
            BASE_SEED.wrapping_add(args.seed),
            report.walls.len(),
            report.traced_passes,
            t0.elapsed().as_secs_f64()
        );
        print_table("end to end (untraced passes)", &report.end_to_end);
        print_spread("pass wall s", &report.walls);
        print_spread("pass setup s", &report.setups);
        println!(
            "    host speed: yardstick {:.6} s against {} s at the reference speed; \
             end-to-end host times are scaled by {:.4}",
            yardstick::REFERENCE_S / report.to_reference,
            yardstick::REFERENCE_S,
            report.to_reference
        );
        if args.trace {
            print_table("per layer (traced passes)", &report.per_layer);
        }
        for p in &report.tally.problems {
            println!("  CHECK FAILED: {p}");
        }
        attempted += report.tally.attempted;
        failed += report.tally.failed;
        let prefix = if args.kinds.len() > 1 {
            format!("{}/", kind.name())
        } else {
            String::new()
        };
        let reported = if args.trace {
            &report.per_layer
        } else {
            &report.end_to_end
        };
        json_metrics(&mut json, &prefix, reported);
    }
    json.push('}');
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {json}}}"
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
