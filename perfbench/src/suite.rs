//! The benchmark's workloads and the two ways of running one pass of
//! them: untraced (timed end to end) and traced (every layer call timed
//! from outside, plus per-class wake polling counted cycle by cycle).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

use netcrafter_bench::{PrefixStats, Runner};
use netcrafter_multigpu::{JobSpec, RunResult, System, SystemVariant};
use netcrafter_sim::{ComponentId, Wake};
use netcrafter_workloads::Workload;

use crate::spans::Spans;

/// Workload seed at `--seed 0`: the seed `simulate` and `figures` use,
/// so `--seed 0` reproduces their numbers exactly.
pub const BASE_SEED: u64 = 0xC0FFEE;

/// Warmup window of the sweeps, in cycles. Every quick-scale job of
/// all 15 workloads is still running at this cycle (the shortest,
/// MT-Baseline, ends at ~2400), so with prefix sharing on each prefix
/// group's representative forks and its mates resume from the fork.
pub const SWEEP_WARMUP: u64 = 2_000;

/// Watchdogs: a paper-scale cell ends within ~80k cycles and a quick one
/// within ~8k; anything running 25-50x longer is livelocked.
const PAPER_WATCHDOG: u64 = 4_000_000;
const QUICK_WATCHDOG: u64 = 200_000;

/// The nine policy variants of `bench_gate --matrix sweep`; with
/// Baseline they form ten jobs per workload.
const SWEEP_VARIANTS: [SystemVariant; 9] = [
    SystemVariant::StitchOnly,
    SystemVariant::SeqOnly,
    SystemVariant::DataPrio,
    SystemVariant::StitchPool {
        window: 16,
        selective: true,
    },
    SystemVariant::StitchPool {
        window: 32,
        selective: true,
    },
    SystemVariant::StitchPool {
        window: 64,
        selective: true,
    },
    SystemVariant::StitchPool {
        window: 32,
        selective: false,
    },
    SystemVariant::StitchTrim,
    SystemVariant::NetCrafter,
];

/// Worker threads of the sweeps.
const SWEEP_WORKERS: usize = 2;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// GUPS x {Baseline, NetCrafter} at paper scale: GMMU retry polling
    /// dominates host time.
    GupsPaper,
    /// MT x {Baseline, NetCrafter} at paper scale: no TLB retry storm;
    /// CU stalls dominate host time.
    MtPaper,
    /// All 15 workloads x {Baseline + 9 policy variants} at quick scale
    /// through `Runner::sweep` on two workers, prefix sharing off.
    SweepQuick,
    /// The jobs of `SweepQuick` with prefix sharing on, checked against
    /// a cold sweep. Not a benchmark workload: at the commit that added
    /// it the two sweeps disagree (see `perfbench/README.md`), so it
    /// exists to show that defect and to prove its fix.
    SweepPrefix,
}

impl Kind {
    /// The benchmark workloads: those `BENCHMARK.json` lists and
    /// `--workload all` runs.
    pub const ALL: [Kind; 3] = [Kind::GupsPaper, Kind::MtPaper, Kind::SweepQuick];

    pub fn name(self) -> &'static str {
        match self {
            Kind::GupsPaper => "gups-paper",
            Kind::MtPaper => "mt-paper",
            Kind::SweepQuick => "sweep-quick",
            Kind::SweepPrefix => "sweep-prefix",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL
            .into_iter()
            .chain([Kind::SweepPrefix])
            .find(|k| k.name() == name)
    }

    pub fn is_sweep(self) -> bool {
        matches!(self, Kind::SweepQuick | Kind::SweepPrefix)
    }

    /// Whether the sweep resumes jobs from shared warmup forks.
    pub fn shares_prefixes(self) -> bool {
        self == Kind::SweepPrefix
    }

    /// A memo-cold runner for one pass.
    pub fn runner(self, workload_seed: u64) -> Runner {
        let mut r = match self {
            Kind::GupsPaper | Kind::MtPaper => {
                let mut r = Runner::paper();
                r.max_cycles = PAPER_WATCHDOG;
                r
            }
            Kind::SweepQuick | Kind::SweepPrefix => {
                let mut r = Runner::quick()
                    .with_jobs(SWEEP_WORKERS)
                    .with_prefix_share(self.shares_prefixes());
                r.base_cfg.netcrafter.warmup_cycles = SWEEP_WARMUP;
                r.max_cycles = QUICK_WATCHDOG;
                r
            }
        };
        r.seed = workload_seed;
        r
    }

    /// The pass's cells, Baseline first within each application.
    pub fn jobs(self, r: &Runner) -> Vec<JobSpec> {
        let pair = |w| {
            vec![
                r.job(w, SystemVariant::Baseline),
                r.job(w, SystemVariant::NetCrafter),
            ]
        };
        match self {
            Kind::GupsPaper => pair(Workload::Gups),
            Kind::MtPaper => pair(Workload::Mt),
            Kind::SweepQuick | Kind::SweepPrefix => Workload::ALL
                .into_iter()
                .flat_map(|w| {
                    std::iter::once(SystemVariant::Baseline)
                        .chain(SWEEP_VARIANTS)
                        .map(move |v| r.job(w, v))
                })
                .collect(),
        }
    }
}

/// A cell's result; `None` when the simulation panicked (a model
/// assertion or the watchdog).
pub type Outcome = Option<Arc<RunResult>>;

/// One untraced pass.
pub struct Pass {
    /// Host seconds for generate, build, run and harvest of every cell.
    pub wall_s: f64,
    /// Host seconds in `Workload::generate` + `System::build`.
    pub setup_s: f64,
    pub results: Vec<Outcome>,
}

/// Runs one untraced pass. Paper workloads make the layer calls
/// directly, cell after cell; the sweeps hand every cell to
/// `Runner::sweep` and then repeats each cell's generate + build once
/// outside the sweep, because the sweep hides those calls.
pub fn untraced_pass(kind: Kind, workload_seed: u64) -> Pass {
    let runner = kind.runner(workload_seed);
    let jobs = kind.jobs(&runner);
    if kind.is_sweep() {
        let t0 = Instant::now();
        let results = sweep(&runner, &jobs);
        let wall_s = t0.elapsed().as_secs_f64();
        let mut setup = Duration::ZERO;
        for job in &jobs {
            let t0 = Instant::now();
            let sys = build(job);
            setup += t0.elapsed();
            drop(sys);
        }
        return Pass {
            wall_s,
            setup_s: setup.as_secs_f64(),
            results,
        };
    }
    let mut setup = Duration::ZERO;
    let t0 = Instant::now();
    let results = jobs
        .iter()
        .map(|job| {
            guarded(|| {
                let t0 = Instant::now();
                let mut sys = build(job);
                setup += t0.elapsed();
                let exec_cycles = sys.run(job.max_cycles);
                RunResult {
                    exec_cycles,
                    metrics: sys.harvest(),
                }
            })
        })
        .collect();
    Pass {
        wall_s: t0.elapsed().as_secs_f64(),
        setup_s: setup.as_secs_f64(),
        results,
    }
}

/// Resolves `jobs` through `runner`'s sweep; a panic inside the sweep
/// fails every one of its jobs.
pub fn sweep(runner: &Runner, jobs: &[JobSpec]) -> Vec<Outcome> {
    match catch_unwind(AssertUnwindSafe(|| runner.sweep(jobs))) {
        Ok(results) => results.into_iter().map(Some).collect(),
        Err(_) => vec![None; jobs.len()],
    }
}

fn guarded(f: impl FnOnce() -> RunResult) -> Outcome {
    catch_unwind(AssertUnwindSafe(f)).ok().map(Arc::new)
}

/// Generate + build, exactly as `Experiment::run` does.
fn build(job: &JobSpec) -> System {
    let cfg = job.variant.apply(job.base_cfg);
    let kernel = job
        .workload
        .generate(&job.scale, cfg.total_gpus(), job.seed);
    System::build(cfg, &kernel)
}

/// Metric names of the component classes whose wake polling the traced
/// pass counts, in `Traced::polled` order.
pub const POLLED_METRICS: [&str; 6] = [
    "sim.polled.cu",
    "sim.polled.gmmu",
    "sim.polled.l2",
    "sim.polled.dram",
    "sim.polled.rdma",
    "sim.polled.switch",
];

/// One traced pass.
pub struct Traced {
    /// Host seconds for the whole traced pass.
    pub wall_s: f64,
    /// Per-cell results of the instrumented runs.
    pub results: Vec<Outcome>,
    /// Results of the traced sweep (sweeps only).
    pub sweep_results: Vec<Outcome>,
    pub prefix: Option<PrefixStats>,
    /// Component-cycles ending with `Wake::EveryCycle`, per class (see
    /// [`POLLED_METRICS`]).
    pub polled: [u64; 6],
    /// Memory operations generated.
    pub mem_ops: u64,
    /// Snapshot bytes saved (one snapshot per cell).
    pub snapshot_bytes: u64,
}

/// Runs one traced pass, recording a span around every layer call.
///
/// Each cell steps one cycle at a time with `Engine::step`, reading
/// every component's `next_wake` after each step (read-only, so the
/// scheduler sees no change), and pauses once to save a snapshot and
/// restore it onto the same system: at the warmup cycle on the sweeps,
/// half way through the reference run otherwise (`reference_cycles`
/// holds each cell's reference exec cycles). The sweeps first run the
/// same sweep as the untraced pass inside a `bench.sweep` span.
pub fn traced_pass(
    kind: Kind,
    workload_seed: u64,
    reference_cycles: &[Option<u64>],
    spans: &mut Spans,
) -> Traced {
    spans.next_pass();
    let runner = kind.runner(workload_seed);
    let jobs = kind.jobs(&runner);
    let t0 = Instant::now();
    let mut out = Traced {
        wall_s: 0.0,
        results: Vec::with_capacity(jobs.len()),
        sweep_results: Vec::new(),
        prefix: None,
        polled: [0; 6],
        mem_ops: 0,
        snapshot_bytes: 0,
    };
    if kind.is_sweep() {
        let s = spans.open("bench.sweep", None, None);
        out.sweep_results = sweep(&runner, &jobs);
        spans.close(s);
        out.prefix = Some(runner.prefix_stats());
    }
    for (cell, (job, reference)) in jobs.iter().zip(reference_cycles).enumerate() {
        let pause = match job.warmup_cycles() {
            0 => reference.map_or(0, |cycles| cycles / 2),
            w => w,
        };
        let result = guarded(|| traced_cell(job, cell, pause, spans, &mut out));
        out.results.push(result);
    }
    out.wall_s = t0.elapsed().as_secs_f64();
    out
}

fn traced_cell(
    job: &JobSpec,
    cell: usize,
    pause: u64,
    spans: &mut Spans,
    out: &mut Traced,
) -> RunResult {
    let cell = Some(cell);
    let top = spans.open("cell", None, cell);
    let s = spans.open("workloads.generate", Some(top), cell);
    let cfg = job.variant.apply(job.base_cfg);
    let kernel = job
        .workload
        .generate(&job.scale, cfg.total_gpus(), job.seed);
    spans.close(s);
    out.mem_ops += kernel.total_mem_ops() as u64;

    let s = spans.open("multigpu.build", Some(top), cell);
    let mut sys = System::build(cfg, &kernel);
    spans.close(s);

    let ids = &sys.ids;
    let classes: [Vec<ComponentId>; 6] = [
        ids.cus.iter().flatten().copied().collect(),
        ids.gmmus.clone(),
        ids.l2s.clone(),
        ids.drams.clone(),
        ids.rdmas.clone(),
        ids.switches.clone(),
    ];
    let run = spans.open("multigpu.run", Some(top), cell);
    step_until(&mut sys, pause, job.max_cycles, &classes, &mut out.polled);
    let s = spans.open("sim.snapshot.save", Some(run), cell);
    let bytes = sys.save_snapshot();
    spans.close(s);
    let s = spans.open("sim.snapshot.restore", Some(run), cell);
    sys.restore(&bytes)
        .expect("a snapshot restores onto the system that saved it");
    spans.close(s);
    out.snapshot_bytes += bytes.len() as u64;
    step_until(
        &mut sys,
        u64::MAX,
        job.max_cycles,
        &classes,
        &mut out.polled,
    );
    spans.close(run);

    let s = spans.open("multigpu.harvest", Some(top), cell);
    let metrics = sys.harvest();
    spans.close(s);
    spans.close(top);
    RunResult {
        exec_cycles: sys.engine.cycle(),
        metrics,
    }
}

/// Steps until quiescence or cycle `until`, whichever comes first,
/// counting per class the components that end each cycle armed
/// `Wake::EveryCycle`.
///
/// # Panics
///
/// Panics when the run passes `watchdog` cycles without quiescing, as
/// `System::run` does.
fn step_until(
    sys: &mut System,
    until: u64,
    watchdog: u64,
    classes: &[Vec<ComponentId>; 6],
    polled: &mut [u64; 6],
) {
    let engine = &mut sys.engine;
    while !engine.quiescent() && engine.cycle() < until {
        assert!(
            engine.cycle() < watchdog,
            "simulation did not quiesce within {watchdog} cycles"
        );
        engine.step();
        let now = engine.cycle();
        for (count, ids) in polled.iter_mut().zip(classes) {
            *count += ids
                .iter()
                .filter(|&&id| engine.component(id).next_wake(now) == Wake::EveryCycle)
                .count() as u64;
        }
    }
}
