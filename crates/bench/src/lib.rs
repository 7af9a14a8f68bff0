//! Benchmark harness: regenerates every table and figure of the
//! NetCrafter paper's evaluation (§5) from the simulator.
//!
//! * [`Runner`] — memoizing experiment executor (most figures share the
//!   per-workload baseline runs, so results are cached by configuration).
//! * [`Table`] — plain-text/markdown table renderer.
//! * [`figures`] — one generator per paper artifact (`table1`, `fig3` …
//!   `fig22`, `table3`), each returning a [`Table`] whose rows match the
//!   series the paper plots.
//! * [`cli`] — the strict flag parser every binary declares its flags in.
//!
//! The `figures` binary drives this library from the command line:
//!
//! ```text
//! cargo run -p netcrafter-bench --release --bin figures -- all
//! cargo run -p netcrafter-bench --release --bin figures -- fig14 fig18
//! cargo run -p netcrafter-bench --release --bin figures -- --quick fig3
//! cargo run -p netcrafter-bench --release --bin figures -- all --jobs 4 --cache-dir .figure-cache
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod cli;
pub mod figures;
pub mod microbench;
pub mod traceio;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use netcrafter_multigpu::{CheckpointPlan, JobSpec, RunResult, SystemVariant};
use netcrafter_proto::SystemConfig;
use netcrafter_sim::ForkSnapshot;
use netcrafter_workloads::{Scale, Workload};

pub use cache::{CheckpointStore, DiskCache};
pub use traceio::TraceArgs;

/// Geometric mean of strictly positive values (0.0 for an empty slice).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.max(1e-12).ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Arithmetic mean (0.0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A renderable result table.
#[derive(Debug, Clone)]
pub struct Table {
    /// Table caption, e.g. `"Figure 14: overall speedup"`.
    pub title: String,
    /// Column headers; the first column is the row label.
    pub header: Vec<String>,
    /// Row cells (first cell is the label).
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, header: Vec<&str>) -> Self {
        Self {
            title: title.into(),
            header: header.into_iter().map(str::to_owned).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells);
    }
}

/// Formats a ratio/speedup.
pub fn f2(x: f64) -> String {
    format!("{x:.2}")
}

/// Formats a percentage.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        writeln!(f, "### {}\n", self.title)?;
        let render = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, cell) in cells.iter().enumerate() {
                write!(f, " {cell:>w$} |", w = widths[i])?;
            }
            writeln!(f)
        };
        render(f, &self.header)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<w$}|", "", w = w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render(f, row)?;
        }
        Ok(())
    }
}

/// Where a job's result came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobSource {
    /// Simulated in this process from cycle 0 (possibly warm-started
    /// from a persistent checkpoint).
    Fresh,
    /// Simulated in this process from an in-memory prefix fork shared
    /// with other jobs of the same sweep.
    Forked,
    /// Replayed from the persistent on-disk cache.
    DiskHit,
    /// Aliased to another job of the same sweep batch with an identical
    /// physical identity ([`JobSpec::cache_key`]); no execution at all.
    Shared,
}

/// Wall-clock/throughput record for one resolved job (memo replays are
/// free and not recorded).
#[derive(Debug, Clone)]
pub struct JobStat {
    /// The job's memo key (`workload|variant|tag`).
    pub memo_key: String,
    /// Fresh simulation or disk-cache replay.
    pub source: JobSource,
    /// Time to resolve the job.
    pub wall: Duration,
    /// Simulated cycles of the resolved result.
    pub exec_cycles: u64,
    /// Cycle the simulation started stepping from: 0 for a cold run,
    /// the checkpoint's cycle after a warm start.
    pub resumed_at: u64,
}

impl JobStat {
    /// Simulation throughput in cycles per wall-clock second (0.0 for an
    /// instantaneous replay).
    pub fn cycles_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.exec_cycles as f64 / secs
        }
    }
}

/// Renders job stats as a human-readable report: one line per resolved
/// job plus a totals line (fresh vs disk-replayed, aggregate throughput).
pub fn stats_report(stats: &[JobStat]) -> String {
    let mut out = String::new();
    let mut fresh = 0usize;
    let mut forked = 0usize;
    let mut replayed = 0usize;
    let mut shared = 0usize;
    let mut total_wall = Duration::ZERO;
    let mut total_cycles = 0u64;
    for s in stats {
        let src = match s.source {
            JobSource::Fresh => "sim",
            JobSource::Forked => "fork",
            JobSource::DiskHit => "disk",
            JobSource::Shared => "dup",
        };
        let warm = if s.resumed_at > 0 {
            format!("  warm-start from cycle {}", s.resumed_at)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "  {:<40} {src:>4}  {:>9.1?}  {:>12} cyc  {:>7.1} Mcyc/s{warm}\n",
            s.memo_key,
            s.wall,
            s.exec_cycles,
            s.cycles_per_sec() / 1e6,
        ));
        match s.source {
            JobSource::Fresh | JobSource::Forked => {
                fresh += 1;
                if s.source == JobSource::Forked {
                    forked += 1;
                }
                total_wall += s.wall;
                total_cycles += s.exec_cycles;
            }
            JobSource::DiskHit => replayed += 1,
            JobSource::Shared => shared += 1,
        }
    }
    let rate = if total_wall.is_zero() {
        0.0
    } else {
        total_cycles as f64 / total_wall.as_secs_f64() / 1e6
    };
    out.push_str(&format!(
        "  {fresh} simulated ({total_cycles} cycles in {total_wall:.1?} cpu-time, \
         {rate:.1} Mcyc/s), {replayed} replayed from disk\n",
    ));
    if forked + shared > 0 {
        out.push_str(&format!(
            "  {forked} of the simulations resumed from an in-memory prefix fork, \
             {shared} duplicate job(s) shared one execution\n",
        ));
    }
    out
}

/// Counters describing how a [`Runner`]'s sweeps exploited shared work:
/// prefix groups, in-memory forks, duplicate aliasing, and the wall-clock
/// the sweeps took end to end. Retrieved via [`Runner::prefix_stats`];
/// all counters accumulate across every [`Runner::sweep`] call on the
/// runner.
#[derive(Debug, Clone, Copy, Default)]
pub struct PrefixStats {
    /// Prefix groups planned (two or more jobs sharing a warmup window).
    pub groups: usize,
    /// Representative runs that captured a shared fork in flight
    /// (≤ `groups`; a representative that produced no fork — e.g. it
    /// warm-started past the warmup cycle — leaves its group mates cold
    /// and still counts a group).
    pub prefix_runs: usize,
    /// Wall-clock of the fork-capturing representative runs (full runs,
    /// not just their warmup windows).
    pub prefix_wall: Duration,
    /// Jobs that resumed from an in-memory fork instead of cycle 0.
    pub forked_jobs: usize,
    /// Duplicate jobs (identical cache key) aliased to one execution.
    pub shared_jobs: usize,
    /// Fresh simulations executed (cold and forked alike).
    pub simulated_jobs: usize,
    /// Jobs requested across all sweeps (memo hits included).
    pub swept_jobs: usize,
    /// End-to-end wall-clock of all sweeps.
    pub sweep_wall: Duration,
}

impl PrefixStats {
    /// Fraction of fresh simulations that resumed from a shared prefix
    /// fork — the sweep matrix's prefix-hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        if self.simulated_jobs == 0 {
            0.0
        } else {
            self.forked_jobs as f64 / self.simulated_jobs as f64
        }
    }

    /// Jobs resolved per wall-clock second of sweeping.
    pub fn jobs_per_sec(&self) -> f64 {
        let secs = self.sweep_wall.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            self.swept_jobs as f64 / secs
        }
    }

    /// One-line footer for the `figures` stats report.
    pub fn report(&self) -> String {
        format!(
            "  sweep wall-clock {:.1?} ({:.1} jobs/s): {} prefix group(s), \
             {} fork-capturing representative(s) in {:.1?}, {} forked, {} deduped \
             (prefix-hit ratio {:.2})\n",
            self.sweep_wall,
            self.jobs_per_sec(),
            self.groups,
            self.prefix_runs,
            self.prefix_wall,
            self.forked_jobs,
            self.shared_jobs,
            self.hit_ratio(),
        )
    }
}

/// Memoizing experiment executor shared by all figure generators.
///
/// Results are resolved through three layers:
///
/// 1. an in-process memo (thread-safe; keyed by `workload|variant|tag`),
/// 2. an optional persistent [`DiskCache`] keyed by the *physical* job
///    identity ([`JobSpec::cache_key`]), so re-running `figures` only
///    simulates configurations it has never seen,
/// 3. a fresh simulation.
///
/// [`Runner::sweep`] resolves a batch of jobs on `jobs` worker threads.
/// Because every simulation is deterministic in its spec and results are
/// retrieved from the memo by key, figure output is bit-identical no
/// matter how many workers ran the sweep (or whether results came from
/// disk).
pub struct Runner {
    /// Base system configuration (before variant application).
    pub base_cfg: SystemConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Watchdog limit per simulation.
    pub max_cycles: u64,
    /// Print one progress line per fresh run to stderr.
    pub verbose: bool,
    /// Worker threads used by [`Runner::sweep`].
    pub jobs: usize,
    /// Group sweep jobs by [`JobSpec::prefix_key`] and execute each
    /// group's warmup window once, forking the paused state in memory to
    /// every member (the default). `false` runs every job from cycle 0 —
    /// results are byte-identical either way, so this is host-side
    /// tuning, not a simulation input.
    pub prefix_share: bool,
    memo: Mutex<HashMap<String, Arc<RunResult>>>,
    disk: Option<DiskCache>,
    ckpt: Option<CheckpointStore>,
    checkpoint_at: Option<u64>,
    stats: Mutex<Vec<JobStat>>,
    prefix: Mutex<PrefixStats>,
}

impl Runner {
    /// Full experiment configuration: 4 GPUs × 8 CUs, paper-scale
    /// workloads. A complete `figures all` pass takes minutes.
    pub fn paper() -> Self {
        Self::with_base(SystemConfig::small(8), Scale::paper())
    }

    /// Scaled-down configuration for smoke tests and the bench suites:
    /// 2 CUs per GPU, tiny workloads.
    pub fn quick() -> Self {
        Self::with_base(SystemConfig::small(2), Scale::tiny())
    }

    /// A runner over an arbitrary configuration and scale.
    pub fn with_base(base_cfg: SystemConfig, scale: Scale) -> Self {
        Self {
            base_cfg,
            scale,
            seed: 0xC0FFEE,
            max_cycles: 300_000_000,
            verbose: false,
            jobs: 1,
            prefix_share: true,
            memo: Mutex::new(HashMap::new()),
            disk: None,
            ckpt: None,
            checkpoint_at: None,
            stats: Mutex::new(Vec::new()),
            prefix: Mutex::new(PrefixStats::default()),
        }
    }

    /// Enables or disables prefix-sharing in [`Runner::sweep`] (on by
    /// default; results are byte-identical either way).
    pub fn with_prefix_share(mut self, on: bool) -> Self {
        self.prefix_share = on;
        self
    }

    /// Sets the worker-thread count for [`Runner::sweep`] (0 is treated
    /// as 1).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Attaches a persistent result cache rooted at `dir`.
    pub fn with_cache_dir(mut self, dir: impl Into<std::path::PathBuf>) -> std::io::Result<Self> {
        self.disk = Some(DiskCache::open(dir)?);
        Ok(self)
    }

    /// The attached disk cache, if any.
    pub fn disk_cache(&self) -> Option<&DiskCache> {
        self.disk.as_ref()
    }

    /// Attaches a snapshot store rooted at `dir`: fresh simulations
    /// warm-start from the longest cached prefix checkpoint of their
    /// physical cache key, and checkpoints requested via
    /// [`Runner::with_checkpoint_at`] are persisted there.
    pub fn with_checkpoint_dir(
        mut self,
        dir: impl Into<std::path::PathBuf>,
    ) -> std::io::Result<Self> {
        self.ckpt = Some(CheckpointStore::open(dir)?);
        Ok(self)
    }

    /// Requests a snapshot at `cycle` from every fresh simulation; stored
    /// in the checkpoint dir when one is attached.
    pub fn with_checkpoint_at(mut self, cycle: u64) -> Self {
        self.checkpoint_at = Some(cycle);
        self
    }

    /// The attached checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<&CheckpointStore> {
        self.ckpt.as_ref()
    }

    /// The job spec for `workload` × `variant` on the base config.
    pub fn job(&self, workload: Workload, variant: SystemVariant) -> JobSpec {
        self.job_with(workload, variant, self.base_cfg, "")
    }

    /// The job spec for an alternate base configuration; `tag` must
    /// uniquely name the alteration for the memo cache.
    pub fn job_with(
        &self,
        workload: Workload,
        variant: SystemVariant,
        base_cfg: SystemConfig,
        tag: &str,
    ) -> JobSpec {
        JobSpec {
            workload,
            variant,
            base_cfg,
            scale: self.scale,
            seed: self.seed,
            max_cycles: self.max_cycles,
            tag: tag.to_owned(),
        }
    }

    /// Runs (or replays) `workload` under `variant` on the base config.
    pub fn run(&self, workload: Workload, variant: SystemVariant) -> Arc<RunResult> {
        self.run_job(&self.job(workload, variant))
    }

    /// Runs with an alternate base configuration; `tag` must uniquely
    /// name the alteration for the memo cache.
    pub fn run_with(
        &self,
        workload: Workload,
        variant: SystemVariant,
        base_cfg: SystemConfig,
        tag: &str,
    ) -> Arc<RunResult> {
        self.run_job(&self.job_with(workload, variant, base_cfg, tag))
    }

    /// Resolves one job through memo → disk → simulation.
    pub fn run_job(&self, job: &JobSpec) -> Arc<RunResult> {
        self.run_job_forked(job, None, None).0
    }

    /// [`Runner::run_job`] with the sweep tree's two fork roles: when
    /// `fork` is `Some`, a fresh simulation restores it and resumes from
    /// the warmup cycle instead of stepping from 0; when `fork_at` is
    /// `Some` (a group representative), the simulation pauses there,
    /// captures an in-memory fork for its group mates — returned
    /// alongside the result — and continues. Memo and disk lookups are
    /// unchanged: the forks only shortcut the simulations themselves, so
    /// results stay byte-identical to cold runs.
    fn run_job_forked(
        &self,
        job: &JobSpec,
        fork: Option<&ForkSnapshot>,
        fork_at: Option<u64>,
    ) -> (Arc<RunResult>, Option<ForkSnapshot>) {
        let memo_key = job.memo_key();
        if let Some(hit) = self.memo.lock().unwrap().get(&memo_key) {
            return (Arc::clone(hit), None);
        }
        let t0 = Instant::now();
        if let Some(disk) = &self.disk {
            if let Some(result) = disk.load(&job.cache_key()) {
                let result = Arc::new(result);
                self.finish(memo_key, JobSource::DiskHit, t0.elapsed(), &result);
                return (result, None);
            }
        }
        if self.verbose {
            eprintln!("  running {memo_key} …");
        }
        let mut plan = CheckpointPlan {
            checkpoint_at: self.checkpoint_at,
            fork_at,
            restore_from: None,
            fork: fork.cloned(),
        };
        // The persistent checkpoint tier is only consulted when no
        // in-memory fork is at hand: the fork is already resident and at
        // least as deep, and skipping the store keeps corrupt on-disk
        // snapshots out of the forked path entirely.
        if plan.fork.is_none() {
            if let Some(store) = &self.ckpt {
                if let Some((_, bytes)) = store.load_longest_prefix(&job.cache_key()) {
                    plan.restore_from = Some(bytes);
                }
            }
        }
        let exp = job.to_experiment();
        let run = match exp.run_checkpointed(&plan) {
            Ok(run) => run,
            Err(e) => {
                // A stale checkpoint (older snapshot version, changed
                // component roster) is a cache miss, not a fatal error.
                eprintln!("warning: unusable checkpoint for {memo_key} ({e}); simulating cold");
                plan.restore_from = None;
                plan.fork = None;
                exp.run_checkpointed(&plan)
                    .expect("cold run restores nothing")
            }
        };
        let forked = plan.fork.is_some();
        // Disk warm-starts are rare enough to always announce; forked
        // resumptions happen for most of a shared sweep and are already
        // summarized by the prefix report, so per-job lines are
        // verbose-only.
        if run.resumed_at > 0 && (self.verbose || !forked) {
            eprintln!(
                "  warm-start {memo_key}: simulated from cycle {} instead of 0",
                run.resumed_at
            );
        }
        if let Some(store) = &self.ckpt {
            if let Some((cycle, bytes)) = &run.snapshot {
                if let Err(e) = store.store(&job.cache_key(), *cycle, bytes) {
                    eprintln!("warning: cannot persist checkpoint for {memo_key}: {e}");
                }
            }
        }
        let result = run.result;
        let wall = t0.elapsed();
        if let Some(disk) = &self.disk {
            if let Err(e) = disk.store(&job.cache_key(), &result) {
                eprintln!("warning: cannot persist {memo_key}: {e}");
            }
        }
        let result = Arc::new(result);
        {
            let mut prefix = self.prefix.lock().unwrap();
            prefix.simulated_jobs += 1;
            if forked {
                prefix.forked_jobs += 1;
            }
        }
        let source = if forked {
            JobSource::Forked
        } else {
            JobSource::Fresh
        };
        self.finish_at(memo_key, source, wall, &result, run.resumed_at);
        (result, run.fork)
    }

    fn finish(&self, memo_key: String, source: JobSource, wall: Duration, result: &Arc<RunResult>) {
        self.finish_at(memo_key, source, wall, result, 0);
    }

    fn finish_at(
        &self,
        memo_key: String,
        source: JobSource,
        wall: Duration,
        result: &Arc<RunResult>,
        resumed_at: u64,
    ) {
        self.stats.lock().unwrap().push(JobStat {
            memo_key: memo_key.clone(),
            source,
            wall,
            exec_cycles: result.exec_cycles,
            resumed_at,
        });
        self.memo
            .lock()
            .unwrap()
            .insert(memo_key, Arc::clone(result));
    }

    /// Resolves a batch of jobs and returns the results in input order.
    ///
    /// The batch is planned as a *prefix-sharing tree* before anything
    /// runs (DESIGN.md §3.7):
    ///
    /// 1. Memo hits are dropped; duplicate memo keys collapse to one
    ///    entry; jobs whose memo keys differ but whose physical identity
    ///    ([`JobSpec::cache_key`]) is identical collapse to one
    ///    *execution* — the extras are aliased afterwards.
    /// 2. Jobs that will not replay from disk are grouped by
    ///    [`JobSpec::prefix_key`]; each group of two or more becomes an
    ///    internal tree node whose *representative* (the group's first
    ///    job in canonical order) runs from cycle 0, pauses at the warmup
    ///    cycle to capture an in-memory [`ForkSnapshot`], and continues
    ///    to completion. The other members restore the fork — no cycle of
    ///    the shared warmup window is ever simulated twice.
    /// 3. A deque of ready tasks is drained by [`Runner::jobs`] workers;
    ///    a completing representative pushes its group mates along with
    ///    the fork it captured, so divergent suffixes start the moment
    ///    their prefix unblocks them, with no barrier between tree
    ///    levels.
    ///
    /// Results are byte-identical to cold execution no matter how the
    /// tree was shaped or how many workers drained it; retrieval from the
    /// memo by key keeps output in canonical input order.
    pub fn sweep(&self, jobs: &[JobSpec]) -> Vec<Arc<RunResult>> {
        let t0 = Instant::now();
        // -- plan: dedupe, then group shareable jobs by prefix key --
        let mut pending: Vec<&JobSpec> = Vec::new();
        let mut aliases: Vec<(String, usize)> = Vec::new();
        {
            let memo = self.memo.lock().unwrap();
            let mut queued = HashSet::new();
            let mut physical: HashMap<String, usize> = HashMap::new();
            for job in jobs {
                let key = job.memo_key();
                if memo.contains_key(&key) || !queued.insert(key.clone()) {
                    continue;
                }
                match physical.entry(job.cache_key()) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        aliases.push((key, *e.get()));
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        e.insert(pending.len());
                        pending.push(job);
                    }
                }
            }
        }
        let mut groups: Vec<Vec<usize>> = Vec::new();
        if self.prefix_share {
            let mut by_key: HashMap<String, Vec<usize>> = HashMap::new();
            for (i, job) in pending.iter().enumerate() {
                // A disk replay never simulates, so its prefix is not
                // worth paying for.
                if self
                    .disk
                    .as_ref()
                    .is_some_and(|d| d.contains(&job.cache_key()))
                {
                    continue;
                }
                if let Some(key) = job.prefix_key() {
                    by_key.entry(key).or_default().push(i);
                }
            }
            groups = by_key.into_values().filter(|g| g.len() >= 2).collect();
            // Deterministic planning order (HashMap iteration is not).
            groups.sort_by_key(|g| g[0]);
        }
        let grouped: HashSet<usize> = groups.iter().flatten().copied().collect();
        {
            let mut prefix = self.prefix.lock().unwrap();
            prefix.groups += groups.len();
            prefix.swept_jobs += jobs.len();
            prefix.shared_jobs += aliases.len();
        }

        // -- execute: work-stealing deque over tree nodes --
        enum Task {
            /// Run group `g`'s representative from cycle 0, capturing a
            /// fork of its paused warmup state in flight, then release
            /// the remaining members.
            Rep(usize),
            /// Resolve `pending[idx]`, restoring `fork` when present.
            Job(usize, Option<ForkSnapshot>),
        }
        struct Queue {
            tasks: std::collections::VecDeque<Task>,
            /// Unresolved leaf jobs, *including* members still deferred
            /// behind an unfinished representative — workers wait (rather
            /// than exit) while this is nonzero and the deque is empty.
            remaining: usize,
        }
        let mut tasks = std::collections::VecDeque::new();
        for g in 0..groups.len() {
            tasks.push_back(Task::Rep(g));
        }
        for i in 0..pending.len() {
            if !grouped.contains(&i) {
                tasks.push_back(Task::Job(i, None));
            }
        }
        let queue = Mutex::new(Queue {
            tasks,
            remaining: pending.len(),
        });
        let ready = Condvar::new();
        let worker = || loop {
            let task = {
                let mut q = queue.lock().unwrap();
                loop {
                    if q.remaining == 0 {
                        return;
                    }
                    if let Some(t) = q.tasks.pop_front() {
                        break t;
                    }
                    q = ready.wait(q).unwrap();
                }
            };
            match task {
                Task::Rep(g) => {
                    let rep = pending[groups[g][0]];
                    let t0 = Instant::now();
                    let (_, fork) = self.run_job_forked(rep, None, Some(rep.warmup_cycles()));
                    if fork.is_some() {
                        let mut prefix = self.prefix.lock().unwrap();
                        prefix.prefix_runs += 1;
                        prefix.prefix_wall += t0.elapsed();
                    } else if self.verbose {
                        // Legitimate, not an error: e.g. the representative
                        // warm-started from a disk checkpoint past the
                        // warmup cycle. The members simply run cold.
                        eprintln!(
                            "  no fork captured for {} group; members run cold",
                            rep.memo_key()
                        );
                    }
                    let mut q = queue.lock().unwrap();
                    for &idx in &groups[g][1..] {
                        q.tasks.push_back(Task::Job(idx, fork.clone()));
                    }
                    q.remaining -= 1;
                    drop(q);
                    ready.notify_all();
                }
                Task::Job(idx, fork) => {
                    self.run_job_forked(pending[idx], fork.as_ref(), None);
                    let mut q = queue.lock().unwrap();
                    q.remaining -= 1;
                    let done = q.remaining == 0;
                    drop(q);
                    if done {
                        ready.notify_all();
                    } else {
                        ready.notify_one();
                    }
                }
            }
        };
        let workers = self.jobs.max(1).min(pending.len());
        if workers <= 1 {
            worker();
        } else {
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(worker);
                }
            });
        }

        // -- alias duplicates to their primary's result --
        for (alias_key, idx) in aliases {
            let result = {
                let memo = self.memo.lock().unwrap();
                Arc::clone(&memo[&pending[idx].memo_key()])
            };
            self.finish(alias_key, JobSource::Shared, Duration::ZERO, &result);
        }
        self.prefix.lock().unwrap().sweep_wall += t0.elapsed();
        let memo = self.memo.lock().unwrap();
        jobs.iter()
            .map(|job| Arc::clone(&memo[&job.memo_key()]))
            .collect()
    }

    /// Accumulated prefix-sharing counters (see [`PrefixStats`]).
    pub fn prefix_stats(&self) -> PrefixStats {
        *self.prefix.lock().unwrap()
    }

    /// Number of completed (cached) runs.
    pub fn runs_completed(&self) -> usize {
        self.memo.lock().unwrap().len()
    }

    /// Per-job stats for every job resolved so far (simulated or replayed
    /// from disk), in completion order.
    pub fn job_stats(&self) -> Vec<JobStat> {
        self.stats.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_mean() {
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("Demo", vec!["Workload", "Speedup"]);
        t.row(vec!["GUPS".into(), f2(1.5)]);
        let s = t.to_string();
        assert!(s.contains("### Demo"));
        assert!(s.contains("GUPS |"), "cells are right-aligned: {s}");
        assert!(s.contains("1.50"));
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("Demo", vec!["A", "B"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn runner_memoizes() {
        let r = Runner::quick();
        let a = r.run(Workload::Gups, SystemVariant::Baseline);
        let b = r.run(Workload::Gups, SystemVariant::Baseline);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(r.runs_completed(), 1);
        // Only the fresh run is recorded; the memo replay is free.
        let stats = r.job_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].source, JobSource::Fresh);
        assert_eq!(stats[0].exec_cycles, a.exec_cycles);
    }

    #[test]
    fn sweep_returns_input_order_and_dedups() {
        let r = Runner::quick().with_jobs(2);
        let jobs = vec![
            r.job(Workload::Gups, SystemVariant::Baseline),
            r.job(Workload::Gups, SystemVariant::Ideal),
            r.job(Workload::Gups, SystemVariant::Baseline), // duplicate
        ];
        let results = r.sweep(&jobs);
        assert_eq!(results.len(), 3);
        assert!(Arc::ptr_eq(&results[0], &results[2]));
        assert!(!Arc::ptr_eq(&results[0], &results[1]));
        assert_eq!(r.runs_completed(), 2, "duplicate simulated once");
        // A second sweep is fully memoized.
        let again = r.sweep(&jobs);
        assert!(Arc::ptr_eq(&results[0], &again[0]));
        assert_eq!(r.job_stats().len(), 2);
    }

    #[test]
    fn prefix_shared_sweep_matches_cold_results() {
        // The tentpole oracle at runner granularity: a warmup-window
        // sweep over several policy variants must produce byte-identical
        // results with and without prefix sharing — and the shared run
        // must actually fork.
        let variants = [
            SystemVariant::NetCrafter,
            SystemVariant::StitchTrim,
            SystemVariant::StitchOnly,
            SystemVariant::SeqOnly,
            SystemVariant::Baseline, // FIFO roster: never forked
        ];
        let mut shared = Runner::quick().with_jobs(3);
        shared.base_cfg.netcrafter.warmup_cycles = 400;
        let mut cold = Runner::quick().with_prefix_share(false);
        cold.base_cfg.netcrafter.warmup_cycles = 400;

        let jobs = |r: &Runner| -> Vec<JobSpec> {
            variants.iter().map(|&v| r.job(Workload::Gups, v)).collect()
        };
        let a = shared.sweep(&jobs(&shared));
        let b = cold.sweep(&jobs(&cold));
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.exec_cycles, y.exec_cycles);
            assert_eq!(x.metrics.to_kv(), y.metrics.to_kv());
        }

        let ps = shared.prefix_stats();
        // NetCrafter+StitchTrim share an OnTrim-fill prefix; StitchOnly+
        // SeqOnly share a FullLine one; Baseline runs cold. Each group's
        // representative (NetCrafter, StitchOnly) runs from cycle 0 and
        // forks in flight, so only the non-representative member of each
        // pair resumes from the fork.
        assert_eq!(ps.groups, 2, "{ps:?}");
        assert_eq!(ps.prefix_runs, 2, "{ps:?}");
        assert_eq!(ps.forked_jobs, 2, "{ps:?}");
        assert_eq!(ps.simulated_jobs, 5, "{ps:?}");
        assert!((ps.hit_ratio() - 0.4).abs() < 1e-9);
        assert!(ps.sweep_wall > Duration::ZERO);
        assert!(ps.prefix_wall > Duration::ZERO);
        assert_eq!(cold.prefix_stats().forked_jobs, 0);

        // Stats record the forked jobs as such.
        let forked = shared
            .job_stats()
            .iter()
            .filter(|s| s.source == JobSource::Forked)
            .count();
        assert_eq!(forked, 2);
        assert!(shared
            .job_stats()
            .iter()
            .filter(|s| s.source == JobSource::Forked)
            .all(|s| s.resumed_at > 0 && s.resumed_at <= 400));
    }

    #[test]
    fn sweep_aliases_identical_physical_jobs() {
        // Two specs with different memo keys but one physical identity
        // (tag is display-only) share a single execution.
        let r = Runner::quick().with_jobs(2);
        let mut tagged = r.job(Workload::Gups, SystemVariant::Baseline);
        tagged.tag = "alias".into();
        let jobs = vec![r.job(Workload::Gups, SystemVariant::Baseline), tagged];
        let results = r.sweep(&jobs);
        assert!(Arc::ptr_eq(&results[0], &results[1]));
        assert_eq!(r.prefix_stats().shared_jobs, 1);
        let stats = r.job_stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(
            stats
                .iter()
                .filter(|s| s.source == JobSource::Shared)
                .count(),
            1
        );
        assert_eq!(
            stats
                .iter()
                .filter(|s| s.source == JobSource::Fresh)
                .count(),
            1
        );
    }

    #[test]
    fn no_sharing_without_warmup_window() {
        // warmup_cycles == 0 (the default): knobs act from cycle 0, so
        // nothing can group and the sweep runs exactly as before.
        let r = Runner::quick().with_jobs(2);
        let jobs = vec![
            r.job(Workload::Gups, SystemVariant::NetCrafter),
            r.job(Workload::Gups, SystemVariant::StitchTrim),
        ];
        r.sweep(&jobs);
        let ps = r.prefix_stats();
        assert_eq!(ps.groups, 0);
        assert_eq!(ps.forked_jobs, 0);
        assert_eq!(ps.simulated_jobs, 2);
    }

    #[test]
    fn prefix_stats_reports_render() {
        let mut ps = PrefixStats::default();
        assert_eq!(ps.hit_ratio(), 0.0);
        assert_eq!(ps.jobs_per_sec(), 0.0);
        ps.groups = 2;
        ps.prefix_runs = 2;
        ps.forked_jobs = 9;
        ps.simulated_jobs = 10;
        ps.shared_jobs = 1;
        ps.swept_jobs = 12;
        ps.sweep_wall = Duration::from_secs(2);
        assert!((ps.hit_ratio() - 0.9).abs() < 1e-9);
        assert!((ps.jobs_per_sec() - 6.0).abs() < 1e-9);
        let line = ps.report();
        assert!(line.contains("prefix-hit ratio 0.90"), "{line}");
        assert!(line.contains("2 prefix group(s)"), "{line}");
    }

    #[test]
    fn stats_report_summarizes() {
        let stats = vec![
            JobStat {
                memo_key: "GUPS|Baseline|".into(),
                source: JobSource::Fresh,
                wall: std::time::Duration::from_millis(10),
                exec_cycles: 1_000_000,
                resumed_at: 0,
            },
            JobStat {
                memo_key: "GUPS|Ideal|".into(),
                source: JobSource::DiskHit,
                wall: std::time::Duration::from_micros(50),
                exec_cycles: 900_000,
                resumed_at: 250_000,
            },
        ];
        let report = stats_report(&stats);
        assert!(report.contains("GUPS|Baseline|"));
        assert!(report.contains("1 simulated"));
        assert!(report.contains("1 replayed from disk"));
        assert!(report.contains("warm-start from cycle 250000"));
        assert!((stats[0].cycles_per_sec() - 1e8).abs() < 1e3);
    }
}
