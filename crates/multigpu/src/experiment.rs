//! Experiment configurations and derived measures — the vocabulary of
//! the paper's evaluation section (§5).

use netcrafter_proto::{Metrics, NetCrafterConfig, SectorFillPolicy, SystemConfig};
use netcrafter_sim::snapshot::{ForkSnapshot, SnapshotError};
use netcrafter_sim::{Trace, TraceConfig};
use netcrafter_workloads::{Scale, Workload};

use crate::system::{LinkSeries, System};

/// The system configurations the evaluation compares (§5.2–§5.5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SystemVariant {
    /// The non-uniform bandwidth baseline (Table 2), everything off.
    Baseline,
    /// The impractical *ideal*: inter-cluster links run at intra-cluster
    /// bandwidth (Figure 3).
    Ideal,
    /// Full NetCrafter: Stitching + 32-cycle Selective Flit Pooling +
    /// Trimming + Sequencing (the rightmost Figure 14 bar).
    NetCrafter,
    /// Stitching alone, no pooling (Figures 12/18/19 leftmost).
    StitchOnly,
    /// Stitching with (optionally selective) Flit Pooling of the given
    /// window (Figures 18/19 sweeps).
    StitchPool {
        /// Pooling window in cycles.
        window: u32,
        /// Exempt PTW flits from pooling.
        selective: bool,
    },
    /// Stitching + Selective Pooling + Trimming (the cumulative middle
    /// bar of Figure 14).
    StitchTrim,
    /// Trimming alone (with its sectored L1 fills).
    TrimOnly,
    /// Sequencing alone (PTW prioritization).
    SeqOnly,
    /// Figure 8's counterfactual: prioritize data-read flits instead of
    /// PTW flits.
    DataPrio,
    /// The §5.3 comparison baseline: 16 B sectored L1 everywhere,
    /// NetCrafter off.
    SectorCache,
}

impl SystemVariant {
    /// Applies the variant to a base configuration. The base config's
    /// `netcrafter.warmup_cycles` survives the variant's knob overwrite:
    /// the warmup window is a sweep-level lever (it makes every variant's
    /// pre-activation trajectory identical for prefix sharing), not part
    /// of any variant's identity.
    pub fn apply(self, mut cfg: SystemConfig) -> SystemConfig {
        let warmup = cfg.netcrafter.warmup_cycles;
        match self {
            SystemVariant::Baseline => {
                cfg.netcrafter = NetCrafterConfig::disabled();
                cfg.sector_fill = SectorFillPolicy::FullLine;
            }
            SystemVariant::Ideal => {
                cfg = cfg.idealized();
                cfg.netcrafter = NetCrafterConfig::disabled();
                cfg.sector_fill = SectorFillPolicy::FullLine;
            }
            SystemVariant::NetCrafter => {
                cfg = cfg.with_netcrafter();
            }
            SystemVariant::StitchOnly => {
                cfg.netcrafter = NetCrafterConfig::stitching_only();
                cfg.sector_fill = SectorFillPolicy::FullLine;
            }
            SystemVariant::StitchPool { window, selective } => {
                cfg.netcrafter = NetCrafterConfig {
                    stitching: true,
                    pooling_window: window,
                    selective_pooling: selective,
                    ..NetCrafterConfig::disabled()
                };
                cfg.sector_fill = SectorFillPolicy::FullLine;
            }
            SystemVariant::StitchTrim => {
                cfg.netcrafter = NetCrafterConfig {
                    stitching: true,
                    pooling_window: 32,
                    selective_pooling: true,
                    trimming: true,
                    ..NetCrafterConfig::disabled()
                };
                cfg.sector_fill = SectorFillPolicy::OnTrim;
            }
            SystemVariant::TrimOnly => {
                cfg.netcrafter = NetCrafterConfig {
                    trimming: true,
                    ..NetCrafterConfig::disabled()
                };
                cfg.sector_fill = SectorFillPolicy::OnTrim;
            }
            SystemVariant::SeqOnly => {
                cfg.netcrafter = NetCrafterConfig {
                    sequencing: true,
                    ..NetCrafterConfig::disabled()
                };
                cfg.sector_fill = SectorFillPolicy::FullLine;
            }
            SystemVariant::DataPrio => {
                cfg.netcrafter = NetCrafterConfig {
                    sequencing: true,
                    prioritize_data_instead: true,
                    ..NetCrafterConfig::disabled()
                };
                cfg.sector_fill = SectorFillPolicy::FullLine;
            }
            SystemVariant::SectorCache => {
                cfg = cfg.with_sector_cache();
            }
        }
        cfg.netcrafter.warmup_cycles = warmup;
        cfg
    }

    /// Display label for tables.
    pub fn label(self) -> String {
        match self {
            SystemVariant::Baseline => "Baseline".into(),
            SystemVariant::Ideal => "Ideal".into(),
            SystemVariant::NetCrafter => "NetCrafter".into(),
            SystemVariant::StitchOnly => "Stitching".into(),
            SystemVariant::StitchPool { window, selective } => {
                if selective {
                    format!("Stitch+SelPool{window}")
                } else {
                    format!("Stitch+Pool{window}")
                }
            }
            SystemVariant::StitchTrim => "Stitch+Trim".into(),
            SystemVariant::TrimOnly => "Trimming".into(),
            SystemVariant::SeqOnly => "Sequencing".into(),
            SystemVariant::DataPrio => "DataPrio".into(),
            SystemVariant::SectorCache => "SectorCache(16B)".into(),
        }
    }
}

/// The outcome of one run: execution time plus harvested metrics, with
/// accessors for every figure's derived measure.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// End-to-end execution time in cycles.
    pub exec_cycles: u64,
    /// All harvested counters/histograms/latencies.
    pub metrics: Metrics,
}

impl RunResult {
    /// Inter-cluster link utilization in [0, 1] (Figure 4).
    pub fn inter_utilization(&self) -> f64 {
        self.metrics
            .ratio("net.inter.flits", "net.inter.capacity_flits")
    }

    /// Mean inter-cluster read latency in cycles (Figures 5 and 15).
    pub fn inter_read_latency(&self) -> f64 {
        self.metrics
            .latency("total.cu.inter_cluster_read_latency")
            .mean()
    }

    /// Fraction of inter-cluster flits with the given padding percentage
    /// bucket (0, 25, 50 or 75) — Figure 6.
    pub fn padding_fraction(&self, pct: u32) -> f64 {
        let total = self.metrics.counter("net.inter.flits");
        if total == 0 {
            return 0.0;
        }
        self.metrics.counter(&format!("net.inter.padding{pct}")) as f64 / total as f64
    }

    /// Distribution of inter-cluster reads by bytes required (Figure 7):
    /// fractions for 16/32/48/64 B.
    pub fn fig7_fractions(&self) -> [f64; 4] {
        let mut out = [0.0; 4];
        let total: u64 = (1..=4)
            .map(|i| self.metrics.counter(&format!("total.cu.fig7_{}B", i * 16)))
            .sum();
        if total == 0 {
            return out;
        }
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self
                .metrics
                .counter(&format!("total.cu.fig7_{}B", (i + 1) * 16)) as f64
                / total as f64;
        }
        out
    }

    /// PTW-related share of inter-cluster bytes (Figure 9).
    pub fn ptw_byte_share(&self) -> f64 {
        let ptw = self.metrics.counter("net.inter.ptw_bytes");
        let data = self.metrics.counter("net.inter.data_bytes");
        if ptw + data == 0 {
            0.0
        } else {
            ptw as f64 / (ptw + data) as f64
        }
    }

    /// Fraction of would-be inter-cluster flits that were stitched away
    /// into parents (Figure 12): absorbed / (transmitted + absorbed).
    pub fn stitched_fraction(&self) -> f64 {
        let absorbed = self.metrics.counter("net.inter.cq.absorbed");
        let popped = self.metrics.counter("net.inter.cq.popped");
        if absorbed + popped == 0 {
            0.0
        } else {
            absorbed as f64 / (absorbed + popped) as f64
        }
    }

    /// Bytes that crossed inter-cluster links, counting each transmitted
    /// flit at full flit size (Figure 20's currency).
    pub fn inter_link_bytes(&self) -> u64 {
        self.metrics.counter("net.inter.flits") * self.metrics.counter("net.inter.flit_bytes")
    }

    /// L1 misses per kilo-instruction (Figures 16/17).
    pub fn l1_mpki(&self) -> f64 {
        1000.0 * self.metrics.counter("total.l1.misses") as f64
            / self.metrics.counter("total.cu.instructions").max(1) as f64
    }

    /// Renders the result as the line-oriented text block used by the
    /// bench crate's on-disk result cache: one `exec_cycles` header line
    /// followed by [`Metrics::to_kv`].
    pub fn to_kv(&self) -> String {
        format!(
            "exec_cycles = {}\n{}",
            self.exec_cycles,
            self.metrics.to_kv()
        )
    }

    /// Parses the text produced by [`RunResult::to_kv`]; `None` on any
    /// corruption so cache readers fall back to re-simulating.
    pub fn from_kv(text: &str) -> Option<RunResult> {
        let (first, rest) = text.split_once('\n')?;
        let exec_cycles = first.strip_prefix("exec_cycles = ")?.parse().ok()?;
        Some(RunResult {
            exec_cycles,
            metrics: Metrics::from_kv(rest)?,
        })
    }
}

/// One configured run: workload × variant × scale × base config.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Workload to run.
    pub workload: Workload,
    /// System variant.
    pub variant: SystemVariant,
    /// Base configuration (topology, CU count, flit size, …); the
    /// variant is applied on top at [`Experiment::run`].
    pub base_cfg: SystemConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Watchdog limit.
    pub max_cycles: u64,
}

impl Experiment {
    /// A standard experiment: 4 GPUs × 8 CUs, small scale.
    pub fn new(workload: Workload, variant: SystemVariant) -> Self {
        Self {
            workload,
            variant,
            base_cfg: SystemConfig::small(8),
            scale: Scale::small(),
            seed: 0xC0FFEE,
            max_cycles: 80_000_000,
        }
    }

    /// A minimal configuration for doc tests and smoke tests: 2 CUs per
    /// GPU, tiny workloads — runs in milliseconds.
    pub fn quick(workload: Workload, variant: SystemVariant) -> Self {
        Self {
            workload,
            variant,
            base_cfg: SystemConfig::small(2),
            scale: Scale::tiny(),
            seed: 0xC0FFEE,
            max_cycles: 20_000_000,
        }
    }

    /// Replaces the workload scale.
    pub fn with_scale(mut self, scale: Scale) -> Self {
        self.scale = scale;
        self
    }

    /// Replaces the base configuration.
    pub fn with_base_cfg(mut self, cfg: SystemConfig) -> Self {
        self.base_cfg = cfg;
        self
    }

    /// Replaces the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builds the system, runs the workload to completion and harvests.
    pub fn run(&self) -> RunResult {
        let (run, _) = self
            .run_inner(None, &CheckpointPlan::default())
            .expect("no snapshot restore involved");
        run.result
    }

    /// Like [`Experiment::run`], but with the requested observability
    /// turned on: event tracing when `opts.config` is set, per-link
    /// time-series sampling when `opts.sample_window` is set. Returns the
    /// normal result plus everything recorded.
    pub fn run_traced(&self, opts: &TraceOptions) -> (RunResult, TraceData) {
        let (run, data) = self
            .run_inner(Some(opts), &CheckpointPlan::default())
            .expect("no snapshot restore involved");
        (run.result, data.expect("tracing requested"))
    }

    /// Like [`Experiment::run`], but driven by a [`CheckpointPlan`]: the
    /// run can warm-start from a snapshot and/or pause at a cycle to take
    /// one. Checkpoint → restore → continue is byte-identical to the
    /// uninterrupted run (metrics, traces and time series alike).
    ///
    /// # Errors
    ///
    /// Returns the restore error when `plan.restore_from` is corrupt, has
    /// a version mismatch, or was taken on a different configuration.
    pub fn run_checkpointed(
        &self,
        plan: &CheckpointPlan,
    ) -> Result<CheckpointedRun, SnapshotError> {
        Ok(self.run_inner(None, plan)?.0)
    }

    /// [`Experiment::run_traced`] with a [`CheckpointPlan`]. The snapshot
    /// carries the tracer and time-series state, so a restored run's trace
    /// is complete from cycle 0, not from the restore point.
    ///
    /// # Errors
    ///
    /// Returns the restore error when `plan.restore_from` is invalid.
    pub fn run_traced_checkpointed(
        &self,
        opts: &TraceOptions,
        plan: &CheckpointPlan,
    ) -> Result<(CheckpointedRun, TraceData), SnapshotError> {
        let (run, data) = self.run_inner(Some(opts), plan)?;
        Ok((run, data.expect("tracing requested")))
    }

    /// Runs the experiment forward to `until` (or quiescence, whichever
    /// comes first) and returns an in-memory [`ForkSnapshot`] of the
    /// paused state — a standalone prefix simulation, discarded after the
    /// fork. Sweeps prefer [`CheckpointPlan::fork_at`], which captures
    /// the same fork from a run that then continues to completion.
    /// Every job whose configuration is warmup-equivalent to this one
    /// (same [`JobSpec::prefix_key`]) can restore the fork via
    /// [`CheckpointPlan::fork`] and continue byte-identically to its own
    /// cold run, because no policy knob has acted before `until` when
    /// `until <= warmup_cycles`.
    ///
    /// # Errors
    ///
    /// Infallible today (the fork is serialized, never parsed); the
    /// `Result` keeps the signature uniform with the restore paths.
    pub fn run_prefix(&self, until: u64) -> Result<ForkSnapshot, SnapshotError> {
        let cfg = self.variant.apply(self.base_cfg);
        let kernel = self
            .workload
            .generate(&self.scale, cfg.total_gpus(), self.seed);
        let mut sys = System::build(cfg, &kernel);
        sys.run_until(until);
        Ok(sys.fork_snapshot())
    }

    fn run_inner(
        &self,
        opts: Option<&TraceOptions>,
        plan: &CheckpointPlan,
    ) -> Result<(CheckpointedRun, Option<TraceData>), SnapshotError> {
        let cfg = self.variant.apply(self.base_cfg);
        let kernel = self
            .workload
            .generate(&self.scale, cfg.total_gpus(), self.seed);
        let mut sys = System::build(cfg, &kernel);
        if let Some(opts) = opts {
            if let Some(config) = &opts.config {
                sys.enable_tracing(config.clone());
            }
            if let Some(window) = opts.sample_window {
                sys.enable_link_sampling(window);
            }
        }
        if let Some(fork) = &plan.fork {
            // In-memory fork takes precedence over the persistent tier:
            // it is already resident and always at least as deep into the
            // run as any disk snapshot the planner would have chosen.
            sys.restore(fork.bytes())?;
            debug_assert_eq!(
                sys.state_hash(),
                fork.state_hash(),
                "fork restore must reproduce the paused state byte-exactly"
            );
        } else if let Some(bytes) = &plan.restore_from {
            sys.restore(bytes)?;
        }
        let resumed_at = sys.engine.cycle();
        // Apply the pause points in ascending cycle order, skipping any
        // the restore already moved past.
        let mut pauses: Vec<(u64, bool)> = Vec::new();
        if let Some(at) = plan.fork_at.filter(|&at| at > resumed_at) {
            pauses.push((at, true));
        }
        if let Some(at) = plan.checkpoint_at.filter(|&at| at > resumed_at) {
            pauses.push((at, false));
        }
        pauses.sort_unstable();
        let mut snapshot = None;
        let mut fork = None;
        for (at, is_fork) in pauses {
            sys.run_until(at);
            // The run may quiesce before the requested cycle; the
            // snapshot is tagged with the cycle actually paused at.
            if is_fork {
                fork = Some(sys.fork_snapshot());
            } else {
                snapshot = Some((sys.engine.cycle(), sys.save_snapshot()));
            }
        }
        let exec_cycles = sys.run(self.max_cycles);
        let result = RunResult {
            exec_cycles,
            metrics: sys.harvest(),
        };
        let data = opts.map(|_| TraceData {
            trace: sys.take_trace(),
            links: sys.take_link_series(),
        });
        Ok((
            CheckpointedRun {
                result,
                snapshot,
                fork,
                resumed_at,
            },
            data,
        ))
    }
}

/// Checkpoint/restore controls for one run. The default plan (no
/// checkpoint, no restore) reproduces [`Experiment::run`] exactly.
#[derive(Debug, Clone, Default)]
pub struct CheckpointPlan {
    /// Pause at this cycle and snapshot the state. No snapshot is taken
    /// when the run quiesces first or a restore already starts past it.
    pub checkpoint_at: Option<u64>,
    /// Pause at this cycle and capture an in-memory [`ForkSnapshot`] into
    /// [`CheckpointedRun::fork`], then continue to completion — how a
    /// prefix-sharing sweep's *representative* job produces the fork its
    /// group mates restore, without a separate warmup-only simulation.
    /// No fork is captured when the run quiesces first or a restore
    /// already starts past it.
    pub fork_at: Option<u64>,
    /// Snapshot bytes (from [`CheckpointedRun::snapshot`]) to warm-start
    /// from; the experiment's configuration must match the run that
    /// produced them.
    pub restore_from: Option<Vec<u8>>,
    /// In-memory fork (from [`CheckpointedRun::fork`] or
    /// [`Experiment::run_prefix`]) to warm-start from. Takes precedence
    /// over `restore_from`; the experiment's configuration must be
    /// warmup-equivalent to the run that produced the fork (same
    /// [`JobSpec::prefix_key`]).
    pub fork: Option<ForkSnapshot>,
}

/// Outcome of [`Experiment::run_checkpointed`].
#[derive(Debug)]
pub struct CheckpointedRun {
    /// The run's result, identical to an uninterrupted run's.
    pub result: RunResult,
    /// `(cycle, bytes)` of the snapshot taken at `checkpoint_at`, when
    /// one was requested (the cycle is earlier when the run quiesced
    /// before the requested pause point).
    pub snapshot: Option<(u64, Vec<u8>)>,
    /// The in-memory fork captured at `fork_at`, when one was requested
    /// and the run reached the pause point.
    pub fork: Option<ForkSnapshot>,
    /// Cycle the simulation actually started stepping from: 0 for a cold
    /// run, the snapshot's cycle after a warm start.
    pub resumed_at: u64,
}

/// What [`Experiment::run_traced`] should record.
#[derive(Debug, Clone, Default)]
pub struct TraceOptions {
    /// Event-trace filter; `None` leaves tracing off.
    pub config: Option<TraceConfig>,
    /// Time-series bucket width in cycles; `None` leaves sampling off.
    pub sample_window: Option<u64>,
}

impl TraceOptions {
    /// Trace everything, no time series.
    pub fn trace_all() -> Self {
        Self {
            config: Some(TraceConfig::default()),
            sample_window: None,
        }
    }

    /// Sample every link with `window`-cycle buckets, no event trace.
    pub fn sample(window: u64) -> Self {
        Self {
            config: None,
            sample_window: Some(window),
        }
    }
}

/// Everything [`Experiment::run_traced`] recorded.
#[derive(Debug)]
pub struct TraceData {
    /// The structured event trace (empty when tracing was off).
    pub trace: Trace,
    /// Per-link time series (empty when sampling was off).
    pub links: Vec<LinkSeries>,
}

impl TraceData {
    /// Renders the link series as compact JSONL: one object per
    /// `(link, metric)` pair with the window width and bucket values.
    pub fn links_to_jsonl(&self) -> String {
        let mut out = String::new();
        for link in &self.links {
            for (metric, series) in [
                ("bytes", &link.series.bytes),
                ("flits", &link.series.flits),
                ("occupancy", &link.series.occupancy),
                ("pooled", &link.series.pooled),
            ] {
                out.push_str(&format!(
                    "{{\"link\":{},\"inter\":{},\"metric\":\"{}\",\"window\":{},\"buckets\":[",
                    netcrafter_sim::trace::json_string(&link.link),
                    link.is_inter,
                    metric,
                    series.window(),
                ));
                for (i, (_, v)) in series.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push_str(&v.to_string());
                }
                out.push_str("]}\n");
            }
        }
        out
    }
}

/// A plain-data description of one sweep job: an [`Experiment`] plus the
/// display tag the figure generators use to retrieve its result.
///
/// `JobSpec` is `Send` by construction (all fields are owned plain data),
/// so a sweep runner can hand specs to `std::thread` workers. Two key
/// derivations matter:
///
/// * [`JobSpec::memo_key`] — the in-process memo identity. It mirrors the
///   key the sequential runner always used (`workload|variant|tag`), so
///   figure generators keep retrieving results the same way.
/// * [`JobSpec::cache_key`] — the *physical* identity of the simulation:
///   the variant-applied configuration (via its stable representation),
///   workload, scale, seed and watchdog limit. Jobs that differ only in
///   display tag share one persistent cache entry.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Workload to run.
    pub workload: Workload,
    /// System variant.
    pub variant: SystemVariant,
    /// Base configuration the variant is applied on top of.
    pub base_cfg: SystemConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Workload seed.
    pub seed: u64,
    /// Watchdog limit.
    pub max_cycles: u64,
    /// Display tag distinguishing sweep points of one variant (e.g.
    /// `"clusters4"`); empty for plain runs.
    pub tag: String,
}

impl JobSpec {
    /// Wraps an [`Experiment`] with its retrieval tag.
    pub fn new(exp: Experiment, tag: impl Into<String>) -> Self {
        Self {
            workload: exp.workload,
            variant: exp.variant,
            base_cfg: exp.base_cfg,
            scale: exp.scale,
            seed: exp.seed,
            max_cycles: exp.max_cycles,
            tag: tag.into(),
        }
    }

    /// The runnable experiment this spec describes.
    pub fn to_experiment(&self) -> Experiment {
        Experiment {
            workload: self.workload,
            variant: self.variant,
            base_cfg: self.base_cfg,
            scale: self.scale,
            seed: self.seed,
            max_cycles: self.max_cycles,
        }
    }

    /// In-process memo key: `workload|variant-label|tag`. This is the key
    /// format the sequential bench runner has always used.
    pub fn memo_key(&self) -> String {
        format!("{}|{}|{}", self.workload, self.variant.label(), self.tag)
    }

    /// Stable cross-process cache key covering every input that affects
    /// the simulation outcome. Deliberately excludes `tag` (display-only).
    pub fn cache_key(&self) -> String {
        let applied = self.variant.apply(self.base_cfg);
        format!(
            "v1;wl={:?};{};scale={}x{}x{}x{};wlseed={:016x};max={}",
            self.workload,
            applied.stable_repr(),
            self.scale.ctas,
            self.scale.waves_per_cta,
            self.scale.mem_ops_per_wave,
            self.scale.footprint_pages,
            self.seed,
            self.max_cycles,
        )
    }

    /// Prefix-sharing group key: jobs with equal keys evolve
    /// byte-identically up to their NetCrafter warmup cycle, so one
    /// simulated prefix (an in-memory [`ForkSnapshot`]) serves them all.
    ///
    /// The key is the variant-applied configuration's
    /// [`SystemConfig::warmup_repr`] — the stable representation with the
    /// warmup-inert policy knobs masked, plus the component-roster token —
    /// combined with the workload identity. `max_cycles` is deliberately
    /// excluded: a prefix paused at the warmup cycle is valid for any
    /// watchdog deeper than it (the planner enforces that per job).
    ///
    /// `None` means this job cannot share a prefix:
    /// * no warmup window (`warmup_cycles == 0`) — knobs act from cycle 0;
    /// * no NetCrafter knob enabled — the build uses the plain FIFO
    ///   egress roster, whose snapshot layout differs from the
    ///   ClusterQueue roster (and an all-off run has nothing to share a
    ///   warmup *with*);
    /// * the watchdog is not strictly deeper than the warmup window.
    pub fn prefix_key(&self) -> Option<String> {
        let applied = self.variant.apply(self.base_cfg);
        let warmup = applied.netcrafter.warmup_cycles;
        if warmup == 0 || !applied.netcrafter.any_enabled() || warmup >= self.max_cycles {
            return None;
        }
        Some(format!(
            "p1;wl={:?};{};scale={}x{}x{}x{};wlseed={:016x}",
            self.workload,
            applied.warmup_repr(),
            self.scale.ctas,
            self.scale.waves_per_cta,
            self.scale.mem_ops_per_wave,
            self.scale.footprint_pages,
            self.seed,
        ))
    }

    /// The variant-applied warmup cycle — the pause point of this job's
    /// shared prefix when [`JobSpec::prefix_key`] is `Some`.
    pub fn warmup_cycles(&self) -> u64 {
        self.variant.apply(self.base_cfg).netcrafter.warmup_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variants_produce_expected_configs() {
        let base = SystemConfig::paper_baseline();
        let ideal = SystemVariant::Ideal.apply(base);
        assert_eq!(ideal.topology.inter_gbps, ideal.topology.intra_gbps);

        let nc = SystemVariant::NetCrafter.apply(base);
        assert!(nc.netcrafter.stitching && nc.netcrafter.trimming && nc.netcrafter.sequencing);
        assert_eq!(nc.sector_fill, SectorFillPolicy::OnTrim);

        let so = SystemVariant::StitchOnly.apply(base);
        assert!(so.netcrafter.stitching);
        assert_eq!(so.netcrafter.pooling_window, 0);

        let sp = SystemVariant::StitchPool {
            window: 64,
            selective: true,
        }
        .apply(base);
        assert_eq!(sp.netcrafter.pooling_window, 64);
        assert!(sp.netcrafter.selective_pooling);

        let sc = SystemVariant::SectorCache.apply(base);
        assert_eq!(sc.sector_fill, SectorFillPolicy::Always);
        assert!(!sc.netcrafter.any_enabled());

        let seq = SystemVariant::SeqOnly.apply(base);
        assert!(seq.netcrafter.sequencing && !seq.netcrafter.stitching);
        assert!(seq.validate().is_ok());
    }

    #[test]
    fn quick_experiment_runs_gups() {
        let r = Experiment::quick(Workload::Gups, SystemVariant::Baseline).run();
        assert!(r.exec_cycles > 0);
        assert!(r.metrics.counter("total.cu.mem_ops") > 0);
        assert!(r.inter_utilization() > 0.0, "GUPS loads the slow link");
        let fig7 = r.fig7_fractions();
        assert!(fig7[0] > 0.9, "GUPS needs <=16 B nearly always: {fig7:?}");
    }

    #[test]
    fn ideal_beats_baseline_on_network_bound_workload() {
        let base = Experiment::quick(Workload::Gups, SystemVariant::Baseline).run();
        let ideal = Experiment::quick(Workload::Gups, SystemVariant::Ideal).run();
        assert!(
            ideal.exec_cycles <= base.exec_cycles,
            "ideal {} vs base {}",
            ideal.exec_cycles,
            base.exec_cycles
        );
    }

    #[test]
    fn netcrafter_stitches_on_quick_run() {
        let r = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter).run();
        assert!(r.stitched_fraction() > 0.0, "some flits must stitch");
        assert!(
            r.metrics.counter("total.trim.trimmed") > 0,
            "trimming engages"
        );
    }

    #[test]
    fn job_spec_is_send_and_round_trips() {
        fn assert_send<T: Send + 'static>() {}
        assert_send::<JobSpec>();

        let exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        let job = JobSpec::new(exp.clone(), "flit8");
        assert_eq!(job.memo_key(), "GUPS|NetCrafter|flit8");
        let back = job.to_experiment();
        assert_eq!(back.workload, exp.workload);
        assert_eq!(back.base_cfg, exp.base_cfg);
        assert_eq!(back.seed, exp.seed);
        assert_eq!(back.max_cycles, exp.max_cycles);
    }

    #[test]
    fn cache_key_tracks_physical_inputs_only() {
        let exp = Experiment::quick(Workload::Gups, SystemVariant::Baseline);
        let a = JobSpec::new(exp.clone(), "");
        let b = JobSpec::new(exp.clone(), "some-tag");
        assert_eq!(a.cache_key(), b.cache_key(), "tag is display-only");
        assert_ne!(a.memo_key(), b.memo_key());

        let other_variant = JobSpec::new(
            Experiment::quick(Workload::Gups, SystemVariant::NetCrafter),
            "",
        );
        assert_ne!(a.cache_key(), other_variant.cache_key());

        let other_seed = JobSpec::new(exp.clone().with_seed(7), "");
        assert_ne!(a.cache_key(), other_seed.cache_key());

        let other_scale = JobSpec::new(exp.clone().with_scale(Scale::small()), "");
        assert_ne!(a.cache_key(), other_scale.cache_key());

        let mut longer = JobSpec::new(exp, "");
        longer.max_cycles += 1;
        assert_ne!(a.cache_key(), longer.cache_key());
    }

    #[test]
    fn variant_apply_preserves_warmup_cycles() {
        let mut base = SystemConfig::paper_baseline();
        base.netcrafter.warmup_cycles = 1_234;
        for v in [
            SystemVariant::Baseline,
            SystemVariant::Ideal,
            SystemVariant::NetCrafter,
            SystemVariant::StitchOnly,
            SystemVariant::StitchTrim,
            SystemVariant::SeqOnly,
            SystemVariant::SectorCache,
        ] {
            assert_eq!(
                v.apply(base).netcrafter.warmup_cycles,
                1_234,
                "variant {v:?} must not clobber the warmup window"
            );
        }
    }

    #[test]
    fn prefix_key_groups_warmup_equivalent_jobs() {
        let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        // No warmup window: nothing to share.
        assert!(JobSpec::new(exp.clone(), "").prefix_key().is_none());

        exp.base_cfg.netcrafter.warmup_cycles = 500;
        let nc = JobSpec::new(exp.clone(), "");
        let key = nc.prefix_key().expect("warmup window set");
        assert_eq!(nc.warmup_cycles(), 500);

        // Policy variants on the same ClusterQueue roster + fill policy
        // share the prefix with full NetCrafter.
        let mut st = exp.clone();
        st.variant = SystemVariant::StitchTrim;
        assert_eq!(JobSpec::new(st, "").prefix_key().as_ref(), Some(&key));

        // Different display tag never splits a group.
        assert_eq!(
            JobSpec::new(exp.clone(), "other-tag").prefix_key().as_ref(),
            Some(&key)
        );

        // Different max_cycles does not split the group either (the
        // prefix is valid under any deeper watchdog).
        let mut deeper = exp.clone();
        deeper.max_cycles *= 2;
        assert_eq!(JobSpec::new(deeper, "").prefix_key().as_ref(), Some(&key));

        // FullLine-fill variants share a *different* prefix: trimming's
        // sectored fills change warmup state.
        let mut so = exp.clone();
        so.variant = SystemVariant::StitchOnly;
        let so_key = JobSpec::new(so.clone(), "")
            .prefix_key()
            .expect("shareable");
        assert_ne!(so_key, key);
        let mut seq = exp.clone();
        seq.variant = SystemVariant::SeqOnly;
        assert_eq!(JobSpec::new(seq, "").prefix_key().as_ref(), Some(&so_key));

        // Baseline runs the FIFO roster: no sharing.
        let mut baseline = exp.clone();
        baseline.variant = SystemVariant::Baseline;
        assert!(JobSpec::new(baseline, "").prefix_key().is_none());

        // A watchdog at or below the warmup window disables sharing.
        let mut shallow = exp.clone();
        shallow.max_cycles = 500;
        assert!(JobSpec::new(shallow, "").prefix_key().is_none());

        // Physical divergence splits the group.
        let mut reseeded = exp;
        reseeded.seed = 7;
        assert_ne!(JobSpec::new(reseeded, "").prefix_key().unwrap(), key);
    }

    #[test]
    fn forked_run_is_byte_identical_to_cold() {
        // The tentpole oracle at experiment granularity: run a shared
        // prefix once, fork it in memory, and finish two *different*
        // policy variants from the fork. Each must match its own cold run
        // byte-for-byte (exec cycles and every metric).
        let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        exp.base_cfg.netcrafter.warmup_cycles = 400;
        let fork = exp.run_prefix(400).expect("prefix run is infallible");
        assert!(fork.cycle() <= 400);
        assert!(!fork.bytes().is_empty());

        for variant in [SystemVariant::NetCrafter, SystemVariant::StitchTrim] {
            let mut member = exp.clone();
            member.variant = variant;
            let cold = member.run();
            let plan = CheckpointPlan {
                checkpoint_at: None,
                fork_at: None,
                restore_from: None,
                fork: Some(fork.clone()),
            };
            let warm = member.run_checkpointed(&plan).expect("fork restores");
            assert_eq!(warm.resumed_at, fork.cycle());
            assert_eq!(warm.result.exec_cycles, cold.exec_cycles, "{variant:?}");
            assert_eq!(
                warm.result.metrics.to_kv(),
                cold.metrics.to_kv(),
                "{variant:?} metrics diverged after fork restore"
            );
        }
    }

    #[test]
    fn fork_at_captures_mid_run_without_perturbing_the_run() {
        // A representative job pauses at the warmup cycle, forks, and
        // continues. Its own result must match an uninterrupted run, and
        // the captured fork must be byte-identical to a standalone
        // prefix simulation's.
        let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        exp.base_cfg.netcrafter.warmup_cycles = 400;
        let cold = exp.run();
        let plan = CheckpointPlan {
            checkpoint_at: None,
            fork_at: Some(400),
            restore_from: None,
            fork: None,
        };
        let run = exp.run_checkpointed(&plan).expect("nothing to restore");
        assert_eq!(run.result.exec_cycles, cold.exec_cycles);
        assert_eq!(run.result.metrics.to_kv(), cold.metrics.to_kv());
        let fork = run.fork.expect("fork captured at cycle 400");
        let standalone = exp.run_prefix(400).expect("prefix run");
        assert_eq!(fork.cycle(), standalone.cycle());
        assert_eq!(fork.state_hash(), standalone.state_hash());
        assert_eq!(fork.bytes(), standalone.bytes());

        // A sibling restoring the mid-run fork matches its own cold run.
        let mut member = exp.clone();
        member.variant = SystemVariant::StitchTrim;
        let member_cold = member.run();
        let restore = CheckpointPlan {
            checkpoint_at: None,
            fork_at: None,
            restore_from: None,
            fork: Some(fork),
        };
        let warm = member.run_checkpointed(&restore).expect("fork restores");
        assert_eq!(warm.resumed_at, 400);
        assert_eq!(warm.result.exec_cycles, member_cold.exec_cycles);
        assert_eq!(warm.result.metrics.to_kv(), member_cold.metrics.to_kv());
    }

    #[test]
    fn fork_takes_precedence_over_disk_restore() {
        let mut exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
        exp.base_cfg.netcrafter.warmup_cycles = 400;
        let fork = exp.run_prefix(400).expect("prefix run");
        let plan = CheckpointPlan {
            checkpoint_at: None,
            fork_at: None,
            // Garbage in the persistent slot: if the fork really wins,
            // these bytes are never parsed.
            restore_from: Some(vec![0xde, 0xad, 0xbe, 0xef]),
            fork: Some(fork),
        };
        let warm = exp.run_checkpointed(&plan).expect("fork wins");
        assert_eq!(warm.result.exec_cycles, exp.run().exec_cycles);
    }

    #[test]
    fn run_result_kv_round_trip() {
        let r = Experiment::quick(Workload::Gups, SystemVariant::Baseline).run();
        let text = r.to_kv();
        let back = RunResult::from_kv(&text).expect("round trip parses");
        assert_eq!(back.exec_cycles, r.exec_cycles);
        assert_eq!(back.metrics.to_kv(), r.metrics.to_kv());
        assert_eq!(back.inter_read_latency(), r.inter_read_latency());
        assert!(RunResult::from_kv("garbage").is_none());
        assert!(RunResult::from_kv("exec_cycles = nope\n").is_none());
    }

    #[test]
    fn variant_labels_are_unique() {
        let labels: Vec<String> = [
            SystemVariant::Baseline,
            SystemVariant::Ideal,
            SystemVariant::NetCrafter,
            SystemVariant::StitchOnly,
            SystemVariant::StitchPool {
                window: 32,
                selective: false,
            },
            SystemVariant::StitchPool {
                window: 32,
                selective: true,
            },
            SystemVariant::StitchTrim,
            SystemVariant::TrimOnly,
            SystemVariant::SeqOnly,
            SystemVariant::SectorCache,
        ]
        .iter()
        .map(|v| v.label())
        .collect();
        let unique: std::collections::BTreeSet<_> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }
}
