//! Legacy-vs-event-driven equivalence: the production scheduler, which
//! dispatches only woken components through `tick_burst`, must reproduce
//! the Legacy referee, which calls the scalar `tick` on every component
//! every cycle, byte for byte — `Metrics`, chrome-trace JSON, and
//! per-link time series — on a slice of the fig14 matrix and on a
//! multi-hop fat-tree trace. Every native `tick_burst` (switch, RDMA,
//! DRAM, L2, GMMU, CU, and the EgressPort/Cluster Queue machinery they
//! drive) is pinned here against its scalar reference.
//!
//! The event-driven side is the plain [`Experiment`] path (the default
//! scheduler); the Legacy side builds the same [`System`] and switches
//! only its own engine, so no process-wide default is touched.
//!
//! Tiny scale never fills the paper's 64-entry L2-TLB MSHR, so the
//! GMMU's retry path (which sleeps until a page walk completes) is
//! driven separately, with the MSHR shrunk to two entries. Likewise the
//! CU's resource stalls (which sleep until a response, replaying the
//! skipped attempts arithmetically) are driven with a small outstanding
//! cap and a two-entry L1 MSHR.

use netcrafter_gpu::Cu;
use netcrafter_multigpu::{
    CheckpointPlan, Experiment, RunResult, System, SystemVariant, TraceData, TraceOptions,
};
use netcrafter_proto::SystemConfig;
use netcrafter_sim::{SchedulerMode, TraceConfig};
use netcrafter_vm::TranslationUnit;
use netcrafter_workloads::{Scale, Workload};

fn trace_opts() -> TraceOptions {
    TraceOptions {
        config: Some(TraceConfig::default()),
        sample_window: Some(256),
    }
}

/// Builds the system `exp` simulates, without running it.
fn build(exp: &Experiment) -> System {
    let cfg = exp.variant.apply(exp.base_cfg);
    let kernel = exp
        .workload
        .generate(&exp.scale, cfg.total_gpus(), exp.seed);
    System::build(cfg, &kernel)
}

/// Runs `exp` under the Legacy scheduler, recording what `opts` asks for
/// exactly as [`Experiment::run_traced`] does.
fn run_legacy(exp: &Experiment, opts: &TraceOptions) -> (RunResult, TraceData) {
    let mut sys = build(exp);
    if let Some(config) = &opts.config {
        sys.enable_tracing(config.clone());
    }
    if let Some(window) = opts.sample_window {
        sys.enable_link_sampling(window);
    }
    sys.engine.set_scheduler(SchedulerMode::Legacy);
    let exec_cycles = sys.run(exp.max_cycles);
    let result = RunResult {
        exec_cycles,
        metrics: sys.harvest(),
    };
    let data = TraceData {
        trace: sys.take_trace(),
        links: sys.take_link_series(),
    };
    (result, data)
}

fn assert_identical(legacy: (RunResult, TraceData), event: (RunResult, TraceData), what: &str) {
    assert_eq!(
        legacy.0.exec_cycles, event.0.exec_cycles,
        "{what}: cycle counts diverge"
    );
    assert_eq!(
        legacy.0.metrics.to_kv(),
        event.0.metrics.to_kv(),
        "{what}: metrics diverge"
    );
    assert_eq!(
        legacy.1.trace.to_chrome_json(),
        event.1.trace.to_chrome_json(),
        "{what}: chrome-trace JSON diverges"
    );
    assert_eq!(
        legacy.1.links_to_jsonl(),
        event.1.links_to_jsonl(),
        "{what}: per-link time series diverge"
    );
}

#[test]
fn legacy_and_event_metrics_are_bit_identical_across_the_fig14_variants() {
    // A slice of the fig14 matrix: every NetCrafter mechanism
    // (stitching, pooling, sequencing, trimming) runs under both
    // schedulers.
    for variant in [
        SystemVariant::Baseline,
        SystemVariant::NetCrafter,
        SystemVariant::StitchOnly,
    ] {
        for workload in [Workload::Gups, Workload::Atax] {
            let exp = Experiment::quick(workload, variant);
            let (legacy, _) = run_legacy(&exp, &TraceOptions::default());
            let event = exp.run();
            assert_eq!(
                legacy.exec_cycles, event.exec_cycles,
                "{workload:?}/{variant:?}: cycle counts diverge"
            );
            assert_eq!(
                legacy.metrics.to_kv(),
                event.metrics.to_kv(),
                "{workload:?}/{variant:?}: metrics diverge"
            );
        }
    }
}

#[test]
fn legacy_and_event_trace_and_timeseries_bytes_are_identical() {
    let exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter);
    let legacy = run_legacy(&exp, &trace_opts());
    let event = exp.run_traced(&trace_opts());
    assert_identical(legacy, event, "fig14/gups");
}

#[test]
fn legacy_matches_event_on_a_fat_tree_8_trace() {
    // Multi-hop traffic through six switches: the Switch burst path (and
    // its fused status pass) carries every flit more than once.
    let mut cfg = SystemConfig::fat_tree_8();
    cfg.cus_per_gpu = 2;
    let scale = Scale::tiny().for_gpus(cfg.total_gpus());
    let exp = Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
        .with_base_cfg(cfg)
        .with_scale(scale);
    let legacy = run_legacy(&exp, &trace_opts());
    let event = exp.run_traced(&trace_opts());
    assert_identical(legacy, event, "fat-tree-8/gups");
}

/// The quick experiment with a 2-entry L2-TLB MSHR, so translation
/// requests overflow into the GMMU's retry queue.
fn mshr_starved(workload: Workload, variant: SystemVariant) -> Experiment {
    let exp = Experiment::quick(workload, variant);
    let mut cfg = exp.base_cfg;
    cfg.l2_tlb.mshr_entries = 2;
    exp.with_base_cfg(cfg)
}

#[test]
fn legacy_matches_event_when_the_l2_tlb_mshr_overflows() {
    for workload in [Workload::Gups, Workload::Spmv] {
        for variant in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
            let exp = mshr_starved(workload, variant);
            let legacy = run_legacy(&exp, &trace_opts());
            let event = exp.run_traced(&trace_opts());
            let metrics = &event.0.metrics;
            assert!(
                metrics.counter("total.gmmu.mshr_full") > 0,
                "{workload:?}/{variant:?}: the retry path was never reached"
            );
            assert_eq!(
                metrics.counter("total.l2tlb.hits") + metrics.counter("total.l2tlb.misses"),
                metrics.counter("total.gmmu.requests"),
                "{workload:?}/{variant:?}: one L2-TLB lookup per request"
            );
            assert_identical(
                legacy,
                event,
                &format!("mshr-starved {workload:?}/{variant:?}"),
            );
        }
    }
}

#[test]
fn checkpoint_taken_mid_retry_storm_restores_bit_identically() {
    let exp = mshr_starved(Workload::Gups, SystemVariant::NetCrafter);
    // Find a cycle at which some GMMU holds parked retries.
    let mut sys = build(&exp);
    let storm = loop {
        assert!(!sys.engine.quiescent(), "the MSHR never overflowed");
        let cycle = sys.run_until(sys.engine.cycle() + 1);
        let parked: usize = sys
            .ids
            .gmmus
            .iter()
            .map(|&id| {
                let tu: &TranslationUnit = sys.engine.get(id).expect("gmmu installed");
                tu.pending_retries()
            })
            .sum();
        if parked > 0 {
            break cycle;
        }
    };

    let (cold, cold_data) = exp.run_traced(&trace_opts());
    let take = CheckpointPlan {
        checkpoint_at: Some(storm),
        ..CheckpointPlan::default()
    };
    // Traced, so the snapshot carries the events recorded before it.
    let (ckpt, _) = exp
        .run_traced_checkpointed(&trace_opts(), &take)
        .expect("no restore involved");
    let (cycle, bytes) = ckpt.snapshot.expect("checkpoint requested");
    assert_eq!(cycle, storm);

    let resume = CheckpointPlan {
        restore_from: Some(bytes.clone()),
        ..CheckpointPlan::default()
    };
    let (warm, warm_data) = exp
        .run_traced_checkpointed(&trace_opts(), &resume)
        .expect("snapshot restores");
    assert_eq!(warm.resumed_at, storm);
    assert_identical(
        (cold.clone(), cold_data),
        (warm.result, warm_data),
        "restored mid-storm",
    );

    // The snapshot also resumes under the Legacy referee.
    let mut sys = build(&exp);
    sys.restore(&bytes).expect("snapshot restores");
    sys.engine.set_scheduler(SchedulerMode::Legacy);
    assert_eq!(sys.run(exp.max_cycles), cold.exec_cycles);
    assert_eq!(sys.harvest().to_kv(), cold.metrics.to_kv());
}

/// The quick experiment with an 8-access outstanding cap and a 2-entry
/// L1 MSHR, so CU reads stall on both and park until a response.
fn cu_starved(workload: Workload, variant: SystemVariant) -> Experiment {
    let exp = Experiment::quick(workload, variant);
    let mut cfg = exp.base_cfg;
    cfg.max_outstanding_per_cu = 8;
    cfg.l1.mshr_entries = 2;
    exp.with_base_cfg(cfg)
}

#[test]
fn legacy_matches_event_when_cus_stall_on_resources() {
    for workload in [Workload::Mt, Workload::Pr] {
        for variant in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
            let exp = cu_starved(workload, variant);
            let legacy = run_legacy(&exp, &trace_opts());
            let event = exp.run_traced(&trace_opts());
            assert!(
                event.0.metrics.counter("total.l1.mshr_stalls") > 0,
                "{workload:?}/{variant:?}: the L1 stall path was never reached"
            );
            assert_identical(
                legacy,
                event,
                &format!("cu-starved {workload:?}/{variant:?}"),
            );
        }
    }
}

#[test]
fn checkpoint_taken_mid_cu_stall_restores_bit_identically() {
    let exp = cu_starved(Workload::Pr, SystemVariant::NetCrafter);
    // Find a cycle at which some CU holds a wave retrying an access.
    let mut sys = build(&exp);
    let stall = loop {
        assert!(!sys.engine.quiescent(), "no CU ever stalled");
        let cycle = sys.run_until(sys.engine.cycle() + 1);
        let retrying: usize = sys
            .ids
            .cus
            .iter()
            .flatten()
            .map(|&id| {
                let cu: &Cu = sys.engine.get(id).expect("cu installed");
                cu.retrying_waves()
            })
            .sum();
        if retrying > 0 {
            break cycle;
        }
    };

    let (cold, cold_data) = exp.run_traced(&trace_opts());
    let take = CheckpointPlan {
        checkpoint_at: Some(stall),
        ..CheckpointPlan::default()
    };
    let (ckpt, _) = exp
        .run_traced_checkpointed(&trace_opts(), &take)
        .expect("no restore involved");
    let (cycle, bytes) = ckpt.snapshot.expect("checkpoint requested");
    assert_eq!(cycle, stall);

    let resume = CheckpointPlan {
        restore_from: Some(bytes.clone()),
        ..CheckpointPlan::default()
    };
    let (warm, warm_data) = exp
        .run_traced_checkpointed(&trace_opts(), &resume)
        .expect("snapshot restores");
    assert_eq!(warm.resumed_at, stall);
    assert_identical(
        (cold.clone(), cold_data),
        (warm.result, warm_data),
        "restored mid-stall",
    );

    // The snapshot also resumes under the Legacy referee.
    let mut sys = build(&exp);
    sys.restore(&bytes).expect("snapshot restores");
    sys.engine.set_scheduler(SchedulerMode::Legacy);
    assert_eq!(sys.run(exp.max_cycles), cold.exec_cycles);
    assert_eq!(sys.harvest().to_kv(), cold.metrics.to_kv());
}
