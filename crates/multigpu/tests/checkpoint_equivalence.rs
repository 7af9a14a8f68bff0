//! Determinism of checkpoint/restore on real multi-GPU simulations:
//! pausing at a cycle boundary, snapshotting, and continuing in a fresh
//! process image must be byte-identical to the uninterrupted run —
//! `Metrics`, chrome-trace JSON, per-link time series and the engine
//! state hash alike. ci.sh enforces the same contract end-to-end through
//! the `simulate` CLI; these tests pin it per-layer so a violation is
//! caught next to the snapshot code, not in a file diff.

use netcrafter_multigpu::{
    CheckpointPlan, Experiment, System, SystemVariant, TraceData, TraceOptions,
};
use netcrafter_sim::snapshot::SnapshotError;
use netcrafter_sim::{SchedulerMode, TraceConfig};
use netcrafter_workloads::Workload;

fn experiment() -> Experiment {
    Experiment::quick(Workload::Gups, SystemVariant::NetCrafter)
}

fn trace_opts() -> TraceOptions {
    TraceOptions {
        config: Some(TraceConfig::default()),
        sample_window: Some(256),
    }
}

/// The uninterrupted traced reference run, plus a midpoint cycle that is
/// strictly inside the simulation.
fn reference() -> (netcrafter_multigpu::RunResult, TraceData, u64) {
    let (result, data) = experiment().run_traced(&trace_opts());
    let mid = result.exec_cycles / 2;
    assert!(
        mid > 0,
        "quick GUPS must run long enough to have a midpoint"
    );
    (result, data, mid)
}

#[test]
fn checkpoint_restore_continue_is_bit_identical() {
    let (cold, cold_data, mid) = reference();

    // Pausing to checkpoint must not perturb the run that continues.
    let plan = CheckpointPlan {
        checkpoint_at: Some(mid),
        restore_from: None,
        fork_at: None,
        fork: None,
    };
    let (ckpt, ckpt_data) = experiment()
        .run_traced_checkpointed(&trace_opts(), &plan)
        .expect("no restore involved");
    assert_eq!(cold.exec_cycles, ckpt.result.exec_cycles);
    assert_eq!(cold.metrics.to_kv(), ckpt.result.metrics.to_kv());
    assert_eq!(
        cold_data.trace.to_chrome_json(),
        ckpt_data.trace.to_chrome_json()
    );
    let (cycle, bytes) = ckpt.snapshot.expect("checkpoint requested");
    assert_eq!(cycle, mid, "run paused exactly at the requested barrier");

    // Restoring the snapshot and continuing must reproduce the cold run
    // byte for byte, including observability recorded before the pause.
    let plan = CheckpointPlan {
        checkpoint_at: None,
        restore_from: Some(bytes),
        fork_at: None,
        fork: None,
    };
    let (warm, warm_data) = experiment()
        .run_traced_checkpointed(&trace_opts(), &plan)
        .expect("snapshot restores");
    assert_eq!(warm.resumed_at, mid);
    assert_eq!(cold.exec_cycles, warm.result.exec_cycles);
    assert_eq!(cold.metrics.to_kv(), warm.result.metrics.to_kv());
    assert_eq!(
        cold_data.trace.to_chrome_json(),
        warm_data.trace.to_chrome_json(),
        "restored chrome-trace JSON must be byte-identical"
    );
    assert_eq!(
        cold_data.links_to_jsonl(),
        warm_data.links_to_jsonl(),
        "restored per-link time series must be byte-identical"
    );
}

#[test]
fn snapshot_is_portable_to_the_legacy_scheduler() {
    let (cold, _, mid) = reference();
    let take = CheckpointPlan {
        checkpoint_at: Some(mid),
        restore_from: None,
        fork_at: None,
        fork: None,
    };
    // Snapshot under the event-driven scheduler …
    let ckpt = experiment().run_checkpointed(&take).expect("no restore");
    let (_, bytes) = ckpt.snapshot.expect("checkpoint requested");
    // … and continue under the Legacy tick-everything scheduler: the
    // snapshot excludes scheduler-derived state by design.
    let mut sys = build_system();
    sys.restore(&bytes).expect("snapshot restores");
    assert_eq!(sys.engine.cycle(), mid);
    sys.engine.set_scheduler(SchedulerMode::Legacy);
    let exec_cycles = sys.run(experiment().max_cycles);
    assert_eq!(cold.exec_cycles, exec_cycles);
    assert_eq!(cold.metrics.to_kv(), sys.harvest().to_kv());
}

/// Builds the system an [`experiment`] run simulates, without running it.
fn build_system() -> System {
    let exp = experiment();
    let cfg = exp.variant.apply(exp.base_cfg);
    let kernel = exp
        .workload
        .generate(&exp.scale, cfg.total_gpus(), exp.seed);
    System::build(cfg, &kernel)
}

#[test]
fn state_hash_is_a_fixed_point_across_save_and_load() {
    let mut sys = build_system();
    sys.run_until(2_000);
    let hash = sys.state_hash();
    let snapshot = sys.save_snapshot();

    // Loading into a freshly built system reproduces the hash, and
    // re-saving reproduces the snapshot bytes exactly (the encoding is
    // canonical, so save ∘ load is the identity).
    let mut copy = build_system();
    assert_ne!(copy.state_hash(), hash, "cycle-0 state must differ");
    copy.restore(&snapshot).expect("snapshot restores");
    assert_eq!(copy.state_hash(), hash, "state hash survives a round trip");
    assert_eq!(copy.save_snapshot(), snapshot, "re-encoding is identical");

    // Both replicas must also agree after simulating further.
    assert_eq!(sys.run(1_000_000), copy.run(1_000_000));
    assert_eq!(sys.state_hash(), copy.state_hash());
}

#[test]
fn corrupted_and_foreign_snapshots_fail_loudly() {
    let mut sys = build_system();
    sys.run_until(1_000);
    let good = sys.save_snapshot();

    // Truncation anywhere must be detected, never silently zero-filled.
    let mut sys = build_system();
    let err = sys
        .restore(&good[..good.len() - 3])
        .expect_err("truncated snapshot must not restore");
    assert!(
        matches!(err, SnapshotError::Truncated { .. }),
        "unexpected error for truncation: {err}"
    );

    // A foreign file fails on the magic number before any state loads.
    let mut sys = build_system();
    let err = sys
        .restore(b"definitely not a snapshot")
        .expect_err("foreign bytes must not restore");
    assert!(
        matches!(err, SnapshotError::BadMagic(_)),
        "unexpected error for foreign bytes: {err}"
    );

    // An old-format snapshot fails with the version pair, not by
    // misinterpreting the body: the version is the u32 after the magic.
    let mut old = good.clone();
    old[4..8].copy_from_slice(&0u32.to_le_bytes());
    let mut sys = build_system();
    let err = sys
        .restore(&old)
        .expect_err("version-0 snapshot must not restore");
    match err {
        SnapshotError::VersionMismatch { found, expected } => {
            assert_eq!(found, 0);
            assert!(expected >= 1);
        }
        other => panic!("unexpected error for old version: {other}"),
    }

    // Trailing garbage after a complete state is rejected too.
    let mut padded = good;
    padded.push(0);
    let mut sys = build_system();
    let err = sys
        .restore(&padded)
        .expect_err("trailing bytes must not restore");
    assert!(
        matches!(err, SnapshotError::Corrupt(_)),
        "unexpected error for trailing bytes: {err}"
    );
}
