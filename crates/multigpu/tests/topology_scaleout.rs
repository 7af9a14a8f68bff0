//! Scale-out fabrics end to end: the fat-tree and torus presets must
//! run real workloads to completion across multi-hop paths, conserve
//! flits at every switch, stay bit-identical across schedulers, and
//! round-trip their per-switch controller state through a snapshot.

use netcrafter_multigpu::{Experiment, RunResult, System, SystemVariant};
use netcrafter_proto::{SystemConfig, TopologyConfig};
use netcrafter_sim::SchedulerMode;
use netcrafter_workloads::{Scale, Workload};

/// Quick-scale compute on a scale-out preset: 2 CUs per GPU, with the
/// kernel launch widened by `Scale::for_gpus` so the per-GPU load of
/// the 4-GPU mesh carries over to the bigger fabric.
fn scale_out(mut cfg: SystemConfig, workload: Workload, variant: SystemVariant) -> Experiment {
    cfg.cus_per_gpu = 2;
    let scale = Scale::tiny().for_gpus(cfg.total_gpus());
    Experiment::quick(workload, variant)
        .with_base_cfg(cfg)
        .with_scale(scale)
}

/// The fabric presets every test sweeps: both scale-out builders, plus a
/// torus with a 3-ring so the dateline virtual channels (only present on
/// rings of length ≥ 3) forward real traffic, not just unit-test flits.
fn fabrics() -> Vec<(&'static str, SystemConfig)> {
    let mut torus3 = SystemConfig::paper_baseline();
    torus3.topology = TopologyConfig::parse_spec("torus:3x1x1:g=2").expect("valid spec");
    vec![
        ("fat-tree-8", SystemConfig::fat_tree_8()),
        ("torus-8", SystemConfig::torus_8()),
        ("torus-3x1x1", torus3),
    ]
}

/// Every switch must see traffic, and — with no stitching or pooling to
/// merge flits — every flit that arrives at a switch must leave it:
/// multi-hop forwarding neither drops nor duplicates.
#[test]
fn scale_out_fabrics_complete_and_conserve_flits() {
    for (name, cfg) in fabrics() {
        let r: RunResult = scale_out(cfg, Workload::Gups, SystemVariant::Baseline).run();
        assert!(r.exec_cycles > 0, "{name}: must simulate");
        let m = &r.metrics;
        assert!(
            m.counter("net.inter.flits") > 0,
            "{name}: traffic must cross the fabric"
        );
        let mut arrived = 0u64;
        let mut egressed = 0u64;
        for s in 0..cfg.topology.num_switches() {
            let a = m.counter(&format!("switch{s}.arrived"));
            assert!(a > 0, "{name}: switch {s} must forward traffic");
            arrived += a;
            // `.flits` (with the dot) is the per-port egress total;
            // data_flits/ptw_flits/stitched_flits end in `_flits`.
            egressed += m
                .counters_with_prefix(&format!("switch{s}.port"))
                .filter(|(k, _)| k.ends_with(".flits"))
                .map(|(_, v)| v)
                .sum::<u64>();
        }
        assert_eq!(
            arrived, egressed,
            "{name}: flits arriving at switches must equal flits egressed"
        );
    }
}

/// Deterministic multi-hop routing: the event-driven scheduler must
/// reproduce the Legacy tick-everything referee bit for bit on every
/// fabric, including with the per-switch NetCrafter controllers enabled.
#[test]
fn scale_out_runs_are_bit_identical_across_schedulers() {
    for (name, cfg) in fabrics() {
        for variant in [SystemVariant::Baseline, SystemVariant::NetCrafter] {
            let exp = scale_out(cfg, Workload::Gups, variant);
            let event = exp.run();
            let mut sys = build(&exp);
            sys.engine.set_scheduler(SchedulerMode::Legacy);
            let legacy_cycles = sys.run(exp.max_cycles);
            assert_eq!(
                legacy_cycles, event.exec_cycles,
                "{name}/{variant:?}: cycle counts diverge"
            );
            assert_eq!(
                sys.harvest().to_kv(),
                event.metrics.to_kv(),
                "{name}/{variant:?}: metrics diverge"
            );
        }
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

/// Builds the system a NetCrafter fat-tree-8 experiment simulates,
/// without running it.
fn build_fat_tree_system() -> System {
    build(&scale_out(
        SystemConfig::fat_tree_8(),
        Workload::Gups,
        SystemVariant::NetCrafter,
    ))
}

/// Snapshot round-trip with per-switch controller state: a fat-tree has
/// six switches, each with its own NetCrafter cluster queues mid-flight
/// at the snapshot point, and save ∘ load must be the identity.
#[test]
fn per_switch_controller_state_survives_a_snapshot_round_trip() {
    let mut sys = build_fat_tree_system();
    sys.run_until(2_000);
    let hash = sys.state_hash();
    let snapshot = sys.save_snapshot();

    let mut copy = build_fat_tree_system();
    assert_ne!(copy.state_hash(), hash, "cycle-0 state must differ");
    copy.restore(&snapshot).expect("snapshot restores");
    assert_eq!(copy.state_hash(), hash, "state hash survives a round trip");
    assert_eq!(copy.save_snapshot(), snapshot, "re-encoding is identical");

    // Both replicas must agree after simulating on from the restore
    // point — the restored controllers keep pooling/stitching decisions
    // on the same cycles.
    assert_eq!(sys.run(1_000_000), copy.run(1_000_000));
    assert_eq!(sys.state_hash(), copy.state_hash());
}
