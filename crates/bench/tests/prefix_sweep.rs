//! Integration tests for prefix-sharing sweeps: the plan tree, the
//! in-memory fork path, and its interaction with the persistent
//! `CheckpointStore` tier — in particular that a corrupt on-disk
//! snapshot degrades to a byte-identical cold run and that the forked
//! path never consumes the store at all.

use std::path::PathBuf;

use netcrafter_bench::{JobSource, Runner};
use netcrafter_multigpu::{JobSpec, SystemVariant};
use netcrafter_workloads::Workload;

fn tempdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "netcrafter-prefix-sweep-test-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const WARMUP: u64 = 400;

fn sweep_variants() -> [SystemVariant; 3] {
    [
        SystemVariant::NetCrafter,
        SystemVariant::StitchTrim,
        SystemVariant::Baseline,
    ]
}

fn jobs_for(r: &Runner) -> Vec<JobSpec> {
    sweep_variants()
        .iter()
        .map(|&v| r.job(Workload::Gups, v))
        .collect()
}

fn cold_reference() -> Vec<String> {
    let mut r = Runner::quick().with_prefix_share(false);
    r.base_cfg.netcrafter.warmup_cycles = WARMUP;
    r.sweep(&jobs_for(&r)).iter().map(|x| x.to_kv()).collect()
}

#[test]
fn truncated_store_snapshot_degrades_to_byte_identical_cold_sweep() {
    let dir = tempdir("truncated");
    let reference = cold_reference();

    // Take a *real* snapshot and truncate it: the store then holds bytes
    // that start like a valid snapshot but end mid-value — the harshest
    // corruption shape, because the header parses fine.
    let mut seed = Runner::quick().with_prefix_share(false);
    seed.base_cfg.netcrafter.warmup_cycles = WARMUP;
    let probe = seed.job(Workload::Gups, SystemVariant::NetCrafter);
    let genuine = probe
        .to_experiment()
        .run_prefix(WARMUP)
        .expect("prefix runs");
    let truncated = &genuine.bytes()[..genuine.bytes().len() / 2];

    // Prefix sharing off: every fresh job consults the store, hits the
    // truncated snapshot, warns, and falls back to a cold run.
    let mut r = Runner::quick()
        .with_prefix_share(false)
        .with_checkpoint_dir(&dir)
        .expect("checkpoint dir opens");
    r.base_cfg.netcrafter.warmup_cycles = WARMUP;
    let store = r.checkpoint_store().expect("store configured");
    for job in jobs_for(&r) {
        store
            .store(&job.cache_key(), WARMUP, truncated)
            .expect("writes");
    }
    let results = r.sweep(&jobs_for(&r));
    for (got, want) in results.iter().zip(&reference) {
        assert_eq!(&got.to_kv(), want, "fallback must match the cold run");
    }
    for s in r.job_stats() {
        assert_eq!(s.source, JobSource::Fresh);
        assert_eq!(s.resumed_at, 0, "corrupt snapshot cannot warm-start");
    }

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn forked_path_never_consumes_the_corrupt_store() {
    let dir = tempdir("fork-immune");
    let reference = cold_reference();

    // Poison the store for every job key, then run a prefix-shared
    // sweep. Non-representative grouped jobs restore the in-memory fork
    // and must never touch the store: they resume mid-run (a
    // corrupt-store consultation would have forced resumed_at == 0 via
    // the cold fallback).
    let mut r = Runner::quick()
        .with_jobs(2)
        .with_checkpoint_dir(&dir)
        .expect("checkpoint dir opens");
    r.base_cfg.netcrafter.warmup_cycles = WARMUP;
    let store = r.checkpoint_store().expect("store configured");
    for job in jobs_for(&r) {
        store
            .store(&job.cache_key(), WARMUP, b"garbage, not a snapshot")
            .expect("writes");
    }
    let results = r.sweep(&jobs_for(&r));
    for (got, want) in results.iter().zip(&reference) {
        assert_eq!(&got.to_kv(), want, "forked results must match cold");
    }
    let stats = r.job_stats();
    let forked: Vec<_> = stats
        .iter()
        .filter(|s| s.source == JobSource::Forked)
        .collect();
    assert_eq!(
        forked.len(),
        1,
        "StitchTrim restores the NetCrafter representative's in-flight fork"
    );
    for s in &forked {
        assert!(
            s.resumed_at > 0 && s.resumed_at <= WARMUP,
            "forked job resumed at {} — it consulted the corrupt store",
            s.resumed_at
        );
    }
    // The representative and the ungrouped Baseline job *do* consult the
    // store, hit the garbage, and fall back cold — the representative
    // still captures its group's fork on the cold retry.
    for key in ["NetCrafter", "Baseline"] {
        let s = stats
            .iter()
            .find(|s| s.memo_key.contains(key))
            .expect("job ran");
        assert_eq!(s.source, JobSource::Fresh);
        assert_eq!(s.resumed_at, 0);
    }
    assert_eq!(r.prefix_stats().prefix_runs, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn prefix_shared_sweep_matches_cold_sweep_byte_for_byte() {
    // DataPrio joins StitchOnly's FullLine-fill group, whose
    // representative (StitchOnly, first in canonical order) forks the
    // shared prefix for it; Baseline never groups and runs cold. The
    // fork must hold no cycle of StitchOnly's own policy, which only a
    // comparison of every metric (not just exec cycles) is sure to see.
    const WINDOW: u64 = 2_000;
    let variants = [
        SystemVariant::Baseline,
        SystemVariant::StitchOnly,
        SystemVariant::DataPrio,
    ];
    let sweep = |share: bool| -> (Vec<String>, Runner) {
        let mut r = Runner::quick().with_jobs(2).with_prefix_share(share);
        r.base_cfg.netcrafter.warmup_cycles = WINDOW;
        let jobs: Vec<JobSpec> = variants.iter().map(|&v| r.job(Workload::Atax, v)).collect();
        let kv = r.sweep(&jobs).iter().map(|x| x.to_kv()).collect();
        (kv, r)
    };
    let (cold, _) = sweep(false);
    let (shared, r) = sweep(true);
    let stats = r.job_stats();
    let data_prio = stats
        .iter()
        .find(|s| s.memo_key.contains("DataPrio"))
        .expect("DataPrio ran");
    assert_eq!(data_prio.source, JobSource::Forked);
    assert_eq!(data_prio.resumed_at, WINDOW - 1);
    for ((got, want), v) in shared.iter().zip(&cold).zip(variants) {
        assert_eq!(got, want, "{v:?}: prefix-shared result differs from cold");
    }
}
