//! General-purpose simulator CLI: run any workload on any configuration
//! and dump the metrics.
//!
//! ```text
//! simulate [--workload GUPS] [--variant netcrafter|all] [--cus 8]
//!          [--topology mesh:CxG|fat-tree:k=K|torus:XxYxZ]
//!          [--clusters 2] [--gpus-per-cluster 2]
//!          [--intra 128] [--inter 16] [--flit 16]
//!          [--scale tiny|small|paper] [--seed N]
//!          [--pool-window N] [--trim-granularity 4|8|16]
//!          [--jobs N] [--cache-dir DIR]
//!          [--checkpoint-at CYCLE] [--checkpoint-dir DIR]
//!          [--restore-from FILE]
//!          [--dump-metrics] [--csv FILE]
//!          [--trace FILE] [--timeseries FILE]
//!          [--trace-filter SPEC] [--sample-window N]
//!          [--legacy-scheduler]
//! ```
//!
//! `--variant all` sweeps every variant of the workload (in parallel
//! with `--jobs N`) and prints a comparison table. `--cache-dir DIR`
//! replays identical configurations from the
//! persistent result cache instead of re-simulating.
//!
//! `--trace FILE` records a Chrome-trace JSON event trace (load it in
//! `chrome://tracing` or Perfetto), optionally filtered by
//! `--trace-filter "comp=...;class=...;cycles=a..b"`. `--timeseries FILE`
//! records per-link bandwidth/occupancy curves as JSONL with
//! `--sample-window`-cycle buckets. Both force a fresh (uncached) run and
//! are ignored by `--variant all`.
//!
//! `--checkpoint-at CYCLE` pauses the simulation at CYCLE (earlier if
//! the run finishes first) and snapshots the full engine state;
//! `--checkpoint-dir DIR` persists the snapshot there (and lets plain
//! runs warm-start from the longest cached prefix automatically).
//! `--restore-from FILE` resumes from a specific snapshot file instead.
//! Checkpoint → restore → continue is byte-identical to an
//! uninterrupted run — metrics, traces and time series alike.
//!
//! Unknown flags, missing values and unparsable values exit 2 with the
//! usage text; `--help` prints it and exits 0.

use netcrafter_bench::cli::Cli;
use netcrafter_bench::{f2, pct, stats_report, Runner, Table, TraceArgs};
use netcrafter_multigpu::{CheckpointPlan, SystemVariant};
use netcrafter_proto::{SystemConfig, TopologyConfig};
use netcrafter_workloads::{Scale, Workload};

fn parse_variant(s: &str) -> Option<SystemVariant> {
    Some(match s.to_ascii_lowercase().as_str() {
        "baseline" => SystemVariant::Baseline,
        "ideal" => SystemVariant::Ideal,
        "netcrafter" => SystemVariant::NetCrafter,
        "stitch" | "stitching" => SystemVariant::StitchOnly,
        "trim" | "trimming" => SystemVariant::TrimOnly,
        "seq" | "sequencing" => SystemVariant::SeqOnly,
        "sector" | "sectorcache" => SystemVariant::SectorCache,
        "stitchtrim" => SystemVariant::StitchTrim,
        _ => return None,
    })
}

/// The variants `--variant all` compares, baseline first.
const ALL_VARIANTS: [SystemVariant; 8] = [
    SystemVariant::Baseline,
    SystemVariant::Ideal,
    SystemVariant::StitchOnly,
    SystemVariant::TrimOnly,
    SystemVariant::SeqOnly,
    SystemVariant::StitchTrim,
    SystemVariant::NetCrafter,
    SystemVariant::SectorCache,
];

static CLI: Cli = Cli {
    usage: "usage: simulate [--workload NAME] [--variant V|all] [--cus N] \
            [--topology mesh:CxG|fat-tree:k=K[:g=G][:cores=N]|torus:XxYxZ[:g=G]] [--clusters N] \
            [--gpus-per-cluster N] [--intra GBPS] [--inter GBPS] [--flit BYTES] \
            [--scale tiny|small|paper] [--seed N] [--pool-window N] \
            [--trim-granularity N] [--jobs N] [--cache-dir DIR] \
            [--checkpoint-at CYCLE] [--checkpoint-dir DIR] [--restore-from FILE] \
            [--dump-metrics] [--csv FILE] \
            [--trace FILE] [--timeseries FILE] [--trace-filter SPEC] [--sample-window N] \
            [--legacy-scheduler]\n\
            workloads: GUPS MT MIS IM2COL ATAX BS MM2 MVT SPMV PR SR SYR2K VGG16 LENET RNET18\n\
            variants: baseline ideal netcrafter stitch trim seq sector stitchtrim all",
    values: &[
        "--workload",
        "--variant",
        "--cus",
        "--topology",
        "--clusters",
        "--gpus-per-cluster",
        "--intra",
        "--inter",
        "--flit",
        "--scale",
        "--seed",
        "--pool-window",
        "--trim-granularity",
        "--jobs",
        "--cache-dir",
        "--checkpoint-at",
        "--checkpoint-dir",
        "--restore-from",
        "--csv",
        "--trace",
        "--timeseries",
        "--trace-filter",
        "--sample-window",
    ],
    switches: &["--dump-metrics", "--legacy-scheduler"],
};

fn main() {
    let args = CLI.from_env();
    if let Some(extra) = args.positional.first() {
        args.fail(&format!("unexpected argument {extra:?}"));
    }
    // Scheduler selection must precede any engine construction; the
    // metrics are identical either way (CI enforces it), so this only
    // trades host speed for a simpler tick loop.
    if args.has("--legacy-scheduler") {
        netcrafter_sim::set_default_scheduler(netcrafter_sim::SchedulerMode::Legacy);
    }

    let workload_name = args.value("--workload").unwrap_or("GUPS");
    let workload = Workload::ALL
        .into_iter()
        .find(|w| w.abbrev().eq_ignore_ascii_case(workload_name))
        .unwrap_or_else(|| args.fail(&format!("unknown workload {workload_name:?}")));
    let variant_name = args.value("--variant").unwrap_or("baseline");
    let sweep_all = variant_name.eq_ignore_ascii_case("all");
    let variant = if sweep_all {
        SystemVariant::Baseline
    } else {
        parse_variant(variant_name)
            .unwrap_or_else(|| args.fail(&format!("unknown variant {variant_name:?}")))
    };

    let mut cfg = SystemConfig::small(args.parsed("--cus").unwrap_or(8));
    // --topology replaces the whole fabric shape first; the individual
    // knobs below still override its fields afterwards.
    if let Some(spec) = args.value("--topology") {
        cfg.topology = TopologyConfig::parse_spec(spec).unwrap_or_else(|e| args.fail(&e));
    }
    if let Some(v) = args.parsed("--clusters") {
        cfg.topology.clusters = v;
    }
    if let Some(v) = args.parsed("--gpus-per-cluster") {
        cfg.topology.gpus_per_cluster = v;
    }
    if let Some(v) = args.parsed("--intra") {
        cfg.topology.intra_gbps = v;
    }
    if let Some(v) = args.parsed("--inter") {
        cfg.topology.inter_gbps = v;
    }
    if let Some(v) = args.parsed("--flit") {
        cfg.flit_bytes = v;
    }
    if let Some(v) = args.parsed("--pool-window") {
        cfg.netcrafter.pooling_window = v;
    }
    if let Some(v) = args.parsed("--trim-granularity") {
        cfg.trim_granularity = v;
    }
    let scale = match args.value("--scale") {
        None | Some("small") => Scale::small(),
        Some("tiny") => Scale::tiny(),
        Some("paper") => Scale::paper(),
        Some(other) => args.fail(&format!("unknown scale {other:?}")),
    };

    let mut runner = Runner::with_base(cfg, scale);
    runner.seed = args.parsed("--seed").unwrap_or(0xC0FFEE);
    runner.max_cycles = 1_000_000_000;
    runner = runner.with_jobs(args.parsed("--jobs").unwrap_or(1));
    if let Some(dir) = args.value("--cache-dir") {
        runner = runner.with_cache_dir(dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache dir {dir}: {e}");
            std::process::exit(1);
        });
    }
    let checkpoint_at: Option<u64> = args.parsed("--checkpoint-at");
    let restore_path = args.value("--restore-from");
    if let Some(at) = checkpoint_at {
        runner = runner.with_checkpoint_at(at);
    }
    if let Some(dir) = args.value("--checkpoint-dir") {
        runner = runner.with_checkpoint_dir(dir).unwrap_or_else(|e| {
            eprintln!("cannot open checkpoint dir {dir}: {e}");
            std::process::exit(1);
        });
    }

    if sweep_all {
        if restore_path.is_some() {
            eprintln!("--restore-from names one snapshot and cannot drive --variant all;");
            eprintln!("use --checkpoint-dir to warm-start a sweep instead");
            std::process::exit(2);
        }
        eprintln!(
            "sweeping {workload} across {} variants on {} worker(s) …",
            ALL_VARIANTS.len(),
            runner.jobs,
        );
        let jobs: Vec<_> = ALL_VARIANTS
            .iter()
            .map(|&v| runner.job(workload, v))
            .collect();
        let results = runner.sweep(&jobs);
        let base_cycles = results[0].exec_cycles;
        let mut t = Table::new(
            format!("{workload} across system variants"),
            vec![
                "Variant",
                "Cycles",
                "Speedup",
                "Link util",
                "Read lat",
                "L1 MPKI",
            ],
        );
        for (v, r) in ALL_VARIANTS.iter().zip(&results) {
            t.row(vec![
                v.label(),
                r.exec_cycles.to_string(),
                f2(base_cycles as f64 / r.exec_cycles as f64),
                pct(r.inter_utilization()),
                format!("{:.0}", r.inter_read_latency()),
                f2(r.l1_mpki()),
            ]);
        }
        println!("{t}");
        eprint!("{}", stats_report(&runner.job_stats()));
        return;
    }

    let trace_args = TraceArgs::parse(&args).unwrap_or_else(|e| args.fail(&e));

    eprintln!(
        "simulating {workload} / {} on {} clusters x {} GPUs x {} CUs …",
        variant.label(),
        runner.base_cfg.topology.clusters,
        runner.base_cfg.topology.gpus_per_cluster,
        runner.base_cfg.cus_per_gpu,
    );
    let r = if trace_args.active() || checkpoint_at.is_some() || restore_path.is_some() {
        // Checkpointed and traced runs drive the experiment directly:
        // both must actually simulate, not replay the result cache.
        let plan = CheckpointPlan {
            checkpoint_at,
            restore_from: restore_path.map(|path| {
                std::fs::read(path).unwrap_or_else(|e| {
                    eprintln!("cannot read snapshot {path}: {e}");
                    std::process::exit(1);
                })
            }),
            fork_at: None,
            fork: None,
        };
        let job = runner.job(workload, variant);
        let exp = job.to_experiment();
        let snapshot_err = |e| -> ! {
            eprintln!("cannot restore snapshot: {e}");
            std::process::exit(1);
        };
        let (run, data) = if trace_args.active() {
            let opts = trace_args.options().unwrap_or_else(|e| {
                eprintln!("{e}");
                std::process::exit(2);
            });
            let (run, data) = exp
                .run_traced_checkpointed(&opts, &plan)
                .unwrap_or_else(|e| snapshot_err(e));
            (run, Some(data))
        } else {
            let run = exp
                .run_checkpointed(&plan)
                .unwrap_or_else(|e| snapshot_err(e));
            (run, None)
        };
        if run.resumed_at > 0 {
            eprintln!(
                "restored snapshot: simulated from cycle {} instead of 0",
                run.resumed_at
            );
        }
        if let Some((cycle, bytes)) = &run.snapshot {
            match runner.checkpoint_store() {
                Some(store) => {
                    let path = store.path_for(&job.cache_key(), *cycle);
                    store
                        .store(&job.cache_key(), *cycle, bytes)
                        .unwrap_or_else(|e| {
                            eprintln!("cannot write checkpoint {}: {e}", path.display());
                            std::process::exit(1);
                        });
                    eprintln!("checkpoint at cycle {cycle} written to {}", path.display());
                }
                None => eprintln!(
                    "checkpoint at cycle {cycle} taken but discarded (no --checkpoint-dir)"
                ),
            }
        }
        if let Some(data) = &data {
            trace_args.write(data).unwrap_or_else(|e| {
                eprintln!("cannot write trace output: {e}");
                std::process::exit(1);
            });
        }
        std::sync::Arc::new(run.result)
    } else {
        runner.run(workload, variant)
    };

    println!(
        "workload             : {workload} ({})",
        workload.description()
    );
    println!("variant              : {}", variant.label());
    println!("execution cycles     : {}", r.exec_cycles);
    println!(
        "instructions         : {}",
        r.metrics.counter("total.cu.instructions")
    );
    println!(
        "memory ops           : {}",
        r.metrics.counter("total.cu.mem_ops")
    );
    println!(
        "inter-cluster flits  : {}",
        r.metrics.counter("net.inter.flits")
    );
    println!(
        "inter link util      : {:.1}%",
        100.0 * r.inter_utilization()
    );
    println!(
        "inter read latency   : {:.0} cycles",
        r.inter_read_latency()
    );
    println!("PTW byte share       : {:.1}%", 100.0 * r.ptw_byte_share());
    println!("L1 MPKI              : {:.2}", r.l1_mpki());
    println!(
        "stitched-away flits  : {:.1}%",
        100.0 * r.stitched_fraction()
    );
    println!(
        "trimmed responses    : {}",
        r.metrics.counter("total.trim.trimmed")
    );
    println!(
        "page-table walks     : {}",
        r.metrics.counter("total.gmmu.walks")
    );
    eprint!("{}", stats_report(&runner.job_stats()));

    if args.has("--dump-metrics") {
        println!("\n--- all metrics ---\n{}", r.metrics);
    }
    if let Some(path) = args.value("--csv") {
        std::fs::write(path, r.metrics.to_csv()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("metrics written to {path}");
    }
}
