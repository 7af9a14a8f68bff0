//! Regenerates the paper's tables and figures.
//!
//! ```text
//! figures [--quick] [--big] [--verbose] [--jobs N]
//!         [--cache-dir DIR] [--checkpoint-at CYCLE] [--checkpoint-dir DIR]
//!         [--restore-from FILE] [--trace FILE] [--timeseries FILE]
//!         [--trace-filter SPEC] [--sample-window N] [--legacy-scheduler]
//!         [--warmup CYCLES] [--no-prefix-share]
//!         <id>... | all
//! ```
//!
//! Ids: table1, table3, fig3, fig4, fig5, fig6, fig7, fig8, fig9, fig12,
//! fig14, fig15, fig16, fig17, fig18, fig19, fig20, fig21, fig22,
//! ablation, scaling.
//!
//! `--jobs N` resolves the figures' simulations on N worker threads;
//! `--cache-dir DIR` persists every result so a re-run only simulates
//! configurations it has never seen. Both leave the printed tables
//! byte-identical to a sequential, uncached run.
//!
//! `--trace FILE` / `--timeseries FILE` re-run the *first* simulation of
//! the first requested figure with observability on and write a
//! Chrome-trace JSON event trace / per-link time-series JSONL. See the
//! `simulate` binary for the filter syntax.
//!
//! `--checkpoint-dir DIR` warm-starts every sweep simulation from the
//! longest cached prefix snapshot and persists any new checkpoint taken
//! via `--checkpoint-at CYCLE`; `--restore-from FILE` resumes the traced
//! re-run from a specific snapshot. All checkpointed paths stay
//! byte-identical to uninterrupted runs.
//!
//! `--warmup CYCLES` keeps every NetCrafter policy knob inert until the
//! given cycle, which lets the sweep share one simulated warmup prefix
//! across all policy variants of a workload (in-memory snapshot forks;
//! DESIGN.md §3.7). `--no-prefix-share` disables the sharing while
//! keeping the warmup semantics — output stays byte-identical, only
//! host-side wall-clock changes.
//!
//! Unknown flags, missing values and unparsable values exit 2 with the
//! usage text; `--help` prints it and exits 0 without simulating.

use std::time::Instant;

use netcrafter_bench::cli::Cli;
use netcrafter_bench::{figures, stats_report, Runner, TraceArgs};
use netcrafter_multigpu::CheckpointPlan;

static CLI: Cli = Cli {
    usage: "usage: figures [--quick] [--big] [--verbose] [--jobs N] [--cache-dir DIR] \
            [--checkpoint-at CYCLE] [--checkpoint-dir DIR] [--restore-from FILE] \
            [--trace FILE] [--timeseries FILE] [--trace-filter SPEC] [--sample-window N] \
            [--legacy-scheduler] [--warmup CYCLES] [--no-prefix-share] <id>... | all",
    values: &[
        "--jobs",
        "--cache-dir",
        "--checkpoint-at",
        "--checkpoint-dir",
        "--restore-from",
        "--warmup",
        "--trace",
        "--timeseries",
        "--trace-filter",
        "--sample-window",
    ],
    switches: &[
        "--quick",
        "--big",
        "--verbose",
        "--legacy-scheduler",
        "--no-prefix-share",
    ],
};

fn main() {
    let args = CLI.from_env();
    // Must run before any simulation; the printed tables are identical
    // under both schedulers (CI diffs them), only host speed changes.
    if args.has("--legacy-scheduler") {
        netcrafter_sim::set_default_scheduler(netcrafter_sim::SchedulerMode::Legacy);
    }
    let quick = args.has("--quick");
    let big = args.has("--big");
    let verbose = args.has("--verbose");
    let jobs: usize = args.parsed("--jobs").unwrap_or(1);
    let cache_dir = args.value("--cache-dir");
    let checkpoint_at: Option<u64> = args.parsed("--checkpoint-at");
    let checkpoint_dir = args.value("--checkpoint-dir");
    let restore_path = args.value("--restore-from");
    let warmup: Option<u64> = args.parsed("--warmup");
    let no_prefix_share = args.has("--no-prefix-share");

    let trace_args = TraceArgs::parse(&args).unwrap_or_else(|e| args.fail(&e));
    let mut ids = args.positional.clone();
    if ids.is_empty() || ids.iter().any(|i| i == "all") {
        ids = figures::all_ids().iter().map(ToString::to_string).collect();
    }
    for id in &ids {
        if !figures::all_ids().contains(&id.as_str()) {
            args.fail(&format!(
                "unknown figure id {id:?}; known: {:?}",
                figures::all_ids()
            ));
        }
    }

    let mut runner = if quick {
        Runner::quick()
    } else {
        Runner::paper()
    };
    if big {
        // Closer to the paper's 64-CU GPUs: 16 CUs with doubled inputs.
        // Expect a full `all` pass to take tens of minutes.
        runner.base_cfg.cus_per_gpu = 16;
        runner.scale.ctas *= 2;
        runner.scale.mem_ops_per_wave *= 2;
    }
    runner.verbose = verbose;
    runner = runner.with_jobs(jobs).with_prefix_share(!no_prefix_share);
    if let Some(w) = warmup {
        runner.base_cfg.netcrafter.warmup_cycles = w;
    }
    if let Some(dir) = cache_dir {
        runner = runner.with_cache_dir(dir).unwrap_or_else(|e| {
            eprintln!("cannot open cache dir {dir}: {e}");
            std::process::exit(1);
        });
    }
    if let Some(at) = checkpoint_at {
        runner = runner.with_checkpoint_at(at);
    }
    if let Some(dir) = checkpoint_dir {
        runner = runner.with_checkpoint_dir(dir).unwrap_or_else(|e| {
            eprintln!("cannot open checkpoint dir {dir}: {e}");
            std::process::exit(1);
        });
    }

    println!(
        "# NetCrafter figure regeneration ({} scale)\n",
        if quick {
            "quick"
        } else if big {
            "big"
        } else {
            "paper"
        }
    );
    let t0 = Instant::now();

    // Resolve every simulation the requested figures need in one parallel
    // sweep; the generators below then hit a warm memo, so stdout is
    // byte-identical regardless of worker count or cache state.
    let mut all_jobs = Vec::new();
    for id in &ids {
        all_jobs.extend(figures::sweep_jobs(id, &runner));
    }
    if !all_jobs.is_empty() {
        runner.sweep(&all_jobs);
        eprintln!(
            "[sweep: {} unique runs resolved in {:.1?}]",
            runner.runs_completed(),
            t0.elapsed()
        );
    }

    for id in &ids {
        let t = Instant::now();
        let table = figures::generate(id, &runner);
        println!("{table}");
        eprintln!(
            "[{id} done in {:.1?}; {} runs cached]",
            t.elapsed(),
            runner.runs_completed()
        );
    }
    eprintln!("[total {:.1?}]", t0.elapsed());
    eprint!("{}", stats_report(&runner.job_stats()));
    eprint!("{}", runner.prefix_stats().report());

    if trace_args.active() {
        let opts = trace_args.options().unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2);
        });
        let job = ids
            .first()
            .and_then(|id| figures::sweep_jobs(id, &runner).into_iter().next())
            .unwrap_or_else(|| {
                eprintln!("--trace/--timeseries: requested figures run no simulations");
                std::process::exit(2);
            });
        eprintln!("[tracing {} …]", job.memo_key());
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
        let (run, data) = job
            .to_experiment()
            .run_traced_checkpointed(&opts, &plan)
            .unwrap_or_else(|e| {
                eprintln!("cannot restore snapshot: {e}");
                std::process::exit(1);
            });
        if run.resumed_at > 0 {
            eprintln!(
                "[restored snapshot: simulated from cycle {} instead of 0]",
                run.resumed_at
            );
        }
        if let Some((cycle, bytes)) = &run.snapshot {
            if let Some(store) = runner.checkpoint_store() {
                let path = store.path_for(&job.cache_key(), *cycle);
                store
                    .store(&job.cache_key(), *cycle, bytes)
                    .unwrap_or_else(|e| {
                        eprintln!("cannot write checkpoint {}: {e}", path.display());
                        std::process::exit(1);
                    });
                eprintln!(
                    "[checkpoint at cycle {cycle} written to {}]",
                    path.display()
                );
            }
        }
        trace_args.write(&data).unwrap_or_else(|e| {
            eprintln!("cannot write trace output: {e}");
            std::process::exit(1);
        });
    }
}
