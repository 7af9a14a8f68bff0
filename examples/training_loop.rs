//! Multi-kernel execution: a data-parallel DNN training loop where every
//! step is its own kernel launch separated by a global kernel barrier —
//! the launch structure of §2.2. Later steps run on warm TLBs and caches,
//! and the per-step gradient exchange keeps the inter-cluster links busy,
//! so NetCrafter's benefit persists across steps.
//!
//! Also demonstrates the structured event tracer: a filter keeps only the
//! switches' flit events, and the last of them are printed at the end.
//!
//! ```text
//! cargo run --release --example training_loop
//! ```

use netcrafter::multigpu::{System, SystemVariant};
use netcrafter::proto::SystemConfig;
use netcrafter::sim::TraceConfig;
use netcrafter::workloads::{Scale, Workload};

const STEPS: usize = 4;

/// How many of the run's final flit events to print.
const LAST_EVENTS: usize = 12;

fn run(variant: SystemVariant, trace: bool) -> (u64, Vec<(String, u64)>, Vec<String>) {
    let cfg = variant.apply(SystemConfig::small(8));
    // One kernel per training step; all steps touch the same buffers, so
    // placement and translations persist across the barriers.
    let kernels: Vec<_> = (0..STEPS)
        .map(|step| {
            let mut k = Workload::Vgg16.generate(&Scale::small(), cfg.total_gpus(), 7);
            k.name = format!("vgg16-step{step}");
            k
        })
        .collect();
    let mut sys = System::build_multi(cfg, &kernels);
    if trace {
        sys.enable_tracing(TraceConfig::parse("comp=switch; class=flit").expect("valid filter"));
    }
    let total = sys.run_all(50_000_000);
    let trace = sys.take_trace();
    let last = &trace.events[trace.events.len().saturating_sub(LAST_EVENTS)..];
    let dump = last
        .iter()
        .map(|e| {
            format!(
                "cycle {:>8}: {:<8} {:<10} packet {:>6}, {:>2} bytes",
                e.cycle, e.name, trace.tracks[e.track as usize], e.id, e.value
            )
        })
        .collect();
    (total, sys.kernel_cycles.clone(), dump)
}

fn main() {
    let (base_total, base_steps, _) = run(SystemVariant::Baseline, false);
    let (nc_total, nc_steps, trace) = run(SystemVariant::NetCrafter, true);

    println!("VGG16 data-parallel training, {STEPS} steps (kernel barriers between):\n");
    println!("{:<18} {:>12} {:>12}", "step", "baseline", "netcrafter");
    for (b, n) in base_steps.iter().zip(&nc_steps) {
        println!("{:<18} {:>12} {:>12}", b.0, b.1, n.1);
    }
    println!("{:<18} {:>12} {:>12}", "TOTAL", base_total, nc_total);
    println!(
        "\ncold-start effect: step 0 vs steady-state step (baseline): {} vs {} cycles",
        base_steps[0].1,
        base_steps.last().unwrap().1
    );
    println!(
        "NetCrafter end-to-end speedup: {:.2}x",
        base_total as f64 / nc_total as f64
    );

    println!(
        "\nlast {} switch flit events of the NetCrafter run:",
        trace.len()
    );
    for line in trace {
        println!("  {line}");
    }
}
