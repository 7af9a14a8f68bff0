//! Scheduler microbenchmark: host cycles/sec of the cycle engine under the
//! legacy tick-everything scheduler vs the event-driven scheduler, on an
//! idle-heavy workload (where fast-forward and active-set ticking should
//! dominate) and a dense workload (where the event machinery is pure
//! overhead and must stay cheap).
//!
//! Runs with the in-tree harness (no criterion — the workspace builds
//! offline): `cargo bench -p netcrafter-bench --features criterion-bench`.

use std::hint::black_box;
use std::time::{Duration, Instant};

use netcrafter_proto::{Message, NodeId};
use netcrafter_sim::{
    Component, ComponentId, Ctx, Cycle, Engine, EngineBuilder, SchedulerMode, Wake,
};

/// A message-driven forwarder: sleeps until a message arrives, then relays
/// it onward after a fixed delay. The idle-heavy building block.
struct Relay {
    next: ComponentId,
    delay: u64,
    name: String,
}

impl Component for Relay {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(msg) = ctx.recv() {
            ctx.send(self.next, msg, self.delay);
        }
    }
    fn busy(&self) -> bool {
        false
    }
    fn name(&self) -> &str {
        &self.name
    }
    fn next_wake(&self, _now: Cycle) -> Wake {
        Wake::OnMessage
    }
}

/// A component with real work every cycle; keeps the default
/// `Wake::EveryCycle` so neither scheduler can skip it.
struct Churn {
    state: u64,
    name: String,
}

impl Component for Churn {
    fn tick(&mut self, _ctx: &mut Ctx<'_>) {
        self.state = (self.state ^ 0x9e37_79b9_7f4a_7c15)
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .rotate_left(31);
    }
    fn busy(&self) -> bool {
        true
    }
    fn name(&self) -> &str {
        &self.name
    }
}

/// Ring of `n` message-driven relays with a single token circulating every
/// `delay` cycles: almost every component is idle on almost every cycle.
fn build_idle_heavy(n: usize, delay: u64, mode: SchedulerMode) -> Engine {
    let mut b = EngineBuilder::new();
    let ids: Vec<ComponentId> = (0..n).map(|_| b.reserve()).collect();
    for (i, &id) in ids.iter().enumerate() {
        b.install(
            id,
            Box::new(Relay {
                next: ids[(i + 1) % n],
                delay,
                name: format!("relay{i}"),
            }),
        );
    }
    let mut e = b.build();
    e.set_scheduler(mode);
    e.inject(
        ids[0],
        Message::Credit {
            from: NodeId(0),
            count: 1,
            link: 0,
        },
        1,
    );
    e
}

/// `n` always-busy components: both schedulers must tick every one of
/// them every cycle.
fn build_dense(n: usize, mode: SchedulerMode) -> Engine {
    let mut b = EngineBuilder::new();
    for i in 0..n {
        b.add(Box::new(Churn {
            state: i as u64,
            name: format!("churn{i}"),
        }));
    }
    let mut e = b.build();
    e.set_scheduler(mode);
    e
}

/// Runs `build()` → `run_while(cycles)` several times and returns the best
/// host cycles/sec (minimum wall time is the robust estimator; noise is
/// strictly additive).
fn measure(cycles: Cycle, mut build: impl FnMut() -> Engine) -> f64 {
    let mut best = Duration::MAX;
    let mut runs = 0u32;
    let t_all = Instant::now();
    while runs < 20 && (runs < 3 || t_all.elapsed() < Duration::from_millis(500)) {
        let mut e = build();
        let t0 = Instant::now();
        e.run_while(cycles, |_| true);
        best = best.min(t0.elapsed());
        black_box(e.cycle());
        runs += 1;
    }
    cycles as f64 / best.as_secs_f64()
}

fn report(scenario: &str, cycles: Cycle, mut build: impl FnMut(SchedulerMode) -> Engine) {
    let legacy = measure(cycles, || build(SchedulerMode::Legacy));
    let event = measure(cycles, || build(SchedulerMode::EventDriven));
    println!(
        "engine/{scenario:<34} legacy {:>12.0} cyc/s   event {:>12.0} cyc/s   speedup {:>6.2}x",
        legacy,
        event,
        event / legacy
    );
}

fn main() {
    report("idle_heavy_256_relays_200k", 200_000, |mode| {
        build_idle_heavy(256, 64, mode)
    });
    report("dense_64_churn_20k", 20_000, |mode| build_dense(64, mode));
}
