//! A fixed host-speed yardstick, timed beside every pass so that host
//! times can be reported at one reference host speed.
//!
//! The benchmark runs on shared hosts whose speed drifts by up to ~1.5x
//! in phases lasting minutes, longer than a run. Pass times follow that
//! drift, so raw host times of runs made minutes apart disagree by more
//! than any regression worth catching. The yardstick is work whose
//! speed was found to drift with the simulator's: random lookups in a
//! 65,536-entry `BTreeMap`, which is pointer chasing through branchy
//! comparisons across about 1.5 MiB. Plain pointer chases, hash-map
//! lookups and integer arithmetic tracked the simulator's drift less
//! well. The yardstick's code lives in the benchmark and uses only
//! `std`, so a change to the simulator cannot move it.

use std::collections::BTreeMap;
use std::time::Instant;

/// Entries in the map; with `u64` keys and values its nodes take about
/// 1.5 MiB.
const ENTRIES: u64 = 1 << 16;

/// Lookups per timing: ~30 ms on the host the benchmark was tuned on.
const LOOKUPS: u32 = 200_000;

/// Seconds one timing takes at the reference host speed: a round figure
/// near its median (0.027-0.029 s) on the host the benchmark was tuned
/// on. Host times are reported as if every timing had taken this long.
pub const REFERENCE_S: f64 = 0.030;

pub struct Yardstick {
    map: BTreeMap<u64, u64>,
}

impl Yardstick {
    pub fn new() -> Self {
        Yardstick {
            map: (0..ENTRIES).map(|i| (scramble(i), i)).collect(),
        }
    }

    /// Host seconds for one fixed batch of lookups. Every call does the
    /// same work: the same keys in the same order.
    pub fn time(&self) -> f64 {
        let mut x = 0x2545_F491_4F6C_DD1D_u64;
        let mut sum = 0u64;
        let t0 = Instant::now();
        for _ in 0..LOOKUPS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = scramble(x % ENTRIES);
            sum = sum.wrapping_add(self.map[&key]);
        }
        std::hint::black_box(sum);
        t0.elapsed().as_secs_f64()
    }
}

fn scramble(i: u64) -> u64 {
    i.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}
