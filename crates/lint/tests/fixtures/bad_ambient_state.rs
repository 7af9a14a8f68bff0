//! Fixture: ambient mutable state in sim logic must fire
//! no-ambient-state — the engine cannot isolate state it cannot see.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

static mut FLIT_COUNT: u64 = 0;

static SEEN: AtomicU64 = AtomicU64::new(0);

static LOG: Mutex<Vec<u64>> = Mutex::new(Vec::new());

thread_local! {
    static SCRATCH: std::cell::RefCell<Vec<u8>> = std::cell::RefCell::new(Vec::new());
}

pub fn observe(cycle: u64) {
    SEEN.store(cycle, Ordering::Relaxed);
}
