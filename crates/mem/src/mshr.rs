//! Miss-status holding registers: track outstanding misses and merge
//! same-line requests, with a hard entry limit that stalls the requester
//! when exhausted (Table 2: 32 entries at L1, 64 at L2, 8/64 at the TLBs).

use std::collections::BTreeMap;

use netcrafter_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

/// Result of trying to register a miss.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrOutcome {
    /// First miss on this key: the caller must issue the fill request.
    Allocated,
    /// A miss on this key is already outstanding and covers the new
    /// request: merged, no new fill needed.
    Merged,
    /// No free entries (or the outstanding fill cannot satisfy the new
    /// request): the caller must stall and retry.
    Stalled,
}

/// An MSHR file mapping miss keys to waiting requests.
///
/// Each entry remembers the *coverage* of the in-flight fill as a sector
/// bitmask; a subsequent miss merges only if its needed sectors are a
/// subset of what the fill will bring (relevant under Trimming, where
/// fills may carry a single sector).
#[derive(Debug, Clone)]
pub struct Mshr<W> {
    entries: BTreeMap<u64, Entry<W>>,
    capacity: usize,
    /// Peak simultaneous occupancy, for reporting.
    pub peak: usize,
    /// Times a request had to stall on a full file.
    pub full_stalls: u64,
    /// Times a request merged into an existing entry.
    pub merges: u64,
}

#[derive(Debug, Clone)]
struct Entry<W> {
    coverage: u16,
    waiters: Vec<W>,
}

impl<W> Mshr<W> {
    /// Creates an MSHR file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MSHR needs at least one entry");
        Self {
            entries: BTreeMap::new(),
            capacity,
            peak: 0,
            full_stalls: 0,
            merges: 0,
        }
    }

    /// Outstanding entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no miss is outstanding.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True when every entry is taken: a miss on a new key stalls.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// True when a miss on `key` is already in flight.
    pub fn contains(&self, key: u64) -> bool {
        self.entries.contains_key(&key)
    }

    /// Sector coverage of the outstanding fill for `key` (0 if none).
    pub fn coverage(&self, key: u64) -> u16 {
        self.entries.get(&key).map_or(0, |e| e.coverage)
    }

    /// Registers a miss on `key` needing `sectors`, enqueueing `waiter`
    /// for wake-up on fill.
    pub fn register(&mut self, key: u64, sectors: u16, waiter: W) -> MshrOutcome {
        if let Some(entry) = self.entries.get_mut(&key) {
            if sectors & !entry.coverage == 0 {
                entry.waiters.push(waiter);
                self.merges += 1;
                return MshrOutcome::Merged;
            }
            // The in-flight fill will not bring everything this request
            // needs; the requester must retry after the fill lands.
            self.full_stalls += 1;
            return MshrOutcome::Stalled;
        }
        if self.is_full() {
            self.full_stalls += 1;
            return MshrOutcome::Stalled;
        }
        self.entries.insert(
            key,
            Entry {
                coverage: sectors,
                waiters: vec![waiter],
            },
        );
        self.peak = self.peak.max(self.entries.len());
        MshrOutcome::Allocated
    }

    /// Completes the miss on `key`, returning every waiter to wake.
    ///
    /// # Panics
    ///
    /// Panics if no miss on `key` is outstanding (a response must always
    /// match a request).
    pub fn complete(&mut self, key: u64) -> Vec<W> {
        self.entries
            .remove(&key)
            .unwrap_or_else(|| panic!("MSHR completion for unknown key {key:#x}"))
            .waiters
    }
}

impl<W: Snap> Snap for Mshr<W> {
    fn save(&self, w: &mut SnapshotWriter) {
        w.put_len(self.capacity);
        w.put_len(self.peak);
        w.put_u64(self.full_stalls);
        w.put_u64(self.merges);
        w.put_len(self.entries.len());
        for (key, entry) in &self.entries {
            key.save(w);
            entry.coverage.save(w);
            entry.waiters.save(w);
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let capacity = r.get_len()?;
        if capacity == 0 {
            return Err(SnapshotError::Corrupt("MSHR capacity 0".to_string()));
        }
        let peak = r.get_len()?;
        let full_stalls = r.get_u64()?;
        let merges = r.get_u64()?;
        let n = r.get_len()?;
        if n > capacity {
            return Err(SnapshotError::Corrupt(format!(
                "MSHR holds {n} entries but capacity is {capacity}"
            )));
        }
        let mut entries = BTreeMap::new();
        for _ in 0..n {
            let key: u64 = Snap::load(r)?;
            entries.insert(
                key,
                Entry {
                    coverage: Snap::load(r)?,
                    waiters: Snap::load(r)?,
                },
            );
        }
        Ok(Self {
            entries,
            capacity,
            peak,
            full_stalls,
            merges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocate_merge_complete() {
        let mut m: Mshr<u32> = Mshr::new(2);
        assert_eq!(m.register(0x40, 0b1111, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(0x40, 0b0001, 2), MshrOutcome::Merged);
        assert_eq!(m.len(), 1);
        assert!(m.contains(0x40));
        assert_eq!(m.complete(0x40), vec![1, 2]);
        assert!(m.is_empty());
        assert_eq!(m.merges, 1);
    }

    #[test]
    fn capacity_stalls() {
        let mut m: Mshr<u32> = Mshr::new(1);
        assert_eq!(m.register(0x40, 0b1111, 1), MshrOutcome::Allocated);
        assert_eq!(m.register(0x80, 0b1111, 2), MshrOutcome::Stalled);
        assert_eq!(m.full_stalls, 1);
        m.complete(0x40);
        assert_eq!(m.register(0x80, 0b1111, 2), MshrOutcome::Allocated);
    }

    #[test]
    fn uncovered_sector_stalls_instead_of_merging() {
        let mut m: Mshr<u32> = Mshr::new(4);
        // In-flight fill brings only sector 0 (a trimmed fill).
        assert_eq!(m.register(0x40, 0b0001, 1), MshrOutcome::Allocated);
        // A request for sector 2 cannot merge: the fill won't carry it.
        assert_eq!(m.register(0x40, 0b0100, 2), MshrOutcome::Stalled);
        // A request inside sector 0 merges fine.
        assert_eq!(m.register(0x40, 0b0001, 3), MshrOutcome::Merged);
        assert_eq!(m.complete(0x40), vec![1, 3]);
    }

    #[test]
    fn peak_tracks_high_water_mark() {
        let mut m: Mshr<u32> = Mshr::new(8);
        for i in 0..5u64 {
            m.register(i * 64, 0b1111, i as u32);
        }
        m.complete(0);
        m.complete(64);
        assert_eq!(m.peak, 5);
        assert_eq!(m.len(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown key")]
    fn completing_unknown_key_panics() {
        let mut m: Mshr<u32> = Mshr::new(1);
        m.complete(0x1000);
    }
}
