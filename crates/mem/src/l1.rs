//! The per-CU L1 vector cache: 64 KB, write-through, 20-cycle lookup,
//! 32-entry MSHR (Table 2), with per-sector line validity to support
//! NetCrafter's Trimming (§4.3) and the sector-cache baseline (§5.3).
//!
//! The L1 is a passive structure embedded in its CU component: the CU
//! drives it, applies the 20-cycle lookup latency to completions, issues
//! the fill requests it demands, and feeds responses back through
//! [`L1Cache::fill`].

use netcrafter_proto::config::{CacheConfig, SectorFillPolicy};
use netcrafter_proto::{AccessId, LineAddr, LineMask, Metrics, LINE_BYTES};
use netcrafter_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};

use crate::mshr::{Mshr, MshrOutcome};
use crate::tagstore::TagStore;

/// Outcome of an L1 read lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum L1Access {
    /// All needed sectors are resident; data is ready after the lookup
    /// latency.
    Hit,
    /// Miss: the caller must fetch `sectors` of the line from the owning
    /// L2 (local or remote) and call [`L1Cache::fill`] with the response.
    Miss {
        /// Sector mask to request, per the configured fill policy.
        sectors: u16,
    },
    /// Miss merged into an in-flight fill of the same line; the waiter
    /// wakes when that fill lands. No new request is needed.
    MergedMiss,
    /// The MSHR is full (or an in-flight partial fill cannot satisfy this
    /// request): retry once a fill has landed. Until then every retry
    /// stalls the same way ([`L1Cache::replay_stalls`]).
    Stall,
}

/// L1 statistics (drives the MPKI comparisons of Figures 16 and 17).
#[derive(Debug, Clone, Copy, Default)]
pub struct L1Stats {
    /// Read lookups.
    pub reads: u64,
    /// Write lookups (write-through; never allocate).
    pub writes: u64,
    /// Read hits.
    pub hits: u64,
    /// Read misses (allocated + merged).
    pub misses: u64,
    /// Misses where the line was resident but a needed sector was not —
    /// the cost of sectored fills.
    pub sector_misses: u64,
    /// Fills applied.
    pub fills: u64,
    /// Lines evicted by fills.
    pub evictions: u64,
}

impl Snap for L1Stats {
    fn save(&self, w: &mut SnapshotWriter) {
        self.reads.save(w);
        self.writes.save(w);
        self.hits.save(w);
        self.misses.save(w);
        self.sector_misses.save(w);
        self.fills.save(w);
        self.evictions.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(L1Stats {
            reads: Snap::load(r)?,
            writes: Snap::load(r)?,
            hits: Snap::load(r)?,
            misses: Snap::load(r)?,
            sector_misses: Snap::load(r)?,
            fills: Snap::load(r)?,
            evictions: Snap::load(r)?,
        })
    }
}

impl L1Stats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.reads"), self.reads);
        metrics.add(&format!("{prefix}.writes"), self.writes);
        metrics.add(&format!("{prefix}.hits"), self.hits);
        metrics.add(&format!("{prefix}.misses"), self.misses);
        metrics.add(&format!("{prefix}.sector_misses"), self.sector_misses);
        metrics.add(&format!("{prefix}.fills"), self.fills);
        metrics.add(&format!("{prefix}.evictions"), self.evictions);
    }
}

/// The L1 vector cache model.
///
/// # Examples
///
/// ```
/// use netcrafter_mem::{L1Access, L1Cache};
/// use netcrafter_proto::config::{CacheConfig, SectorFillPolicy};
/// use netcrafter_proto::{AccessId, LineAddr, LineMask};
///
/// let cfg = CacheConfig {
///     size_bytes: 64 * 1024, ways: 4, lookup_cycles: 20, mshr_entries: 32, banks: 1,
/// };
/// let mut l1 = L1Cache::new(&cfg, SectorFillPolicy::OnTrim, 16);
/// // An 8-byte cross-cluster read requests a single trimmed sector…
/// let acc = l1.read(LineAddr(0x40), LineMask::span(0, 8), AccessId(1), 0, true);
/// assert_eq!(acc, L1Access::Miss { sectors: 0b0001 });
/// // …and the fill wakes the waiter and validates just that sector.
/// assert_eq!(l1.fill(LineAddr(0x40), 0b0001, 10), vec![AccessId(1)]);
/// assert_eq!(
///     l1.read(LineAddr(0x40), LineMask::span(0, 4), AccessId(2), 11, true),
///     L1Access::Hit
/// );
/// ```
#[derive(Debug)]
pub struct L1Cache {
    tags: TagStore<u16>,
    mshr: Mshr<AccessId>,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    policy: SectorFillPolicy,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    granularity: u32,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    full_mask: u16,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    lookup_cycles: u32,
    /// Statistics.
    pub stats: L1Stats,
}

impl L1Cache {
    /// Builds an L1 from its configuration.
    pub fn new(cfg: &CacheConfig, policy: SectorFillPolicy, granularity: u32) -> Self {
        assert!(granularity > 0 && (LINE_BYTES as u32).is_multiple_of(granularity));
        let lines = (cfg.size_bytes / LINE_BYTES) as usize;
        let sectors_per_line = LINE_BYTES as u32 / granularity;
        Self {
            tags: TagStore::with_entries(lines, cfg.ways as usize),
            mshr: Mshr::new(cfg.mshr_entries as usize),
            policy,
            granularity,
            full_mask: ((1u32 << sectors_per_line) - 1) as u16,
            lookup_cycles: cfg.lookup_cycles,
            stats: L1Stats::default(),
        }
    }

    /// Lookup latency in cycles (the CU applies it to completions).
    pub fn lookup_cycles(&self) -> u32 {
        self.lookup_cycles
    }

    /// Configured sector granularity in bytes.
    pub fn granularity(&self) -> u32 {
        self.granularity
    }

    /// Sector mask a fill request should carry for an access needing
    /// `mask`, given the fill policy and whether the line's owner is
    /// across the inter-cluster network.
    ///
    /// * `FullLine` — always the whole line (baseline).
    /// * `Always` — exactly the needed sectors (sector-cache baseline,
    ///   local and remote alike).
    /// * `OnTrim` — one sector only when the access fits a single sector
    ///   *and* the response would cross clusters (§4.3: "we only trim when
    ///   the request has to traverse the lowest-bandwidth network").
    pub fn fill_request_sectors(&self, mask: LineMask, crosses_clusters: bool) -> u16 {
        match self.policy {
            SectorFillPolicy::FullLine => self.full_mask,
            SectorFillPolicy::Always => mask.sectors(self.granularity as u64),
            SectorFillPolicy::OnTrim => {
                if crosses_clusters && mask.fits_one_sector(self.granularity as u64) {
                    mask.sectors(self.granularity as u64)
                } else {
                    self.full_mask
                }
            }
        }
    }

    /// Performs a read lookup for `waiter` needing `mask` of `line`.
    pub fn read(
        &mut self,
        line: LineAddr,
        mask: LineMask,
        waiter: AccessId,
        now: u64,
        crosses_clusters: bool,
    ) -> L1Access {
        let needed = mask.sectors(self.granularity as u64);
        let key = line.0 / LINE_BYTES;
        let resident = self.tags.lookup(key, now).map(|v| *v);
        let mut sector_miss = false;
        if let Some(valid) = resident {
            if needed & !valid == 0 {
                self.stats.reads += 1;
                self.stats.hits += 1;
                return L1Access::Hit;
            }
            sector_miss = true;
        }
        let request = self.fill_request_sectors(mask, crosses_clusters);
        debug_assert_eq!(needed & !request, 0, "fill must cover the access");
        // Merging into an in-flight fill is judged on the sectors this
        // access *needs*; only a fresh allocation records the (possibly
        // wider) fill-request coverage. Otherwise a local full-line
        // request behind a trimmed single-sector fill would stall even
        // though the fill covers it.
        let register_mask = if self.mshr.contains(key) {
            needed
        } else {
            request
        };
        // Statistics count each logical access once: a Stall outcome is
        // retried by the CU and must not inflate the read/sector-miss
        // counters on every attempt.
        match self.mshr.register(key, register_mask, waiter) {
            MshrOutcome::Allocated => {
                self.stats.reads += 1;
                self.stats.sector_misses += u64::from(sector_miss);
                self.stats.misses += 1;
                L1Access::Miss { sectors: request }
            }
            MshrOutcome::Merged => {
                self.stats.reads += 1;
                self.stats.sector_misses += u64::from(sector_miss);
                self.stats.misses += 1;
                L1Access::MergedMiss
            }
            MshrOutcome::Stalled => L1Access::Stall,
        }
    }

    /// True when a read of `mask` of `line` would get [`L1Access::Stall`]
    /// right now: the needed sectors are not resident, and the MSHR either
    /// holds an entry for the line whose fill misses some of them or has
    /// no entry for it and no room for one. Touches nothing.
    pub fn would_stall(&self, line: LineAddr, mask: LineMask) -> bool {
        let needed = mask.sectors(self.granularity as u64);
        let key = line.0 / LINE_BYTES;
        if self
            .tags
            .peek(key)
            .is_some_and(|valid| needed & !valid == 0)
        {
            return false;
        }
        if self.mshr.contains(key) {
            needed & !self.mshr.coverage(key) != 0
        } else {
            self.mshr.is_full()
        }
    }

    /// Applies the side effects of `n` stalled [`L1Cache::read`]s of
    /// `line`, the last at cycle `last`, without re-running them: the
    /// line's LRU stamp (if it is resident) moves to `last`, and the
    /// MSHR counts `n` stalls. Nothing else changes between stalled
    /// attempts while no fill lands, so this equals `n` real attempts.
    pub fn replay_stalls(&mut self, line: LineAddr, last: u64, n: u64) {
        let _ = self.tags.lookup(line.0 / LINE_BYTES, last);
        self.mshr.full_stalls += n;
    }

    /// Performs a write lookup. The L1 is write-through and
    /// no-write-allocate: the write always propagates to the owning L2;
    /// if the line is resident its written sectors remain valid (data
    /// updated in place).
    pub fn write(&mut self, line: LineAddr, _mask: LineMask, now: u64) {
        self.stats.writes += 1;
        let key = line.0 / LINE_BYTES;
        let _ = self.tags.lookup(key, now);
    }

    /// Applies a fill carrying `sectors_valid` of `line`; returns the
    /// accesses waiting on it.
    pub fn fill(&mut self, line: LineAddr, sectors_valid: u16, now: u64) -> Vec<AccessId> {
        self.stats.fills += 1;
        let key = line.0 / LINE_BYTES;
        if let Some(valid) = self.tags.lookup(key, now) {
            *valid |= sectors_valid;
        } else if self.tags.insert(key, sectors_valid, now).is_some() {
            self.stats.evictions += 1;
        }
        self.mshr.complete(key)
    }

    /// Misses currently outstanding.
    pub fn outstanding_misses(&self) -> usize {
        self.mshr.len()
    }

    /// True while fills are pending.
    pub fn busy(&self) -> bool {
        !self.mshr.is_empty()
    }

    /// Read attempts the MSHR refused: one per wave per stalled cycle.
    pub fn mshr_stalls(&self) -> u64 {
        self.mshr.full_stalls
    }

    /// Dumps the statistics plus the MSHR stall count under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        self.stats.report(metrics, prefix);
        metrics.add(&format!("{prefix}.mshr_stalls"), self.mshr_stalls());
    }

    /// Appends the cache's dynamic state (tags, MSHR, stats) to `w`; the
    /// configuration (policy, granularity, latency) stays builder-time.
    pub fn save_state(&self, w: &mut SnapshotWriter) {
        self.tags.save(w);
        self.mshr.save(w);
        self.stats.save(w);
    }

    /// Restores the state written by [`L1Cache::save_state`] into this
    /// (identically configured) cache. The tag array is decoded in place
    /// ([`TagStore::load_into`]) — restore is a sweep hot path.
    pub fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.tags.load_into(r)?;
        self.mshr = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(policy: SectorFillPolicy) -> L1Cache {
        L1Cache::new(
            &CacheConfig {
                size_bytes: 1024, // 16 lines
                ways: 4,
                lookup_cycles: 20,
                mshr_entries: 4,
                banks: 1,
            },
            policy,
            16,
        )
    }

    fn line(n: u64) -> LineAddr {
        LineAddr(n * 64)
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache(SectorFillPolicy::FullLine);
        let r = c.read(line(1), LineMask::span(0, 8), AccessId(1), 0, false);
        assert_eq!(r, L1Access::Miss { sectors: 0b1111 });
        assert_eq!(c.fill(line(1), 0b1111, 5), vec![AccessId(1)]);
        let r = c.read(line(1), LineMask::span(32, 8), AccessId(2), 6, false);
        assert_eq!(r, L1Access::Hit);
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 1);
    }

    #[test]
    fn merged_miss_wakes_both_waiters() {
        let mut c = cache(SectorFillPolicy::FullLine);
        assert!(matches!(
            c.read(line(2), LineMask::span(0, 4), AccessId(1), 0, false),
            L1Access::Miss { .. }
        ));
        assert_eq!(
            c.read(line(2), LineMask::span(8, 4), AccessId(2), 1, false),
            L1Access::MergedMiss
        );
        let woken = c.fill(line(2), 0b1111, 10);
        assert_eq!(woken, vec![AccessId(1), AccessId(2)]);
        assert_eq!(c.stats.misses, 2);
    }

    #[test]
    fn mshr_exhaustion_stalls() {
        let mut c = cache(SectorFillPolicy::FullLine);
        for i in 0..4 {
            assert!(matches!(
                c.read(line(10 + i), LineMask::span(0, 4), AccessId(i), 0, false),
                L1Access::Miss { .. }
            ));
        }
        assert_eq!(
            c.read(line(20), LineMask::span(0, 4), AccessId(9), 1, false),
            L1Access::Stall
        );
        assert!(c.mshr_stalls() > 0);
    }

    #[test]
    fn trim_policy_requests_single_sector_only_across_clusters() {
        let c = cache(SectorFillPolicy::OnTrim);
        let small = LineMask::span(16, 8); // fits sector 1
        assert_eq!(c.fill_request_sectors(small, true), 0b0010);
        assert_eq!(
            c.fill_request_sectors(small, false),
            0b1111,
            "local: full line"
        );
        let wide = LineMask::span(8, 16); // straddles sectors 0-1
        assert_eq!(
            c.fill_request_sectors(wide, true),
            0b1111,
            "multi-sector: full line"
        );
    }

    #[test]
    fn always_policy_requests_needed_sectors_everywhere() {
        let c = cache(SectorFillPolicy::Always);
        let m = LineMask::span(48, 8);
        assert_eq!(c.fill_request_sectors(m, false), 0b1000);
        assert_eq!(c.fill_request_sectors(m, true), 0b1000);
    }

    #[test]
    fn sector_miss_on_partial_line() {
        let mut c = cache(SectorFillPolicy::OnTrim);
        // Trimmed fill brings only sector 0.
        assert_eq!(
            c.read(line(3), LineMask::span(0, 8), AccessId(1), 0, true),
            L1Access::Miss { sectors: 0b0001 }
        );
        c.fill(line(3), 0b0001, 5);
        // Sector 0 hits.
        assert_eq!(
            c.read(line(3), LineMask::span(4, 4), AccessId(2), 6, true),
            L1Access::Hit
        );
        // Sector 3 misses even though the line is resident.
        assert_eq!(
            c.read(line(3), LineMask::span(48, 8), AccessId(3), 7, true),
            L1Access::Miss { sectors: 0b1000 }
        );
        assert_eq!(c.stats.sector_misses, 1);
        c.fill(line(3), 0b1000, 12);
        // Now both sectors are valid.
        assert_eq!(
            c.read(line(3), LineMask::span(48, 4), AccessId(4), 13, true),
            L1Access::Hit
        );
    }

    #[test]
    fn uncovered_inflight_fill_stalls_new_sector() {
        let mut c = cache(SectorFillPolicy::OnTrim);
        assert_eq!(
            c.read(line(4), LineMask::span(0, 8), AccessId(1), 0, true),
            L1Access::Miss { sectors: 0b0001 }
        );
        // Same line, different sector, while the single-sector fill is in
        // flight: cannot merge, must stall and retry after the fill.
        assert_eq!(
            c.read(line(4), LineMask::span(32, 8), AccessId(2), 1, true),
            L1Access::Stall
        );
        c.fill(line(4), 0b0001, 10);
        assert_eq!(
            c.read(line(4), LineMask::span(32, 8), AccessId(2), 11, true),
            L1Access::Miss { sectors: 0b0100 }
        );
    }

    #[test]
    fn eviction_counted() {
        let mut c = cache(SectorFillPolicy::FullLine);
        // 16 lines, 4 ways, 4 sets. Fill 5 lines mapping to the same set
        // (stride = n_sets lines).
        let n_sets = 4;
        for i in 0..5u64 {
            let l = line(i * n_sets);
            assert!(matches!(
                c.read(l, LineMask::span(0, 4), AccessId(i), i, false),
                L1Access::Miss { .. }
            ));
            c.fill(l, 0b1111, i + 100);
        }
        assert_eq!(c.stats.evictions, 1);
    }

    #[test]
    fn writes_do_not_allocate() {
        let mut c = cache(SectorFillPolicy::FullLine);
        c.write(line(6), LineMask::span(0, 8), 0);
        assert_eq!(c.stats.writes, 1);
        // Still a miss on read: writes never allocate.
        assert!(matches!(
            c.read(line(6), LineMask::span(0, 8), AccessId(1), 1, false),
            L1Access::Miss { .. }
        ));
    }

    fn state_bytes(c: &L1Cache) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        c.save_state(&mut w);
        w.into_bytes()
    }

    #[test]
    fn replayed_stalls_equal_real_stalled_reads() {
        // Line 3 is resident with sector 0 only; a fill of sector 3 is in
        // flight. A read of sector 2 cannot merge into it and stalls, and
        // keeps stalling until that fill lands.
        let mut real = cache(SectorFillPolicy::Always);
        real.read(line(3), LineMask::span(0, 8), AccessId(1), 0, false);
        real.fill(line(3), 0b0001, 5);
        real.read(line(3), LineMask::span(48, 8), AccessId(2), 6, false);
        let sector2 = LineMask::span(32, 8);
        assert!(real.would_stall(line(3), sector2));
        assert!(!real.would_stall(line(3), LineMask::span(0, 4)), "a hit");
        assert!(!real.would_stall(line(3), LineMask::span(48, 4)), "a merge");
        assert!(!real.would_stall(line(9), sector2), "a free entry");
        let mut full = cache(SectorFillPolicy::Always);
        for i in 0..4 {
            full.read(line(10 + i), sector2, AccessId(i), 0, false);
        }
        assert!(full.would_stall(line(9), sector2), "a full MSHR");

        let mut replay = cache(SectorFillPolicy::Always);
        replay.read(line(3), LineMask::span(0, 8), AccessId(1), 0, false);
        replay.fill(line(3), 0b0001, 5);
        replay.read(line(3), LineMask::span(48, 8), AccessId(2), 6, false);
        for (id, now) in (7..10).enumerate() {
            assert_eq!(
                real.read(line(3), sector2, AccessId(3 + id as u64), now, false),
                L1Access::Stall
            );
        }
        replay.replay_stalls(line(3), 9, 3);
        assert_eq!(state_bytes(&replay), state_bytes(&real));
        assert_eq!(replay.mshr_stalls(), 3);
    }
}
