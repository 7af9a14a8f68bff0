//! The compute unit: executes coalesced wavefront access streams with
//! latency hiding, owns a private L1 TLB and L1 vector cache, and feeds
//! the memory hierarchy (§2.1).
//!
//! A CU keeps up to `max_waves_per_cu` wavefronts resident and issues one
//! operation per cycle from a ready wavefront (round-robin). A wavefront
//! blocks on its own loads — other wavefronts keep issuing, which is the
//! latency tolerance GPUs (and Flit Pooling) rely on. Stores are posted:
//! they propagate write-through toward the owning L2 and only bound the
//! CU by the outstanding-access cap.

use std::collections::{BTreeMap, VecDeque};

use netcrafter_mem::{L1Access, L1Cache};
use netcrafter_proto::access::{CoalescedAccess, WavefrontOp, WavefrontTrace};
use netcrafter_proto::config::SystemConfig;
use netcrafter_proto::ids::IdAlloc;
use netcrafter_proto::{
    AccessId, CuId, GpuId, LatencyStat, MemReq, Message, Metrics, Origin, PAddr, TrafficClass,
    TransReq, PAGE_BYTES,
};
use netcrafter_sim::snapshot::{Snap, SnapshotError, SnapshotReader, SnapshotWriter};
use netcrafter_sim::{BurstOutcome, Component, ComponentId, Ctx, Cycle, EventClass, Wake};
use netcrafter_vm::Tlb;

/// Where the CU's outgoing traffic goes.
#[derive(Debug, Clone)]
pub struct CuWiring {
    /// The GPU's shared translation unit (L2 TLB + GMMU).
    pub gmmu: ComponentId,
    /// The GPU's local L2 cache.
    pub l2: ComponentId,
    /// The GPU's RDMA engine (remote lines).
    pub rdma: ComponentId,
}

/// Per-CU statistics.
#[derive(Debug, Clone, Default)]
pub struct CuStats {
    /// Dynamic operations issued (MPKI denominator).
    pub instructions: u64,
    /// Memory operations issued.
    pub mem_ops: u64,
    /// Reads whose line lives on another GPU.
    pub remote_reads: u64,
    /// Reads whose line lives across the inter-cluster network.
    pub inter_cluster_reads: u64,
    /// Figure 7: inter-cluster reads bucketed by bytes required
    /// (16/32/48/64).
    pub fig7: [u64; 4],
    /// End-to-end latency of inter-cluster reads (issue → data).
    pub inter_cluster_read_latency: LatencyStat,
    /// End-to-end latency of all reads.
    pub read_latency: LatencyStat,
    /// Cycles with no ready wavefront (stall cycles).
    pub idle_cycles: u64,
    /// Wavefronts completed.
    pub waves_done: u64,
}

impl Snap for CuStats {
    fn save(&self, w: &mut SnapshotWriter) {
        self.instructions.save(w);
        self.mem_ops.save(w);
        self.remote_reads.save(w);
        self.inter_cluster_reads.save(w);
        self.fig7.save(w);
        self.inter_cluster_read_latency.save(w);
        self.read_latency.save(w);
        self.idle_cycles.save(w);
        self.waves_done.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(CuStats {
            instructions: Snap::load(r)?,
            mem_ops: Snap::load(r)?,
            remote_reads: Snap::load(r)?,
            inter_cluster_reads: Snap::load(r)?,
            fig7: Snap::load(r)?,
            inter_cluster_read_latency: Snap::load(r)?,
            read_latency: Snap::load(r)?,
            idle_cycles: Snap::load(r)?,
            waves_done: Snap::load(r)?,
        })
    }
}

impl CuStats {
    /// Dumps counters under `prefix`.
    pub fn report(&self, metrics: &mut Metrics, prefix: &str) {
        metrics.add(&format!("{prefix}.instructions"), self.instructions);
        metrics.add(&format!("{prefix}.mem_ops"), self.mem_ops);
        metrics.add(&format!("{prefix}.remote_reads"), self.remote_reads);
        metrics.add(
            &format!("{prefix}.inter_cluster_reads"),
            self.inter_cluster_reads,
        );
        for (i, count) in self.fig7.iter().enumerate() {
            metrics.add(&format!("{prefix}.fig7_{}B", (i + 1) * 16), *count);
        }
        metrics
            .latency_mut(&format!("{prefix}.inter_cluster_read_latency"))
            .merge(&self.inter_cluster_read_latency);
        metrics
            .latency_mut(&format!("{prefix}.read_latency"))
            .merge(&self.read_latency);
        metrics.add(&format!("{prefix}.idle_cycles"), self.idle_cycles);
        metrics.add(&format!("{prefix}.waves_done"), self.waves_done);
    }
}

#[derive(Debug)]
enum WfState {
    /// Can issue its next op.
    Ready,
    /// Computing or absorbing L1 hit latency until the given cycle.
    BusyUntil(Cycle),
    /// Waiting for a translation (the pending access resumes on reply).
    WaitTranslation(CoalescedAccess),
    /// Waiting for a read fill.
    WaitMem,
    /// L1/MSHR or outstanding-cap stall: retry the translated access.
    RetryAccess(CoalescedAccess, u64),
    /// Trace exhausted.
    Done,
}

impl Snap for WfState {
    fn save(&self, w: &mut SnapshotWriter) {
        match self {
            WfState::Ready => 0u8.save(w),
            WfState::BusyUntil(t) => {
                1u8.save(w);
                t.save(w);
            }
            WfState::WaitTranslation(acc) => {
                2u8.save(w);
                acc.save(w);
            }
            WfState::WaitMem => 3u8.save(w),
            WfState::RetryAccess(acc, pfn) => {
                4u8.save(w);
                acc.save(w);
                pfn.save(w);
            }
            WfState::Done => 5u8.save(w),
        }
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        Ok(match u8::load(r)? {
            0 => WfState::Ready,
            1 => WfState::BusyUntil(Snap::load(r)?),
            2 => WfState::WaitTranslation(Snap::load(r)?),
            3 => WfState::WaitMem,
            4 => WfState::RetryAccess(Snap::load(r)?, Snap::load(r)?),
            5 => WfState::Done,
            tag => {
                return Err(SnapshotError::Corrupt(format!(
                    "unknown wavefront state tag {tag}"
                )))
            }
        })
    }
}

#[derive(Debug)]
struct Wavefront {
    trace: WavefrontTrace,
    pc: usize,
    state: WfState,
    /// Loads in flight for this wavefront (non-blocking up to the CU's
    /// `max_loads_per_wave`).
    loads_in_flight: u16,
}

impl Snap for Wavefront {
    fn save(&self, w: &mut SnapshotWriter) {
        self.trace.save(w);
        self.pc.save(w);
        self.state.save(w);
        self.loads_in_flight.save(w);
    }
    fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let trace: WavefrontTrace = Snap::load(r)?;
        let pc: usize = Snap::load(r)?;
        if pc > trace.ops.len() {
            return Err(SnapshotError::Corrupt(format!(
                "wavefront pc {pc} past {} trace ops",
                trace.ops.len()
            )));
        }
        Ok(Wavefront {
            trace,
            pc,
            state: Snap::load(r)?,
            loads_in_flight: Snap::load(r)?,
        })
    }
}

/// A compute unit component.
pub struct Cu {
    // lint:allow(snapshot-field-parity) construction-time wiring identity
    gpu: GpuId,
    #[allow(dead_code)]
    // lint:allow(snapshot-field-parity) construction-time wiring identity
    cu: CuId,
    // lint:allow(snapshot-field-parity) construction-time wiring identity
    cu_raw: u16,
    // lint:allow(snapshot-field-parity) construction-time identity; load_state only names it in decode error messages
    name: String,
    /// The CU's private L1 vector cache.
    pub l1: L1Cache,
    /// The CU's private L1 TLB.
    pub l1_tlb: Tlb,
    // lint:allow(snapshot-field-parity) construction-time wiring; the restore target is built with the same topology
    wiring: CuWiring,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    gpus_per_cluster: u16,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    frames_per_gpu: u64,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    hop_cycles: u32,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    max_waves: usize,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    max_outstanding: u32,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    max_loads_per_wave: u16,
    // lint:allow(snapshot-field-parity) construction-time config; identical in the restore target by construction
    full_sector_mask: u16,

    resident: Vec<Wavefront>,
    pending: VecDeque<WavefrontTrace>,
    rr: usize,
    ids: IdAlloc<AccessId>,
    // lint:allow(snapshot-field-parity) construction-time id-space base, derived from wiring
    id_base: u64,
    trans_waiters: BTreeMap<AccessId, usize>,
    read_waiters: BTreeMap<AccessId, usize>,
    issue_times: BTreeMap<AccessId, (Cycle, bool)>, // (issued, inter_cluster)
    outstanding: u32,
    /// Cycle of the last tick, the anchor for arithmetic `idle_cycles`
    /// catch-up after an event-driven scheduler skips blocked cycles.
    last_tick: Cycle,
    /// Whether the CU was busy at the end of the last tick. State is
    /// frozen between ticks, so this is the busy value for every cycle
    /// the scheduler skipped since (`load_waves` can flip it, but only
    /// at a kernel barrier, which re-ticks the CU immediately).
    was_busy: bool,
    /// Statistics.
    pub stats: CuStats,
}

impl Cu {
    /// Builds a CU of `gpu` with GPU-local index `cu`, executing `waves`.
    pub fn new(
        gpu: GpuId,
        cu: CuId,
        cfg: &SystemConfig,
        waves: Vec<WavefrontTrace>,
        wiring: CuWiring,
    ) -> Self {
        let l1 = L1Cache::new(&cfg.l1, cfg.sector_fill, cfg.trim_granularity);
        let l1_tlb = Tlb::new(&cfg.l1_tlb);
        // Globally unique access ids: gpu and cu in the high bits.
        let id_base = ((gpu.raw() as u64) << 40) | ((cu.raw() as u64) << 24);
        Self {
            gpu,
            cu,
            cu_raw: cu.raw(),
            name: format!("{gpu}.{cu}"),
            l1,
            l1_tlb,
            wiring,
            gpus_per_cluster: cfg.topology.gpus_per_cluster,
            frames_per_gpu: 1u64 << (netcrafter_proto::config::PA_GPU_REGION_BITS - 12),
            hop_cycles: cfg.on_chip_hop_cycles,
            max_waves: cfg.max_waves_per_cu as usize,
            max_outstanding: cfg.max_outstanding_per_cu,
            max_loads_per_wave: cfg.max_loads_per_wave.max(1),
            full_sector_mask: cfg.full_sector_mask(),
            resident: Vec::new(),
            pending: waves.into(),
            rr: 0,
            ids: IdAlloc::new(),
            id_base,
            trans_waiters: BTreeMap::new(),
            read_waiters: BTreeMap::new(),
            issue_times: BTreeMap::new(),
            outstanding: 0,
            last_tick: 0,
            was_busy: false,
            stats: CuStats::default(),
        }
    }

    fn next_id(&mut self) -> AccessId {
        AccessId(self.id_base + self.ids.next().raw())
    }

    fn owner_of(&self, pa: u64) -> GpuId {
        GpuId((pa / (self.frames_per_gpu * PAGE_BYTES)) as u16)
    }

    fn crosses_clusters(&self, owner: GpuId) -> bool {
        owner.cluster(self.gpus_per_cluster) != self.gpu.cluster(self.gpus_per_cluster)
    }

    fn activate_pending(&mut self) {
        while self.resident.len() < self.max_waves {
            let Some(trace) = self.pending.pop_front() else {
                break;
            };
            self.resident.push(Wavefront {
                trace,
                pc: 0,
                state: WfState::Ready,
                loads_in_flight: 0,
            });
        }
    }

    /// Loads another batch of wavefronts onto the CU — the dispatch path
    /// for a subsequent kernel after a global kernel barrier. Only legal
    /// while the CU is idle (the harness runs each kernel to quiescence
    /// before launching the next).
    pub fn load_waves(&mut self, waves: Vec<WavefrontTrace>) {
        assert!(
            !self.busy(),
            "{}: kernel barrier violated — waves loaded onto a busy CU",
            self.name
        );
        self.resident.clear();
        self.pending.extend(waves);
    }

    /// Executes the (already translated) access for wavefront `wf_ix`.
    fn do_mem_access(&mut self, ctx: &mut Ctx<'_>, wf_ix: usize, acc: CoalescedAccess, pfn: u64) {
        let now = ctx.cycle();
        let pa = PAddr(pfn * PAGE_BYTES + acc.vaddr.page_offset());
        let line = pa.line();
        let owner = self.owner_of(pa.0);
        let crosses = self.crosses_clusters(owner);
        let target = if owner == self.gpu {
            self.wiring.l2
        } else {
            self.wiring.rdma
        };

        // The coalesced mask is line-relative in the trace's virtual
        // space; physical line offset equals virtual line offset (pages
        // are line-aligned), so the mask carries over unchanged.
        if acc.kind.is_write() {
            if self.outstanding >= self.max_outstanding {
                self.resident[wf_ix].state = WfState::RetryAccess(acc, pfn);
                return;
            }
            self.l1.write(line, acc.mask, now);
            let req = MemReq {
                access: self.next_id(),
                line,
                write: true,
                mask: acc.mask,
                sectors: self.full_sector_mask,
                class: TrafficClass::Data,
                requester: self.gpu,
                owner,
                origin: Origin::Cu(self.cu_raw),
            };
            self.outstanding += 1;
            ctx.send(target, Message::MemReq(req), self.hop_cycles as u64);
            // Posted write: the wavefront moves on after the issue cycle.
            self.resident[wf_ix].state = WfState::BusyUntil(now + 1);
            return;
        }

        if self.outstanding >= self.max_outstanding {
            self.resident[wf_ix].state = WfState::RetryAccess(acc, pfn);
            return;
        }
        let id = self.next_id();
        match self.l1.read(line, acc.mask, id, now, crosses) {
            L1Access::Hit => {
                self.resident[wf_ix].state =
                    WfState::BusyUntil(now + self.l1.lookup_cycles() as Cycle);
            }
            L1Access::Miss { sectors } => {
                if crosses {
                    self.stats.inter_cluster_reads += 1;
                    self.stats.fig7[(acc.mask.fig7_bucket() as usize / 16) - 1] += 1;
                }
                if owner != self.gpu {
                    self.stats.remote_reads += 1;
                }
                let req = MemReq {
                    access: id,
                    line,
                    write: false,
                    mask: acc.mask,
                    sectors,
                    class: TrafficClass::Data,
                    requester: self.gpu,
                    owner,
                    origin: Origin::Cu(self.cu_raw),
                };
                self.outstanding += 1;
                self.read_waiters.insert(id, wf_ix);
                self.issue_times.insert(id, (now, crosses));
                ctx.tracer().begin(EventClass::Cache, "l1.miss", id.0);
                ctx.send(
                    target,
                    Message::MemReq(req),
                    (self.l1.lookup_cycles() + self.hop_cycles) as u64,
                );
                self.note_load_issued(wf_ix, now);
            }
            L1Access::MergedMiss => {
                self.read_waiters.insert(id, wf_ix);
                self.issue_times.insert(id, (now, crosses));
                ctx.tracer().begin(EventClass::Cache, "l1.miss", id.0);
                self.note_load_issued(wf_ix, now);
            }
            L1Access::Stall => {
                self.resident[wf_ix].state = WfState::RetryAccess(acc, pfn);
            }
        }
    }

    /// Starts the memory op `acc` for `wf_ix`: translation first.
    fn start_access(&mut self, ctx: &mut Ctx<'_>, wf_ix: usize, acc: CoalescedAccess) {
        self.stats.mem_ops += 1;
        let vpn = acc.vaddr.vpn();
        let now = ctx.cycle();
        if let Some(pfn) = self.l1_tlb.lookup(vpn, now) {
            self.do_mem_access(ctx, wf_ix, acc, pfn);
        } else {
            let id = self.next_id();
            self.trans_waiters.insert(id, wf_ix);
            let req = TransReq {
                access: id,
                vpn,
                cu: self.cu_raw,
            };
            ctx.send(
                self.wiring.gmmu,
                Message::TransReq(req),
                self.hop_cycles as u64,
            );
            self.resident[wf_ix].state = WfState::WaitTranslation(acc);
        }
    }

    /// Books an issued (in-flight) load on `wf_ix`: the wavefront keeps
    /// issuing until it exhausts its non-blocking-load budget, then waits
    /// for data (the first "use").
    fn note_load_issued(&mut self, wf_ix: usize, _now: Cycle) {
        let wf = &mut self.resident[wf_ix];
        wf.loads_in_flight += 1;
        wf.state = if wf.loads_in_flight >= self.max_loads_per_wave {
            WfState::WaitMem
        } else {
            WfState::Ready
        };
    }

    /// Wavefronts stalled in `RetryAccess` (outstanding cap or L1 MSHR).
    pub fn retrying_waves(&self) -> usize {
        self.resident
            .iter()
            .filter(|w| matches!(w.state, WfState::RetryAccess(..)))
            .count()
    }

    /// The earliest cycle at which ticking the CU can do more than what
    /// `tick` catches up arithmetically from `last_tick` (idle cycles and
    /// stalled retries), so blocked cycles need no tick at all. A wave
    /// that can issue — `Ready` or a `BusyUntil` deadline already due —
    /// needs every cycle; a pure compute phase sleeps until its
    /// deadline; memory- and translation-blocked waves, and waves
    /// retrying an access the outstanding cap or the L1 MSHR refused,
    /// sleep until a response message arrives (only a response frees
    /// either resource). A non-empty pending queue only matters while a
    /// resident slot is free — except in the degenerate
    /// all-retired-but-queue-nonempty state, where the legacy scheduler
    /// spins, so we must spin too.
    fn blocked_wake(&self, now: Cycle) -> Wake {
        let mut wake = Wake::OnMessage;
        let mut active = false;
        for w in &self.resident {
            match w.state {
                WfState::Ready => return Wake::EveryCycle,
                WfState::BusyUntil(t) => {
                    if t <= now {
                        return Wake::EveryCycle;
                    }
                    wake = wake.earliest(Wake::At(t));
                    active = true;
                }
                WfState::WaitTranslation(_) | WfState::WaitMem | WfState::RetryAccess(..) => {
                    active = true;
                }
                WfState::Done => {}
            }
        }
        if !self.pending.is_empty() && (self.resident.len() < self.max_waves || !active) {
            return Wake::EveryCycle;
        }
        wake
    }

    /// Replays the retries of the `skipped` cycles before `now` that the
    /// scheduler slept through. No message arrived in that span, so the
    /// outstanding count, the L1 tags and the MSHR are as the last tick
    /// left them, and every retry of those cycles stalled exactly as the
    /// next one would: on the outstanding cap with no side effect, or as
    /// an L1 `Stall` that consumed an access id, refreshed its line's LRU
    /// stamp and counted an MSHR stall.
    fn replay_stalled_retries(&mut self, now: Cycle, skipped: u64) {
        if self.outstanding >= self.max_outstanding {
            return;
        }
        for w in &self.resident {
            let WfState::RetryAccess(acc, pfn) = w.state else {
                continue;
            };
            debug_assert!(
                !acc.kind.is_write(),
                "{}: a write retries only on the outstanding cap",
                self.name
            );
            let line = PAddr(pfn * PAGE_BYTES + acc.vaddr.page_offset()).line();
            debug_assert!(
                self.l1.would_stall(line, acc.mask),
                "{}: a parked retry of {line:?} would no longer stall",
                self.name
            );
            self.ids = IdAlloc::with_issued(self.ids.issued() + skipped);
            self.l1.replay_stalls(line, now - 1, skipped);
        }
    }

    fn wake_read(&mut self, ctx: &mut Ctx<'_>, id: AccessId) {
        let now = ctx.cycle();
        let wf_ix = self
            .read_waiters
            .remove(&id)
            .unwrap_or_else(|| panic!("{}: stray read completion {id}", self.name));
        if let Some((issued, crosses)) = self.issue_times.remove(&id) {
            let lat = now - issued;
            self.stats.read_latency.record(lat);
            if crosses {
                self.stats.inter_cluster_read_latency.record(lat);
            }
        }
        ctx.tracer().end(EventClass::Cache, "l1.miss", id.0);
        let wf = &mut self.resident[wf_ix];
        debug_assert!(wf.loads_in_flight > 0);
        wf.loads_in_flight -= 1;
        if matches!(wf.state, WfState::WaitMem) {
            wf.state = WfState::BusyUntil(now + 1);
        }
    }
}

impl Component for Cu {
    fn tick(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.cycle();
        // Catch up skipped cycles. `blocked_wake` only lets the scheduler
        // skip spans where no wave can issue and no message arrives, and
        // state is frozen between ticks — so the reference model would
        // have spent every skipped cycle stalling its retries and in the
        // `!issued && busy` branch below, exactly when `was_busy` holds.
        let skipped = now.saturating_sub(self.last_tick + 1);
        if skipped > 0 {
            if self.was_busy {
                self.stats.idle_cycles += skipped;
            }
            self.replay_stalled_retries(now, skipped);
        }
        self.activate_pending();

        while let Some(msg) = ctx.recv() {
            match msg {
                Message::TransRsp(rsp) => {
                    let wf_ix = self
                        .trans_waiters
                        .remove(&rsp.access)
                        .unwrap_or_else(|| panic!("{}: stray translation", self.name));
                    self.l1_tlb.insert(rsp.vpn, rsp.pfn, now);
                    let WfState::WaitTranslation(acc) = self.resident[wf_ix].state else {
                        panic!("{}: wavefront not awaiting translation", self.name);
                    };
                    self.do_mem_access(ctx, wf_ix, acc, rsp.pfn);
                }
                Message::MemRsp(rsp) => {
                    self.outstanding -= 1;
                    if rsp.write {
                        // Posted-write ack: nothing blocks on it.
                    } else {
                        for id in self.l1.fill(rsp.line, rsp.sectors_valid, now) {
                            self.wake_read(ctx, id);
                        }
                    }
                }
                other => panic!("{}: unexpected {}", self.name, other.label()),
            }
        }

        // Retry stalled accesses before issuing new work (age order).
        for wf_ix in 0..self.resident.len() {
            if let WfState::RetryAccess(acc, pfn) = self.resident[wf_ix].state {
                self.do_mem_access(ctx, wf_ix, acc, pfn);
            }
        }

        // Issue one op from a ready wavefront (round-robin).
        let n = self.resident.len();
        let mut issued = false;
        for step in 0..n {
            let wf_ix = (self.rr + step) % n.max(1);
            let ready = match self.resident[wf_ix].state {
                WfState::Ready => true,
                WfState::BusyUntil(t) => t <= now,
                _ => false,
            };
            if !ready {
                continue;
            }
            let wf = &mut self.resident[wf_ix];
            if wf.pc >= wf.trace.ops.len() {
                wf.state = WfState::Done;
                self.stats.waves_done += 1;
                self.activate_pending();
                continue;
            }
            let op = wf.trace.ops[wf.pc];
            wf.pc += 1;
            match op {
                WavefrontOp::Compute(cycles) => {
                    // A compute phase of n cycles stands for ~n issued
                    // ALU instructions (the MPKI denominator).
                    self.stats.instructions += cycles as u64;
                    wf.state = WfState::BusyUntil(now + cycles as Cycle);
                }
                WavefrontOp::Mem(acc) => {
                    self.stats.instructions += 1;
                    wf.state = WfState::Ready;
                    self.start_access(ctx, wf_ix, acc);
                }
            }
            self.rr = (wf_ix + 1) % n.max(1);
            issued = true;
            break;
        }
        let busy = self.busy();
        if !issued && busy {
            self.stats.idle_cycles += 1;
        }

        // Reap finished wavefronts so `busy` can settle — but only once
        // every in-flight load has returned (a Done wavefront may still
        // have non-blocking loads outstanding). Reaping only removes
        // `Done` waves, which never contribute to `busy`, so the value
        // computed above stays valid as the end-of-tick anchor.
        if self
            .resident
            .iter()
            .all(|w| matches!(w.state, WfState::Done))
            && !self.resident.is_empty()
            && self.pending.is_empty()
            && self.read_waiters.is_empty()
        {
            self.resident.clear();
        }
        self.last_tick = now;
        self.was_busy = busy;
    }

    fn busy(&self) -> bool {
        !self.pending.is_empty()
            || self
                .resident
                .iter()
                .any(|w| !matches!(w.state, WfState::Done))
            || self.outstanding > 0
            || self.l1.busy()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn next_wake(&self, now: Cycle) -> Wake {
        // A drained CU changes state only on a message or a new kernel's
        // `load_waves` (which re-ticks it via the engine's
        // external-mutation tracking); a blocked CU sleeps until its
        // earliest wave deadline, with `tick` catching up the skipped
        // idle cycles and stalled retries arithmetically.
        self.blocked_wake(now)
    }

    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        // `tick` just computed and cached its end-of-tick busy value —
        // reuse it instead of re-scanning the resident waves and the L1.
        BurstOutcome {
            busy: self.was_busy,
            wake: self.blocked_wake(ctx.cycle()),
        }
    }

    fn save_state(&self, w: &mut SnapshotWriter) {
        self.l1.save_state(w);
        self.l1_tlb.save(w);
        self.resident.save(w);
        self.pending.save(w);
        self.rr.save(w);
        self.ids.save(w);
        self.trans_waiters.save(w);
        self.read_waiters.save(w);
        self.issue_times.save(w);
        self.outstanding.save(w);
        // The idle-accounting anchor is part of the dynamic state: an
        // event-driven snapshot may be taken mid-sleep, with the skipped
        // cycles' idle credit still pending — the restored run finishes
        // the catch-up from the same anchor under any scheduler.
        self.last_tick.save(w);
        self.was_busy.save(w);
        self.stats.save(w);
    }

    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        self.l1.load_state(r)?;
        self.l1_tlb.load_into(r)?;
        self.resident = Snap::load(r)?;
        self.pending = Snap::load(r)?;
        self.rr = Snap::load(r)?;
        self.ids = Snap::load(r)?;
        self.trans_waiters = Snap::load(r)?;
        self.read_waiters = Snap::load(r)?;
        self.issue_times = Snap::load(r)?;
        self.outstanding = Snap::load(r)?;
        self.last_tick = Snap::load(r)?;
        self.was_busy = Snap::load(r)?;
        self.stats = Snap::load(r)?;
        let waves = self.resident.len();
        for (which, waiters) in [
            ("translation", &self.trans_waiters),
            ("read", &self.read_waiters),
        ] {
            if let Some((id, wf_ix)) = waiters.iter().find(|&(_, &wf_ix)| wf_ix >= waves) {
                return Err(SnapshotError::Corrupt(format!(
                    "{}: {which} waiter {id} points at wavefront {wf_ix} of {waves}",
                    self.name
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcrafter_proto::access::AccessKind;
    use netcrafter_proto::LineMask;
    use netcrafter_proto::{CtaId, MemRsp, SystemConfig, VAddr, WavefrontId};
    use netcrafter_sim::EngineBuilder;
    use std::sync::Arc;
    use std::sync::Mutex;

    /// Answers translations (identity: pfn = vpn + base) and memory
    /// requests (full-line fills) after fixed delays.
    struct Backend {
        reqs: Arc<Mutex<Vec<MemReq>>>,
        trans: Arc<Mutex<Vec<TransReq>>>,
        mem_latency: u64,
        pfn_base: u64,
    }
    impl Component for Backend {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                match msg {
                    Message::TransReq(req) => {
                        self.trans.lock().unwrap().push(req);
                        ctx.send(
                            netcrafter_sim::ComponentId(0),
                            Message::TransRsp(netcrafter_proto::TransRsp {
                                access: req.access,
                                vpn: req.vpn,
                                pfn: req.vpn + self.pfn_base,
                                cu: req.cu,
                            }),
                            5,
                        );
                    }
                    Message::MemReq(req) => {
                        self.reqs.lock().unwrap().push(req);
                        ctx.send(
                            netcrafter_sim::ComponentId(0),
                            Message::MemRsp(MemRsp::for_req(&req, req.sectors)),
                            self.mem_latency,
                        );
                    }
                    other => panic!("backend got {}", other.label()),
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "backend"
        }
    }

    fn wave(id: u32, ops: Vec<WavefrontOp>) -> WavefrontTrace {
        WavefrontTrace {
            id: WavefrontId(id),
            cta: CtaId(0),
            ops,
        }
    }

    struct H {
        engine: netcrafter_sim::Engine,
        cu: ComponentId,
        reqs: Arc<Mutex<Vec<MemReq>>>,
        trans: Arc<Mutex<Vec<TransReq>>>,
    }

    fn harness(waves: Vec<WavefrontTrace>, pfn_base: u64) -> H {
        harness_with(waves, pfn_base, |_| {})
    }

    /// The harness with `tune` applied to the CU's configuration, e.g. to
    /// shrink the outstanding cap or the L1 MSHR.
    fn harness_with(
        waves: Vec<WavefrontTrace>,
        pfn_base: u64,
        tune: impl FnOnce(&mut SystemConfig),
    ) -> H {
        let mut cfg = SystemConfig::small(1);
        cfg.max_waves_per_cu = 4;
        tune(&mut cfg);
        let mut b = EngineBuilder::new();
        let cu_id = b.reserve(); // must be ComponentId(0): Backend replies there
        let be = b.reserve();
        let reqs = Arc::new(Mutex::new(Vec::new()));
        let trans = Arc::new(Mutex::new(Vec::new()));
        b.install(
            be,
            Box::new(Backend {
                reqs: Arc::clone(&reqs),
                trans: Arc::clone(&trans),
                mem_latency: 50,
                pfn_base,
            }),
        );
        b.install(
            cu_id,
            Box::new(Cu::new(
                GpuId(0),
                netcrafter_proto::CuId(0),
                &cfg,
                waves,
                CuWiring {
                    gmmu: be,
                    l2: be,
                    rdma: be,
                },
            )),
        );
        H {
            engine: b.build(),
            cu: cu_id,
            reqs,
            trans,
        }
    }

    #[test]
    fn read_misses_translate_then_fetch() {
        let w = wave(
            0,
            vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1000), 8))],
        );
        let mut h = harness(vec![w], 0);
        let _ = h.cu;
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.trans.lock().unwrap().len(), 1, "one TLB miss");
        assert_eq!(h.reqs.lock().unwrap().len(), 1, "one L1 miss");
        let req = h.reqs.lock().unwrap()[0];
        assert!(!req.write);
        assert_eq!(req.line.0, 0x1000);
    }

    #[test]
    fn tlb_and_l1_hits_skip_traffic() {
        // Two reads of the same line: second is an L1 + TLB hit.
        let w = wave(
            0,
            vec![
                WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1000), 8)),
                WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1008), 8)),
            ],
        );
        let mut h = harness(vec![w], 0);
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.trans.lock().unwrap().len(), 1);
        assert_eq!(h.reqs.lock().unwrap().len(), 1);
    }

    #[test]
    fn writes_are_posted_write_through() {
        let w = wave(
            0,
            vec![
                WavefrontOp::Mem(CoalescedAccess::write(VAddr(0x1000), 64)),
                WavefrontOp::Compute(3),
            ],
        );
        let mut h = harness(vec![w], 0);
        h.engine.run_to_quiescence(10_000);
        let reqs = h.reqs.lock().unwrap();
        assert_eq!(reqs.len(), 1);
        assert!(reqs[0].write);
    }

    #[test]
    fn wavefronts_overlap_their_misses() {
        // Two wavefronts each read a distinct line; with 50-cycle memory
        // the runs overlap, so both requests are issued before either
        // response arrives.
        let w0 = wave(
            0,
            vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1000), 8))],
        );
        let w1 = wave(
            1,
            vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x2000), 8))],
        );
        let mut h = harness(vec![w0, w1], 0);
        // Run just past issue: both memory requests out by cycle ~40
        // (translation round-trip ~10 + L1 lookup 20).
        h.engine.run_while(60, |_| true);
        assert_eq!(h.reqs.lock().unwrap().len(), 2, "misses overlap");
        h.engine.run_to_quiescence(10_000);
    }

    #[test]
    fn remote_lines_route_to_rdma_target() {
        // pfn_base pushes the PA into gpu1's partition; wiring routes all
        // targets to the same backend, but the request's owner records it.
        let frames = 1u64 << 24;
        let w = wave(
            0,
            vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(0x1000), 8))],
        );
        let mut h = harness(vec![w], frames);
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.reqs.lock().unwrap()[0].owner, GpuId(1));
    }

    #[test]
    fn compute_ops_take_their_cycles() {
        let w = wave(0, vec![WavefrontOp::Compute(100)]);
        let mut h = harness(vec![w], 0);
        let end = h.engine.run_to_quiescence(10_000);
        assert!(end >= 100, "compute burns 100 cycles, got {end}");
        assert!(h.reqs.lock().unwrap().is_empty());
    }

    #[test]
    fn trace_with_mixed_ops_completes() {
        let mut ops = Vec::new();
        for i in 0..10u64 {
            ops.push(WavefrontOp::Compute(2));
            ops.push(WavefrontOp::Mem(CoalescedAccess::with_mask(
                VAddr(0x1000 + i * 64),
                if i % 3 == 0 {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                },
                LineMask::span(0, 8),
            )));
        }
        let waves = (0..4).map(|i| wave(i, ops.clone())).collect();
        let mut h = harness(waves, 0);
        h.engine.run_to_quiescence(100_000);
        assert!(h.reqs.lock().unwrap().len() >= 10);
    }

    fn cu(h: &H) -> &Cu {
        h.engine.get(h.cu).expect("cu installed")
    }

    /// Steps `h` until the CU's only unfinished waves are retrying, and
    /// returns that cycle.
    fn run_until_only_retrying(h: &mut H) -> Cycle {
        loop {
            assert!(!h.engine.quiescent(), "no wave ever stalled");
            h.engine.step();
            let cu = cu(h);
            let unfinished = cu
                .resident
                .iter()
                .filter(|w| !matches!(w.state, WfState::Done))
                .count();
            if unfinished > 0 && cu.retrying_waves() == unfinished {
                return h.engine.cycle();
            }
        }
    }

    /// Two waves reading distinct lines of one page: the second one's
    /// read finds the first one's miss holding the only free resource.
    fn two_line_reads() -> Vec<WavefrontTrace> {
        [0x1000, 0x1040]
            .into_iter()
            .enumerate()
            .map(|(i, va)| {
                wave(
                    i as u32,
                    vec![WavefrontOp::Mem(CoalescedAccess::read(VAddr(va), 8))],
                )
            })
            .collect()
    }

    #[test]
    fn a_wave_stalled_on_the_outstanding_cap_sleeps_until_a_response() {
        let mut h = harness_with(two_line_reads(), 0, |cfg| cfg.max_outstanding_per_cu = 1);
        let now = run_until_only_retrying(&mut h);
        let cu = cu(&h);
        assert!(cu.outstanding >= cu.max_outstanding, "cap stall");
        assert_eq!(cu.next_wake(now), Wake::OnMessage);
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.reqs.lock().unwrap().len(), 2);
    }

    #[test]
    fn a_wave_stalled_on_a_full_l1_mshr_sleeps_until_a_response() {
        let mut h = harness_with(two_line_reads(), 0, |cfg| cfg.l1.mshr_entries = 1);
        let now = run_until_only_retrying(&mut h);
        let cu = cu(&h);
        assert!(cu.outstanding < cu.max_outstanding, "not a cap stall");
        assert!(cu.l1.mshr_stalls() > 0, "L1 stall");
        assert_eq!(cu.next_wake(now), Wake::OnMessage);
        h.engine.run_to_quiescence(10_000);
        assert_eq!(h.reqs.lock().unwrap().len(), 2);
    }

    fn state_bytes(cu: &Cu) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        cu.save_state(&mut w);
        w.into_bytes()
    }

    /// Four waves of single-sector reads (and some writes) over twelve
    /// lines in each of four pages, with compute gaps.
    fn contended_waves() -> Vec<WavefrontTrace> {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move |n: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % n
        };
        (0..4)
            .map(|i| {
                let mut ops = Vec::new();
                for _ in 0..60 {
                    let va = VAddr(0x1000 * (1 + next(4)) + next(12) * 64 + next(4) * 16);
                    let kind = if next(8) == 0 {
                        AccessKind::Write
                    } else {
                        AccessKind::Read
                    };
                    ops.push(WavefrontOp::Mem(CoalescedAccess::with_mask(
                        va,
                        kind,
                        LineMask::span(va.line_offset(), 8),
                    )));
                    ops.push(WavefrontOp::Compute(1 + next(3) as u32));
                }
                wave(i, ops)
            })
            .collect()
    }

    #[test]
    fn parked_retries_match_legacy_state_at_every_tick() {
        // Per-sector fills into a tiny L1 (4 sets x 2 ways) with a
        // two-entry MSHR and a three-access cap: reads stall on the cap,
        // on a full MSHR, and on in-flight fills that miss their sector
        // while the line is resident, and evictions depend on LRU stamps.
        // A two-entry L1 TLB keeps translations arriving mid-run; one that
        // wakes a parked CU can fill the cap before the parked read's real
        // retry, so the replayed LRU stamp outlives the tick.
        let tune = |cfg: &mut SystemConfig| {
            cfg.sector_fill = netcrafter_proto::config::SectorFillPolicy::Always;
            cfg.l1.size_bytes = 512;
            cfg.l1.ways = 2;
            cfg.l1.mshr_entries = 2;
            cfg.max_outstanding_per_cu = 3;
            cfg.l1_tlb.entries = 2;
        };
        let mut legacy = harness_with(contended_waves(), 0, tune);
        legacy
            .engine
            .set_scheduler(netcrafter_sim::SchedulerMode::Legacy);
        let mut event = harness_with(contended_waves(), 0, tune);
        let (mut ticks, mut cap_parks, mut l1_parks) = (0, 0, 0);
        let mut parked = None;
        while !(legacy.engine.quiescent() && event.engine.quiescent()) {
            assert!(legacy.engine.cycle() < 100_000, "did not quiesce");
            legacy.engine.step();
            event.engine.step();
            let cycle = event.engine.cycle();
            let ev = cu(&event);
            if ev.last_tick != cycle {
                continue;
            }
            match parked.take() {
                Some((from, on_cap)) if cycle > from + 1 => {
                    if on_cap {
                        cap_parks += 1;
                    } else {
                        l1_parks += 1;
                    }
                }
                _ => {}
            }
            if ev.retrying_waves() > 0 {
                parked = Some((cycle, ev.outstanding >= ev.max_outstanding));
            }
            ticks += 1;
            assert!(
                state_bytes(ev) == state_bytes(cu(&legacy)),
                "CU state diverges at cycle {cycle}"
            );
        }
        assert!(
            ticks < legacy.engine.cycle(),
            "the event-driven CU never slept"
        );
        assert!(cap_parks > 0, "no park on the outstanding cap");
        assert!(l1_parks > 0, "no park on an L1 stall");
        assert_eq!(cu(&event).stats.idle_cycles, cu(&legacy).stats.idle_cycles);
        assert_eq!(cu(&event).l1.mshr_stalls(), cu(&legacy).l1.mshr_stalls());
    }
}
