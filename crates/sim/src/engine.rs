//! The cycle engine: components, mailboxes and delayed message delivery.
//!
//! Two interchangeable schedulers drive the same cycle-level semantics:
//!
//! * **Legacy**: every component ticks every cycle, in id order — the
//!   reference model, selectable via [`SchedulerMode::Legacy`].
//! * **Event-driven** (default): only components with a scheduled wake
//!   tick, idle stretches are fast-forwarded to the next scheduled event,
//!   and quiescence is tracked incrementally instead of rescanning every
//!   component's [`Component::busy`] flag each cycle.
//!
//! The two produce bit-identical results because a component may only be
//! skipped on cycles where its legacy tick would have been a no-op: its
//! [`Component::next_wake`] contract promises exactly that (see
//! DESIGN.md, "Event-driven scheduling").

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};

use netcrafter_proto::Message;

use crate::arena::{Arena, Handle};
use crate::snapshot::{
    read_header, write_header, ForkSnapshot, Snap, SnapshotError, SnapshotReader, SnapshotWriter,
};
use crate::trace::{Trace, TraceConfig, Tracer};
use crate::Cycle;

/// Index of a component and of its (single) mailbox.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(pub usize);

impl std::fmt::Display for ComponentId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

/// When a component next needs to be ticked (see
/// [`Component::next_wake`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wake {
    /// Tick again next cycle. Always safe; required whenever the
    /// component does per-cycle work (counts stall/idle cycles, samples a
    /// time series, drains a queue, accrues observable rate-limiter
    /// tokens it will spend).
    EveryCycle,
    /// Tick at the given cycle (clamped to the next cycle if already
    /// due). For precisely-known timers: pipeline readiness, pooling
    /// window expiry.
    At(Cycle),
    /// No tick needed until a message arrives. The engine always ticks a
    /// component on the cycle it receives a message, whatever it last
    /// returned.
    OnMessage,
}

impl Wake {
    /// The earlier of two wakes, for components composed of several
    /// independently scheduled parts: `EveryCycle` dominates, `OnMessage`
    /// is latest, and two timers take the smaller cycle.
    pub fn earliest(self, other: Wake) -> Wake {
        match (self, other) {
            (Wake::EveryCycle, _) | (_, Wake::EveryCycle) => Wake::EveryCycle,
            (Wake::At(a), Wake::At(b)) => Wake::At(a.min(b)),
            (Wake::At(a), Wake::OnMessage) | (Wake::OnMessage, Wake::At(a)) => Wake::At(a),
            (Wake::OnMessage, Wake::OnMessage) => Wake::OnMessage,
        }
    }
}

/// Which scheduler drives [`Engine::step`]. The two are bit-identical:
/// Legacy is the equivalence referee for the event-driven scheduler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Tick every component every cycle (the reference model).
    Legacy,
    /// Tick only woken components, via [`Component::tick_burst`];
    /// fast-forward idle cycles. The production scheduler.
    EventDriven,
}

/// Process-wide default scheduler for newly built engines (set by the
/// `--legacy-scheduler` CLI escape hatch before any simulation starts).
// lint:allow(no-ambient-state) process-wide CLI default, read once per engine build; never mutated mid-run
static LEGACY_DEFAULT: AtomicBool = AtomicBool::new(false);

/// Sets the scheduler used by engines built after this call.
/// [`Engine::set_scheduler`] overrides it per engine.
pub fn set_default_scheduler(mode: SchedulerMode) {
    LEGACY_DEFAULT.store(mode == SchedulerMode::Legacy, Ordering::Relaxed);
}

/// The scheduler newly built engines start with.
pub fn default_scheduler() -> SchedulerMode {
    if LEGACY_DEFAULT.load(Ordering::Relaxed) {
        SchedulerMode::Legacy
    } else {
        SchedulerMode::EventDriven
    }
}

/// Sentinel for "no scheduled wake" in the armed-cycle table.
const NEVER: Cycle = Cycle::MAX;

/// What one [`Component::tick_burst`] reports back to the scheduler: the
/// component's busy flag and its next wake, computed in the same virtual
/// call that did the work (instead of three separate calls per woken
/// component: `tick`, `busy`, `next_wake`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BurstOutcome {
    /// The value [`Component::busy`] would return right now.
    pub busy: bool,
    /// The value [`Component::next_wake`] would return right now.
    pub wake: Wake,
}

/// The interface every simulated hardware block implements.
///
/// A component is ticked in a fixed id order within a cycle. During its
/// tick it may drain its mailbox via [`Ctx::recv`] and send messages to
/// peers via [`Ctx::send`]; sends are staged and delivered by the engine,
/// so a component never observes a message sent in the same cycle.
///
/// Under the event-driven scheduler a component is only ticked when a
/// message arrives or its [`Component::next_wake`] comes due; the default
/// (`EveryCycle`) preserves the tick-always behaviour.
///
/// Components are `Send` so a whole engine can move to a sweep worker
/// thread; each engine owns its components, so `Sync` is not required.
pub trait Component: std::any::Any + Send {
    /// Advances the component by one cycle.
    fn tick(&mut self, ctx: &mut Ctx<'_>);

    /// True while the component still has internal work (pipeline contents,
    /// pending responses, unissued ops). The engine declares the system
    /// quiescent — and stops — only when *no* component is busy and no
    /// message is in flight.
    fn busy(&self) -> bool;

    /// Human-readable instance name for traces and error messages.
    fn name(&self) -> &str;

    /// When this component next needs a tick, queried right after each
    /// tick (and used only by the event-driven scheduler).
    ///
    /// Contract: every cycle between now and the returned wake on which
    /// the component is *not* ticked must be one where its tick would
    /// have had no observable effect — no state change, no statistics or
    /// trace events, no sends. Message arrival always forces a tick
    /// regardless of the returned value.
    fn next_wake(&self, _now: Cycle) -> Wake {
        Wake::EveryCycle
    }

    /// Burst entry point: performs this cycle's work (draining the whole
    /// mailbox burst) *and* reports the post-tick busy flag and next wake
    /// in one virtual call. The event-driven scheduler dispatches this;
    /// [`SchedulerMode::Legacy`] calls the scalar [`Component::tick`]
    /// every cycle instead.
    ///
    /// The default wraps [`Component::tick`], so existing components work
    /// unchanged. An override must be observably identical to the scalar
    /// triple — same state changes, sends, trace events, and the exact
    /// values `busy()` / `next_wake()` would return — which the
    /// Legacy-vs-event-driven equivalence suite checks byte for byte.
    fn tick_burst(&mut self, ctx: &mut Ctx<'_>) -> BurstOutcome {
        self.tick(ctx);
        BurstOutcome {
            busy: self.busy(),
            wake: self.next_wake(ctx.cycle),
        }
    }

    /// Appends this component's full dynamic state to `w` (see
    /// `netcrafter_sim::snapshot`). Together with
    /// [`Component::load_state`] the pair must be a fixed point: saving,
    /// loading into a freshly built instance and saving again yields the
    /// same bytes. Static configuration derived from the builder need not
    /// be written — only state that changes as the simulation runs.
    ///
    /// The default panics: a component that can appear in a
    /// checkpointed engine must implement the pair (enforced by the
    /// `snapshot-coverage` lint rule).
    fn save_state(&self, _w: &mut SnapshotWriter) {
        panic!("component `{}` does not support snapshotting", self.name());
    }

    /// Restores the dynamic state written by [`Component::save_state`]
    /// into this (identically configured) instance.
    fn load_state(&mut self, _r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        panic!("component `{}` does not support snapshotting", self.name());
    }
}

/// Per-tick context handed to a component: its own mailbox, the current
/// cycle, and a staging buffer for outgoing messages.
///
/// Mailbox and staging buffer hold 8-byte [`Handle`]s into the engine's
/// message arena; payloads are written once on send and read once on
/// receive, so a delivery never copies the full [`Message`] through the
/// wheel.
pub struct Ctx<'a> {
    cycle: Cycle,
    inbox: &'a mut VecDeque<Handle>,
    outbox: &'a mut Vec<(Cycle, ComponentId, Handle)>,
    arena: &'a mut Arena<Message>,
    self_id: ComponentId,
    tracer: &'a mut Tracer,
}

impl Ctx<'_> {
    /// Current simulation cycle.
    #[inline]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// This component's own id (usable as a send target for self-wakeups).
    #[inline]
    pub fn self_id(&self) -> ComponentId {
        self.self_id
    }

    /// Pops the oldest message from this component's mailbox.
    #[inline]
    pub fn recv(&mut self) -> Option<Message> {
        self.inbox.pop_front().map(|h| self.arena.take(h))
    }

    /// Peeks at the oldest message without removing it.
    #[inline]
    pub fn peek(&self) -> Option<&Message> {
        self.inbox.front().map(|&h| self.arena.get(h))
    }

    /// Number of messages waiting in the mailbox.
    #[inline]
    pub fn inbox_len(&self) -> usize {
        self.inbox.len()
    }

    /// Sends `msg` to `dst`, arriving after `delay` cycles (minimum 1: a
    /// message can never be observed in the cycle it was sent).
    #[inline]
    pub fn send(&mut self, dst: ComponentId, msg: Message, delay: u64) {
        let when = self.cycle + delay.max(1);
        let h = self.arena.alloc(msg);
        self.outbox.push((when, dst, h));
    }

    /// The structured-event tracer, focused on this component. A single
    /// branch and a no-op when tracing is disabled (the default).
    #[inline]
    pub fn tracer(&mut self) -> &mut Tracer {
        self.tracer
    }
}

/// Incrementally wires up an [`Engine`].
///
/// Construction is two-phase so components can know their peers' ids
/// before those peers exist: [`EngineBuilder::reserve`] allocates an id,
/// and [`EngineBuilder::install`] later provides the component.
///
/// # Examples
///
/// ```
/// use netcrafter_sim::{EngineBuilder, Component, Ctx};
///
/// struct Nop;
/// impl Component for Nop {
///     fn tick(&mut self, _ctx: &mut Ctx<'_>) {}
///     fn busy(&self) -> bool { false }
///     fn name(&self) -> &str { "nop" }
/// }
///
/// let mut b = EngineBuilder::new();
/// let id = b.reserve();
/// b.install(id, Box::new(Nop));
/// let mut engine = b.build();
/// assert!(engine.quiescent());
/// ```
#[derive(Default)]
pub struct EngineBuilder {
    slots: Vec<Option<Box<dyn Component>>>,
}

impl EngineBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves a component id to be filled in later with
    /// [`EngineBuilder::install`].
    pub fn reserve(&mut self) -> ComponentId {
        self.slots.push(None);
        ComponentId(self.slots.len() - 1)
    }

    /// Installs a component into a reserved slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already filled or the id was never reserved.
    pub fn install(&mut self, id: ComponentId, component: Box<dyn Component>) {
        let slot = self
            .slots
            .get_mut(id.0)
            .unwrap_or_else(|| panic!("component id {id} was never reserved"));
        assert!(slot.is_none(), "component id {id} installed twice");
        *slot = Some(component);
    }

    /// Reserves and installs in one step.
    pub fn add(&mut self, component: Box<dyn Component>) -> ComponentId {
        let id = self.reserve();
        self.install(id, component);
        id
    }

    /// Finalizes the engine.
    ///
    /// # Panics
    ///
    /// Panics if any reserved slot was never installed.
    pub fn build(self) -> Engine {
        let components: Vec<Box<dyn Component>> = self
            .slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| slot.unwrap_or_else(|| panic!("component slot {i} never installed")))
            .collect();
        let n = components.len();
        let busy_flags: Vec<bool> = components.iter().map(|c| c.busy()).collect();
        let busy_count = busy_flags.iter().filter(|&&b| b).count();
        Engine {
            components,
            inboxes: (0..n).map(|_| VecDeque::new()).collect(),
            msgs: Arena::new(),
            wheel: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            overflow: Vec::new(),
            overflow_min: NEVER,
            cycle: 0,
            in_flight: 0,
            delivered: 0,
            outbox: Vec::new(),
            tracer: Tracer::off(),
            mode: default_scheduler(),
            // Every component gets a first tick on cycle 1 and re-arms
            // itself from there via `next_wake`.
            armed: vec![1; n],
            wake_heap: (0..n).map(|i| Reverse((1, i))).collect(),
            active: Vec::new(),
            every: vec![false; n],
            every_count: 0,
            woken: Vec::new(),
            busy_flags,
            busy_count,
            dirty: Vec::new(),
            dirty_flags: vec![false; n],
            slot_scratch: Vec::new(),
            overflow_scratch: Vec::new(),
        }
    }
}

/// Delay-wheel size: delays below this are O(1); longer delays take the
/// (rare) overflow path.
const WHEEL_SLOTS: usize = 512;

/// The simulation engine: owns all components and mailboxes and advances
/// simulated time.
pub struct Engine {
    components: Vec<Box<dyn Component>>,
    inboxes: Vec<VecDeque<Handle>>,
    /// Backing store for every in-flight and mailboxed message payload;
    /// the wheel, inboxes and outbox move 8-byte handles instead.
    msgs: Arena<Message>,
    /// Ring buffer of future deliveries indexed by `cycle % WHEEL_SLOTS`.
    wheel: Vec<Vec<(ComponentId, Handle)>>,
    /// Deliveries further than `WHEEL_SLOTS` cycles out (rare).
    overflow: Vec<(Cycle, ComponentId, Handle)>,
    /// Earliest delivery cycle in `overflow` (`NEVER` when empty).
    overflow_min: Cycle,
    cycle: Cycle,
    in_flight: usize,
    delivered: u64,
    outbox: Vec<(Cycle, ComponentId, Handle)>,
    tracer: Tracer,
    mode: SchedulerMode,
    /// Next cycle each component must tick (`NEVER` = waiting on a
    /// message). Only meaningful under the event-driven scheduler.
    armed: Vec<Cycle>,
    /// Lazy min-heap over `(wake cycle, id)`; entries that no longer
    /// match `armed` are stale and skipped on pop.
    wake_heap: BinaryHeap<Reverse<(Cycle, usize)>>,
    /// Components whose last `next_wake` was [`Wake::EveryCycle`]: ticked
    /// every cycle from this flat list with zero heap traffic. `every`
    /// mirrors membership; entries whose flag has been cleared are
    /// compacted out lazily during the per-cycle sweep.
    active: Vec<usize>,
    every: Vec<bool>,
    /// Number of `true` entries in `every` (live `active` members).
    every_count: usize,
    /// Scratch buffer for the ids woken this cycle.
    woken: Vec<usize>,
    /// Cached `busy()` per component, maintained incrementally after each
    /// tick so quiescence needs no O(n) rescan.
    busy_flags: Vec<bool>,
    /// Number of `true` entries in `busy_flags`.
    busy_count: usize,
    /// Components handed out via `get_mut`/`component_mut` since the last
    /// step: external code may have changed their state behind the
    /// scheduler's back, so their cached busy flag is suspect and they
    /// are re-ticked on the next cycle.
    dirty: Vec<usize>,
    dirty_flags: Vec<bool>,
    /// Persistent buffer swapped with the due wheel slot during delivery,
    /// so `step` allocates nothing in the steady state (the slot and the
    /// scratch trade capacities back and forth).
    slot_scratch: Vec<(ComponentId, Handle)>,
    /// Persistent buffer for the (stable, order-preserving) overflow
    /// refill — `swap_remove` would scramble same-cycle delivery order.
    overflow_scratch: Vec<(Cycle, ComponentId, Handle)>,
}

impl Engine {
    /// Current simulation cycle.
    #[inline]
    pub fn cycle(&self) -> Cycle {
        self.cycle
    }

    /// Total messages delivered so far.
    #[inline]
    pub fn messages_delivered(&self) -> u64 {
        self.delivered
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// True if the engine contains no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The active scheduler.
    pub fn scheduler(&self) -> SchedulerMode {
        self.mode
    }

    /// Switches scheduler mid-flight: re-arms every component for the
    /// next cycle and refreshes the busy cache, so no wake derived under
    /// the previous mode is trusted. Always bit-exact: ticking an idle
    /// component is observable-effect-free by the [`Component::next_wake`]
    /// contract (the Legacy scheduler ticks everything every cycle and
    /// must agree).
    pub fn set_scheduler(&mut self, mode: SchedulerMode) {
        self.mode = mode;
        self.wake_heap.clear();
        self.active.clear();
        self.every_count = 0;
        self.every.fill(false);
        self.armed.fill(NEVER);
        for i in 0..self.components.len() {
            self.arm(i, self.cycle + 1);
        }
        self.busy_count = 0;
        for (i, c) in self.components.iter().enumerate() {
            let b = c.busy();
            self.busy_flags[i] = b;
            self.busy_count += b as usize;
        }
        for &i in &self.dirty {
            self.dirty_flags[i] = false;
        }
        self.dirty.clear();
    }

    /// Turns on structured-event tracing with the given filter. One track
    /// is registered per component (in id order), so [`crate::Event::track`]
    /// equals the component id. Call before running; events from earlier
    /// cycles are simply absent.
    pub fn enable_tracing(&mut self, config: TraceConfig) {
        let mut tracer = Tracer::new(config);
        for comp in &self.components {
            tracer.register_track(comp.name());
        }
        tracer.set_now(self.cycle);
        self.tracer = tracer;
    }

    /// The structured-event tracer (disabled unless
    /// [`Engine::enable_tracing`] was called).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Extracts everything recorded since [`Engine::enable_tracing`] (or
    /// the last call to this method), leaving tracing active.
    pub fn take_trace(&mut self) -> Trace {
        self.tracer.take()
    }

    /// Injects a message from outside the simulation (e.g. a kernel-launch
    /// trigger), delivered at `cycle + delay`.
    pub fn inject(&mut self, dst: ComponentId, msg: Message, delay: u64) {
        let when = self.cycle + delay.max(1);
        let h = self.msgs.alloc(msg);
        self.schedule(when, dst, h);
    }

    fn schedule(&mut self, when: Cycle, dst: ComponentId, h: Handle) {
        debug_assert!(when > self.cycle);
        self.in_flight += 1;
        if (when - self.cycle) < WHEEL_SLOTS as u64 {
            self.wheel[(when % WHEEL_SLOTS as u64) as usize].push((dst, h));
        } else {
            self.overflow_min = self.overflow_min.min(when);
            self.overflow.push((when, dst, h));
        }
    }

    /// Schedules component `id` to tick at `when` (keeping any earlier
    /// wake it already has).
    #[inline]
    fn arm(&mut self, id: usize, when: Cycle) {
        if when < self.armed[id] {
            self.armed[id] = when;
            self.wake_heap.push(Reverse((when, id)));
        }
    }

    /// Drops `id` from the always-on set (its stale `active` entry is
    /// compacted on the next per-cycle sweep).
    #[inline]
    fn unevery(&mut self, id: usize) {
        if self.every[id] {
            self.every[id] = false;
            self.every_count -= 1;
        }
    }

    /// Marks a component as externally mutated: its cached busy flag is
    /// recomputed on the next quiescence check / step, and it gets a tick.
    /// Arming here (not in `flush_dirty`) keeps the wake visible to
    /// `fast_forward`, which runs before the step that flushes.
    #[inline]
    fn mark_dirty(&mut self, id: usize) {
        if !self.dirty_flags[id] {
            self.dirty_flags[id] = true;
            self.dirty.push(id);
            self.arm(id, self.cycle + 1);
        }
    }

    /// Re-syncs the busy cache for externally mutated components (they
    /// were armed for a tick by `mark_dirty`).
    fn flush_dirty(&mut self) {
        if self.dirty.is_empty() {
            return;
        }
        let mut dirty = std::mem::take(&mut self.dirty);
        for &i in &dirty {
            self.dirty_flags[i] = false;
            let live = self.components[i].busy();
            if live != self.busy_flags[i] {
                self.busy_flags[i] = live;
                if live {
                    self.busy_count += 1;
                } else {
                    self.busy_count -= 1;
                }
            }
        }
        dirty.clear();
        self.dirty = dirty;
    }

    /// True when nothing remains to simulate: every mailbox is empty, no
    /// message is in flight, and no component reports internal work.
    ///
    /// O(1) via the incrementally maintained busy count, plus a live
    /// check of any component mutated through `get_mut` since the last
    /// step.
    pub fn quiescent(&self) -> bool {
        if self.in_flight != 0 {
            return false;
        }
        if self.dirty.is_empty() {
            return self.busy_count == 0;
        }
        let mut count = self.busy_count;
        for &i in &self.dirty {
            let live = self.components[i].busy();
            if live != self.busy_flags[i] {
                if live {
                    count += 1;
                } else {
                    count -= 1;
                }
            }
        }
        count == 0
    }

    /// Advances one cycle: delivers due messages, then ticks components —
    /// all of them under [`SchedulerMode::Legacy`], only woken ones under
    /// [`SchedulerMode::EventDriven`].
    pub fn step(&mut self) {
        self.cycle += 1;
        self.flush_dirty();
        let event_mode = self.mode != SchedulerMode::Legacy;

        // Deliver messages due this cycle. The slot vector and the
        // persistent scratch buffer trade places (and capacities), so the
        // steady-state delivery loop allocates nothing.
        let slot = (self.cycle % WHEEL_SLOTS as u64) as usize;
        let mut due = std::mem::replace(
            &mut self.wheel[slot],
            std::mem::take(&mut self.slot_scratch),
        );
        self.in_flight -= due.len();
        self.delivered += due.len() as u64;
        for (dst, h) in due.drain(..) {
            if event_mode {
                self.arm(dst.0, self.cycle);
            }
            self.inboxes[dst.0].push_back(h);
        }
        self.slot_scratch = due;
        // Refill the wheel from the overflow list when anything has come
        // into range (checked against the cached minimum: overflow is
        // rare, and the scan must not run on every step). The drain is
        // order-preserving — a `swap_remove` here would scramble the
        // same-cycle delivery order of the survivors on a later refill.
        let horizon = self.cycle + WHEEL_SLOTS as u64;
        if self.overflow_min < horizon {
            let mut pending = std::mem::replace(
                &mut self.overflow,
                std::mem::take(&mut self.overflow_scratch),
            );
            let mut min_left = NEVER;
            for (when, dst, h) in pending.drain(..) {
                if when < horizon {
                    if when == self.cycle {
                        self.in_flight -= 1;
                        self.delivered += 1;
                        if event_mode {
                            self.arm(dst.0, self.cycle);
                        }
                        self.inboxes[dst.0].push_back(h);
                    } else {
                        self.wheel[(when % WHEEL_SLOTS as u64) as usize].push((dst, h));
                    }
                } else {
                    min_left = min_left.min(when);
                    self.overflow.push((when, dst, h));
                }
            }
            self.overflow_min = min_left;
            self.overflow_scratch = pending;
        }

        // Tick components.
        self.tracer.set_now(self.cycle);
        if event_mode {
            let mut woken = std::mem::take(&mut self.woken);
            woken.clear();
            while let Some(&Reverse((when, id))) = self.wake_heap.peek() {
                if when > self.cycle {
                    break;
                }
                self.wake_heap.pop();
                if self.armed[id] <= self.cycle {
                    self.armed[id] = NEVER;
                    woken.push(id);
                }
            }
            // Sweep the always-on set: every live member ticks this
            // cycle; members that re-armed away since last cycle are
            // compacted out in place (order-preserving, so `active`
            // stays sorted).
            let heap_woken = woken.len();
            if !self.active.is_empty() {
                let mut keep = 0;
                for k in 0..self.active.len() {
                    let id = self.active[k];
                    if self.every[id] {
                        self.active[keep] = id;
                        keep += 1;
                        woken.push(id);
                    }
                }
                self.active.truncate(keep);
            }
            // Ascending id order — the legacy tick order restricted to
            // the woken set (skipped components' ticks are no-ops by the
            // `next_wake` contract, so the interleaving is equivalent).
            // When only the (sorted, duplicate-free) always-on sweep
            // contributed, the order is already right.
            if heap_woken > 0 {
                woken.sort_unstable();
                woken.dedup();
            }
            for &i in &woken {
                match self.tick_one_burst(i) {
                    Wake::EveryCycle => {
                        if !self.every[i] {
                            self.every[i] = true;
                            self.every_count += 1;
                            let pos = self.active.partition_point(|&x| x < i);
                            self.active.insert(pos, i);
                        }
                    }
                    Wake::At(t) => {
                        self.unevery(i);
                        self.arm(i, t.max(self.cycle + 1));
                    }
                    Wake::OnMessage => self.unevery(i),
                }
            }
            self.woken = woken;
        } else {
            for i in 0..self.components.len() {
                self.tick_one(i);
            }
        }

        // Commit staged sends, keeping the staging allocation across steps.
        let mut staged = std::mem::take(&mut self.outbox);
        for (when, dst, h) in staged.drain(..) {
            assert!(
                dst.0 < self.inboxes.len(),
                "send to unknown component {dst}"
            );
            self.schedule(when, dst, h);
        }
        self.outbox = staged;
    }

    /// Ticks component `i` through the scalar [`Component::tick`] (the
    /// Legacy reference path) and folds its new busy state into the cache.
    #[inline]
    fn tick_one(&mut self, i: usize) {
        self.tracer.focus(i as u32);
        let mut ctx = Ctx {
            cycle: self.cycle,
            inbox: &mut self.inboxes[i],
            outbox: &mut self.outbox,
            arena: &mut self.msgs,
            self_id: ComponentId(i),
            tracer: &mut self.tracer,
        };
        self.components[i].tick(&mut ctx);
        let busy = self.components[i].busy();
        self.fold_busy(i, busy);
    }

    /// Burst-ticks component `i` (one virtual call does the work and
    /// reports busy + wake), folds the busy flag, and returns the wake.
    #[inline]
    fn tick_one_burst(&mut self, i: usize) -> Wake {
        self.tracer.focus(i as u32);
        let mut ctx = Ctx {
            cycle: self.cycle,
            inbox: &mut self.inboxes[i],
            outbox: &mut self.outbox,
            arena: &mut self.msgs,
            self_id: ComponentId(i),
            tracer: &mut self.tracer,
        };
        let out = self.components[i].tick_burst(&mut ctx);
        self.fold_busy(i, out.busy);
        out.wake
    }

    #[inline]
    fn fold_busy(&mut self, i: usize, busy: bool) {
        if busy != self.busy_flags[i] {
            self.busy_flags[i] = busy;
            if busy {
                self.busy_count += 1;
            } else {
                self.busy_count -= 1;
            }
        }
    }

    /// Earliest future cycle with scheduled work — a component wake or a
    /// message delivery — or `NEVER` when nothing is pending.
    fn next_event_cycle(&mut self) -> Cycle {
        // An always-on component ticks next cycle, full stop.
        if self.every_count > 0 {
            return self.cycle + 1;
        }
        // Pop stale heap entries until the top is live.
        let mut wake = NEVER;
        while let Some(&Reverse((when, id))) = self.wake_heap.peek() {
            if self.armed[id] == when {
                wake = when;
                break;
            }
            self.wake_heap.pop();
        }
        if wake <= self.cycle + 1 {
            return wake;
        }
        let mut next = wake.min(self.overflow_min);
        let in_wheel = self.in_flight - self.overflow.len();
        if in_wheel > 0 {
            for d in 1..=WHEEL_SLOTS as u64 {
                let c = self.cycle + d;
                if c >= next {
                    break;
                }
                if !self.wheel[(c % WHEEL_SLOTS as u64) as usize].is_empty() {
                    next = c;
                    break;
                }
            }
        }
        next
    }

    /// Advances the clock to just before the next scheduled event (or the
    /// run limit), so the following [`Engine::step`] lands exactly on it.
    /// Skipped cycles are ones in which no component would tick and no
    /// message would be delivered.
    fn fast_forward(&mut self, limit: Cycle) {
        let next = self.next_event_cycle();
        if next <= self.cycle + 1 {
            return;
        }
        let land = next.min(limit);
        if land > self.cycle + 1 {
            self.cycle = land - 1;
        }
    }

    /// Runs until [`Engine::quiescent`] or until `max_cycles` elapse.
    /// Returns the final cycle.
    ///
    /// # Panics
    ///
    /// Panics if the cycle limit is hit while work remains — a livelocked
    /// simulation is always a modelling bug and must not pass silently.
    pub fn run_to_quiescence(&mut self, max_cycles: Cycle) -> Cycle {
        let limit = self.cycle + max_cycles;
        while !self.quiescent() {
            assert!(
                self.cycle < limit,
                "simulation did not quiesce within {max_cycles} cycles; busy: {:?}",
                self.busy_components()
            );
            if self.mode != SchedulerMode::Legacy {
                self.fast_forward(limit);
            }
            self.step();
        }
        self.cycle
    }

    /// Runs while `cond` holds and work remains, up to `max_cycles`.
    ///
    /// Under the event-driven scheduler, `cond` is evaluated before each
    /// *executed* cycle; idle stretches are fast-forwarded (never past
    /// `max_cycles`), so a condition that flips on a cycle in which
    /// nothing is scheduled is observed at the next event or at the limit.
    pub fn run_while(&mut self, max_cycles: Cycle, mut cond: impl FnMut(&Engine) -> bool) -> Cycle {
        let limit = self.cycle + max_cycles;
        while self.cycle < limit && cond(self) && !self.quiescent() {
            if self.mode != SchedulerMode::Legacy {
                self.fast_forward(limit);
            }
            self.step();
        }
        self.cycle
    }

    /// Names of components currently reporting work, for diagnostics.
    pub fn busy_components(&self) -> Vec<&str> {
        self.components
            .iter()
            .filter(|c| c.busy())
            .map(|c| c.name())
            .collect()
    }

    /// Immutable access to a component (for stats harvesting). The caller
    /// downcasts via its own bookkeeping of what lives at which id.
    pub fn component(&self, id: ComponentId) -> &dyn Component {
        self.components[id.0].as_ref()
    }

    /// Mutable access to a component. Marks it externally mutated: it is
    /// re-ticked and its busy flag re-read on the next cycle.
    pub fn component_mut(&mut self, id: ComponentId) -> &mut dyn Component {
        self.mark_dirty(id.0);
        self.components[id.0].as_mut()
    }

    /// Typed access to a component: the stats-harvesting path used by the
    /// measurement harness, which knows what it installed at each id.
    pub fn get<T: Component>(&self, id: ComponentId) -> Option<&T> {
        (self.components[id.0].as_ref() as &dyn std::any::Any).downcast_ref::<T>()
    }

    /// Typed mutable access to a component. Marks it externally mutated:
    /// it is re-ticked and its busy flag re-read on the next cycle.
    pub fn get_mut<T: Component>(&mut self, id: ComponentId) -> Option<&mut T> {
        self.mark_dirty(id.0);
        (self.components[id.0].as_mut() as &mut dyn std::any::Any).downcast_mut::<T>()
    }

    // ---- checkpoint / restore ----

    /// Runs until the clock reaches `target` or the system quiesces,
    /// whichever comes first. Every cycle boundary is a valid checkpoint
    /// under both scheduler modes (DESIGN.md §3.4).
    pub fn run_until(&mut self, target: Cycle) -> Cycle {
        if target <= self.cycle {
            return self.cycle;
        }
        let budget = target - self.cycle;
        self.run_while(budget, |_| true)
    }

    /// Appends the engine's full dynamic state — clock, every component's
    /// saved state, mailboxes, in-flight messages and the structured
    /// tracer — to `w`, in the canonical order described in DESIGN.md
    /// §3.4. Scheduler-derived state (wake heap, armed table, busy cache)
    /// is intentionally excluded: it is reconstructed bit-exactly on load,
    /// which also makes snapshots portable across scheduler modes.
    pub fn save_state_into(&mut self, w: &mut SnapshotWriter) {
        self.flush_dirty();
        assert!(
            self.outbox.is_empty(),
            "snapshot taken mid-tick: staged sends present"
        );
        w.put_len(self.components.len());
        w.put_u64(self.cycle);
        w.put_u64(self.delivered);
        for comp in &self.components {
            w.put_str(comp.name());
            let mut body = SnapshotWriter::new();
            comp.save_state(&mut body);
            w.put_bytes(&body.into_bytes());
        }
        // Mailboxes: same bytes as a `VecDeque<Message>` save — handles
        // are resolved through the arena in queue order.
        for inbox in &self.inboxes {
            w.put_len(inbox.len());
            for &h in inbox {
                self.msgs.get(h).save(w);
            }
        }
        // In-flight messages in canonical order: ascending delivery cycle,
        // send order within a cycle (each wheel slot holds exactly one
        // future cycle's deliveries in push order), then the overflow list.
        w.put_len(self.in_flight);
        for d in 1..WHEEL_SLOTS as u64 {
            let when = self.cycle + d;
            for &(dst, h) in &self.wheel[(when % WHEEL_SLOTS as u64) as usize] {
                w.put_u64(when);
                w.put_len(dst.0);
                self.msgs.get(h).save(w);
            }
        }
        for &(when, dst, h) in &self.overflow {
            w.put_u64(when);
            w.put_len(dst.0);
            self.msgs.get(h).save(w);
        }
        self.tracer.save(w);
    }

    /// Restores the state written by [`Engine::save_state_into`] into
    /// this engine, which must contain the same components (same count,
    /// names and order — i.e. be built from the same configuration).
    /// The active scheduler mode is kept and all of its derived state is
    /// rebuilt from scratch, exactly as [`Engine::set_scheduler`] does.
    pub fn load_state_from(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let n = r.get_len()?;
        if n != self.components.len() {
            return Err(SnapshotError::Corrupt(format!(
                "snapshot has {n} components, engine has {}",
                self.components.len()
            )));
        }
        let cycle = r.get_u64()?;
        let delivered = r.get_u64()?;
        // Borrow every component blob from the snapshot buffer (restore
        // is a sweep hot path — no per-component copies or name allocs).
        let mut bodies: Vec<&[u8]> = Vec::with_capacity(n);
        for comp in &self.components {
            let name = r.get_bytes()?;
            if name != comp.name().as_bytes() {
                return Err(SnapshotError::Corrupt(format!(
                    "component mismatch: snapshot has `{}`, engine has `{}`",
                    String::from_utf8_lossy(name),
                    comp.name()
                )));
            }
            bodies.push(r.get_bytes()?);
        }
        let mut inboxes: Vec<VecDeque<Message>> = Vec::with_capacity(n);
        for _ in 0..n {
            inboxes.push(Snap::load(r)?);
        }
        let in_flight = r.get_len()?;
        let mut deliveries = Vec::with_capacity(in_flight);
        for _ in 0..in_flight {
            let when = r.get_u64()?;
            let dst = r.get_len()?;
            let msg = Message::load(r)?;
            if when <= cycle {
                return Err(SnapshotError::Corrupt(format!(
                    "in-flight message due at {when}, not after cycle {cycle}"
                )));
            }
            if dst >= n {
                return Err(SnapshotError::Corrupt(format!(
                    "in-flight message for unknown component {dst}"
                )));
            }
            deliveries.push((when, ComponentId(dst), msg));
        }
        let tracer = Tracer::load(r)?;

        // Everything decoded — only now mutate the engine.
        self.cycle = cycle;
        self.delivered = delivered;
        for (comp, body) in self.components.iter_mut().zip(&bodies) {
            let mut br = SnapshotReader::new(body);
            comp.load_state(&mut br)?;
            if br.remaining() != 0 {
                return Err(SnapshotError::Corrupt(format!(
                    "component `{}` left {} unread byte(s) in its state blob",
                    comp.name(),
                    br.remaining()
                )));
            }
        }
        self.msgs = Arena::new();
        self.inboxes.clear();
        for inbox in inboxes {
            let mut q = VecDeque::with_capacity(inbox.len());
            for msg in inbox {
                q.push_back(self.msgs.alloc(msg));
            }
            self.inboxes.push(q);
        }
        for slot in &mut self.wheel {
            slot.clear();
        }
        self.overflow.clear();
        self.overflow_min = NEVER;
        self.in_flight = 0;
        for (when, dst, msg) in deliveries {
            let h = self.msgs.alloc(msg);
            self.schedule(when, dst, h);
        }
        self.tracer = tracer;
        self.tracer.set_now(self.cycle);
        // Rebuild every piece of scheduler-derived state (armed table,
        // wake heap, always-on set, busy cache, dirty list) for the
        // current mode — bit-exact by the `next_wake` contract.
        self.set_scheduler(self.mode);
        Ok(())
    }

    /// Serializes the engine into a standalone versioned snapshot
    /// (header + [`Engine::save_state_into`] body).
    pub fn save_snapshot(&mut self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        write_header(&mut w);
        self.save_state_into(&mut w);
        w.into_bytes()
    }

    /// Restores a snapshot produced by [`Engine::save_snapshot`],
    /// validating the header (magic, version) and that every byte is
    /// consumed.
    pub fn restore(&mut self, bytes: &[u8]) -> Result<(), SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        read_header(&mut r)?;
        self.load_state_from(&mut r)?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupt(format!(
                "{} trailing byte(s) after engine state",
                r.remaining()
            )));
        }
        Ok(())
    }

    /// FNV-1a hash over the canonical state encoding — a cheap
    /// fingerprint for "are these two paused simulations identical?".
    pub fn state_hash(&mut self) -> u64 {
        let mut w = SnapshotWriter::new();
        self.save_state_into(&mut w);
        netcrafter_proto::fnv1a64(&w.into_bytes())
    }

    /// Runs until `cycle` (see [`Engine::run_until`]) and returns the
    /// snapshot of the paused state.
    pub fn checkpoint_at(&mut self, cycle: Cycle) -> Vec<u8> {
        self.run_until(cycle);
        self.save_snapshot()
    }

    /// Serializes the paused engine into an in-memory [`ForkSnapshot`]:
    /// the versioned snapshot bytes behind an `Arc`, tagged with the pause
    /// cycle and the body's state hash. One serialization pass produces
    /// both the bytes and the fingerprint (the body is hashed before the
    /// header is prepended), so forking costs exactly one encode no matter
    /// how many children later restore from it.
    pub fn fork_snapshot(&mut self) -> ForkSnapshot {
        let mut body = SnapshotWriter::new();
        self.save_state_into(&mut body);
        let body = body.into_bytes();
        let hash = netcrafter_proto::fnv1a64(&body);
        let mut w = SnapshotWriter::new();
        write_header(&mut w);
        let mut bytes = w.into_bytes();
        bytes.extend_from_slice(&body);
        ForkSnapshot::new(self.cycle, bytes, hash)
    }
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("cycle", &self.cycle)
            .field("components", &self.components.len())
            .field("in_flight", &self.in_flight)
            .field("mode", &self.mode)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Echoes every received message back to a peer after a delay.
    struct Echo {
        peer: ComponentId,
        delay: u64,
        received: Vec<(Cycle, Message)>,
        bounces_left: u32,
    }

    impl Component for Echo {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                self.received.push((ctx.cycle(), msg.clone()));
                if self.bounces_left > 0 {
                    self.bounces_left -= 1;
                    ctx.send(self.peer, msg, self.delay);
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "echo"
        }
    }

    fn credit(n: u32) -> Message {
        Message::Credit {
            from: netcrafter_proto::NodeId(0),
            count: n,
            link: 0,
        }
    }

    #[test]
    fn messages_arrive_after_exact_delay() {
        let mut b = EngineBuilder::new();
        let a = b.reserve();
        let c = b.reserve();
        b.install(
            a,
            Box::new(Echo {
                peer: c,
                delay: 5,
                received: vec![],
                bounces_left: 0,
            }),
        );
        b.install(
            c,
            Box::new(Echo {
                peer: a,
                delay: 5,
                received: vec![],
                bounces_left: 0,
            }),
        );
        let mut e = b.build();
        e.inject(a, credit(1), 3);
        assert!(!e.quiescent());
        let end = e.run_to_quiescence(100);
        assert_eq!(end, 3, "message delivered at cycle 3 and system quiesces");
        assert_eq!(e.messages_delivered(), 1);
    }

    #[test]
    fn ping_pong_alternates() {
        let mut b = EngineBuilder::new();
        let a = b.reserve();
        let c = b.reserve();
        b.install(
            a,
            Box::new(Echo {
                peer: c,
                delay: 10,
                received: vec![],
                bounces_left: 2,
            }),
        );
        b.install(
            c,
            Box::new(Echo {
                peer: a,
                delay: 10,
                received: vec![],
                bounces_left: 2,
            }),
        );
        let mut e = b.build();
        e.inject(a, credit(7), 1);
        e.run_to_quiescence(1000);
        // a receives at 1, sends -> c receives at 11, sends -> a at 21,
        // sends -> c at 31, sends -> a at 41 (a has no bounces left).
        assert_eq!(e.messages_delivered(), 5);
    }

    #[test]
    fn long_delays_take_overflow_path() {
        let mut b = EngineBuilder::new();
        let a = b.add(Box::new(Echo {
            peer: ComponentId(0),
            delay: 1,
            received: vec![],
            bounces_left: 0,
        }));
        let mut e = b.build();
        e.inject(a, credit(1), 2000); // > WHEEL_SLOTS
        let end = e.run_to_quiescence(5000);
        assert_eq!(end, 2000);
        assert_eq!(e.messages_delivered(), 1);
    }

    struct Recorder {
        got: Vec<u32>,
    }
    impl Component for Recorder {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(Message::Credit { count, .. }) = ctx.recv() {
                self.got.push(count);
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "recorder"
        }
    }

    #[test]
    fn delivery_preserves_send_order_within_cycle() {
        let mut b = EngineBuilder::new();
        let r = b.add(Box::new(Recorder { got: vec![] }));
        let mut e = b.build();
        for i in 0..10 {
            e.inject(r, credit(i), 4);
        }
        e.run_to_quiescence(100);
        assert_eq!(e.messages_delivered(), 10);
        let rec = e.get::<Recorder>(r).expect("recorder installed");
        assert_eq!(
            rec.got,
            (0..10).collect::<Vec<u32>>(),
            "same-cycle deliveries arrive in send order"
        );
    }

    #[test]
    #[should_panic(expected = "did not quiesce")]
    fn livelock_is_detected() {
        struct Forever;
        impl Component for Forever {
            fn tick(&mut self, _ctx: &mut Ctx<'_>) {}
            fn busy(&self) -> bool {
                true
            }
            fn name(&self) -> &str {
                "forever"
            }
        }
        let mut b = EngineBuilder::new();
        b.add(Box::new(Forever));
        let mut e = b.build();
        e.run_to_quiescence(10);
    }

    #[test]
    #[should_panic(expected = "installed twice")]
    fn double_install_panics() {
        let mut b = EngineBuilder::new();
        let id = b.reserve();
        b.install(
            id,
            Box::new(Echo {
                peer: id,
                delay: 1,
                received: vec![],
                bounces_left: 0,
            }),
        );
        b.install(
            id,
            Box::new(Echo {
                peer: id,
                delay: 1,
                received: vec![],
                bounces_left: 0,
            }),
        );
    }

    #[test]
    #[should_panic(expected = "never installed")]
    fn missing_install_panics() {
        let mut b = EngineBuilder::new();
        let _ = b.reserve();
        let _ = b.build();
    }

    #[test]
    fn run_while_stops_on_condition() {
        struct Heartbeat;
        impl Component for Heartbeat {
            fn tick(&mut self, ctx: &mut Ctx<'_>) {
                let me = ctx.self_id();
                if ctx.recv().is_some() {
                    ctx.send(
                        me,
                        Message::Credit {
                            from: netcrafter_proto::NodeId(0),
                            count: 1,
                            link: 0,
                        },
                        1,
                    );
                }
            }
            fn busy(&self) -> bool {
                false
            }
            fn name(&self) -> &str {
                "heartbeat"
            }
        }
        let mut b = EngineBuilder::new();
        let h = b.add(Box::new(Heartbeat));
        let mut e = b.build();
        e.inject(h, credit(1), 1);
        let end = e.run_while(10_000, |e| e.cycle() < 50);
        assert_eq!(end, 50);
        assert!(!e.quiescent(), "heartbeat keeps a message in flight");
    }

    #[test]
    fn typed_component_access() {
        let mut b = EngineBuilder::new();
        let id = b.add(Box::new(Echo {
            peer: ComponentId(0),
            delay: 1,
            received: vec![],
            bounces_left: 0,
        }));
        let mut e = b.build();
        assert!(e.get::<Echo>(id).is_some(), "downcast to the real type");
        struct Other;
        impl Component for Other {
            fn tick(&mut self, _ctx: &mut Ctx<'_>) {}
            fn busy(&self) -> bool {
                false
            }
            fn name(&self) -> &str {
                "other"
            }
        }
        assert!(e.get::<Other>(id).is_none(), "wrong type yields None");
        assert!(e.get_mut::<Echo>(id).is_some());
    }

    #[test]
    fn zero_delay_is_clamped_to_one() {
        struct Sender {
            dst: ComponentId,
            sent: bool,
        }
        impl Component for Sender {
            fn tick(&mut self, ctx: &mut Ctx<'_>) {
                if !self.sent {
                    self.sent = true;
                    ctx.send(
                        self.dst,
                        Message::Credit {
                            from: netcrafter_proto::NodeId(0),
                            count: 1,
                            link: 0,
                        },
                        0,
                    );
                }
            }
            fn busy(&self) -> bool {
                false
            }
            fn name(&self) -> &str {
                "sender"
            }
        }
        let mut b = EngineBuilder::new();
        let s = b.reserve();
        let r = b.reserve();
        b.install(
            s,
            Box::new(Sender {
                dst: r,
                sent: false,
            }),
        );
        b.install(
            r,
            Box::new(Echo {
                peer: s,
                delay: 1,
                received: vec![],
                bounces_left: 0,
            }),
        );
        let mut e = b.build();
        e.step(); // sender sends at cycle 1 with delay 0 -> arrives cycle 2
        assert_eq!(e.messages_delivered(), 0);
        e.step();
        assert_eq!(e.messages_delivered(), 1);
    }

    // ---- event-driven scheduler ----

    /// Counts its own ticks; forwards each message onward after `delay`.
    /// Wake class `OnMessage`: a pure message reactor.
    struct Relay {
        peer: ComponentId,
        delay: u64,
        ticks: u64,
        forwarded: u64,
        hops_left: u64,
    }
    impl Component for Relay {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            self.ticks += 1;
            while let Some(msg) = ctx.recv() {
                if self.hops_left > 0 {
                    self.hops_left -= 1;
                    self.forwarded += 1;
                    ctx.send(self.peer, msg, self.delay);
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "relay"
        }
        fn next_wake(&self, _now: Cycle) -> Wake {
            Wake::OnMessage
        }
    }

    /// Emits one credit every `period` cycles via a precise `At` wake,
    /// until `left` runs out.
    struct Pulse {
        dst: ComponentId,
        period: Cycle,
        next: Cycle,
        left: u32,
    }
    impl Component for Pulse {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while ctx.recv().is_some() {}
            if self.left > 0 && ctx.cycle() >= self.next {
                self.left -= 1;
                self.next = ctx.cycle() + self.period;
                ctx.send(self.dst, credit(self.left), 1);
            }
        }
        fn busy(&self) -> bool {
            self.left > 0
        }
        fn name(&self) -> &str {
            "pulse"
        }
        fn next_wake(&self, _now: Cycle) -> Wake {
            if self.left > 0 {
                Wake::At(self.next)
            } else {
                Wake::OnMessage
            }
        }
    }

    fn relay_ring(mode: SchedulerMode) -> (Engine, Vec<ComponentId>) {
        let mut b = EngineBuilder::new();
        let ids: Vec<ComponentId> = (0..8).map(|_| b.reserve()).collect();
        for (i, &id) in ids.iter().enumerate() {
            b.install(
                id,
                Box::new(Relay {
                    peer: ids[(i + 1) % ids.len()],
                    delay: 37,
                    ticks: 0,
                    forwarded: 0,
                    hops_left: 5,
                }),
            );
        }
        let mut e = b.build();
        e.set_scheduler(mode);
        (e, ids)
    }

    #[test]
    fn event_driven_matches_legacy_on_relay_ring() {
        let run = |mode| {
            let (mut e, ids) = relay_ring(mode);
            e.inject(ids[0], credit(1), 1);
            let end = e.run_to_quiescence(100_000);
            (end, e.messages_delivered())
        };
        assert_eq!(
            run(SchedulerMode::Legacy),
            run(SchedulerMode::EventDriven),
            "schedulers must agree on end cycle and delivery count"
        );
    }

    #[test]
    fn event_driven_skips_idle_cycles() {
        let (mut e, ids) = relay_ring(SchedulerMode::EventDriven);
        e.inject(ids[0], credit(1), 1);
        let end = e.run_to_quiescence(100_000);
        let total_ticks: u64 = ids
            .iter()
            .map(|&id| e.get::<Relay>(id).unwrap().ticks)
            .sum();
        // Legacy would tick 8 components x `end` cycles; event-driven
        // ticks only the initial arming plus one tick per delivery.
        assert!(
            total_ticks < 8 + 2 * e.messages_delivered(),
            "ticks {total_ticks} deliveries {} end {end}",
            e.messages_delivered()
        );
    }

    #[test]
    fn at_wakes_fire_on_schedule_in_both_modes() {
        let run = |mode| {
            let mut b = EngineBuilder::new();
            let sink = b.reserve();
            b.add(Box::new(Pulse {
                dst: sink,
                period: 50,
                next: 1,
                left: 6,
            }));
            b.install(sink, Box::new(Recorder { got: vec![] }));
            let mut e = b.build();
            e.set_scheduler(mode);
            let end = e.run_to_quiescence(10_000);
            let got = e.get::<Recorder>(sink).unwrap().got.clone();
            (end, e.messages_delivered(), got)
        };
        let legacy = run(SchedulerMode::Legacy);
        let event = run(SchedulerMode::EventDriven);
        assert_eq!(legacy, event);
        assert_eq!(legacy.1, 6, "six pulses delivered");
    }

    #[test]
    fn external_mutation_is_observed() {
        struct Latch {
            armed: bool,
            fired: bool,
        }
        impl Component for Latch {
            fn tick(&mut self, ctx: &mut Ctx<'_>) {
                while ctx.recv().is_some() {}
                if self.armed {
                    self.armed = false;
                    self.fired = true;
                }
            }
            fn busy(&self) -> bool {
                self.armed
            }
            fn name(&self) -> &str {
                "latch"
            }
            fn next_wake(&self, _now: Cycle) -> Wake {
                if self.armed {
                    Wake::EveryCycle
                } else {
                    Wake::OnMessage
                }
            }
        }
        let mut b = EngineBuilder::new();
        let id = b.add(Box::new(Latch {
            armed: false,
            fired: false,
        }));
        let mut e = b.build();
        e.run_to_quiescence(10);
        assert!(e.quiescent());
        // Mutate behind the scheduler's back: the engine must notice the
        // busy flip and tick the component again.
        e.get_mut::<Latch>(id).unwrap().armed = true;
        assert!(!e.quiescent(), "dirty component re-checked live");
        e.run_to_quiescence(10);
        assert!(e.get::<Latch>(id).unwrap().fired, "latch got its tick");
    }

    #[test]
    fn fast_forward_takes_overflow_and_wheel_paths() {
        // Chain: delivery at 2000 (overflow), relayed with delay 37
        // (wheel). Event-driven must land on both exactly.
        let run = |mode| {
            let mut b = EngineBuilder::new();
            let tail = b.reserve();
            let head = b.add(Box::new(Relay {
                peer: tail,
                delay: 37,
                ticks: 0,
                forwarded: 0,
                hops_left: 1,
            }));
            b.install(
                tail,
                Box::new(Relay {
                    peer: head,
                    delay: 1,
                    ticks: 0,
                    forwarded: 0,
                    hops_left: 0,
                }),
            );
            let mut e = b.build();
            e.set_scheduler(mode);
            e.inject(head, credit(3), 2000);
            let end = e.run_to_quiescence(5000);
            (end, e.messages_delivered())
        };
        let legacy = run(SchedulerMode::Legacy);
        assert_eq!(legacy, run(SchedulerMode::EventDriven));
        assert_eq!(legacy, (2037, 2));
    }

    /// Snapshot-capable bouncer: returns each credit to its peer with a
    /// delay drawn from a fixed rotation mixing same-slot, wheel-range
    /// and overflow-range hops, so a long run recycles arena slots
    /// continuously.
    struct Churner {
        peer: ComponentId,
        delays: &'static [u64],
        next_delay: usize,
        bounces_left: u32,
        received: u64,
    }

    impl Component for Churner {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            while let Some(msg) = ctx.recv() {
                self.received += 1;
                if self.bounces_left > 0 {
                    self.bounces_left -= 1;
                    let d = self.delays[self.next_delay % self.delays.len()];
                    self.next_delay += 1;
                    ctx.send(self.peer, msg, d);
                }
            }
        }
        fn busy(&self) -> bool {
            false
        }
        fn name(&self) -> &str {
            "churner"
        }
        fn save_state(&self, w: &mut SnapshotWriter) {
            w.put_u64(self.next_delay as u64);
            w.put_u64(u64::from(self.bounces_left));
            w.put_u64(self.received);
        }
        fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
            self.next_delay = r.get_u64()? as usize;
            self.bounces_left = r.get_u64()? as u32;
            self.received = r.get_u64()?;
            Ok(())
        }
    }

    /// Drains at most one message per tick, so a same-cycle burst sits
    /// in its engine-side inbox across several cycles — exactly the
    /// state a snapshot must carry through the arena.
    struct Sloth {
        backlog: u32,
        got: u64,
    }

    impl Component for Sloth {
        fn tick(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.recv().is_some() {
                self.got += 1;
                self.backlog -= 1;
            }
        }
        fn busy(&self) -> bool {
            self.backlog > 0
        }
        fn name(&self) -> &str {
            "sloth"
        }
        fn save_state(&self, w: &mut SnapshotWriter) {
            w.put_u64(u64::from(self.backlog));
            w.put_u64(self.got);
        }
        fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
            self.backlog = r.get_u64()? as u32;
            self.got = r.get_u64()?;
            Ok(())
        }
    }

    const CHURN_DELAYS: &[u64] = &[1, 3, 700, 2, 517, 5];

    fn churn_engine() -> Engine {
        let mut b = EngineBuilder::new();
        let a = b.reserve();
        let c = b.reserve();
        b.install(
            a,
            Box::new(Churner {
                peer: c,
                delays: CHURN_DELAYS,
                next_delay: 0,
                bounces_left: 40,
                received: 0,
            }),
        );
        b.install(
            c,
            Box::new(Churner {
                peer: a,
                delays: CHURN_DELAYS,
                next_delay: 0,
                bounces_left: 40,
                received: 0,
            }),
        );
        b.add(Box::new(Sloth { backlog: 4, got: 0 }));
        b.build()
    }

    #[test]
    fn snapshot_round_trip_survives_arena_churn() {
        let mut live = churn_engine();
        let a = ComponentId(0);
        let sloth = ComponentId(2);
        // Several concurrent bounce chains spanning wheel and overflow
        // ranges, plus a same-cycle burst the sloth drains one per tick.
        for i in 0..6u32 {
            live.inject(a, credit(i), 1 + u64::from(i) * 400);
        }
        for i in 0..4u32 {
            live.inject(sloth, credit(100 + i), 450);
        }
        // Pause mid-flight: the sloth's backlog keeps an inbox occupied,
        // short hops sit in the wheel and a 400/700-cycle hop scheduled
        // near the pause sits in the overflow map.
        live.run_until(451);
        assert!(live.in_flight > 0, "pause must catch messages in flight");
        assert!(
            !live.overflow.is_empty(),
            "pause must catch a long-range delivery in overflow"
        );
        assert!(
            live.inboxes.iter().any(|q| !q.is_empty()),
            "pause must catch an undrained inbox"
        );

        // Fixed point: restore into a freshly built twin; its re-encoded
        // snapshot and state hash are byte-identical.
        let snap = live.save_snapshot();
        let mut twin = churn_engine();
        twin.restore(&snap).expect("snapshot restores");
        assert_eq!(
            twin.save_snapshot(),
            snap,
            "save/load/save is a fixed point"
        );
        assert_eq!(twin.state_hash(), live.state_hash());

        // Continuation: both runs land on the same end state.
        let end_live = live.run_to_quiescence(100_000);
        let end_twin = twin.run_to_quiescence(100_000);
        assert_eq!(
            end_live, end_twin,
            "restored run quiesces at the same cycle"
        );
        assert_eq!(live.messages_delivered(), twin.messages_delivered());
        assert_eq!(live.state_hash(), twin.state_hash());

        // Arena recycling: ~90 deliveries flowed through, but the slab
        // only ever grew to the peak concurrent in-flight count.
        assert!(
            live.messages_delivered() >= 80,
            "expected a long churn run, got {} deliveries",
            live.messages_delivered()
        );
        assert!(live.msgs.is_empty(), "quiescent engine holds no payloads");
        assert!(
            live.msgs.capacity() <= 16,
            "arena failed to recycle: {} slots for {} deliveries",
            live.msgs.capacity(),
            live.messages_delivered()
        );
    }
}
