//! Sharded sparse scheduling across cores with SPSC ring transport.
//!
//! The sparse-readiness pipeline in [`sparse`](crate::sparse) makes
//! per-round cost proportional to *ready* streams — but it still runs
//! every ready stream on one core, and the synthetic feed loop
//! serializes with scheduling. This module partitions the registered
//! population across `W` worker shards and moves feeding off the hot
//! path:
//!
//! ```text
//!            lock-free publish            bounded SPSC completions
//!  feeder ──▶ [SpscByteRing g]  shard 0 ──▶ [completion ring 0] ─┐
//!         ──▶ [SpscByteRing g'] (ReadyQueue,                     ├─▶ batch former
//!         ──▶ [doorbell ring]    IgmSessions)                    │   + verdicts
//!             ...               shard 1 ──▶ [completion ring 1] ─┘   (consumer)
//! ```
//!
//! * **Partition.** Stream `g` belongs to shard `g % W`. Each shard
//!   owns its streams' [`IgmSession`]s, a private [`ReadyQueue`] and a
//!   scratch arena, so poll rounds touch no shared mutable state —
//!   lock-free and cache-local by construction.
//! * **Transport.** All cross-thread movement rides fixed-capacity
//!   SPSC rings with single-writer index publication (the mmap /
//!   io_uring shape: a producer-owned tail and a consumer-owned head,
//!   each published with an atomic store): per-stream
//!   [`SpscByteRing`]s feeder→shard, a doorbell ring per shard
//!   (readiness wakeups), a completion ring per shard
//!   (shard→batch-former, carrying decoded windows by move — the
//!   payload is transferred, never re-copied), and a return ring per
//!   shard recycling scored dense buffers. Everything is allocated at
//!   registration / run start; the steady state allocates nothing.
//! * **Determinism.** Every window of stream `g` travels one FIFO
//!   path: byte ring → shard `g % W`'s session (sole owner, in-order
//!   decode) → that shard's completion ring → the consumer queue. The
//!   consumer drains completion rings in shard index order each sweep
//!   (shard-round-robin), so batch composition is a deterministic
//!   function of arrival order — and because the batch kernels are
//!   batch-size-invariant and verdict state is per-stream, outcomes
//!   are **bit-identical to
//!   [`serial_reference`](crate::serial_reference) for any
//!   interleaving and any `W`** (property-tested over random shard
//!   counts).
//!
//! **Wakeup protocol (no lost doorbells).** Each stream carries a
//! `scheduled` flag. After a successful publish the feeder does
//! `scheduled.swap(true)`; only the `false → true` transition pushes a
//! doorbell, so at most one wakeup per stream is ever outstanding and
//! the doorbell ring (capacity = shard population) cannot overflow.
//! When a worker finds a ring empty it stores `scheduled = false` and
//! *re-checks* the ring (and the close flag): under the `SeqCst` total
//! order, either the re-check observes the concurrent publish (the
//! worker re-arms itself), or the worker's clear precedes the feeder's
//! swap — which then returns `false` and the feeder sends the
//! doorbell. Either way the stream is scheduled.
//!
//! **Backpressure.** A full byte ring drops the overflow and counts it
//! per stream (saturating, byte-conserved — exactly the sparse
//! pipeline's contract). A full completion ring never drops: the shard
//! parks windows in a preallocated pending queue and pauses decoding
//! until the consumer catches up, so verdicts stay lossless.
//!
//! **Zero-copy boundaries.** Decoded windows move through the
//! completion ring by ownership transfer ([`VectorPayload`] is moved,
//! dense buffers are never re-copied, and scored buffers return to
//! their owning session for reuse). Byte ingest pays exactly one copy
//! ring→scratch on the consumer side: the workspace forbids `unsafe`,
//! so ring storage is `AtomicU8` slots rather than a borrowable slice.
//! Dense-buffer recycling across threads is an allocation
//! optimization, not a correctness dependency (a full return ring
//! drops the buffer and the session re-allocates lazily); the
//! allocation-free gates therefore pin the token-stream (LSTM) front
//! end, whose windows carry no heap payload.
//!
//! `W = 1` (and the `available_parallelism() == 1` auto case) needs no
//! transport at all: it delegates to the inline [`SparsePipeline`],
//! keeping the measured single-core path exactly as it was.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

use rtad_igm::{IgmSession, IgmShared, StreamedVector, VectorPayload};

use crate::serve::{BatchFormer, ServeSpec, SparseOutcome};
use crate::sparse::{ReadyQueue, SparseConfig, SparsePipeline, SparseStats, DENSE_SUBQUANTUM};

/// Hard cap on auto-detected worker shards: beyond this, per-shard
/// populations get small enough that doorbell/completion traffic
/// dominates the cache-locality win.
pub const MAX_AUTO_WORKERS: usize = 8;

/// Worker shards the auto policy (`ShardConfig::workers == 0`) picks:
/// `available_parallelism()` clamped to [`MAX_AUTO_WORKERS`]. On a
/// single-core host this is 1, which selects the inline
/// [`SparsePipeline`] data plane (the measured single-core optimum).
pub fn auto_workers() -> usize {
    thread::available_parallelism()
        .map_or(1, NonZeroUsize::get)
        .min(MAX_AUTO_WORKERS)
}

/// A bounded single-producer single-consumer byte ring with lock-free
/// index publication: the producer owns `tail`, the consumer owns
/// `head`, and each side publishes its free-running counter with a
/// single atomic store after touching the slots. Capacity is rounded
/// up to a power of two so index arithmetic stays exact across counter
/// wraparound.
///
/// The workspace forbids `unsafe`, so slots are `AtomicU8` (relaxed
/// slot access is ordered by the index publication); the consumer
/// drains into a caller-provided scratch buffer — the one copy this
/// transport pays.
#[derive(Debug)]
pub struct SpscByteRing {
    buf: Box<[AtomicU8]>,
    /// Consumer position (free-running).
    head: AtomicUsize,
    /// Producer position (free-running).
    tail: AtomicUsize,
}

impl SpscByteRing {
    /// A ring holding at least `capacity` bytes (rounded up to a power
    /// of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring can never admit bytes");
        let cap = capacity.next_power_of_two();
        SpscByteRing {
            buf: (0..cap).map(|_| AtomicU8::new(0)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// The fixed capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Bytes currently buffered (exact for the producer and consumer;
    /// a racing third-party reader sees a recent value).
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::SeqCst)
            .wrapping_sub(self.head.load(Ordering::SeqCst))
    }

    /// Whether the ring holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Free space in bytes (the producer's view).
    pub fn free(&self) -> usize {
        self.capacity() - self.len()
    }

    /// Producer side: copies as much of `bytes` as fits and publishes
    /// the new tail; returns the accepted count (the rest is the
    /// caller's to count as dropped). Never blocks, never allocates.
    pub fn push(&self, bytes: &[u8]) -> usize {
        let tail = self.tail.load(Ordering::SeqCst);
        let head = self.head.load(Ordering::SeqCst);
        let mask = self.buf.len() - 1;
        let free = self.buf.len() - tail.wrapping_sub(head);
        let take = bytes.len().min(free);
        for (i, &b) in bytes[..take].iter().enumerate() {
            self.buf[tail.wrapping_add(i) & mask].store(b, Ordering::Relaxed);
        }
        self.tail.store(tail.wrapping_add(take), Ordering::SeqCst);
        take
    }

    /// Consumer side: appends up to `max` buffered bytes to `out` and
    /// publishes the new head; returns the drained count. Allocation
    /// free as long as `out` has spare capacity.
    pub fn drain_to(&self, max: usize, out: &mut Vec<u8>) -> usize {
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        let mask = self.buf.len() - 1;
        let take = tail.wrapping_sub(head).min(max);
        for i in 0..take {
            out.push(self.buf[head.wrapping_add(i) & mask].load(Ordering::Relaxed));
        }
        self.head.store(head.wrapping_add(take), Ordering::SeqCst);
        take
    }
}

/// A bounded single-producer single-consumer ring of typed slots with
/// the same single-writer index publication as [`SpscByteRing`].
/// Values move through by ownership transfer — pushing a decoded
/// window hands its payload buffer across threads without copying it.
///
/// Slots use per-slot interior mutability; the index protocol
/// guarantees a slot is never touched by both sides at once, so the
/// per-slot locks are uncontended by construction (the atomics carry
/// the real synchronization) and the fast path never syscalls.
#[derive(Debug)]
pub struct SpscRing<T> {
    slots: Box<[Mutex<Option<T>>]>,
    /// Consumer position (free-running).
    head: AtomicUsize,
    /// Producer position (free-running).
    tail: AtomicUsize,
}

impl<T> SpscRing<T> {
    /// A ring holding at least `capacity` values (rounded up to a
    /// power of two).
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring can never admit values");
        let cap = capacity.next_power_of_two();
        SpscRing {
            slots: (0..cap).map(|_| Mutex::new(None)).collect(),
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
        }
    }

    /// The fixed capacity in values.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Values currently buffered.
    pub fn len(&self) -> usize {
        self.tail
            .load(Ordering::SeqCst)
            .wrapping_sub(self.head.load(Ordering::SeqCst))
    }

    /// Whether the ring holds no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Producer side: moves `value` into the next slot, or returns it
    /// when the ring is full (bounded — the caller decides whether
    /// full means "park it" or "drop it").
    pub fn push(&self, value: T) -> Result<(), T> {
        let tail = self.tail.load(Ordering::SeqCst);
        let head = self.head.load(Ordering::SeqCst);
        if tail.wrapping_sub(head) == self.slots.len() {
            return Err(value);
        }
        let mask = self.slots.len() - 1;
        *self.slots[tail & mask].lock().expect("spsc slot poisoned") = Some(value);
        self.tail.store(tail.wrapping_add(1), Ordering::SeqCst);
        Ok(())
    }

    /// Consumer side: takes the oldest value, or `None` when empty.
    pub fn pop(&self) -> Option<T> {
        let head = self.head.load(Ordering::SeqCst);
        let tail = self.tail.load(Ordering::SeqCst);
        if tail == head {
            return None;
        }
        let mask = self.slots.len() - 1;
        let value = self.slots[head & mask]
            .lock()
            .expect("spsc slot poisoned")
            .take();
        debug_assert!(value.is_some(), "published slot was empty");
        self.head.store(head.wrapping_add(1), Ordering::SeqCst);
        value
    }
}

/// Knobs of the sharded sparse pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardConfig {
    /// Worker shards. `0` auto-detects via [`auto_workers`]; `1` (or
    /// auto on a single-core host) selects the inline
    /// [`SparsePipeline`] data plane with no threads or transport.
    pub workers: usize,
    /// The per-shard scheduling knobs (ring capacity, batch bound,
    /// drain quantum), shared with the inline path.
    pub sparse: SparseConfig,
    /// Capacity of each shard's completion ring, in windows. Bounds
    /// dense buffers in flight per shard, so keep
    /// `2*completion_depth + 64 + max_batch` under the session window
    /// pool (256) for allocation-free dense steady state.
    pub completion_depth: usize,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            workers: 0,
            sparse: SparseConfig::default(),
            completion_depth: 64,
        }
    }
}

/// Per-shard telemetry: scheduling work, poll utilization and
/// transport high-water marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Streams owned by this shard.
    pub streams: usize,
    /// Worker loop iterations (including idle spins).
    pub rounds: u64,
    /// Iterations that had at least one ready stream to poll.
    pub busy_rounds: u64,
    /// Ready-stream visits.
    pub stream_polls: u64,
    /// Windows decoded by this shard.
    pub windows_decoded: u64,
    /// Highest completion-ring occupancy observed (≤ ring capacity).
    pub completion_high_water: usize,
    /// Highest pending-queue depth observed (windows parked while the
    /// completion ring was full).
    pub pending_high_water: usize,
}

impl ShardStats {
    /// Fraction of loop iterations that found scheduling work.
    pub fn utilization(&self) -> f64 {
        if self.rounds == 0 {
            return 0.0;
        }
        self.busy_rounds as f64 / self.rounds as f64
    }
}

/// The shared feed/transport plane: everything the feeder, the `W`
/// shard workers and the batch-former consumer touch concurrently.
/// All cross-thread state is atomics and SPSC rings.
struct FeedPlane {
    workers: usize,
    /// Per-stream ingest rings (feeder → owning shard).
    rings: Vec<SpscByteRing>,
    /// Per-stream wakeup flags (see the module docs' protocol).
    scheduled: Vec<AtomicBool>,
    /// Per-stream close requests (feeder-set, worker-read).
    closing: Vec<AtomicBool>,
    /// Per-stream drop counters (feeder-written, saturating).
    dropped: Vec<AtomicU64>,
    /// Per-shard readiness doorbells (feeder → worker).
    doorbells: Vec<SpscRing<u32>>,
    /// Per-shard decoded-window rings (worker → consumer).
    completions: Vec<SpscRing<(u32, VectorPayload)>>,
    /// Per-shard recycle rings (consumer → worker); full just drops.
    returns: Vec<SpscRing<(u32, Vec<f32>)>>,
    // Conservation counters backing `quiesce` (monotone; see there).
    fed_bytes: AtomicU64,
    consumed_bytes: AtomicU64,
    dropped_total: AtomicU64,
    windows_decoded: AtomicU64,
    windows_scored: AtomicU64,
    closes_requested: AtomicU64,
    closes_flushed: AtomicU64,
    // Run lifecycle.
    feeder_done: AtomicBool,
    workers_done: AtomicUsize,
    consumer_dead: AtomicBool,
}

impl FeedPlane {
    fn new(workers: usize) -> Self {
        FeedPlane {
            workers,
            rings: Vec::new(),
            scheduled: Vec::new(),
            closing: Vec::new(),
            dropped: Vec::new(),
            doorbells: (0..workers).map(|_| SpscRing::new(1)).collect(),
            completions: Vec::new(),
            returns: Vec::new(),
            fed_bytes: AtomicU64::new(0),
            consumed_bytes: AtomicU64::new(0),
            dropped_total: AtomicU64::new(0),
            windows_decoded: AtomicU64::new(0),
            windows_scored: AtomicU64::new(0),
            closes_requested: AtomicU64::new(0),
            closes_flushed: AtomicU64::new(0),
            feeder_done: AtomicBool::new(false),
            workers_done: AtomicUsize::new(0),
            consumer_dead: AtomicBool::new(false),
        }
    }

    fn saturating_count(counter: &AtomicU64, add: u64) {
        // Single-writer counters: load + store is race-free, and the
        // explicit form keeps the add saturating.
        counter.store(
            counter.load(Ordering::SeqCst).saturating_add(add),
            Ordering::SeqCst,
        );
    }

    /// Lock-free publish into `stream`'s ring (the feeder thread);
    /// overflow drops and is counted. Returns bytes accepted.
    fn feed(&self, stream: usize, bytes: &[u8]) -> usize {
        if self.closing[stream].load(Ordering::SeqCst) {
            Self::saturating_count(&self.dropped[stream], bytes.len() as u64);
            Self::saturating_count(&self.dropped_total, bytes.len() as u64);
            return 0;
        }
        let accepted = self.rings[stream].push(bytes);
        let lost = (bytes.len() - accepted) as u64;
        if lost > 0 {
            Self::saturating_count(&self.dropped[stream], lost);
            Self::saturating_count(&self.dropped_total, lost);
        }
        if accepted > 0 {
            self.fed_bytes.fetch_add(accepted as u64, Ordering::SeqCst);
            if !self.scheduled[stream].swap(true, Ordering::SeqCst) {
                self.ring_doorbell(stream);
            }
        }
        accepted
    }

    /// Marks `stream` finished and wakes its shard for the final
    /// straggler flush. Idempotent; later feeds drop.
    fn close(&self, stream: usize) {
        if self.closing[stream].swap(true, Ordering::SeqCst) {
            return;
        }
        self.closes_requested.fetch_add(1, Ordering::SeqCst);
        if !self.scheduled[stream].swap(true, Ordering::SeqCst) {
            self.ring_doorbell(stream);
        }
    }

    /// Pushes a wakeup for `stream` to its shard. The scheduled-flag
    /// protocol bounds outstanding doorbells per stream to one, so
    /// with capacity = shard population this never spins in practice.
    fn ring_doorbell(&self, stream: usize) {
        let shard = stream % self.workers;
        let mut token = stream as u32;
        loop {
            match self.doorbells[shard].push(token) {
                Ok(()) => return,
                Err(back) => {
                    token = back;
                    thread::yield_now();
                }
            }
        }
    }

    /// Blocks (yielding) until every accepted byte has been decoded
    /// and scored and every requested close has flushed. Uses monotone
    /// conservation counters: the feeder is the only writer of the
    /// upstream counters and it is parked here, so the system drains
    /// to a fixpoint; two identical consecutive snapshots with all
    /// stages balanced prove a consistent quiescent state.
    fn quiesce(&self) {
        let snapshot = || {
            (
                self.fed_bytes.load(Ordering::SeqCst),
                self.consumed_bytes.load(Ordering::SeqCst),
                self.windows_decoded.load(Ordering::SeqCst),
                self.windows_scored.load(Ordering::SeqCst),
                self.closes_requested.load(Ordering::SeqCst),
                self.closes_flushed.load(Ordering::SeqCst),
            )
        };
        loop {
            let a = snapshot();
            let balanced = a.0 == a.1 && a.2 == a.3 && a.4 == a.5;
            if balanced && snapshot() == a {
                return;
            }
            thread::yield_now();
        }
    }
}

/// Sets an [`AtomicBool`] on drop — keeps downstream threads from
/// spinning forever if the guarded closure panics.
struct SetOnDrop<'a>(&'a AtomicBool);

impl Drop for SetOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::SeqCst);
    }
}

/// Increments an [`AtomicUsize`] on drop (worker exit accounting that
/// survives panics).
struct CountOnDrop<'a>(&'a AtomicUsize);

impl Drop for CountOnDrop<'_> {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

/// One shard's private scheduling state: sessions, readiness queue and
/// scratch. Owned exclusively by its worker thread during a run.
struct ShardCore {
    shard: usize,
    /// Global ids of owned streams (`streams[local] = global`, where
    /// `global % W == shard` and `local = global / W`).
    streams: Vec<u32>,
    sessions: Vec<IgmSession>,
    flushed: Vec<bool>,
    ready: ReadyQueue,
    scratch: Vec<u8>,
    emitted: Vec<StreamedVector>,
    /// Windows parked while the completion ring is full; decode pauses
    /// until this empties, so nothing is ever dropped downstream.
    pending: VecDeque<(u32, VectorPayload)>,
    stats: ShardStats,
}

impl ShardCore {
    fn new(shard: usize, config: &ShardConfig) -> Self {
        let drain = config.sparse.drain_bytes.max(1);
        ShardCore {
            shard,
            streams: Vec::new(),
            sessions: Vec::new(),
            flushed: Vec::new(),
            ready: ReadyQueue::new(),
            scratch: Vec::with_capacity(drain.max(DENSE_SUBQUANTUM)),
            emitted: Vec::new(),
            // One decode burst is gated on this being empty, so its
            // residency is bounded by the windows of a single quantum.
            pending: VecDeque::with_capacity(2 * drain + DENSE_SUBQUANTUM),
            stats: ShardStats {
                shard,
                ..ShardStats::default()
            },
        }
    }
}

/// The threaded state behind a `W > 1` pipeline. The consumer thread
/// owns `former` — the same batch former the inline sparse pipeline
/// owns, so bit-identity transfers.
struct Sharded {
    shared: IgmShared,
    plane: FeedPlane,
    cores: Vec<ShardCore>,
    former: BatchFormer,
}

/// The sharded sparse serving pipeline: `W` lock-free shard schedulers
/// feeding one batch former over bounded SPSC rings, bit-identical to
/// the serial reference for any `W`. See the module docs.
pub struct ShardedSparsePipeline {
    config: ShardConfig,
    workers: usize,
    /// `W == 1`: the inline data plane, no threads or transport.
    inline: Option<SparsePipeline>,
    /// `W > 1`: the sharded data plane.
    sharded: Option<Sharded>,
}

/// The feed-side handle passed to [`ShardedSparsePipeline::run`]'s
/// closure: the only way to publish bytes while the data plane is
/// live. Not `Sync` — it models the single external producer the SPSC
/// ingest rings require.
pub struct ShardFeeder<'a> {
    imp: FeederImp<'a>,
}

enum FeederImp<'a> {
    Inline(RefCell<&'a mut SparsePipeline>),
    Sharded(&'a FeedPlane),
}

impl ShardFeeder<'_> {
    /// Offers `bytes` to `stream`'s ring; returns bytes accepted, the
    /// rest dropped and counted (never blocks any thread).
    pub fn feed(&self, stream: usize, bytes: &[u8]) -> usize {
        match &self.imp {
            FeederImp::Inline(p) => p.borrow_mut().feed(stream, bytes),
            FeederImp::Sharded(plane) => plane.feed(stream, bytes),
        }
    }

    /// Free space in `stream`'s ingest ring (the lossless-feeder
    /// backpressure probe).
    pub fn ring_free(&self, stream: usize) -> usize {
        match &self.imp {
            FeederImp::Inline(p) => p.borrow().ring_free(stream),
            FeederImp::Sharded(plane) => plane.rings[stream].free(),
        }
    }

    /// Marks `stream` finished; its shard runs the end-of-stream flush
    /// once the ring drains. Later feeds drop.
    pub fn close(&self, stream: usize) {
        match &self.imp {
            FeederImp::Inline(p) => p.borrow_mut().close(stream),
            FeederImp::Sharded(plane) => plane.close(stream),
        }
    }

    /// Lets the data plane make progress: on the inline path this runs
    /// one poll round (the feeder *is* the scheduler there); on the
    /// sharded path scheduling is concurrent, so this just yields the
    /// feeder's timeslice to the workers.
    pub fn pump(&self) {
        match &self.imp {
            FeederImp::Inline(p) => {
                p.borrow_mut().poll_round();
            }
            FeederImp::Sharded(_) => thread::yield_now(),
        }
    }

    /// Waits until every byte accepted so far is decoded and scored
    /// and every close requested so far has flushed — the steady-state
    /// barrier the benches and allocation gates measure against.
    pub fn quiesce(&self) {
        match &self.imp {
            FeederImp::Inline(p) => p.borrow_mut().drain(),
            FeederImp::Sharded(plane) => plane.quiesce(),
        }
    }

    /// Windows scored so far, observed live (exact after a
    /// [`quiesce`](Self::quiesce); a racing read sees a recent value).
    pub fn windows_scored(&self) -> u64 {
        match &self.imp {
            FeederImp::Inline(p) => p.borrow().stats().windows,
            FeederImp::Sharded(plane) => plane.windows_scored.load(Ordering::SeqCst),
        }
    }
}

impl ShardedSparsePipeline {
    /// A pipeline serving `spec` with no streams registered yet.
    /// Worker count resolves immediately (see [`ShardConfig::workers`]
    /// and [`auto_workers`]).
    pub fn new(spec: ServeSpec, config: ShardConfig) -> Self {
        let workers = match config.workers {
            0 => auto_workers(),
            w => w,
        };
        if workers <= 1 {
            ShardedSparsePipeline {
                inline: Some(SparsePipeline::new(spec, config.sparse)),
                sharded: None,
                config,
                workers: 1,
            }
        } else {
            let sharded = Sharded {
                shared: IgmShared::new(&spec.igm),
                plane: FeedPlane::new(workers),
                cores: (0..workers).map(|k| ShardCore::new(k, &config)).collect(),
                former: BatchFormer::new(spec, config.sparse.max_batch),
            };
            ShardedSparsePipeline {
                inline: None,
                sharded: Some(sharded),
                config,
                workers,
            }
        }
    }

    /// Worker shards this pipeline resolved to (1 = inline).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Streams registered.
    pub fn registered(&self) -> usize {
        match (&self.inline, &self.sharded) {
            (Some(p), _) => p.stats().registered,
            (_, Some(sh)) => sh.plane.rings.len(),
            _ => 0,
        }
    }

    /// Registers one stream and returns its id. Like the inline path,
    /// this is the only place the per-stream path allocates: ring,
    /// session, verdict state, lane, outcome slot.
    pub fn register(&mut self) -> usize {
        if let Some(p) = &mut self.inline {
            return p.register();
        }
        let sh = self.sharded.as_mut().expect("one mode is always live");
        let global = sh.plane.rings.len();
        sh.plane
            .rings
            .push(SpscByteRing::new(self.config.sparse.ring_capacity));
        sh.plane.scheduled.push(AtomicBool::new(false));
        sh.plane.closing.push(AtomicBool::new(false));
        sh.plane.dropped.push(AtomicU64::new(0));
        let core = &mut sh.cores[global % self.workers];
        core.streams.push(global as u32);
        core.sessions.push(sh.shared.session());
        core.flushed.push(false);
        core.ready.register();
        core.stats.streams += 1;
        sh.former.register();
        global
    }

    /// Registers `n` streams; ids are consecutive.
    pub fn register_many(&mut self, n: usize) {
        for _ in 0..n {
            self.register();
        }
    }

    /// Brings the data plane up, hands the closure the feed handle,
    /// and tears the plane down once the closure returns: on exit
    /// every accepted byte is decoded and scored and every closed
    /// stream is flushed. On the inline path everything runs on the
    /// calling thread; on the sharded path `W` workers plus the batch
    /// former run under a scoped spawn for the closure's duration.
    pub fn run<R>(&mut self, f: impl FnOnce(&ShardFeeder<'_>) -> R) -> R {
        if let Some(p) = &mut self.inline {
            let result = {
                let feeder = ShardFeeder {
                    imp: FeederImp::Inline(RefCell::new(p)),
                };
                f(&feeder)
            };
            p.drain();
            return result;
        }
        let sh = self.sharded.as_mut().expect("one mode is always live");
        sh.ensure_transport(&self.config);
        let Sharded {
            shared,
            plane,
            cores,
            former,
        } = sh;
        plane.feeder_done.store(false, Ordering::SeqCst);
        plane.workers_done.store(0, Ordering::SeqCst);
        plane.consumer_dead.store(false, Ordering::SeqCst);
        let lockstep = former.lockstep();
        let drain_bytes = self.config.sparse.drain_bytes.max(1);
        let plane = &*plane;
        let shared = &*shared;
        thread::scope(|s| {
            for core in cores.iter_mut() {
                s.spawn(move || worker_loop(core, plane, shared, lockstep, drain_bytes));
            }
            s.spawn(move || consumer_loop(former, plane));
            let _done = SetOnDrop(&plane.feeder_done);
            let feeder = ShardFeeder {
                imp: FeederImp::Sharded(plane),
            };
            f(&feeder)
        })
    }

    /// The outcome of `stream` so far (stable between runs; updated by
    /// the consumer while a run is live).
    pub fn outcome(&self, stream: usize) -> &SparseOutcome {
        match (&self.inline, &self.sharded) {
            (Some(p), _) => p.outcome(stream),
            (_, Some(sh)) => sh.former.outcome(stream),
            _ => unreachable!("one mode is always live"),
        }
    }

    /// All outcomes, indexed by stream id.
    pub fn outcomes(&self) -> &[SparseOutcome] {
        match (&self.inline, &self.sharded) {
            (Some(p), _) => p.outcomes(),
            (_, Some(sh)) => sh.former.outcomes(),
            _ => unreachable!("one mode is always live"),
        }
    }

    /// Bytes dropped by `stream`'s full ring so far.
    pub fn dropped_bytes(&self, stream: usize) -> u64 {
        match (&self.inline, &self.sharded) {
            (Some(p), _) => p.dropped_bytes(stream),
            (_, Some(sh)) => sh.plane.dropped[stream].load(Ordering::SeqCst),
            _ => 0,
        }
    }

    /// Total bytes dropped across every stream (saturating).
    pub fn dropped_bytes_total(&self) -> u64 {
        match (&self.inline, &self.sharded) {
            (Some(p), _) => p.dropped_bytes_total(),
            (_, Some(sh)) => sh.plane.dropped_total.load(Ordering::SeqCst),
            _ => 0,
        }
    }

    /// Aggregate counters in the inline pipeline's shape (`rounds`,
    /// `busy_rounds` and `stream_polls` sum over shards).
    pub fn stats(&self) -> SparseStats {
        match (&self.inline, &self.sharded) {
            (Some(p), _) => p.stats(),
            (_, Some(sh)) => {
                let (windows, batches, max_batch_seen) = sh.former.tally();
                let mut stats = SparseStats {
                    registered: sh.plane.rings.len(),
                    windows,
                    batches,
                    max_batch_seen,
                    fed_bytes: sh.plane.fed_bytes.load(Ordering::SeqCst),
                    dropped_bytes: sh.plane.dropped_total.load(Ordering::SeqCst),
                    ..SparseStats::default()
                };
                for core in &sh.cores {
                    stats.rounds += core.stats.rounds;
                    stats.busy_rounds += core.stats.busy_rounds;
                    stats.stream_polls += core.stats.stream_polls;
                }
                stats
            }
            _ => SparseStats::default(),
        }
    }

    /// Per-shard telemetry. On the inline path this synthesizes a
    /// single pseudo-shard from the pipeline counters (no transport,
    /// so the high-water marks are zero).
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        match (&self.inline, &self.sharded) {
            (Some(p), _) => {
                let s = p.stats();
                vec![ShardStats {
                    shard: 0,
                    streams: s.registered,
                    rounds: s.rounds,
                    busy_rounds: s.busy_rounds,
                    stream_polls: s.stream_polls,
                    windows_decoded: s.windows,
                    completion_high_water: 0,
                    pending_high_water: 0,
                }]
            }
            (_, Some(sh)) => sh.cores.iter().map(|c| c.stats).collect(),
            _ => Vec::new(),
        }
    }
}

impl Sharded {
    /// Sizes the per-run transport to the registered population:
    /// doorbell rings grow to the shard population (so the wakeup
    /// protocol can never overflow them), completion/return rings are
    /// created once at their fixed depth, and the consumer queue
    /// reserves one full drain sweep. Runs before any thread spawns —
    /// the steady state allocates nothing.
    fn ensure_transport(&mut self, config: &ShardConfig) {
        let depth = config.completion_depth.max(1);
        let max_batch = config.sparse.max_batch.max(1);
        if self.plane.completions.is_empty() {
            for _ in 0..self.plane.workers {
                self.plane.completions.push(SpscRing::new(depth));
                // Returns are sized past the worst in-flight window
                // count so recycling rarely drops; full still just
                // drops (allocation optimization, not correctness).
                self.plane
                    .returns
                    .push(SpscRing::new(2 * depth + max_batch));
            }
        }
        for (shard, core) in self.cores.iter_mut().enumerate() {
            let need = core.streams.len().max(1);
            if self.plane.doorbells[shard].capacity() < need {
                self.plane.doorbells[shard] = SpscRing::new(need);
            }
        }
        // The rings round their capacity up, so reserve off the real
        // (rounded) capacities, not the requested depth.
        let sweep = self
            .plane
            .completions
            .iter()
            .map(SpscRing::capacity)
            .sum::<usize>()
            + max_batch;
        self.former.reserve(sweep);
    }
}

/// Moves a decoded window toward the consumer: straight to the
/// completion ring when there is room and nothing is parked, otherwise
/// into the shard's pending queue (strict FIFO — pending windows
/// always go first, so per-stream order is preserved).
fn enqueue_completion(
    core: &mut ShardCore,
    plane: &FeedPlane,
    stream: u32,
    payload: VectorPayload,
) {
    plane.windows_decoded.fetch_add(1, Ordering::SeqCst);
    core.stats.windows_decoded += 1;
    let item = (stream, payload);
    if core.pending.is_empty() {
        if let Err(item) = plane.completions[core.shard].push(item) {
            core.pending.push_back(item);
        }
    } else {
        core.pending.push_back(item);
    }
    core.stats.completion_high_water = core
        .stats
        .completion_high_water
        .max(plane.completions[core.shard].len());
    core.stats.pending_high_water = core.stats.pending_high_water.max(core.pending.len());
}

/// Drains the emitted-window buffer toward the consumer without
/// holding a borrow across `enqueue_completion` (the buffer is moved
/// out and back — `Vec::new` does not allocate).
fn flush_emitted(core: &mut ShardCore, plane: &FeedPlane, stream: u32) {
    let mut emitted = std::mem::take(&mut core.emitted);
    for v in emitted.drain(..) {
        enqueue_completion(core, plane, stream, v.payload);
    }
    core.emitted = emitted;
}

/// One ready-stream visit: drain up to a quantum, decode, forward
/// windows, then run the leave protocol (re-arm, flush-on-close, or
/// release the scheduled flag with the lost-wakeup re-check).
fn poll_stream(
    core: &mut ShardCore,
    plane: &FeedPlane,
    shared: &IgmShared,
    lockstep: bool,
    drain_bytes: usize,
    local: usize,
) {
    let global = core.streams[local] as usize;
    core.stats.stream_polls += 1;
    let dense = !lockstep;
    let mut remaining = drain_bytes;
    while remaining > 0 && core.pending.is_empty() {
        // Dense windows hold pooled buffers: sub-bite so the in-flight
        // count stays bounded against the session pool, as inline.
        let step = if dense {
            remaining.min(DENSE_SUBQUANTUM)
        } else {
            remaining
        };
        core.scratch.clear();
        let got = plane.rings[global].drain_to(step, &mut core.scratch);
        if got == 0 {
            break;
        }
        let session = &mut core.sessions[local];
        session.push_bytes(shared, &core.scratch, &mut core.emitted);
        flush_emitted(core, plane, global as u32);
        // Consumed only after the windows are visible downstream, so
        // `quiesce`'s byte balance never reads "done" early.
        plane.consumed_bytes.fetch_add(got as u64, Ordering::SeqCst);
        remaining -= got;
        if got < step {
            break;
        }
    }

    if !plane.rings[global].is_empty() {
        // Leftover bytes (or a decode pause while windows are parked):
        // stay scheduled, take the next round's quantum.
        core.ready.enqueue(local);
        return;
    }
    if plane.closing[global].load(Ordering::SeqCst) && !core.flushed[local] {
        if core.pending.is_empty() {
            let session = &mut core.sessions[local];
            session.finish(shared, &mut core.emitted);
            flush_emitted(core, plane, global as u32);
            core.flushed[local] = true;
            plane.closes_flushed.fetch_add(1, Ordering::SeqCst);
            // The scheduled flag stays set forever: a dead stream
            // never needs another doorbell.
        } else {
            core.ready.enqueue(local); // retry once the consumer catches up
        }
        return;
    }
    if core.flushed[local] {
        return;
    }
    // Release the readiness claim, then re-check: under SeqCst either
    // this load sees a concurrent publish/close (re-arm below), or the
    // store above precedes the feeder's swap — which then returns
    // false and the feeder sends the doorbell. No lost wakeups.
    plane.scheduled[global].store(false, Ordering::SeqCst);
    let rearm = !plane.rings[global].is_empty() || plane.closing[global].load(Ordering::SeqCst);
    if rearm && !plane.scheduled[global].swap(true, Ordering::SeqCst) {
        core.ready.enqueue(local);
    }
}

/// One shard worker: recycle returns, drain doorbells, push parked
/// windows, poll ready streams; exit once the feeder is done and all
/// owned work is flushed downstream.
fn worker_loop(
    core: &mut ShardCore,
    plane: &FeedPlane,
    shared: &IgmShared,
    lockstep: bool,
    drain_bytes: usize,
) {
    let shard = core.shard;
    let workers = plane.workers;
    let _exit = CountOnDrop(&plane.workers_done);
    loop {
        // Read before draining: if the feeder was done *before* we
        // emptied the doorbells, nothing new can arrive afterwards.
        let feeder_done = plane.feeder_done.load(Ordering::SeqCst);
        let mut progress = false;
        while let Some((stream, buf)) = plane.returns[shard].pop() {
            core.sessions[stream as usize / workers].recycle(buf);
        }
        while let Some(stream) = plane.doorbells[shard].pop() {
            core.ready.enqueue(stream as usize / workers);
            progress = true;
        }
        while let Some(item) = core.pending.pop_front() {
            match plane.completions[shard].push(item) {
                Ok(()) => progress = true,
                Err(item) => {
                    core.pending.push_front(item);
                    break;
                }
            }
        }
        core.stats.rounds += 1;
        let ready_now = core.ready.len();
        if ready_now > 0 && core.pending.is_empty() {
            core.stats.busy_rounds += 1;
            for _ in 0..ready_now {
                if !core.pending.is_empty() {
                    break; // wait for completion-ring room
                }
                let Some(local) = core.ready.dequeue() else {
                    break;
                };
                poll_stream(core, plane, shared, lockstep, drain_bytes, local);
                progress = true;
            }
        }
        if feeder_done
            && core.ready.is_empty()
            && core.pending.is_empty()
            && plane.doorbells[shard].is_empty()
        {
            return;
        }
        if plane.consumer_dead.load(Ordering::SeqCst) {
            // The consumer exited (normally only after all workers, so
            // reaching this means it panicked): bail out instead of
            // spinning on a full completion ring forever.
            return;
        }
        if !progress {
            thread::yield_now();
        }
    }
}

/// The batch-former consumer: drains completion rings in shard index
/// order (deterministic round-robin) into the [`BatchFormer`], scores
/// everything gathered, publishes `windows_scored` per batch and
/// recycles dense buffers to their owning shard.
fn consumer_loop(former: &mut BatchFormer, plane: &FeedPlane) {
    let workers = plane.workers;
    let _dead = SetOnDrop(&plane.consumer_dead);
    loop {
        // Read before draining, mirroring the workers' exit check.
        let workers_done = plane.workers_done.load(Ordering::SeqCst) == workers;
        let mut progress = false;
        for shard in 0..workers {
            // Bounded sweep: take at most one ring's worth per shard so
            // a worker refilling the ring mid-drain cannot grow the
            // consumer queue past its preallocated bound (W rings + one
            // batch) — the queue never allocates in steady state.
            for _ in 0..plane.completions[shard].capacity() {
                let Some((stream, payload)) = plane.completions[shard].pop() else {
                    break;
                };
                former.push(stream as usize, payload);
                progress = true;
            }
        }
        // One sweep = one scheduling round: flush everything gathered
        // (exactly the inline pipeline's round policy).
        loop {
            let scored = former.score_next(|stream, buf| {
                // Full return ring = drop the buffer; the owning
                // session re-allocates lazily (optimization only).
                let _ = plane.returns[stream % workers].push((stream as u32, buf));
            });
            if scored == 0 {
                break;
            }
            plane
                .windows_scored
                .fetch_add(scored as u64, Ordering::SeqCst);
            progress = true;
        }
        if workers_done && former.queued() == 0 && plane.completions.iter().all(SpscRing::is_empty)
        {
            return;
        }
        if !progress {
            thread::yield_now();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{encode_streams, serial_reference, ServeModel, VerdictPolicy};
    use rtad_igm::IgmConfig;
    use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig};
    use rtad_trace::{BranchKind, BranchRecord, VirtAddr};

    fn targets(n: u32) -> Vec<VirtAddr> {
        (0..n).map(|k| VirtAddr::new(0x7000 + k * 0x40)).collect()
    }

    fn elm_spec() -> ServeSpec {
        let normal: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                let mut v = vec![0.0; 8];
                v[i % 4] = 0.7;
                v[(i + 2) % 4] = 0.3;
                v
            })
            .collect();
        ServeSpec {
            igm: IgmConfig::histogram(&targets(8), 8),
            model: ServeModel::Elm(Elm::train(&ElmConfig::tiny(8), &normal, 3)),
            policy: VerdictPolicy {
                threshold: 0.05,
                hard_threshold: 5.0,
                alpha: 0.4,
                burst_k: 2,
                burst_window_events: 6,
            },
            cycles_per_event: 1234,
        }
    }

    fn lstm_spec() -> ServeSpec {
        let corpus: Vec<u32> = (0..400).map(|i| (i % 6) as u32).collect();
        ServeSpec {
            igm: IgmConfig::token_stream(&targets(6)),
            model: ServeModel::Lstm(Lstm::train(&LstmConfig::tiny(6), &corpus, 9)),
            policy: VerdictPolicy::simple(2.5),
            cycles_per_event: 777,
        }
    }

    fn synth_streams(lens: &[usize], n_targets: u32) -> Vec<Vec<u8>> {
        let tgts = targets(n_targets);
        let runs: Vec<Vec<BranchRecord>> = lens
            .iter()
            .enumerate()
            .map(|(s, &len)| {
                (0..len)
                    .map(|i| {
                        BranchRecord::new(
                            VirtAddr::new(0x1000 + (i as u32) * 4),
                            tgts[(i * (s + 2) + s) % tgts.len()],
                            BranchKind::IndirectJump,
                            (i as u64) * 25,
                        )
                    })
                    .collect()
            })
            .collect();
        encode_streams(&runs, 1)
    }

    /// Feeds every stream losslessly through the feeder handle,
    /// pumping whenever a ring lacks space.
    fn feed_lossless(fd: &ShardFeeder<'_>, streams: &[Vec<u8>], chunk: usize) {
        let mut offs = vec![0usize; streams.len()];
        loop {
            let mut pending = false;
            for (s, bytes) in streams.iter().enumerate() {
                if offs[s] >= bytes.len() {
                    continue;
                }
                pending = true;
                let free = fd.ring_free(s);
                let n = free.min(chunk).min(bytes.len() - offs[s]);
                if n > 0 {
                    assert_eq!(fd.feed(s, &bytes[offs[s]..offs[s] + n]), n);
                    offs[s] += n;
                } else {
                    fd.pump();
                }
            }
            if !pending {
                break;
            }
        }
    }

    fn assert_matches_reference(spec: &ServeSpec, p: &ShardedSparsePipeline, streams: &[Vec<u8>]) {
        for (s, r) in serial_reference(spec, streams).iter().enumerate() {
            assert_eq!(
                p.outcome(s),
                &r.summary(),
                "stream {s} vs the serial reference"
            );
        }
    }

    #[test]
    fn sharded_matches_reference_for_both_models_and_many_worker_counts() {
        for spec in [elm_spec(), lstm_spec()] {
            let n_targets = match spec.model {
                ServeModel::Elm(_) => 8,
                ServeModel::Lstm(_) => 6,
            };
            let streams = synth_streams(&[200, 0, 33, 150, 75, 90], n_targets);
            for workers in [1usize, 2, 3, 5] {
                let mut p = ShardedSparsePipeline::new(
                    spec.clone(),
                    ShardConfig {
                        workers,
                        sparse: SparseConfig {
                            ring_capacity: 96,
                            max_batch: 4,
                            drain_bytes: 48,
                        },
                        completion_depth: 8,
                    },
                );
                p.register_many(streams.len());
                assert_eq!(p.workers(), workers);
                p.run(|fd| {
                    feed_lossless(fd, &streams, 37);
                    for s in 0..streams.len() {
                        fd.close(s);
                    }
                });
                assert_eq!(p.dropped_bytes_total(), 0, "W={workers} dropped");
                assert_matches_reference(&spec, &p, &streams);
                let stats = p.stats();
                assert_eq!(
                    stats.windows,
                    p.outcomes().iter().map(|o| o.windows).sum::<u64>()
                );
                assert!(stats.batches > 0);
            }
        }
    }

    #[test]
    fn quiesce_is_a_steady_state_barrier() {
        let spec = lstm_spec();
        let streams = synth_streams(&[150, 120], 6);
        let mut p = ShardedSparsePipeline::new(
            spec.clone(),
            ShardConfig {
                workers: 2,
                ..ShardConfig::default()
            },
        );
        p.register_many(2);
        let reference = serial_reference(&spec, &streams);
        p.run(|fd| {
            feed_lossless(fd, &streams, 64);
            fd.quiesce();
        });
        // No close: every *accepted* byte is scored; windows may trail
        // the reference only by the unflushed sub-word straggler.
        for (s, r) in reference.iter().enumerate() {
            let got = p.outcome(s);
            assert!(
                got.windows + 1 >= r.windows && got.windows <= r.windows,
                "stream {s}: quiesced windows {} vs reference {}",
                got.windows,
                r.windows
            );
        }
        // A second run on the same pipeline closes and converges.
        p.run(|fd| {
            fd.close(0);
            fd.close(1);
        });
        assert_matches_reference(&spec, &p, &streams);
    }

    #[test]
    fn sharded_drops_are_per_stream_and_byte_conserved() {
        let spec = lstm_spec();
        let streams = synth_streams(&[200, 150], 6);
        let mut p = ShardedSparsePipeline::new(
            spec.clone(),
            ShardConfig {
                workers: 2,
                sparse: SparseConfig {
                    ring_capacity: 64,
                    ..SparseConfig::default()
                },
                completion_depth: 64,
            },
        );
        p.register_many(2);
        let mut offered0 = 0u64;
        let mut accepted0 = 0u64;
        p.run(|fd| {
            // Firehose stream 0 as fast as the feeder can push: with a
            // 64-byte ring some of it must drop; the drops are counted.
            for piece in streams[0].chunks(48) {
                offered0 += piece.len() as u64;
                accepted0 += fd.feed(0, piece) as u64;
            }
            // Stream 1 is fed politely and must be unaffected.
            feed_lossless(fd, &streams[..0], 0); // no-op, keeps helper used shape
            let bytes = &streams[1];
            let mut off = 0usize;
            while off < bytes.len() {
                let n = fd.ring_free(1).min(32).min(bytes.len() - off);
                if n == 0 {
                    fd.pump();
                    continue;
                }
                assert_eq!(fd.feed(1, &bytes[off..off + n]), n);
                off += n;
            }
            fd.close(0);
            fd.close(1);
        });
        assert_eq!(
            p.stats().fed_bytes + p.dropped_bytes(0),
            offered0 + streams[1].len() as u64,
            "bytes neither accepted nor counted dropped"
        );
        assert_eq!(p.dropped_bytes(0), offered0 - accepted0);
        assert_eq!(p.dropped_bytes(1), 0);
        assert_eq!(p.dropped_bytes_total(), p.dropped_bytes(0));
        // The polite neighbor matches the reference exactly.
        let reference = serial_reference(&spec, &streams[1..2]);
        assert_eq!(p.outcome(1), &reference[0].summary());
    }

    #[test]
    fn closed_streams_drop_late_feeds_across_runs() {
        let spec = lstm_spec();
        let streams = synth_streams(&[100], 6);
        let mut p = ShardedSparsePipeline::new(
            spec.clone(),
            ShardConfig {
                workers: 2,
                ..ShardConfig::default()
            },
        );
        p.register_many(2);
        p.run(|fd| {
            feed_lossless(fd, &streams, 64);
            fd.close(0);
            fd.quiesce();
            assert_eq!(fd.feed(0, &[0xAA; 8]), 0, "closed stream must drop");
        });
        assert_eq!(p.dropped_bytes(0), 8);
        assert_matches_reference(&spec, &p, &streams);
    }

    #[test]
    fn shard_stats_partition_and_count_work() {
        let spec = lstm_spec();
        let streams = synth_streams(&[120, 120, 120, 120], 6);
        let mut p = ShardedSparsePipeline::new(
            spec.clone(),
            ShardConfig {
                workers: 2,
                ..ShardConfig::default()
            },
        );
        p.register_many(4);
        p.run(|fd| {
            feed_lossless(fd, &streams, 64);
            for s in 0..4 {
                fd.close(s);
            }
        });
        let shards = p.shard_stats();
        assert_eq!(shards.len(), 2);
        for (k, st) in shards.iter().enumerate() {
            assert_eq!(st.shard, k);
            assert_eq!(st.streams, 2, "streams split evenly by id % W");
            assert!(st.stream_polls > 0, "shard {k} never polled");
            assert!(st.windows_decoded > 0, "shard {k} decoded nothing");
            assert!(st.busy_rounds <= st.rounds);
            assert!(st.utilization() > 0.0 && st.utilization() <= 1.0);
            assert!(st.completion_high_water <= ShardConfig::default().completion_depth);
        }
        let decoded: u64 = shards.iter().map(|s| s.windows_decoded).sum();
        assert_eq!(decoded, p.stats().windows);
    }

    #[test]
    fn inline_fallback_is_the_sparse_pipeline() {
        let spec = lstm_spec();
        let streams = synth_streams(&[100, 80], 6);
        let mut p = ShardedSparsePipeline::new(
            spec.clone(),
            ShardConfig {
                workers: 1,
                ..ShardConfig::default()
            },
        );
        assert_eq!(p.workers(), 1);
        p.register_many(2);
        p.run(|fd| {
            feed_lossless(fd, &streams, 64);
            fd.close(0);
            fd.close(1);
            fd.quiesce();
        });
        assert_matches_reference(&spec, &p, &streams);
        let shards = p.shard_stats();
        assert_eq!(shards.len(), 1);
        assert!(shards[0].stream_polls > 0);
        assert_eq!(shards[0].completion_high_water, 0, "inline has no rings");
    }

    #[test]
    fn spsc_byte_ring_round_trips_across_the_seam() {
        let ring = SpscByteRing::new(8);
        assert_eq!(ring.capacity(), 8);
        assert_eq!(ring.push(&[1, 2, 3, 4, 5, 6]), 6);
        let mut got = Vec::new();
        assert_eq!(ring.drain_to(4, &mut got), 4);
        assert_eq!(ring.push(&[7, 8, 9, 10, 11, 12, 13]), 6);
        assert_eq!(ring.len(), 8);
        assert_eq!(ring.push(&[99]), 0, "full ring accepts nothing");
        ring.drain_to(usize::MAX, &mut got);
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        assert!(ring.is_empty());
    }

    #[test]
    fn spsc_ring_moves_values_and_bounds_occupancy() {
        let ring: SpscRing<(u32, VectorPayload)> = SpscRing::new(2);
        assert_eq!(ring.capacity(), 2);
        assert!(ring.push((0, VectorPayload::Token(7))).is_ok());
        assert!(ring.push((1, VectorPayload::Dense(vec![1.0, 2.0]))).is_ok());
        let back = ring.push((2, VectorPayload::Token(9)));
        assert!(matches!(back, Err((2, VectorPayload::Token(9)))));
        assert_eq!(ring.len(), 2);
        let (s, p) = ring.pop().unwrap();
        assert_eq!(s, 0);
        assert_eq!(p.as_token(), Some(7));
        let (s, p) = ring.pop().unwrap();
        assert_eq!(s, 1);
        assert_eq!(p.as_dense(), Some(&[1.0f32, 2.0][..]));
        assert!(ring.pop().is_none());
    }
}
