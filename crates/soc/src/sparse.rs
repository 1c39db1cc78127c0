//! Sparse-readiness ingest: serving 100k mostly-idle streams.
//!
//! A production deployment watches an enormous stream population where
//! almost every stream is idle at any instant, so ingest is built
//! around the epoll idea: *cost must be proportional to ready streams,
//! not registered streams.* Memory follows the same rule: a stream
//! owns only what it needs while idle, and storage for bytes and
//! windows in flight comes from two plane-wide free lists.
//!
//! ```text
//!   feed(id, bytes) ──▶ [ByteRing id]  ─┐ empty→nonempty
//!                                       ├──▶ [ReadyQueue] ──▶ poll_round()
//!   feed(id', bytes') ─▶ [ByteRing id'] ┘                      drains READY
//!        ▲ take on first byte      │ put back when drained     streams only
//!        └───────── [RingPool] ◀───┘
//! ```
//!
//! * **Registration** allocates a stream's idle state: an empty
//!   [`ByteRing`] (capacity, head and length, no storage), a compact
//!   [`IgmSession`] over the deployment's single shared mapper table
//!   ([`IgmShared`] — the table is *not* duplicated per stream), and
//!   the batch former's per-stream slots (verdict state, LSTM lane if
//!   the model is recurrent, fixed-size [`SparseOutcome`]).
//! * **Feeding** copies bytes into the stream's ring. A feed that
//!   brings bytes to an empty ring takes its storage from the plane's
//!   [`RingPool`], which allocates only when its free list is empty; on
//!   the empty→nonempty transition the stream is enqueued on the
//!   [`ReadyQueue`] (at most once — an `enqueued` bitmap guards
//!   duplicates). A full ring **drops** the overflow and counts it in
//!   the per-stream drop counter: explicit backpressure that can never
//!   stall a neighbor stream. Admission depends only on the ring's
//!   capacity and length, never on the pool.
//! * **Polling** visits only ready streams: each drains up to
//!   [`SparseConfig::drain_bytes`] from its ring through its decode
//!   session, and emitted windows go to the plane's one batch former
//!   (`crate::serve`), which scores cross-stream batches and updates
//!   verdicts. A ring that drains empty puts its storage back on the
//!   free list (so a flushed close holds none); a stream whose ring
//!   still holds bytes re-enqueues itself. An idle stream costs zero
//!   CPU per round and a measured, compact number of resident bytes
//!   ([`SparsePipeline::memory_footprint`]).
//! * **Dense windows** (the ELM's histograms) are heap buffers drawn
//!   from one plane-wide pool and returned to it once scored; sessions
//!   the plane owns hold none. The former scores whenever `max_batch`
//!   windows are queued, so the buffers outstanding — and so the pool —
//!   never exceed `max_batch` plus the windows one quantum decodes.
//!
//! Both free lists grow only when more streams hold bytes, or more
//! windows wait, at once than ever before, so after warm-up the
//! steady-state ingest path allocates nothing (pinned by the
//! `alloc_free` and `sparse_smoke` gates). The worst case — every
//! registered stream holding bytes at once — equals one ring per stream
//! allocated up front.
//!
//! **Bit-identity contract.** For a given per-stream byte order (the
//! interleaving of `feed` calls across streams is irrelevant — streams
//! are independent), every outcome equals the
//! [`summary`](crate::StreamOutcome::summary) of
//! [`serial_reference`](crate::serial_reference)'s outcome exactly, as
//! long as no ring overflowed.
//!
//! Every stream is served on the calling thread. The
//! [`ShardedSparsePipeline`] handle at the end of this module is a
//! newtype over [`SparsePipeline`] that the repository benchmark still
//! builds against; it adds no behaviour.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::mem::size_of;

use rtad_igm::{IgmSession, IgmShared, StreamedVector, StreamingStats};

use crate::serve::{BatchFormer, ServeSpec, SparseOutcome};

/// A fixed-capacity byte ring: the per-stream ingest buffer. The ring
/// always keeps its capacity, head and length, but holds storage only
/// while it has undrained bytes: a push into an empty ring takes a
/// buffer from a [`RingPool`], and the drain that empties the ring
/// puts it back. `push` past capacity accepts a prefix and reports how
/// much, so the caller can count drops.
#[derive(Debug)]
pub struct ByteRing {
    /// `capacity` bytes of storage, present exactly while `len > 0`.
    buf: Option<Box<[u8]>>,
    capacity: usize,
    head: usize,
    len: usize,
}

impl ByteRing {
    /// An empty ring admitting up to `capacity` bytes. It holds no
    /// storage until its first push.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a zero-capacity ring can never admit bytes");
        ByteRing {
            buf: None,
            capacity,
            head: 0,
            len: 0,
        }
    }

    /// The fixed capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the ring holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free space in bytes.
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Whether the ring currently holds storage (exactly when it holds
    /// bytes).
    pub fn holds_storage(&self) -> bool {
        self.buf.is_some()
    }

    /// Copies as much of `bytes` as fits and returns the accepted
    /// count; the rest is the caller's to count as dropped. Never
    /// blocks; an empty ring that accepts bytes takes its storage from
    /// `pool`, which allocates only when its free list is empty.
    pub fn push(&mut self, bytes: &[u8], pool: &mut RingPool) -> usize {
        let take = bytes.len().min(self.free());
        if take == 0 {
            return 0;
        }
        let cap = self.capacity;
        let buf = self.buf.get_or_insert_with(|| pool.take(cap));
        let tail = (self.head + self.len) % cap;
        let first = take.min(cap - tail);
        buf[tail..tail + first].copy_from_slice(&bytes[..first]);
        if take > first {
            buf[..take - first].copy_from_slice(&bytes[first..take]);
        }
        self.len += take;
        take
    }

    /// Pops up to `max` bytes, handing the consumer at most two
    /// contiguous slices (one if the range does not wrap). Returns the
    /// number of bytes drained. Zero-copy on the consumer side; a drain
    /// that empties the ring puts its storage back on `pool`.
    pub fn drain_into(
        &mut self,
        max: usize,
        pool: &mut RingPool,
        mut f: impl FnMut(&[u8]),
    ) -> usize {
        let take = max.min(self.len);
        if take == 0 {
            return 0;
        }
        let cap = self.capacity;
        let buf = self
            .buf
            .as_deref()
            .expect("a ring with bytes holds storage");
        let first = take.min(cap - self.head);
        f(&buf[self.head..self.head + first]);
        if take > first {
            f(&buf[..take - first]);
        }
        self.len -= take;
        self.head = (self.head + take) % cap;
        if self.len == 0 {
            self.head = 0;
            pool.put(self.buf.take().expect("a ring with bytes holds storage"));
        }
        take
    }

    /// Resident bytes: the struct plus the storage it holds, if any.
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>() + self.buf.as_ref().map_or(0, |b| b.len())
    }
}

/// The free list of ring storage that a plane's [`ByteRing`]s share.
/// A buffer is allocated only when the list is empty, so the pool grows
/// only when more rings hold bytes at once than ever before: the
/// buffers it has allocated equal the most rings that held storage at
/// the same time, and the steady state allocates nothing.
#[derive(Debug, Default)]
pub struct RingPool {
    free: Vec<Box<[u8]>>,
    allocated: usize,
}

impl RingPool {
    /// An empty pool.
    pub fn new() -> Self {
        RingPool::default()
    }

    /// A `capacity`-byte buffer from the free list, or a new one if the
    /// list is empty. Every ring sharing a pool has one capacity.
    fn take(&mut self, capacity: usize) -> Box<[u8]> {
        match self.free.pop() {
            Some(buf) => {
                assert_eq!(buf.len(), capacity, "rings sharing a pool share a capacity");
                buf
            }
            None => {
                self.allocated += 1;
                // Room for every buffer ever allocated, so `put` never
                // allocates.
                self.free.reserve(self.allocated);
                vec![0u8; capacity].into_boxed_slice()
            }
        }
    }

    /// Puts a drained ring's buffer back on the free list.
    fn put(&mut self, buf: Box<[u8]>) {
        self.free.push(buf);
    }

    /// Buffers allocated so far.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Buffers on the free list.
    pub fn free(&self) -> usize {
        self.free.len()
    }

    /// Resident bytes of the list and the free buffers on it (buffers
    /// held by rings count toward their rings).
    pub fn resident_bytes(&self) -> usize {
        self.free.capacity() * size_of::<Box<[u8]>>()
            + self.free.iter().map(|b| b.len()).sum::<usize>()
    }
}

/// The epoll-style readiness queue: a FIFO of stream ids with an
/// `enqueued` bitmap so every stream appears at most once. Capacity is
/// reserved at registration time, so enqueue/dequeue never allocate.
#[derive(Debug, Clone, Default)]
pub struct ReadyQueue {
    queue: VecDeque<u32>,
    enqueued: Vec<bool>,
}

impl ReadyQueue {
    /// An empty queue over zero streams.
    pub fn new() -> Self {
        ReadyQueue::default()
    }

    /// Registers one more stream id (ids are consecutive from 0) and
    /// reserves queue capacity for it, keeping later enqueues
    /// allocation-free.
    pub fn register(&mut self) -> usize {
        let id = self.enqueued.len();
        self.enqueued.push(false);
        if self.queue.capacity() < self.enqueued.len() {
            let want = self.enqueued.len() - self.queue.len();
            self.queue.reserve(want);
        }
        id
    }

    /// Marks `id` ready; returns whether it was newly enqueued (false
    /// when it was already waiting).
    ///
    /// # Panics
    ///
    /// Panics if `id` was never registered.
    pub fn enqueue(&mut self, id: usize) -> bool {
        if self.enqueued[id] {
            return false;
        }
        self.enqueued[id] = true;
        self.queue.push_back(id as u32);
        true
    }

    /// Pops the oldest ready stream, clearing its ready mark.
    pub fn dequeue(&mut self) -> Option<usize> {
        let id = self.queue.pop_front()? as usize;
        self.enqueued[id] = false;
        Some(id)
    }

    /// Streams currently ready.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether no stream is ready.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Whether `id` is currently enqueued.
    pub fn contains(&self, id: usize) -> bool {
        self.enqueued.get(id).copied().unwrap_or(false)
    }

    /// Resident bytes across all registered streams.
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>()
            + self.queue.capacity() * size_of::<u32>()
            + self.enqueued.capacity() * size_of::<bool>()
    }
}

/// Knobs of the sparse-readiness pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SparseConfig {
    /// Per-stream ingest ring capacity in bytes: the most bytes one
    /// stream may hold undrained before feeds drop. A stream holds
    /// storage of this size only while it has undrained bytes, so it
    /// costs memory per *busy* stream, not per registered one.
    pub ring_capacity: usize,
    /// Maximum windows per inference batch.
    pub max_batch: usize,
    /// Bytes decoded from one ready stream per poll round; a stream
    /// with more buffered re-enqueues itself (fairness bound, so one
    /// deep ring cannot monopolize a round).
    pub drain_bytes: usize,
}

impl Default for SparseConfig {
    fn default() -> Self {
        SparseConfig {
            ring_capacity: 1024,
            max_batch: 32,
            drain_bytes: 1024,
        }
    }
}

/// Whole-pipeline counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SparseStats {
    /// Streams registered.
    pub registered: usize,
    /// Poll rounds executed (including rounds with nothing ready).
    pub rounds: u64,
    /// Rounds that had at least one ready stream at round start — the
    /// numerator of poll utilization (`busy_rounds / rounds`).
    pub busy_rounds: u64,
    /// Ready-stream visits across all rounds — the scheduling work
    /// actually done. The scaling contract is `stream_polls` growing
    /// with *ready* streams only: registering more idle streams must
    /// not move it (property-tested).
    pub stream_polls: u64,
    /// Windows scored.
    pub windows: u64,
    /// Inference batches issued.
    pub batches: u64,
    /// Largest cross-stream batch observed.
    pub max_batch_seen: usize,
    /// Bytes accepted into rings.
    pub fed_bytes: u64,
    /// Bytes dropped by full rings (explicit backpressure).
    pub dropped_bytes: u64,
}

/// What one [`SparsePipeline::poll_round`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RoundStats {
    /// Streams that were ready at round start (the work the round
    /// visited; idle streams contribute nothing here).
    pub ready: usize,
    /// Windows scored this round.
    pub windows: u64,
    /// Batches issued this round.
    pub batches: u64,
}

/// Measured resident memory of a [`SparsePipeline`], split into the
/// deployment-shared part and the per-stream part.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryFootprint {
    /// Registered streams.
    pub streams: usize,
    /// Bytes paid once per deployment: the pipeline object and the
    /// shared IGM mapper table. (Model weights are deployment state
    /// shared with every other serving path and are not counted.)
    pub shared_bytes: usize,
    /// Bytes owned per registered stream, summed: the ring (with the
    /// storage it holds while it has undrained bytes), decode session,
    /// verdict state, model lane, outcome and bookkeeping slots, and
    /// the readiness queue's per-stream slots.
    pub stream_bytes: usize,
    /// Reusable cross-stream scratch (free ring storage, the dense
    /// window pool, window queue, batch buffer, emit buffer) — bounded
    /// by the ready burst (streams holding bytes at once, windows in
    /// flight), not by the registered population.
    pub scratch_bytes: usize,
}

impl MemoryFootprint {
    /// Average resident bytes per registered stream (the
    /// memory-per-idle-stream metric whenever no ring holds bytes,
    /// before or after activity).
    pub fn bytes_per_stream(&self) -> f64 {
        if self.streams == 0 {
            return 0.0;
        }
        self.stream_bytes as f64 / self.streams as f64
    }
}

/// Ring storage of a [`SparsePipeline`], counted in buffers of
/// [`SparseConfig::ring_capacity`] bytes. `free + held == allocated`
/// always holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RingStorage {
    /// Buffers allocated so far: the most streams that held undrained
    /// bytes at once.
    pub allocated: usize,
    /// Buffers on the plane's free list.
    pub free: usize,
    /// Buffers held by rings with undrained bytes.
    pub held: usize,
}

/// The sparse-readiness serving pipeline: a long-lived host object
/// multiplexing an arbitrary registered stream population through the
/// shared batch former, with per-round cost proportional to *ready*
/// streams. See the module docs for the architecture and contracts.
pub struct SparsePipeline {
    config: SparseConfig,
    shared: IgmShared,
    rings: Vec<ByteRing>,
    /// Storage for rings with undrained bytes.
    ring_pool: RingPool,
    sessions: Vec<IgmSession>,
    /// Dense-window buffers for every session, returned once scored.
    window_pool: Vec<Vec<f32>>,
    /// Per-stream bytes dropped by a full ring.
    dropped: Vec<u64>,
    /// `close` was requested; the final sub-word flush happens on the
    /// next poll once the ring drains.
    closing: Vec<bool>,
    /// The final flush ran; further feeds drop.
    flushed: Vec<bool>,
    ready: ReadyQueue,
    former: BatchFormer,
    emitted: Vec<StreamedVector>,
    /// Ingest counters; the scoring counters live in the former.
    stats: SparseStats,
}

impl SparsePipeline {
    /// A pipeline serving `spec` with no streams registered yet.
    pub fn new(spec: ServeSpec, config: SparseConfig) -> Self {
        SparsePipeline {
            shared: IgmShared::new(&spec.igm),
            former: BatchFormer::new(spec, config.max_batch),
            config,
            rings: Vec::new(),
            ring_pool: RingPool::new(),
            sessions: Vec::new(),
            window_pool: Vec::new(),
            dropped: Vec::new(),
            closing: Vec::new(),
            flushed: Vec::new(),
            ready: ReadyQueue::new(),
            emitted: Vec::new(),
            stats: SparseStats::default(),
        }
    }

    /// Registers one stream, allocating its idle state (an empty ring,
    /// decode session, verdict state, model lane), and returns its id.
    /// Storage for its bytes and windows in flight comes from the
    /// plane's pools.
    pub fn register(&mut self) -> usize {
        let id = self.rings.len();
        self.rings.push(ByteRing::new(self.config.ring_capacity));
        self.sessions.push(self.shared.session());
        self.dropped.push(0);
        self.closing.push(false);
        self.flushed.push(false);
        self.former.register();
        self.ready.register();
        self.stats.registered += 1;
        id
    }

    /// Registers `n` streams; ids are consecutive starting at the
    /// previous population size.
    pub fn register_many(&mut self, n: usize) {
        for _ in 0..n {
            self.register();
        }
    }

    /// Offers `bytes` to `stream`'s ring and returns how many were
    /// accepted; the remainder is dropped and counted (never blocks,
    /// never touches any other stream). Feeding a closed stream drops
    /// everything.
    pub fn feed(&mut self, stream: usize, bytes: &[u8]) -> usize {
        // Drop counters saturate: a stream flooded past 2^64 bytes is a
        // hostile-input scenario, and a silent wrap would erase the very
        // evidence (a huge drop count) the operator needs.
        if self.closing[stream] || self.flushed[stream] {
            self.dropped[stream] = self.dropped[stream].saturating_add(bytes.len() as u64);
            self.stats.dropped_bytes = self.stats.dropped_bytes.saturating_add(bytes.len() as u64);
            return 0;
        }
        let accepted = self.rings[stream].push(bytes, &mut self.ring_pool);
        let lost = (bytes.len() - accepted) as u64;
        self.dropped[stream] = self.dropped[stream].saturating_add(lost);
        self.stats.dropped_bytes = self.stats.dropped_bytes.saturating_add(lost);
        self.stats.fed_bytes += accepted as u64;
        if !self.rings[stream].is_empty() {
            self.ready.enqueue(stream);
        }
        accepted
    }

    /// Marks `stream` finished: once its ring drains, the session's
    /// end-of-stream flush runs (sub-word straggler bytes decode,
    /// exactly as `StreamingIgm::finish`). Further feeds drop.
    pub fn close(&mut self, stream: usize) {
        if !self.closing[stream] && !self.flushed[stream] {
            self.closing[stream] = true;
            self.ready.enqueue(stream);
        }
    }

    /// One scheduling round: visits every stream ready at round start
    /// (and nothing else), decodes up to
    /// [`SparseConfig::drain_bytes`] per visited stream, scores all
    /// emitted windows through the batch former and updates verdicts.
    /// With nothing ready this is O(1) — the cost of an idle round
    /// does not depend on the registered population.
    pub fn poll_round(&mut self) -> RoundStats {
        self.stats.rounds += 1;
        let ready_now = self.ready.len();
        if ready_now > 0 {
            self.stats.busy_rounds += 1;
        }
        let (windows_before, batches_before, _) = self.former.tally();
        for _ in 0..ready_now {
            let Some(s) = self.ready.dequeue() else { break };
            self.stats.stream_polls += 1;
            let session = &mut self.sessions[s];
            let (shared, pool, emitted) = (&self.shared, &mut self.window_pool, &mut self.emitted);
            self.rings[s].drain_into(
                self.config.drain_bytes.max(1),
                &mut self.ring_pool,
                |slice| {
                    session.push_bytes_pooled(shared, slice, pool, emitted);
                },
            );
            if self.rings[s].is_empty() {
                if self.closing[s] && !self.flushed[s] {
                    session.finish_pooled(shared, pool, emitted);
                    self.flushed[s] = true;
                }
            } else {
                // Fairness: leftover bytes re-arm readiness for the
                // next round instead of monopolizing this one.
                self.ready.enqueue(s);
            }
            for v in self.emitted.drain(..) {
                self.former.push(s, v.payload);
            }
            let pool = &mut self.window_pool;
            self.former.score_full(|buf| pool.push(buf));
        }

        self.flush_batches();
        let (windows, batches, _) = self.former.tally();
        RoundStats {
            ready: ready_now,
            windows: windows - windows_before,
            batches: batches - batches_before,
        }
    }

    /// Scores everything queued, returning dense buffers to the plane's
    /// window pool.
    fn flush_batches(&mut self) {
        let pool = &mut self.window_pool;
        while self.former.score_next(|buf| pool.push(buf)) > 0 {}
    }

    /// Polls until no stream is ready (all accepted bytes decoded and
    /// scored, closed streams flushed).
    pub fn drain(&mut self) {
        while !self.ready.is_empty() {
            self.poll_round();
        }
    }

    /// Closes every stream and drains.
    pub fn finish_all(&mut self) {
        for s in 0..self.rings.len() {
            self.close(s);
        }
        self.drain();
    }

    /// The outcome of `stream` so far.
    pub fn outcome(&self, stream: usize) -> &SparseOutcome {
        self.former.outcome(stream)
    }

    /// All outcomes, indexed by stream id.
    pub fn outcomes(&self) -> &[SparseOutcome] {
        self.former.outcomes()
    }

    /// Bytes dropped by `stream`'s full ring so far.
    pub fn dropped_bytes(&self, stream: usize) -> u64 {
        self.dropped[stream]
    }

    /// Total bytes dropped across every stream, folded with saturating
    /// arithmetic so one flooded stream cannot wrap the aggregate. In
    /// the non-saturated regime this equals
    /// [`SparseStats::dropped_bytes`] exactly (property-pinned).
    pub fn dropped_bytes_total(&self) -> u64 {
        self.dropped
            .iter()
            .fold(0u64, |acc, &d| acc.saturating_add(d))
    }

    /// Decode counters of `stream`'s IGM session (frames, packets,
    /// decode errors, P2S drops, mapper accepts and filters).
    pub fn session_stats(&self, stream: usize) -> StreamingStats {
        self.sessions[stream].stats()
    }

    /// Free space in `stream`'s ingest ring. A lossless feeder checks
    /// this (and polls to drain) before offering bytes; a
    /// fire-and-forget feeder just calls [`feed`](Self::feed) and lets
    /// overflow drop.
    pub fn ring_free(&self, stream: usize) -> usize {
        self.rings[stream].free()
    }

    /// Whole-pipeline counters.
    pub fn stats(&self) -> SparseStats {
        let (windows, batches, max_batch_seen) = self.former.tally();
        SparseStats {
            windows,
            batches,
            max_batch_seen,
            ..self.stats
        }
    }

    /// Streams currently ready (waiting for a poll).
    pub fn ready_len(&self) -> usize {
        self.ready.len()
    }

    /// The served spec.
    pub fn spec(&self) -> &ServeSpec {
        self.former.spec()
    }

    /// Ring storage allocated, free and held (see [`RingStorage`]).
    pub fn ring_storage(&self) -> RingStorage {
        RingStorage {
            allocated: self.ring_pool.allocated(),
            free: self.ring_pool.free(),
            held: self.rings.iter().filter(|r| r.holds_storage()).count(),
        }
    }

    /// Measures resident memory by walking every owned buffer's
    /// capacity (no allocator hooks needed). Per stream it counts only
    /// what the stream owns, so once every ring has drained the
    /// per-stream bytes are the memory-per-*idle*-stream metric, before
    /// or after activity; the pools warmed by activity count as
    /// scratch.
    pub fn memory_footprint(&self) -> MemoryFootprint {
        let streams = self.rings.len();
        // Fixed ingest bookkeeping slots per stream (dropped, closing,
        // flushed); the former counts its own.
        let slots = size_of::<u64>() + 2 * size_of::<bool>();
        let stream_bytes = (0..streams)
            .map(|s| {
                self.rings[s].resident_bytes()
                    + self.sessions[s].resident_bytes()
                    + self.former.stream_resident_bytes(s)
                    + slots
            })
            .sum::<usize>()
            + self.ready.resident_bytes();
        let scratch_bytes = self.former.scratch_bytes()
            + self.emitted.capacity() * size_of::<StreamedVector>()
            + self.ring_pool.resident_bytes()
            + self.window_pool.capacity() * size_of::<Vec<f32>>()
            + self
                .window_pool
                .iter()
                .map(|b| b.capacity() * size_of::<f32>())
                .sum::<usize>();
        MemoryFootprint {
            streams,
            shared_bytes: size_of::<Self>() + self.shared.resident_bytes(),
            stream_bytes,
            scratch_bytes,
        }
    }
}

/// Knobs of [`ShardedSparsePipeline`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardConfig {
    /// Serving threads. Only `0` (the default) and `1` are accepted:
    /// both select the one inline [`SparsePipeline`].
    pub workers: usize,
    /// The pipeline's scheduling knobs.
    pub sparse: SparseConfig,
}

/// A thin handle over [`SparsePipeline`], kept only because the
/// repository benchmark (`perfbench/`) is frozen and builds against
/// it. It adds nothing: every stream is served on the calling thread
/// by the one inline pipeline. A later change to the benchmark ports
/// perfbench to [`SparsePipeline`] and deletes this handle,
/// [`ShardFeeder`] and [`ShardConfig`].
pub struct ShardedSparsePipeline(SparsePipeline);

/// The feed-side handle [`ShardedSparsePipeline::run`] passes to its
/// closure: [`SparsePipeline`]'s ingest calls behind a shared
/// reference.
pub struct ShardFeeder<'a>(RefCell<&'a mut SparsePipeline>);

impl ShardFeeder<'_> {
    /// [`SparsePipeline::feed`].
    pub fn feed(&self, stream: usize, bytes: &[u8]) -> usize {
        self.0.borrow_mut().feed(stream, bytes)
    }

    /// [`SparsePipeline::ring_free`].
    pub fn ring_free(&self, stream: usize) -> usize {
        self.0.borrow().ring_free(stream)
    }

    /// [`SparsePipeline::close`].
    pub fn close(&self, stream: usize) {
        self.0.borrow_mut().close(stream);
    }

    /// One [`SparsePipeline::poll_round`].
    pub fn pump(&self) {
        self.0.borrow_mut().poll_round();
    }

    /// [`SparsePipeline::drain`]: every byte accepted so far is decoded
    /// and scored, and every close requested so far has flushed.
    pub fn quiesce(&self) {
        self.0.borrow_mut().drain();
    }

    /// Windows scored so far.
    pub fn windows_scored(&self) -> u64 {
        self.0.borrow().stats().windows
    }
}

impl ShardedSparsePipeline {
    /// A pipeline serving `spec` with no streams registered yet.
    ///
    /// # Panics
    ///
    /// Panics if `config.workers` is above 1.
    pub fn new(spec: ServeSpec, config: ShardConfig) -> Self {
        assert!(
            config.workers <= 1,
            "ShardConfig::workers = {}: serving runs on one thread; the threaded shard \
             transport was deleted (DESIGN.md §17)",
            config.workers
        );
        ShardedSparsePipeline(SparsePipeline::new(spec, config.sparse))
    }

    /// [`SparsePipeline::register_many`].
    pub fn register_many(&mut self, n: usize) {
        self.0.register_many(n);
    }

    /// Streams registered.
    pub fn registered(&self) -> usize {
        self.0.stats().registered
    }

    /// Hands `f` the feed handle, then drains: on return every accepted
    /// byte is decoded and scored and every closed stream is flushed.
    pub fn run<R>(&mut self, f: impl FnOnce(&ShardFeeder<'_>) -> R) -> R {
        let result = f(&ShardFeeder(RefCell::new(&mut self.0)));
        self.0.drain();
        result
    }

    /// [`SparsePipeline::outcome`].
    pub fn outcome(&self, stream: usize) -> &SparseOutcome {
        self.0.outcome(stream)
    }

    /// [`SparsePipeline::outcomes`].
    pub fn outcomes(&self) -> &[SparseOutcome] {
        self.0.outcomes()
    }

    /// [`SparsePipeline::dropped_bytes`].
    pub fn dropped_bytes(&self, stream: usize) -> u64 {
        self.0.dropped_bytes(stream)
    }

    /// [`SparsePipeline::dropped_bytes_total`].
    pub fn dropped_bytes_total(&self) -> u64 {
        self.0.dropped_bytes_total()
    }

    /// [`SparsePipeline::stats`].
    pub fn stats(&self) -> SparseStats {
        self.0.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serve::{encode_streams, serial_reference, ServeModel, VerdictPolicy};
    use rtad_igm::IgmConfig;
    use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig};
    use rtad_trace::tpiu::FRAME_BYTES;
    use rtad_trace::{BranchKind, BranchRecord, VirtAddr};

    fn targets(n: u32) -> Vec<VirtAddr> {
        (0..n).map(|k| VirtAddr::new(0x4000 + k * 0x40)).collect()
    }

    fn runs(n_streams: usize, lens: &[usize], n_targets: u32) -> Vec<Vec<BranchRecord>> {
        let tgts = targets(n_targets);
        (0..n_streams)
            .map(|s| {
                (0..lens[s % lens.len()])
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
            .collect()
    }

    fn elm_spec() -> ServeSpec {
        let tgts = targets(8);
        let normal: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                let mut v = vec![0.0; 8];
                v[i % 4] = 0.7;
                v[(i + 2) % 4] = 0.3;
                v
            })
            .collect();
        ServeSpec {
            igm: IgmConfig::histogram(&tgts, 8),
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
        let tgts = targets(6);
        let corpus: Vec<u32> = (0..400).map(|i| (i % 6) as u32).collect();
        ServeSpec {
            igm: IgmConfig::token_stream(&tgts),
            model: ServeModel::Lstm(Lstm::train(&LstmConfig::tiny(6), &corpus, 9)),
            policy: VerdictPolicy::simple(2.5),
            cycles_per_event: 777,
        }
    }

    /// Feeds `bytes` to `stream` in `chunk`-sized pieces, polling the
    /// pipeline to drain whenever the ring lacks space (a lossless,
    /// backpressure-aware feeder).
    fn feed_all(p: &mut SparsePipeline, stream: usize, bytes: &[u8], chunk: usize) {
        let chunk = chunk.max(1).min(p.ring_free(stream).max(1));
        for piece in bytes.chunks(chunk) {
            while p.ring_free(stream) < piece.len() {
                p.poll_round();
            }
            assert_eq!(p.feed(stream, piece), piece.len());
        }
    }

    fn assert_matches_reference(spec: &ServeSpec, p: &SparsePipeline, streams: &[Vec<u8>]) {
        for (s, r) in serial_reference(spec, streams).iter().enumerate() {
            assert_eq!(
                p.outcome(s),
                &r.summary(),
                "stream {s} vs the serial reference"
            );
        }
    }

    #[test]
    fn sparse_pipeline_matches_reference_for_both_models() {
        for spec in [elm_spec(), lstm_spec()] {
            let streams = encode_streams(&runs(5, &[200, 0, 33, 150, 75], 6), 1);
            let mut p = SparsePipeline::new(
                spec.clone(),
                SparseConfig {
                    ring_capacity: 96,
                    max_batch: 4,
                    drain_bytes: 48,
                },
            );
            p.register_many(streams.len());
            for (s, bytes) in streams.iter().enumerate() {
                feed_all(&mut p, s, bytes, 37);
            }
            p.finish_all();
            assert_eq!(p.stats().dropped_bytes, 0);
            assert_matches_reference(&spec, &p, &streams);
        }
    }

    #[test]
    fn idle_streams_cost_no_polls() {
        let spec = lstm_spec();
        let streams = encode_streams(&runs(2, &[120, 90], 6), 1);

        let polls_with = |idle: usize| {
            let mut p = SparsePipeline::new(spec.clone(), SparseConfig::default());
            p.register_many(streams.len() + idle);
            for (s, bytes) in streams.iter().enumerate() {
                feed_all(&mut p, s, bytes, 64);
                p.poll_round();
            }
            // Close only the fed streams: `finish_all` would visit every
            // registered stream once for its end-of-stream flush, which
            // is exactly the per-registration cost this test pins to 0.
            for s in 0..streams.len() {
                p.close(s);
            }
            p.drain();
            (
                p.stats().stream_polls,
                p.outcomes()[..streams.len()].to_vec(),
            )
        };
        let (polls_small, out_small) = polls_with(0);
        let (polls_large, out_large) = polls_with(10_000);
        assert_eq!(
            polls_small, polls_large,
            "10k extra idle streams changed scheduling work"
        );
        assert_eq!(out_small, out_large);
    }

    #[test]
    fn full_ring_drops_are_counted_and_contained() {
        let spec = lstm_spec();
        let streams = encode_streams(&runs(2, &[150, 150], 6), 1);
        let mut p = SparsePipeline::new(
            spec.clone(),
            SparseConfig {
                ring_capacity: 64,
                ..SparseConfig::default()
            },
        );
        p.register_many(2);
        // Saturate stream 0 without ever polling: overflow must drop.
        let fed0 = streams[0].len();
        let mut accepted0 = 0;
        for piece in streams[0].chunks(48) {
            accepted0 += p.feed(0, piece);
        }
        assert!(accepted0 < fed0);
        assert_eq!(p.dropped_bytes(0), (fed0 - accepted0) as u64);
        assert_eq!(p.stats().dropped_bytes, p.dropped_bytes(0));
        // Stream 1 is fed politely and must be entirely unaffected.
        feed_all(&mut p, 1, &streams[1], 32);
        p.close(1);
        p.drain();
        let reference = serial_reference(&spec, &streams[1..2]);
        assert_eq!(p.outcome(1), &reference[0].summary());
        assert_eq!(p.dropped_bytes(1), 0);
    }

    #[test]
    fn close_flushes_stragglers_and_drops_late_feeds() {
        let spec = lstm_spec();
        let streams = encode_streams(&runs(1, &[100], 6), 1);
        let mut p = SparsePipeline::new(spec.clone(), SparseConfig::default());
        p.register();
        feed_all(&mut p, 0, &streams[0], 1000);
        p.close(0);
        p.drain();
        let late = p.feed(0, &[0xAA; 8]);
        assert_eq!(late, 0, "a closed stream must drop feeds");
        assert_eq!(p.dropped_bytes(0), 8);
        assert_matches_reference(&spec, &p, &streams);
    }

    #[test]
    fn drop_counters_saturate_instead_of_wrapping() {
        let spec = lstm_spec();
        let mut p = SparsePipeline::new(spec, SparseConfig::default());
        p.register_many(2);
        // A stream flooded to the brink of u64: the next drop must pin
        // the counter at MAX (the old `+=` would panic in debug builds
        // and wrap to a tiny value in release builds).
        p.close(0);
        p.dropped[0] = u64::MAX - 4;
        p.stats.dropped_bytes = u64::MAX - 4;
        assert_eq!(p.feed(0, &[0u8; 16]), 0);
        assert_eq!(p.dropped_bytes(0), u64::MAX);
        assert_eq!(p.stats().dropped_bytes, u64::MAX);
        // The aggregate folds with saturating arithmetic too, so a
        // second stream's drops cannot wrap it back around.
        p.close(1);
        assert_eq!(p.feed(1, &[0u8; 8]), 0);
        assert_eq!(p.dropped_bytes(1), 8);
        assert_eq!(p.dropped_bytes_total(), u64::MAX);
    }

    #[test]
    fn dropped_bytes_total_matches_stats_in_normal_regime() {
        let spec = lstm_spec();
        let streams = encode_streams(&runs(2, &[150, 150], 6), 1);
        let mut p = SparsePipeline::new(
            spec,
            SparseConfig {
                ring_capacity: 64,
                ..SparseConfig::default()
            },
        );
        p.register_many(2);
        for piece in streams[0].chunks(48) {
            p.feed(0, piece); // unpolled firehose: guaranteed drops
        }
        feed_all(&mut p, 1, &streams[1], 32);
        assert!(p.dropped_bytes(0) > 0);
        assert_eq!(p.dropped_bytes_total(), p.stats().dropped_bytes);
    }

    #[test]
    fn idle_round_is_cheap_and_counts_nothing() {
        let mut p = SparsePipeline::new(elm_spec(), SparseConfig::default());
        p.register_many(1000);
        for _ in 0..5 {
            let r = p.poll_round();
            assert_eq!(r, RoundStats::default());
        }
        assert_eq!(p.stats().stream_polls, 0);
        assert_eq!(p.stats().rounds, 5);
    }

    #[test]
    fn memory_footprint_scales_with_streams_not_table() {
        let mut p = SparsePipeline::new(
            lstm_spec(),
            SparseConfig {
                ring_capacity: 256,
                ..SparseConfig::default()
            },
        );
        p.register_many(100);
        let f100 = p.memory_footprint();
        p.register_many(900);
        let f1000 = p.memory_footprint();
        assert_eq!(f1000.streams, 1000);
        // Per-stream cost is flat: 10x the streams ≈ 10x stream_bytes.
        let per100 = f100.bytes_per_stream();
        let per1000 = f1000.bytes_per_stream();
        assert!(
            (per1000 - per100).abs() / per100 < 0.05,
            "per-stream bytes moved: {per100:.1} -> {per1000:.1}"
        );
        // Shared bytes did not grow with registration.
        assert_eq!(f100.shared_bytes, f1000.shared_bytes);
        assert!(per1000 > 0.0);
    }

    /// After every stream has been active and its ring drained, the
    /// rings and decode sessions are back at their idle size: bytes and
    /// windows in flight lived in the plane's pools, which stay within
    /// the ready burst however many streams are registered.
    #[test]
    fn memory_per_stream_is_unchanged_by_activity() {
        const STREAMS: usize = 1000;
        for (spec, n_targets) in [(elm_spec(), 8), (lstm_spec(), 6)] {
            let config = SparseConfig::default();
            let mut p = SparsePipeline::new(spec, config);
            p.register_many(STREAMS);
            let before = p.memory_footprint();
            let former_before: Vec<usize> = (0..STREAMS)
                .map(|s| p.former.stream_resident_bytes(s))
                .collect();

            let lens: Vec<usize> = (0..7).map(|k| 300 + 33 * k).collect();
            let streams = encode_streams(&runs(STREAMS, &lens, n_targets), 1);
            let mut peak_ready = 0;
            for (s, bytes) in streams.iter().enumerate() {
                for piece in bytes.chunks(80) {
                    while p.ring_free(s) < piece.len() {
                        p.poll_round();
                    }
                    assert_eq!(p.feed(s, piece), piece.len());
                    peak_ready = peak_ready.max(p.ready_len());
                }
            }
            p.drain();
            let after = p.memory_footprint();

            // The former's per-stream state may grow only by verdict
            // hit history: at most `burst_k + 1` window indices, in a
            // deque of at most four slots for these policies.
            let history: usize = (0..STREAMS)
                .map(|s| p.former.stream_resident_bytes(s) - former_before[s])
                .sum();
            assert!(history <= STREAMS * size_of::<[u64; 4]>());
            assert_eq!(
                after.stream_bytes,
                before.stream_bytes + history,
                "rings and sessions must own nothing once drained"
            );
            // Scratch: every ring buffer is back on the free list, and
            // there are no more of them than streams that held bytes at
            // once; dense-window buffers never exceed a full batch plus
            // one quantum's windows (a quantum decodes its `drain_bytes`
            // plus a carried partial frame, and a decoded byte completes
            // at most one window).
            let rings = p.ring_storage();
            assert_eq!(rings.held, 0);
            assert_eq!(rings.free, rings.allocated);
            assert!(rings.allocated > 0 && rings.allocated <= peak_ready);
            assert!(
                peak_ready < STREAMS / 10,
                "the feeder kept {peak_ready} streams ready"
            );
            assert!(p.window_pool.len() <= config.max_batch + config.drain_bytes + FRAME_BYTES);
            let list = 2 * size_of::<Box<[u8]>>();
            assert!(
                p.ring_pool.resident_bytes() <= rings.allocated * (config.ring_capacity + list)
            );
            assert!(after.scratch_bytes >= p.ring_pool.resident_bytes());
        }
    }

    #[test]
    fn byte_ring_wraps_and_reports() {
        let mut pool = RingPool::new();
        let mut r = ByteRing::new(8);
        assert!(!r.holds_storage());
        assert_eq!(r.push(&[1, 2, 3, 4, 5, 6], &mut pool), 6);
        let mut got = Vec::new();
        assert_eq!(r.drain_into(4, &mut pool, |s| got.extend_from_slice(s)), 4);
        // Wrap: 2 left, 6 free, push 7 accepts 6 split across the seam.
        assert_eq!(r.push(&[7, 8, 9, 10, 11, 12, 13], &mut pool), 6);
        assert_eq!(r.len(), 8);
        assert_eq!(r.push(&[99], &mut pool), 0, "full ring accepts nothing");
        assert_eq!((pool.allocated(), pool.free()), (1, 0));
        r.drain_into(usize::MAX, &mut pool, |s| got.extend_from_slice(s));
        assert_eq!(got, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]);
        assert!(r.is_empty());
        // Drained empty: the storage is back on the list, and the next
        // push takes it again instead of allocating.
        assert!(!r.holds_storage());
        assert_eq!((pool.allocated(), pool.free()), (1, 1));
        assert_eq!(r.resident_bytes(), size_of::<ByteRing>());
        assert_eq!(r.push(&[], &mut pool), 0);
        assert!(!r.holds_storage(), "an empty push takes no storage");
        assert_eq!(r.push(&[5], &mut pool), 1);
        assert_eq!((pool.allocated(), pool.free()), (1, 0));
    }

    #[test]
    fn ready_queue_deduplicates() {
        let mut q = ReadyQueue::new();
        for _ in 0..3 {
            q.register();
        }
        assert!(q.enqueue(1));
        assert!(!q.enqueue(1), "double enqueue must be a no-op");
        assert!(q.enqueue(0));
        assert_eq!(q.len(), 2);
        assert!(q.contains(1) && q.contains(0) && !q.contains(2));
        assert_eq!(q.dequeue(), Some(1));
        assert!(!q.contains(1));
        assert!(q.enqueue(1), "dequeued stream can re-arm");
        assert_eq!(q.dequeue(), Some(0));
        assert_eq!(q.dequeue(), Some(1));
        assert_eq!(q.dequeue(), None);
    }

    /// Lossless feed through the benchmark handle: pump whenever the
    /// ring lacks room for the next piece.
    fn feed_via(fd: &ShardFeeder<'_>, stream: usize, bytes: &[u8]) {
        for piece in bytes.chunks(37) {
            while fd.ring_free(stream) < piece.len() {
                fd.pump();
            }
            assert_eq!(fd.feed(stream, piece), piece.len());
        }
    }

    /// What one pass of perfbench's call pattern left behind.
    struct BenchmarkPass {
        spec: ServeSpec,
        streams: Vec<Vec<u8>>,
        pipeline: ShardedSparsePipeline,
        /// Per run: `windows_scored` at the final `quiesce`, and
        /// `stats().windows` once the run returned.
        barriers: Vec<(u64, u64)>,
        /// Bytes accepted by a feed to a stream closed in an earlier run.
        late_accepted: usize,
    }

    /// The handle driven in perfbench's pattern: two runs on one
    /// pipeline with the pool grown in between, `quiesce` mid-run,
    /// closes, and a late feed to a stream closed in the earlier run.
    fn serve_like_the_benchmark(spec: ServeSpec) -> BenchmarkPass {
        let streams = encode_streams(&runs(4, &[150, 90, 120, 60], 6), 1);
        let mut pipeline = ShardedSparsePipeline::new(
            spec.clone(),
            ShardConfig {
                workers: 1,
                sparse: SparseConfig {
                    ring_capacity: 96,
                    max_batch: 4,
                    drain_bytes: 48,
                },
            },
        );
        let mut barriers = Vec::new();
        let mut late_accepted = usize::MAX;
        for (run, ids) in [0..2, 2..4].into_iter().enumerate() {
            pipeline.register_many(2);
            assert_eq!(pipeline.registered(), ids.end);
            let mut scored_at_quiesce = 0;
            pipeline.run(|fd| {
                for s in ids.clone() {
                    let half = streams[s].len() / 2;
                    feed_via(fd, s, &streams[s][..half]);
                    fd.quiesce();
                    feed_via(fd, s, &streams[s][half..]);
                    fd.close(s);
                }
                fd.quiesce();
                scored_at_quiesce = fd.windows_scored();
                if run > 0 {
                    late_accepted = fd.feed(0, &[0xAA; 8]);
                }
            });
            barriers.push((scored_at_quiesce, pipeline.stats().windows));
        }
        BenchmarkPass {
            spec,
            streams,
            pipeline,
            barriers,
            late_accepted,
        }
    }

    #[test]
    fn handle_drops_late_feeds_to_streams_closed_in_earlier_runs() {
        for spec in [elm_spec(), lstm_spec()] {
            let pass = serve_like_the_benchmark(spec);
            assert_eq!(
                pass.late_accepted, 0,
                "a stream closed in an earlier run must drop"
            );
            assert_eq!(pass.pipeline.dropped_bytes(0), 8);
            assert_eq!(pass.pipeline.dropped_bytes_total(), 8);
        }
    }

    #[test]
    fn handle_quiesce_is_a_steady_state_barrier() {
        for spec in [elm_spec(), lstm_spec()] {
            let pass = serve_like_the_benchmark(spec);
            assert_eq!(pass.barriers.len(), 2);
            for (run, &(scored_at_quiesce, windows)) in pass.barriers.iter().enumerate() {
                assert_eq!(scored_at_quiesce, windows, "run {run}");
            }
        }
    }

    #[test]
    fn handle_at_one_worker_is_the_sparse_pipeline() {
        for spec in [elm_spec(), lstm_spec()] {
            let pass = serve_like_the_benchmark(spec);
            let p = &pass.pipeline;
            assert_eq!(p.outcomes().len(), pass.streams.len());
            for (s, r) in serial_reference(&pass.spec, &pass.streams)
                .iter()
                .enumerate()
            {
                assert_eq!(p.outcome(s), &r.summary(), "stream {s} vs the reference");
            }
        }
    }

    #[test]
    #[should_panic(expected = "DESIGN.md")]
    fn handle_rejects_two_workers() {
        ShardedSparsePipeline::new(
            lstm_spec(),
            ShardConfig {
                workers: 2,
                ..ShardConfig::default()
            },
        );
    }
}
