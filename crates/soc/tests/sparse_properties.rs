//! Property laws of the sparse-readiness ingest layer:
//!
//! * [`ByteRing`] behaves exactly like an unbounded `VecDeque<u8>`
//!   truncated at capacity, across arbitrary push/drain interleavings
//!   (wraparound at every boundary is exercised by construction).
//! * [`ReadyQueue`] is a FIFO set: duplicate enqueues are no-ops, order
//!   is arrival order, dequeue re-arms.
//! * Fire-and-forget feeding conserves bytes: everything offered is
//!   either accepted (`fed_bytes`) or counted in a drop counter, and
//!   drop-free streams still score bit-identically to the serial
//!   reference even when a sibling's ring saturates.
//! * **Ring storage lifecycle**: under any feed/poll/close schedule,
//!   floods included, every feed accepts and drops exactly what a
//!   fixed-capacity ring per stream would; a ring holds storage exactly
//!   while it holds bytes; storage on the free list plus storage held
//!   equals storage ever allocated, which equals the most streams that
//!   held bytes at once; and every stream's outcome equals the serial
//!   reference of the bytes it accepted.
//! * **Determinism**: for any feed interleaving, chunking, ring
//!   capacity, drain quantum and batch bound — and any number of extra
//!   registered-but-idle streams — the sparse-scheduled verdicts are
//!   bit-identical to the serial reference, and scheduling work
//!   (`stream_polls`) is untouched by the idle population.

use std::collections::VecDeque;
use std::sync::OnceLock;

use proptest::prelude::*;
use proptest::TestCaseError;

use rtad_igm::IgmConfig;
use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig};
use rtad_soc::{
    encode_streams, serial_reference, ByteRing, ReadyQueue, RingPool, RingStorage, ServeModel,
    ServeSpec, SparseConfig, SparsePipeline, VerdictPolicy,
};
use rtad_trace::{BranchKind, BranchRecord, VirtAddr};

fn targets(n: u32) -> Vec<VirtAddr> {
    (0..n).map(|k| VirtAddr::new(0x5000 + k * 0x40)).collect()
}

fn trained_elm() -> &'static Elm {
    static ELM: OnceLock<Elm> = OnceLock::new();
    ELM.get_or_init(|| {
        let normal: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                let mut v = vec![0.0; 8];
                v[i % 4] = 0.7;
                v[(i + 2) % 4] = 0.3;
                v
            })
            .collect();
        Elm::train(&ElmConfig::tiny(8), &normal, 3)
    })
}

fn trained_lstm() -> &'static Lstm {
    static LSTM: OnceLock<Lstm> = OnceLock::new();
    LSTM.get_or_init(|| {
        let corpus: Vec<u32> = (0..400).map(|i| (i % 6) as u32).collect();
        Lstm::train(&LstmConfig::tiny(6), &corpus, 9)
    })
}

#[derive(Debug, Clone, Copy)]
enum ModelChoice {
    Elm,
    Lstm,
}

fn spec_for(model: ModelChoice) -> ServeSpec {
    let policy = VerdictPolicy {
        threshold: 0.4,
        hard_threshold: 8.0,
        alpha: 0.5,
        burst_k: 2,
        burst_window_events: 5,
    };
    match model {
        ModelChoice::Elm => ServeSpec {
            igm: IgmConfig::histogram(&targets(8), 8),
            model: ServeModel::Elm(trained_elm().clone()),
            policy,
            cycles_per_event: 901,
        },
        ModelChoice::Lstm => ServeSpec {
            igm: IgmConfig::token_stream(&targets(6)),
            model: ServeModel::Lstm(trained_lstm().clone()),
            policy,
            cycles_per_event: 1777,
        },
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
                        tgts[(i * (s + 3) + 2 * s) % tgts.len()],
                        BranchKind::IndirectJump,
                        (i as u64) * 25,
                    )
                })
                .collect()
        })
        .collect();
    encode_streams(&runs, 1)
}

/// Feeds every stream to completion in an interleaved, lossless
/// schedule: round-robin from a rotated start, `chunks[s]` bytes per
/// turn, polling to drain whenever a ring lacks space and every
/// `poll_every` feed turns.
fn feed_interleaved(
    p: &mut SparsePipeline,
    streams: &[Vec<u8>],
    chunks: &[usize],
    rot: usize,
    poll_every: usize,
) {
    let mut offs = vec![0usize; streams.len()];
    let mut turn = 0usize;
    loop {
        let mut progressed = false;
        for k in 0..streams.len() {
            let s = (k + rot) % streams.len();
            let bytes = &streams[s];
            if offs[s] >= bytes.len() {
                continue;
            }
            let want = chunks[s % chunks.len()].max(1).min(bytes.len() - offs[s]);
            let piece = &bytes[offs[s]..offs[s] + want];
            let mut sent = 0;
            while sent < piece.len() {
                let free = p.ring_free(s);
                if free == 0 {
                    p.poll_round();
                    continue;
                }
                let n = free.min(piece.len() - sent);
                assert_eq!(p.feed(s, &piece[sent..sent + n]), n);
                sent += n;
            }
            offs[s] += want;
            progressed = true;
            turn += 1;
            if turn.is_multiple_of(poll_every.max(1)) {
                p.poll_round();
            }
        }
        if !progressed {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The ring is an at-capacity-truncated `VecDeque<u8>`: same
    /// accepted prefix on push, same bytes in order on drain, same
    /// occupancy — at every step of any operation sequence.
    #[test]
    fn byte_ring_matches_vecdeque_model(
        cap in 1usize..64,
        ops in proptest::collection::vec((any::<bool>(), 0usize..48), 1..64),
    ) {
        let mut ring = ByteRing::new(cap);
        let mut pool = RingPool::new();
        let mut model: VecDeque<u8> = VecDeque::new();
        let mut counter = 0u8;
        for (is_push, n) in ops {
            if is_push {
                let data: Vec<u8> = (0..n)
                    .map(|_| {
                        counter = counter.wrapping_add(1);
                        counter
                    })
                    .collect();
                let accepted = ring.push(&data, &mut pool);
                prop_assert_eq!(accepted, n.min(cap - model.len()), "accepted prefix");
                model.extend(&data[..accepted]);
            } else {
                let mut got = Vec::new();
                let drained = ring.drain_into(n, &mut pool, |s| got.extend_from_slice(s));
                prop_assert_eq!(drained, n.min(model.len()), "drained count");
                let want: Vec<u8> = model.drain(..drained).collect();
                prop_assert_eq!(got, want, "drained bytes in order");
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.free(), cap - model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
            prop_assert_eq!(ring.holds_storage(), !model.is_empty(), "storage only while holding bytes");
            prop_assert!(pool.allocated() <= 1, "one ring reuses one buffer");
        }
    }

    /// The readiness queue is a FIFO set over stream ids: arrival
    /// order, no duplicates, membership tracked exactly.
    #[test]
    fn ready_queue_is_a_fifo_set(
        n in 1usize..24,
        ops in proptest::collection::vec((any::<bool>(), 0usize..24), 1..96),
    ) {
        let mut q = ReadyQueue::new();
        for _ in 0..n {
            q.register();
        }
        let mut order: VecDeque<usize> = VecDeque::new();
        let mut member = vec![false; n];
        for (is_enq, raw) in ops {
            if is_enq {
                let id = raw % n;
                let fresh = q.enqueue(id);
                prop_assert_eq!(fresh, !member[id], "enqueue freshness");
                if fresh {
                    member[id] = true;
                    order.push_back(id);
                }
            } else {
                let got = q.dequeue();
                let want = order.pop_front();
                prop_assert_eq!(got, want, "FIFO order");
                if let Some(id) = got {
                    member[id] = false;
                }
            }
            prop_assert_eq!(q.len(), order.len());
            for (id, &m) in member.iter().enumerate() {
                prop_assert_eq!(q.contains(id), m, "membership of {}", id);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Determinism under sparse scheduling: any interleaving, chunking
    /// and sparse configuration yields verdicts bit-identical to the
    /// serial reference, and extra idle registrations change neither
    /// the verdicts nor the scheduling work.
    #[test]
    fn sparse_verdicts_equal_serial_reference(
        model in prop_oneof![Just(ModelChoice::Elm), Just(ModelChoice::Lstm)],
        lens in proptest::collection::vec(0usize..150, 1..5),
        chunks in proptest::collection::vec(1usize..200, 1..5),
        ring_capacity in 32usize..512,
        max_batch in 1usize..16,
        drain_quantum in 16usize..256,
        rot in 0usize..8,
        poll_every in 1usize..6,
        idle_extra in prop_oneof![Just(0usize), Just(500usize)],
    ) {
        let spec = spec_for(model);
        let streams = synth_streams(&lens, if matches!(model, ModelChoice::Elm) { 8 } else { 6 });
        let config = SparseConfig {
            ring_capacity,
            max_batch,
            drain_bytes: drain_quantum,
        };

        let run = |idle: usize| {
            let mut p = SparsePipeline::new(spec.clone(), config);
            p.register_many(streams.len() + idle);
            feed_interleaved(&mut p, &streams, &chunks, rot, poll_every);
            for s in 0..streams.len() {
                p.close(s);
            }
            p.drain();
            p
        };
        let p = run(0);
        prop_assert_eq!(p.stats().dropped_bytes, 0, "lossless feeder dropped");

        let reference = serial_reference(&spec, &streams);
        for (s, r) in reference.iter().enumerate() {
            prop_assert_eq!(p.outcome(s), &r.summary(), "stream {} vs serial reference", s);
        }

        if idle_extra > 0 {
            let q = run(idle_extra);
            prop_assert_eq!(
                q.stats().stream_polls,
                p.stats().stream_polls,
                "idle registrations changed scheduling work"
            );
            prop_assert_eq!(q.stats().windows, p.stats().windows);
            for s in 0..streams.len() {
                prop_assert_eq!(q.outcome(s), p.outcome(s), "stream {} outcome", s);
            }
        }
    }

    /// Byte conservation under fire-and-forget feeding: every offered
    /// byte lands in `fed_bytes` or a drop counter, per-stream drops
    /// sum to the global counter, and a stream that never dropped still
    /// matches the serial reference even while a sibling saturates.
    #[test]
    fn full_ring_drop_accounting_conserves_bytes(
        lens in proptest::collection::vec(20usize..150, 2..5),
        chunk in 8usize..96,
        ring_capacity in 32usize..128,
        polls_between in 0usize..3,
    ) {
        let spec = spec_for(ModelChoice::Lstm);
        let streams = synth_streams(&lens, 6);
        let mut p = SparsePipeline::new(
            spec.clone(),
            SparseConfig { ring_capacity, ..SparseConfig::default() },
        );
        p.register_many(streams.len());

        // Stream 0 is firehosed with no polling at all: guaranteed
        // saturation. The rest are fed with occasional polls.
        let mut offered = vec![0u64; streams.len()];
        for piece in streams[0].chunks(chunk) {
            p.feed(0, piece);
            offered[0] += piece.len() as u64;
        }
        for (s, bytes) in streams.iter().enumerate().skip(1) {
            for piece in bytes.chunks(chunk) {
                p.feed(s, piece);
                offered[s] += piece.len() as u64;
                for _ in 0..polls_between {
                    p.poll_round();
                }
            }
        }
        for s in 0..streams.len() {
            p.close(s);
        }
        p.drain();

        let stats = p.stats();
        let total_offered: u64 = offered.iter().sum();
        prop_assert_eq!(
            stats.fed_bytes + stats.dropped_bytes,
            total_offered,
            "bytes neither accepted nor counted dropped"
        );
        let per_stream: u64 = (0..streams.len()).map(|s| p.dropped_bytes(s)).sum();
        prop_assert_eq!(per_stream, stats.dropped_bytes, "per-stream drop sum");
        prop_assert!(
            p.dropped_bytes(0) > 0,
            "an unpolled firehose into a {ring_capacity}-byte ring must drop"
        );

        let reference = serial_reference(&spec, &streams);
        for (s, r) in reference.iter().enumerate() {
            if p.dropped_bytes(s) == 0 {
                prop_assert_eq!(
                    p.outcome(s),
                    &r.summary(),
                    "drop-free stream {} must be unaffected by sibling drops", s
                );
            }
        }
    }
}

/// The ingest model the plane must match byte for byte: per stream, a
/// fixed ring of `cap` bytes (a `VecDeque` that never grows past it),
/// the bytes accepted so far, the bytes dropped and whether it closed.
struct RingModel {
    cap: usize,
    quantum: usize,
    rings: Vec<VecDeque<u8>>,
    accepted: Vec<Vec<u8>>,
    dropped: Vec<u64>,
    closed: Vec<bool>,
    offered: u64,
    /// Streams holding bytes now, and the most that held bytes at once.
    held: usize,
    peak_held: usize,
}

impl RingModel {
    fn new(streams: usize, cap: usize, quantum: usize) -> Self {
        RingModel {
            cap,
            quantum: quantum.max(1),
            rings: vec![VecDeque::with_capacity(cap); streams],
            accepted: vec![Vec::new(); streams],
            dropped: vec![0; streams],
            closed: vec![false; streams],
            offered: 0,
            held: 0,
            peak_held: 0,
        }
    }

    /// Offers `bytes` to stream `s`; returns the accepted count.
    fn feed(&mut self, s: usize, bytes: &[u8]) -> usize {
        self.offered += bytes.len() as u64;
        let take = if self.closed[s] {
            0
        } else {
            bytes.len().min(self.cap - self.rings[s].len())
        };
        if take > 0 && self.rings[s].is_empty() {
            self.held += 1;
            self.peak_held = self.peak_held.max(self.held);
        }
        self.rings[s].extend(&bytes[..take]);
        self.accepted[s].extend_from_slice(&bytes[..take]);
        self.dropped[s] += (bytes.len() - take) as u64;
        take
    }

    /// One poll round: every stream holding bytes drains one quantum.
    fn poll(&mut self) {
        for ring in &mut self.rings {
            let n = ring.len().min(self.quantum);
            ring.drain(..n);
        }
        self.held = self.rings.iter().filter(|r| !r.is_empty()).count();
    }
}

/// Checks the plane's ring storage against the model after one step.
fn check_storage(p: &SparsePipeline, model: &RingModel) -> Result<(), TestCaseError> {
    let st = p.ring_storage();
    prop_assert_eq!(st.free + st.held, st.allocated, "free + held = allocated");
    prop_assert_eq!(st.held, model.held, "storage held exactly while bytes are");
    prop_assert_eq!(
        st.allocated,
        model.peak_held,
        "allocations = peak streams holding bytes"
    );
    Ok(())
}

/// After closing and draining: no stream holds storage, bytes are
/// conserved, and every stream equals the serial reference of what it
/// accepted.
fn check_drained(
    p: &SparsePipeline,
    model: &RingModel,
    spec: &ServeSpec,
) -> Result<(), TestCaseError> {
    let st = p.ring_storage();
    prop_assert_eq!(
        st,
        RingStorage {
            allocated: model.peak_held,
            free: model.peak_held,
            held: 0
        }
    );
    let stats = p.stats();
    prop_assert_eq!(
        stats.fed_bytes + stats.dropped_bytes,
        model.offered,
        "bytes conserved"
    );
    // Streams that accepted the same bytes share one reference run.
    let mut distinct = model.accepted.clone();
    distinct.sort();
    distinct.dedup();
    let reference = serial_reference(spec, &distinct);
    for (s, accepted) in model.accepted.iter().enumerate() {
        let r = &reference[distinct.binary_search(accepted).expect("listed above")];
        prop_assert_eq!(p.dropped_bytes(s), model.dropped[s], "stream {} drops", s);
        prop_assert_eq!(
            p.outcome(s),
            &r.summary(),
            "stream {} vs the reference of its accepted bytes",
            s
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random feed/poll/close schedules with floods (every stream
    /// offered more than a ring holds, no poll in between) keep ring
    /// storage, admission and outcomes exactly on the model.
    #[test]
    fn ring_lifecycle_matches_fixed_ring_model(
        model_choice in prop_oneof![Just(ModelChoice::Elm), Just(ModelChoice::Lstm)],
        lens in proptest::collection::vec(100usize..300, 2..6),
        ring_capacity in 16usize..160,
        drain_bytes in 8usize..200,
        ops in proptest::collection::vec((0u8..20, 0usize..64, 1usize..200), 1..120),
    ) {
        let spec = spec_for(model_choice);
        let streams = synth_streams(&lens, if matches!(model_choice, ModelChoice::Elm) { 8 } else { 6 });
        let n = streams.len();
        let mut p = SparsePipeline::new(
            spec.clone(),
            SparseConfig { ring_capacity, max_batch: 8, drain_bytes },
        );
        p.register_many(n);
        let mut model = RingModel::new(n, ring_capacity, drain_bytes);
        let mut offs = vec![0usize; n];
        let mut offer = |p: &mut SparsePipeline, model: &mut RingModel, s: usize, len: usize| {
            let end = (offs[s] + len).min(streams[s].len());
            let bytes = &streams[s][offs[s]..end];
            offs[s] = end;
            let got = p.feed(s, bytes);
            let want = model.feed(s, bytes);
            (got, want)
        };
        for (kind, raw, len) in ops {
            let s = raw % n;
            match kind {
                0..=10 => {
                    let (got, want) = offer(&mut p, &mut model, s, len);
                    prop_assert_eq!(got, want, "accepted by stream {}", s);
                }
                11..=16 => {
                    p.poll_round();
                    model.poll();
                }
                17..=18 => {
                    p.close(s);
                    model.closed[s] = true;
                }
                _ => {
                    for s in 0..n {
                        let (got, want) = offer(&mut p, &mut model, s, ring_capacity + len);
                        prop_assert_eq!(got, want, "flooded stream {}", s);
                    }
                }
            }
            check_storage(&p, &model)?;
        }
        p.finish_all();
        check_drained(&p, &model, &spec)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A flood over thousands of streams: every ring fills with no poll
    /// in between, so ring storage reaches one buffer per stream — the
    /// up-front allocation it replaced — and a second flood after the
    /// drain reuses those buffers without allocating more.
    #[test]
    fn flood_of_every_stream_reuses_ring_storage(
        model_choice in prop_oneof![Just(ModelChoice::Elm), Just(ModelChoice::Lstm)],
        n in 1000usize..3000,
        ring_capacity in 16usize..256,
        extra in 1usize..64,
    ) {
        let spec = spec_for(model_choice);
        let templates = synth_streams(&[400, 250, 330], if matches!(model_choice, ModelChoice::Elm) { 8 } else { 6 });
        let mut p = SparsePipeline::new(
            spec.clone(),
            SparseConfig { ring_capacity, max_batch: 16, drain_bytes: 64 },
        );
        p.register_many(n);
        let mut model = RingModel::new(n, ring_capacity, 64);
        let burst = ring_capacity + extra;
        for flood in 0..2 {
            for s in 0..n {
                let t = &templates[s % templates.len()];
                let bytes = &t[(flood * burst).min(t.len())..((flood + 1) * burst).min(t.len())];
                prop_assert_eq!(p.feed(s, bytes), model.feed(s, bytes), "stream {} in flood {}", s, flood);
            }
            prop_assert_eq!(p.ring_storage(), RingStorage { allocated: n, free: 0, held: n });
            check_storage(&p, &model)?;
            p.drain();
            model.rings.iter_mut().for_each(VecDeque::clear);
            model.held = 0;
            check_storage(&p, &model)?;
        }
        p.finish_all();
        check_drained(&p, &model, &spec)?;
    }
}
