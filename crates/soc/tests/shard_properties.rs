//! Property laws of the sharded sparse serving plane:
//!
//! * [`SpscByteRing`] behaves exactly like an unbounded `VecDeque<u8>`
//!   truncated at its (power-of-two-rounded) capacity across arbitrary
//!   push/drain interleavings, including the push-full and drain-empty
//!   edges, and it conserves bytes in order across a real two-thread
//!   producer/consumer seam.
//! * [`SpscRing`] is a bounded FIFO of moved values: push on full
//!   returns the value, pop on empty returns `None`, order is arrival
//!   order.
//! * **Cross-shard determinism**: for random worker counts
//!   W ∈ {1, 2, 4, 8}, random feed interleavings/chunkings and mid-run
//!   stream closes, the sharded verdicts are bit-identical
//!   (score-hash witnessed) to the serial reference over exactly the
//!   bytes each stream accepted before its close — and late feeds into
//!   closed streams drop and are counted, never scored.

use std::collections::VecDeque;
use std::sync::OnceLock;

use proptest::prelude::*;

use rtad_igm::IgmConfig;
use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig};
use rtad_soc::{
    encode_streams, serial_reference, ServeModel, ServeSpec, ShardConfig, ShardFeeder,
    ShardedSparsePipeline, SparseConfig, SpscByteRing, SpscRing, VerdictPolicy,
};
use rtad_trace::{BranchKind, BranchRecord, VirtAddr};

fn targets(n: u32) -> Vec<VirtAddr> {
    (0..n).map(|k| VirtAddr::new(0x5800 + k * 0x40)).collect()
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
/// schedule through the live feed handle: round-robin from a rotated
/// start, `chunks[s]` bytes per turn, pumping whenever a ring lacks
/// space. A stream whose bytes are exhausted is closed *immediately*
/// (mid-run relative to its still-feeding siblings).
fn feed_interleaved_closing(
    fd: &ShardFeeder<'_>,
    streams: &[Vec<u8>],
    chunks: &[usize],
    rot: usize,
) {
    let mut offs = vec![0usize; streams.len()];
    let mut closed = vec![false; streams.len()];
    loop {
        let mut open = false;
        for k in 0..streams.len() {
            let s = (k + rot) % streams.len();
            let bytes = &streams[s];
            if offs[s] >= bytes.len() {
                if !closed[s] {
                    fd.close(s);
                    closed[s] = true;
                }
                continue;
            }
            open = true;
            let want = chunks[s % chunks.len()].max(1).min(bytes.len() - offs[s]);
            let piece = &bytes[offs[s]..offs[s] + want];
            let mut sent = 0;
            while sent < piece.len() {
                let free = fd.ring_free(s);
                if free == 0 {
                    fd.pump();
                    continue;
                }
                let n = free.min(piece.len() - sent);
                assert_eq!(fd.feed(s, &piece[sent..sent + n]), n);
                sent += n;
            }
            offs[s] += want;
        }
        if !open {
            break;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The SPSC byte ring is an at-capacity-truncated `VecDeque<u8>`:
    /// same accepted prefix on push, same bytes in order on drain,
    /// same occupancy — at every step of any operation sequence. The
    /// model capacity is the ring's *rounded* capacity (the requested
    /// size is a floor, rounded up to a power of two for exact
    /// wraparound arithmetic).
    #[test]
    fn spsc_byte_ring_matches_vecdeque_model(
        want_cap in 1usize..64,
        ops in proptest::collection::vec((any::<bool>(), 0usize..48), 1..64),
    ) {
        let ring = SpscByteRing::new(want_cap);
        let cap = ring.capacity();
        prop_assert!(cap >= want_cap && cap.is_power_of_two());
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
                let accepted = ring.push(&data);
                prop_assert_eq!(accepted, n.min(cap - model.len()), "accepted prefix");
                model.extend(&data[..accepted]);
            } else {
                let mut got = Vec::new();
                let drained = ring.drain_to(n, &mut got);
                prop_assert_eq!(drained, n.min(model.len()), "drained count");
                prop_assert_eq!(got.len(), drained, "drain appends exactly what it reports");
                let want: Vec<u8> = model.drain(..drained).collect();
                prop_assert_eq!(got, want, "drained bytes in order");
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.free(), cap - model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
        }
    }

    /// The typed SPSC ring is a bounded FIFO of moved values: push on
    /// full hands the value back, pop on empty is `None`, order is
    /// arrival order, occupancy is exact.
    #[test]
    fn spsc_value_ring_matches_vecdeque_model(
        want_cap in 1usize..32,
        ops in proptest::collection::vec(any::<bool>(), 1..96),
    ) {
        let ring: SpscRing<u32> = SpscRing::new(want_cap);
        let cap = ring.capacity();
        prop_assert!(cap >= want_cap && cap.is_power_of_two());
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut next = 0u32;
        for is_push in ops {
            if is_push {
                match ring.push(next) {
                    Ok(()) => {
                        prop_assert!(model.len() < cap, "push succeeded on a full ring");
                        model.push_back(next);
                    }
                    Err(back) => {
                        prop_assert_eq!(back, next, "rejected value comes back unchanged");
                        prop_assert_eq!(model.len(), cap, "push failed below capacity");
                    }
                }
                next += 1;
            } else {
                prop_assert_eq!(ring.pop(), model.pop_front(), "FIFO order");
            }
            prop_assert_eq!(ring.len(), model.len());
            prop_assert_eq!(ring.is_empty(), model.is_empty());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cross-shard determinism: random worker counts, interleavings,
    /// chunkings and mid-run closes all yield verdicts bit-identical
    /// to the serial reference over each stream's accepted prefix, and
    /// every byte offered after a close drops into the per-stream
    /// counter (byte conservation across shards).
    #[test]
    fn sharded_verdicts_equal_serial_reference(
        model in prop_oneof![Just(ModelChoice::Elm), Just(ModelChoice::Lstm)],
        workers in prop_oneof![Just(1usize), Just(2), Just(4), Just(8)],
        lens in proptest::collection::vec(0usize..120, 1..6),
        close_fracs in proptest::collection::vec(0.2f64..1.0, 1..6),
        chunks in proptest::collection::vec(1usize..160, 1..5),
        ring_capacity in 64usize..512,
        max_batch in 1usize..16,
        drain_quantum in 16usize..256,
        completion_depth in 2usize..32,
        rot in 0usize..8,
        late_bytes in 1usize..32,
    ) {
        let spec = spec_for(model);
        let full = synth_streams(&lens, if matches!(model, ModelChoice::Elm) { 8 } else { 6 });
        // Mid-run close plan: stream `s` is closed after `close_frac`
        // of its bytes; the serial reference sees exactly that prefix.
        let truncated: Vec<Vec<u8>> = full
            .iter()
            .enumerate()
            .map(|(s, bytes)| {
                let frac = close_fracs[s % close_fracs.len()];
                let keep = ((bytes.len() as f64) * frac) as usize;
                bytes[..keep.min(bytes.len())].to_vec()
            })
            .collect();

        let mut p = ShardedSparsePipeline::new(
            spec.clone(),
            ShardConfig {
                workers,
                sparse: SparseConfig {
                    ring_capacity,
                    max_batch,
                    drain_bytes: drain_quantum,
                },
                completion_depth,
            },
        );
        p.register_many(truncated.len());
        prop_assert_eq!(p.workers(), workers);
        p.run(|fd| {
            feed_interleaved_closing(fd, &truncated, &chunks, rot);
            // Late feeds into now-closed streams: all dropped.
            for s in 0..truncated.len() {
                prop_assert_eq!(fd.feed(s, &vec![0xA5u8; late_bytes]), 0);
            }
            Ok(())
        })?;

        let reference = serial_reference(&spec, &truncated);
        let mut dropped_sum = 0u64;
        for (s, r) in reference.iter().enumerate() {
            prop_assert_eq!(
                p.outcome(s),
                &r.summary(),
                "W={} stream {} vs serial reference", workers, s
            );
            prop_assert_eq!(
                p.dropped_bytes(s),
                late_bytes as u64,
                "post-close bytes of stream {} not fully counted dropped", s
            );
            dropped_sum = dropped_sum.saturating_add(p.dropped_bytes(s));
        }
        prop_assert_eq!(p.dropped_bytes_total(), dropped_sum, "per-stream drop sum");
        let fed: usize = truncated.iter().map(Vec::len).sum();
        prop_assert_eq!(p.stats().fed_bytes, fed as u64, "lossless feed accepted short");

        // The per-shard telemetry partitions the decode work exactly.
        let shards = p.shard_stats();
        prop_assert_eq!(shards.len(), workers);
        let decoded: u64 = shards.iter().map(|st| st.windows_decoded).sum();
        prop_assert_eq!(decoded, p.stats().windows, "shard decode counters vs scored windows");
        for st in &shards {
            prop_assert!(st.completion_high_water <= completion_depth.next_power_of_two());
        }
    }
}

/// Two real OS threads across one [`SpscByteRing`]: every byte the
/// producer reports accepted arrives at the consumer exactly once, in
/// order — the conservation law the per-stream ingest seam relies on.
#[test]
fn spsc_byte_ring_conserves_bytes_across_threads() {
    const TOTAL: usize = 64 * 1024;
    let ring = SpscByteRing::new(97); // rounds to 128; odd on purpose
    let expect: Vec<u8> = (0..TOTAL).map(|i| (i % 251) as u8).collect();
    std::thread::scope(|s| {
        let producer = s.spawn(|| {
            let mut sent = 0usize;
            while sent < expect.len() {
                let n = ring.push(&expect[sent..(sent + 37).min(expect.len())]);
                sent += n;
                if n == 0 {
                    std::thread::yield_now();
                }
            }
        });
        let mut got = Vec::with_capacity(TOTAL);
        while got.len() < TOTAL {
            if ring.drain_to(29, &mut got) == 0 {
                std::thread::yield_now();
            }
        }
        producer.join().expect("producer thread");
        assert_eq!(got, expect, "bytes lost, duplicated or reordered");
        assert!(ring.is_empty());
    });
}
