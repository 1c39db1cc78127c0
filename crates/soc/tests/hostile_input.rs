//! Hostile input through the sparse serving plane.
//!
//! Clean streams share one [`SparsePipeline`] with streams damaged by
//! [`rtad_trace::hostile::damage`] (bit flips, reserved-ID frames,
//! desync floods, malformed branch packets, mid-frame cuts). The damage
//! must stay inside the damaged streams:
//!
//! * every clean stream's outcome is bit-identical to a clean-only run;
//! * every stream, damaged or not, equals [`serial_reference`];
//! * the plane drains in a bounded number of rounds and drops no byte;
//! * each damaged stream's session counts exactly the decode errors
//!   recorded for it ([`POISON_DECODE_ERRORS`]).
//!
//! A second schedule fires bursts larger than a ring into the damaged
//! streams with no poll in between and closes them halfway through
//! their bytes. Drops are counted against the bursting stream only,
//! every offered byte is fed or dropped, clean neighbours stay
//! bit-identical, and once the closes flush every ring's storage is
//! back on the plane's free list.

use std::sync::OnceLock;

use rtad_igm::IgmConfig;
use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig};
use rtad_soc::{
    encode_streams, serial_reference, RingStorage, ServeModel, ServeSpec, SparseConfig,
    SparseOutcome, SparsePipeline, VerdictPolicy,
};
use rtad_trace::hostile::{damage, Damage};
use rtad_trace::{BranchKind, BranchRecord, PtmConfig, VirtAddr};

/// Streams in the mixed population; every third one is damaged.
const STREAMS: usize = 12;

fn poisoned(s: usize) -> bool {
    s % 3 == 1
}

/// Decode errors of damaged stream `s / 3`'s IGM session, recorded from
/// the byte-wise decoder before it gained a slice entry point.
const POISON_DECODE_ERRORS: [u64; STREAMS / 3] = [45, 92, 80, 21];

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

fn policy() -> VerdictPolicy {
    VerdictPolicy {
        threshold: 0.4,
        hard_threshold: 8.0,
        alpha: 0.5,
        burst_k: 2,
        burst_window_events: 5,
    }
}

fn elm_spec() -> ServeSpec {
    ServeSpec {
        igm: IgmConfig::histogram(&targets(8), 8),
        model: ServeModel::Elm(trained_elm().clone()),
        policy: policy(),
        cycles_per_event: 901,
    }
}

fn lstm_spec() -> ServeSpec {
    ServeSpec {
        igm: IgmConfig::token_stream(&targets(6)),
        model: ServeModel::Lstm(trained_lstm().clone()),
        policy: policy(),
        cycles_per_event: 1777,
    }
}

/// The mixed population: clean streams hitting the watched targets
/// among far misses, and every third stream damaged.
fn streams() -> Vec<Vec<u8>> {
    let tgts = targets(6);
    let runs: Vec<Vec<BranchRecord>> = (0..STREAMS)
        .map(|s| {
            (0..300 + 40 * s)
                .map(|i| {
                    let target = if (i + s) % 3 == 0 {
                        tgts[(i * (s + 1)) % tgts.len()]
                    } else {
                        VirtAddr::new(0x9000_0000 + ((i * 52 + s * 8) as u32 % 4096) * 4)
                    };
                    BranchRecord::new(
                        VirtAddr::new(0x1000 + (i as u32) * 4),
                        target,
                        BranchKind::IndirectJump,
                        (i as u64) * 25,
                    )
                })
                .collect()
        })
        .collect();
    let id = PtmConfig::rtad().trace_id;
    encode_streams(&runs, 1)
        .into_iter()
        .enumerate()
        .map(|(s, bytes)| {
            if poisoned(s) {
                damage(&bytes, id, 0xBAD0 + s as u64, &Damage::ALL)
            } else {
                bytes
            }
        })
        .collect()
}

const CONFIG: SparseConfig = SparseConfig {
    ring_capacity: 192,
    max_batch: 8,
    drain_bytes: 96,
};

/// Offers `want` bytes of `bytes` from `off` to `stream` losslessly,
/// polling whenever its ring is full.
fn feed_lossless(p: &mut SparsePipeline, stream: usize, bytes: &[u8], off: usize, want: usize) {
    let mut sent = 0;
    while sent < want {
        let free = p.ring_free(stream);
        if free == 0 {
            p.poll_round();
            continue;
        }
        let n = free.min(want - sent);
        assert_eq!(p.feed(stream, &bytes[off + sent..off + sent + n]), n);
        sent += n;
    }
}

/// Closes `ids` and drains in a bounded number of rounds.
fn close_and_drain(p: &mut SparsePipeline, ids: &[usize], total: usize) {
    for &s in ids {
        p.close(s);
    }
    let bound = total / CONFIG.drain_bytes + 4 * ids.len() + 8;
    let mut rounds = 0;
    while p.ready_len() > 0 {
        assert!(rounds < bound, "drain did not terminate in {bound} rounds");
        p.poll_round();
        rounds += 1;
    }
}

/// Feeds `streams` (as pipeline streams `ids`) losslessly in rotating
/// chunks, closes them and drains in a bounded number of rounds.
fn serve(spec: &ServeSpec, streams: &[Vec<u8>], ids: &[usize]) -> SparsePipeline {
    let mut p = SparsePipeline::new(spec.clone(), CONFIG);
    p.register_many(streams.len());
    let mut offs = vec![0usize; ids.len()];
    let mut turn = 0usize;
    while offs.iter().zip(ids).any(|(&o, &s)| o < streams[s].len()) {
        for (k, &s) in ids.iter().enumerate() {
            let bytes = &streams[s];
            let want = (17 + 29 * ((turn + k) % 5)).min(bytes.len() - offs[k]);
            feed_lossless(&mut p, s, bytes, offs[k], want);
            offs[k] += want;
        }
        turn += 1;
        if turn.is_multiple_of(3) {
            p.poll_round();
        }
    }
    let total: usize = ids.iter().map(|&s| streams[s].len()).sum();
    close_and_drain(&mut p, ids, total);
    assert_eq!(
        p.dropped_bytes_total(),
        0,
        "a lossless feeder dropped bytes"
    );
    assert_eq!(p.stats().fed_bytes, total as u64, "fed bytes");
    p
}

fn check(spec: &ServeSpec) {
    let streams = streams();
    let all: Vec<usize> = (0..STREAMS).collect();
    let clean: Vec<usize> = all.iter().copied().filter(|&s| !poisoned(s)).collect();

    let mixed = serve(spec, &streams, &all);
    let clean_only = serve(spec, &streams, &clean);

    let reference = serial_reference(spec, &streams);
    for (s, r) in reference.iter().enumerate() {
        assert_eq!(
            mixed.outcome(s),
            &r.summary(),
            "stream {s} vs serial reference"
        );
    }
    for &s in &clean {
        assert_eq!(
            mixed.outcome(s),
            clean_only.outcome(s),
            "clean stream {s} changed by hostile neighbours"
        );
        assert_eq!(mixed.session_stats(s).decode_errors, 0, "clean stream {s}");
    }
    assert!(
        clean
            .iter()
            .all(|&s| mixed.outcome(s) != &SparseOutcome::default()),
        "every clean stream scores windows"
    );
    let errors: Vec<u64> = all
        .iter()
        .filter(|&&s| poisoned(s))
        .map(|&s| mixed.session_stats(s).decode_errors)
        .collect();
    assert_eq!(
        errors, POISON_DECODE_ERRORS,
        "poisoned streams' decode errors"
    );
}

#[test]
fn hostile_streams_stay_contained_elm() {
    check(&elm_spec());
}

#[test]
fn hostile_streams_stay_contained_lstm() {
    check(&lstm_spec());
}

/// Bytes past a ring's capacity that each burst into a damaged stream
/// carries.
const OVERSHOOT: usize = 108;

/// Clean streams fed losslessly beside damaged streams that take
/// fire-and-forget bursts of `ring_capacity + OVERSHOOT` bytes and are
/// closed once half their bytes were offered (the rest is still
/// offered, and drops). Returns the plane, the bytes offered to each
/// stream and the bytes each accepted.
fn serve_bursts(spec: &ServeSpec, streams: &[Vec<u8>]) -> (SparsePipeline, Vec<u64>, Vec<Vec<u8>>) {
    let mut p = SparsePipeline::new(spec.clone(), CONFIG);
    p.register_many(streams.len());
    let burst = CONFIG.ring_capacity + OVERSHOOT;
    let mut offered = vec![0u64; streams.len()];
    let mut accepted = vec![Vec::new(); streams.len()];
    let mut offs = vec![0usize; streams.len()];
    let mut turn = 0usize;
    while (0..streams.len()).any(|s| offs[s] < streams[s].len()) {
        for (s, bytes) in streams.iter().enumerate() {
            let off = offs[s];
            if off >= bytes.len() {
                continue;
            }
            if poisoned(s) {
                let piece = &bytes[off..(off + burst).min(bytes.len())];
                let took = p.feed(s, piece);
                accepted[s].extend_from_slice(&piece[..took]);
                offered[s] += piece.len() as u64;
                offs[s] += piece.len();
                if offs[s] >= bytes.len() / 2 {
                    p.close(s);
                }
            } else {
                let want = (17 + 29 * ((turn + s) % 5)).min(bytes.len() - off);
                feed_lossless(&mut p, s, bytes, off, want);
                accepted[s].extend_from_slice(&bytes[off..off + want]);
                offered[s] += want as u64;
                offs[s] += want;
            }
        }
        turn += 1;
        if turn.is_multiple_of(3) {
            p.poll_round();
        }
    }
    let all: Vec<usize> = (0..streams.len()).collect();
    let total: usize = streams.iter().map(Vec::len).sum();
    close_and_drain(&mut p, &all, total);
    (p, offered, accepted)
}

fn check_bursts(spec: &ServeSpec) {
    let streams = streams();
    let clean: Vec<usize> = (0..STREAMS).filter(|&s| !poisoned(s)).collect();
    let (p, offered, accepted) = serve_bursts(spec, &streams);
    let clean_only = serve(spec, &streams, &clean);

    for s in 0..STREAMS {
        let dropped = offered[s] - accepted[s].len() as u64;
        assert_eq!(
            p.dropped_bytes(s),
            dropped,
            "stream {s}'s drops are its own"
        );
        if poisoned(s) {
            assert!(
                dropped > 0,
                "a burst past the ring into stream {s} must drop"
            );
        } else {
            assert_eq!(dropped, 0, "clean stream {s}");
            assert_eq!(
                p.outcome(s),
                clean_only.outcome(s),
                "clean stream {s} changed by bursting neighbours"
            );
        }
    }
    let stats = p.stats();
    assert_eq!(
        stats.fed_bytes + stats.dropped_bytes,
        offered.iter().sum::<u64>(),
        "fed + dropped = offered"
    );
    for (s, r) in serial_reference(spec, &accepted).iter().enumerate() {
        assert_eq!(
            p.outcome(s),
            &r.summary(),
            "stream {s} vs the serial reference of its accepted bytes"
        );
    }
    let rings = p.ring_storage();
    assert!(rings.allocated > 0);
    assert_eq!(
        rings,
        RingStorage {
            allocated: rings.allocated,
            free: rings.allocated,
            held: 0
        },
        "ring storage back on the free list once the closes flushed"
    );
}

#[test]
fn bursts_and_mid_stream_closes_stay_contained_elm() {
    check_bursts(&elm_spec());
}

#[test]
fn bursts_and_mid_stream_closes_stay_contained_lstm() {
    check_bursts(&lstm_spec());
}
