//! One IGM serves one trace source.
//!
//! The CoreSight formatter multiplexes several trace sources onto one
//! TPIU port by ID. A second source (ID 0x20, one byte after every five
//! PTM bytes) sharing the port with the PTM must leave the PTM's windows
//! exactly as they are on a port of its own, on every path that decodes
//! them: the timed `Igm::process_trace`, an `IgmSession`, and the sparse
//! serving plane against `serial_reference`. The second source's bytes
//! are counted, not decoded.

use std::sync::OnceLock;

use rtad_igm::{Igm, IgmConfig, IgmShared, StreamedVector, TimedVector};
use rtad_ml::{Elm, ElmConfig};
use rtad_sim::Picos;
use rtad_soc::{
    serial_reference, ServeModel, ServeSpec, SparseConfig, SparsePipeline, VerdictPolicy,
};
use rtad_trace::stream::{TimedByte, TimedTrace};
use rtad_trace::tpiu::{TpiuDeframer, TpiuFormatter, FRAME_BYTES};
use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder, TraceId, VirtAddr};

fn targets() -> Vec<VirtAddr> {
    (0..8u32)
        .map(|k| VirtAddr::new(0x5000 + k * 0x40))
        .collect()
}

/// 200 branches, every one to a watched target: 200 windows.
fn run() -> Vec<BranchRecord> {
    let t = targets();
    (0..200)
        .map(|i| {
            BranchRecord::new(
                VirtAddr::new(0x1000 + (i as u32) * 4),
                t[(i * 3 + i / 7) % t.len()],
                BranchKind::IndirectJump,
                (i as u64) * 30,
            )
        })
        .collect()
}

fn one_source() -> TimedTrace {
    StreamEncoder::new(PtmConfig::rtad()).encode_run(&run())
}

/// The PTM's bytes of `one`, re-framed with a byte of source 0x20 after
/// every five of them. Returns the stream and its foreign byte count.
fn two_sources(one: &TimedTrace) -> (Vec<u8>, u64) {
    let mut deframer = TpiuDeframer::new();
    let mut ptm = Vec::new();
    for frame in one.bytes.chunks_exact(FRAME_BYTES) {
        let frame: [u8; FRAME_BYTES] = std::array::from_fn(|i| frame[i].byte);
        for (id, b) in deframer.feed_frame(&frame).expect("own frames deframe") {
            assert_eq!(id, TraceId::PTM);
            ptm.push(b);
        }
    }
    let other = TraceId::new(0x20).expect("valid id");
    let mut fmt = TpiuFormatter::new();
    let mut foreign = 0;
    for (i, &b) in ptm.iter().enumerate() {
        fmt.push(TraceId::PTM, b);
        if i % 5 == 4 {
            // Bytes a PTM decoder would misread: headers and
            // continuation bytes alike.
            fmt.push(other, (i as u8).wrapping_mul(37) | 0x01);
            foreign += 1;
        }
    }
    (fmt.flush().concat(), foreign)
}

/// `bytes` arriving four per MLPU cycle (8 ns).
fn at_port_rate(bytes: &[u8]) -> TimedTrace {
    TimedTrace {
        bytes: bytes
            .iter()
            .enumerate()
            .map(|(i, &byte)| TimedByte {
                at: Picos::from_nanos((i as u64 / 4 + 1) * 8),
                byte,
            })
            .collect(),
        packet_times: Vec::new(),
        stats: Default::default(),
    }
}

fn untimed(v: &[TimedVector]) -> Vec<StreamedVector> {
    v.iter()
        .map(|v| StreamedVector {
            target: v.target,
            context_id: v.context_id,
            payload: v.payload.clone(),
        })
        .collect()
}

#[test]
fn timed_path_serves_one_source() {
    let config = IgmConfig::histogram(&targets(), 8);
    let one = one_source();
    let (two, foreign) = two_sources(&one);

    let want = Igm::new(config.clone()).process_trace(&one);
    assert_eq!(want.vectors.len(), 200);
    assert_eq!(want.stats.foreign_bytes, 0);
    let got = Igm::new(config).process_trace(&at_port_rate(&two));
    assert_eq!(untimed(&got.vectors), untimed(&want.vectors));
    assert_eq!(got.stats.decode_errors, 0);
    assert_eq!(got.stats.foreign_bytes, foreign);
    assert!(foreign > 0);
}

#[test]
fn session_serves_one_source() {
    let shared = IgmShared::new(&IgmConfig::token_stream(&targets()));
    let one: Vec<u8> = one_source().bytes.iter().map(|tb| tb.byte).collect();
    let (two, foreign) = two_sources(&one_source());

    let decode = |bytes: &[u8]| {
        let mut session = shared.session();
        let mut out = Vec::new();
        for chunk in bytes.chunks(37) {
            session.push_bytes(&shared, chunk, &mut out);
        }
        session.finish(&shared, &mut out);
        (out, session.stats())
    };
    let (want, want_stats) = decode(&one);
    let (got, got_stats) = decode(&two);
    assert_eq!(want.len(), 200);
    assert_eq!(got, want);
    assert_eq!(got_stats.decode_errors, 0);
    assert_eq!(got_stats.accepted, want_stats.accepted);
    assert_eq!(got_stats.foreign_bytes, foreign);
}

fn elm_spec() -> ServeSpec {
    static ELM: OnceLock<Elm> = OnceLock::new();
    let elm = ELM.get_or_init(|| {
        let normal: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                let mut v = vec![0.0; 8];
                v[i % 8] = 0.6;
                v[(i + 3) % 8] = 0.4;
                v
            })
            .collect();
        Elm::train(&ElmConfig::tiny(8), &normal, 3)
    });
    ServeSpec {
        igm: IgmConfig::histogram(&targets(), 8),
        model: ServeModel::Elm(elm.clone()),
        policy: VerdictPolicy {
            threshold: 0.4,
            hard_threshold: 8.0,
            alpha: 0.5,
            burst_k: 2,
            burst_window_events: 5,
        },
        cycles_per_event: 901,
    }
}

#[test]
fn serving_plane_serves_one_source() {
    let spec = elm_spec();
    let one: Vec<u8> = one_source().bytes.iter().map(|tb| tb.byte).collect();
    let (two, foreign) = two_sources(&one_source());
    let streams = [one, two];

    let config = SparseConfig {
        ring_capacity: 192,
        max_batch: 8,
        drain_bytes: 96,
    };
    let mut p = SparsePipeline::new(spec.clone(), config);
    p.register_many(streams.len());
    for (s, bytes) in streams.iter().enumerate() {
        let mut off = 0;
        while off < bytes.len() {
            let n = p.ring_free(s).min(bytes.len() - off).min(53);
            if n == 0 {
                p.poll_round();
                continue;
            }
            assert_eq!(p.feed(s, &bytes[off..off + n]), n);
            off += n;
        }
    }
    for s in 0..streams.len() {
        p.close(s);
    }
    while p.ready_len() > 0 {
        p.poll_round();
    }

    let reference = serial_reference(&spec, &streams);
    assert_eq!(reference[0].windows, 200);
    for (s, r) in reference.iter().enumerate() {
        assert_eq!(p.outcome(s), &r.summary(), "stream {s} vs serial reference");
    }
    assert_eq!(p.outcome(1), p.outcome(0));
    assert_eq!(p.session_stats(1).foreign_bytes, foreign);
    assert_eq!(p.session_stats(1).decode_errors, 0);
}
