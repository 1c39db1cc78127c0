//! Golden digests of the timed IGM path.
//!
//! Each digest folds every vector `Igm::process_trace` emits (exit time,
//! target, context and payload bits) and the run's counters. The grid
//! covers both vector formats, the context filter, shallow and deep P2S
//! FIFOs, a trace cut mid-frame and damaged streams of one trace source,
//! so any change to TA word times, P2S departures, IVG exits or vector
//! content shows here.

use rtad_igm::{Igm, IgmConfig, IgmOutput, VectorPayload};
use rtad_sim::Picos;
use rtad_trace::hostile::{damage, Damage};
use rtad_trace::stream::{TimedByte, TimedTrace};
use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder, TraceId, VirtAddr};

fn targets() -> Vec<VirtAddr> {
    (0..8u32).map(|k| VirtAddr::new(0x2000 + k * 8)).collect()
}

/// Eight listed targets and four unlisted ones: the listed ones close
/// enough that many branch packets take one byte (so one word can
/// complete four addresses), half the unlisted ones far enough for
/// five-byte packets (so a burst's addresses can complete words apart).
/// Runs of two process contexts, and gaps from back-to-back to idle so
/// both P2S queueing and idle restarts occur.
fn run(n: usize) -> Vec<BranchRecord> {
    let listed = targets();
    let far = [0x2100, 0x4000_0000];
    let mut cycle = 0u64;
    (0..n)
        .map(|i| {
            let k = (i * 7 + i / 5) % 12;
            let target = listed
                .get(k)
                .copied()
                .unwrap_or(VirtAddr::new(far[k % 2] + k as u32 * 8));
            cycle += [1, 2, 3, 40, 1, 1, 400][i % 7];
            let mut r = BranchRecord::new(
                VirtAddr::new(0x1000 + (i as u32) * 4),
                target,
                BranchKind::IndirectJump,
                cycle,
            );
            r.context_id = if (i / 40) % 3 == 0 { 7 } else { 9 };
            r
        })
        .collect()
}

fn clean_trace() -> TimedTrace {
    let mut cfg = PtmConfig::rtad();
    cfg.fifo_bytes = 4096;
    StreamEncoder::new(cfg).encode_run(&run(1_500))
}

/// `bytes` arriving four per `cycles_per_word` MLPU cycles (8 ns): at
/// one, as the 32-bit port delivers them back to back; at 16 and more,
/// so every burst finds the P2S idle.
fn at_port_rate(bytes: &[u8], cycles_per_word: u64) -> TimedTrace {
    TimedTrace {
        bytes: bytes
            .iter()
            .enumerate()
            .map(|(i, &byte)| TimedByte {
                at: Picos::from_nanos((i as u64 / 4 + 1) * 8 * cycles_per_word),
                byte,
            })
            .collect(),
        packet_times: Vec::new(),
        stats: Default::default(),
    }
}

fn configs() -> Vec<(String, IgmConfig)> {
    let mut out = Vec::new();
    for (fname, base) in [
        ("token", IgmConfig::token_stream(&targets())),
        ("hist", IgmConfig::histogram(&targets(), 16)),
    ] {
        for ctx in [None, Some(7)] {
            for depth in [1, 2, 3, 16] {
                let mut c = base.clone();
                c.p2s_depth = depth;
                c.context_filter = ctx;
                out.push((format!("{fname}/ctx{ctx:?}/d{depth}"), c));
            }
        }
    }
    out
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// `[accepted, filtered, decode errors, P2S drops]`, where `filtered`
/// counts every decoded address the context filter or the mapper
/// rejected.
fn counts(out: &IgmOutput) -> [u64; 4] {
    let s = &out.stats;
    [s.accepted, s.filtered, s.decode_errors, s.p2s_dropped]
}

fn digest(config: &IgmConfig, trace: &TimedTrace) -> u64 {
    let out = Igm::new(config.clone()).process_trace(trace);
    let mut h = fnv(FNV_OFFSET, &(out.vectors.len() as u64).to_le_bytes());
    for v in &out.vectors {
        h = fnv(h, &v.at.as_picos().to_le_bytes());
        h = fnv(h, &v.target.raw().to_le_bytes());
        h = fnv(h, &v.context_id.to_le_bytes());
        match &v.payload {
            VectorPayload::Token(t) => h = fnv(h, &t.to_le_bytes()),
            VectorPayload::Dense(d) => {
                for x in d {
                    h = fnv(h, &x.to_bits().to_le_bytes());
                }
            }
        }
    }
    for c in counts(&out) {
        h = fnv(h, &c.to_le_bytes());
    }
    h
}

/// Damaged streams in the grid.
const HOSTILE: u64 = 6;

/// Damaged stream `k` of the clean bytes `raw`, at port rate: all kinds
/// of damage for `k` < 2, one kind each after.
fn hostile(raw: &[u8], k: u64) -> TimedTrace {
    let kinds = if k < 2 {
        Damage::ALL.to_vec()
    } else {
        vec![Damage::ALL[k as usize % Damage::ALL.len()]]
    };
    at_port_rate(&damage(raw, TraceId::PTM, 0x1D16_E570 + k, &kinds), 1)
}

fn all_digests() -> Vec<(String, u64)> {
    let clean = clean_trace();
    let mut truncated = clean.clone();
    truncated.bytes.truncate(clean.bytes.len() * 2 / 3 + 5);
    let raw: Vec<u8> = clean.bytes.iter().map(|tb| tb.byte).collect();
    let idle = at_port_rate(&raw, 16);

    let mut out = Vec::new();
    for (name, config) in configs() {
        out.push((format!("clean/{name}"), digest(&config, &clean)));
        out.push((format!("cut/{name}"), digest(&config, &truncated)));
        out.push((format!("idle/{name}"), digest(&config, &idle)));
    }
    for k in 0..HOSTILE {
        let hostile = hostile(&raw, k);
        for (name, config) in configs().into_iter().step_by(3) {
            out.push((format!("hostile{k}/{name}"), digest(&config, &hostile)));
        }
    }
    out
}

/// Recorded from the timed path before it was rebuilt on the decode
/// core, when the P2S was a simulated FIFO fed by its own TA loop.
const PINS: [(&str, u64); 84] = [
    ("clean/token/ctxNone/d1", 0xd46c4ea60eb6d727),
    ("cut/token/ctxNone/d1", 0xed50cce32dc0aaa5),
    ("idle/token/ctxNone/d1", 0xb003b80753b22e6b),
    ("clean/token/ctxNone/d2", 0xaa95b01a70d860a6),
    ("cut/token/ctxNone/d2", 0x9f9feb5a1b662811),
    ("idle/token/ctxNone/d2", 0x60fa4780d351f3df),
    ("clean/token/ctxNone/d3", 0x61a57289d312961f),
    ("cut/token/ctxNone/d3", 0x952b863333bf354e),
    ("idle/token/ctxNone/d3", 0x1c26e902fa8e60b2),
    ("clean/token/ctxNone/d16", 0x1202552864c353e5),
    ("cut/token/ctxNone/d16", 0x5a31a7e1a316856e),
    ("idle/token/ctxNone/d16", 0xd95249ca7ca8628c),
    ("clean/token/ctxSome(7)/d1", 0x20551fa1c6837a9f),
    ("cut/token/ctxSome(7)/d1", 0x2bf7dece17b1b83c),
    ("idle/token/ctxSome(7)/d1", 0x14fc73f7146f07df),
    ("clean/token/ctxSome(7)/d2", 0x6a5b870930db7b5a),
    ("cut/token/ctxSome(7)/d2", 0xccc1db86589cb5ae),
    ("idle/token/ctxSome(7)/d2", 0x0c94e992efe4c374),
    ("clean/token/ctxSome(7)/d3", 0xd59d4dcb3683fc80),
    ("cut/token/ctxSome(7)/d3", 0x19a8ced752aace82),
    ("idle/token/ctxSome(7)/d3", 0xd8a7a91c92f95c65),
    ("clean/token/ctxSome(7)/d16", 0x59f34231c0622fed),
    ("cut/token/ctxSome(7)/d16", 0x6feeb3960dd5c502),
    ("idle/token/ctxSome(7)/d16", 0xafbc675fd58bb3b2),
    ("clean/hist/ctxNone/d1", 0x6a5e0a8de2fa86ee),
    ("cut/hist/ctxNone/d1", 0x324598df447df6d3),
    ("idle/hist/ctxNone/d1", 0x33fb3623e54b01ea),
    ("clean/hist/ctxNone/d2", 0x9d1f1b7f971a6f53),
    ("cut/hist/ctxNone/d2", 0xdddbecb76697fab3),
    ("idle/hist/ctxNone/d2", 0x7494f0aaab9f2c22),
    ("clean/hist/ctxNone/d3", 0x9e928b7553dc4b58),
    ("cut/hist/ctxNone/d3", 0x0e91db42fa50aa7a),
    ("idle/hist/ctxNone/d3", 0x515769de6580b1fd),
    ("clean/hist/ctxNone/d16", 0x4ff7ecbc39096832),
    ("cut/hist/ctxNone/d16", 0xa1e36fda833ac5d5),
    ("idle/hist/ctxNone/d16", 0xfce36b8a7b95bddf),
    ("clean/hist/ctxSome(7)/d1", 0x8d79ed8df2e96ccf),
    ("cut/hist/ctxSome(7)/d1", 0x1a0d99761ab78137),
    ("idle/hist/ctxSome(7)/d1", 0x0e42b25c97727e53),
    ("clean/hist/ctxSome(7)/d2", 0x0b9129689255b2e3),
    ("cut/hist/ctxSome(7)/d2", 0x545962f6e0252372),
    ("idle/hist/ctxSome(7)/d2", 0xf30577fa3fe8021d),
    ("clean/hist/ctxSome(7)/d3", 0x1987fdae147db5de),
    ("cut/hist/ctxSome(7)/d3", 0x142ca404483d58c3),
    ("idle/hist/ctxSome(7)/d3", 0xf5683f08610437d7),
    ("clean/hist/ctxSome(7)/d16", 0x654df4a1eabb4156),
    ("cut/hist/ctxSome(7)/d16", 0x4e898038c2a614ad),
    ("idle/hist/ctxSome(7)/d16", 0x01e5e1f49b882ca5),
    ("hostile0/token/ctxNone/d1", 0x09142020031c3857),
    ("hostile0/token/ctxNone/d16", 0xc0bdac7119162b33),
    ("hostile0/token/ctxSome(7)/d3", 0xf9e852f6a5a3552f),
    ("hostile0/hist/ctxNone/d2", 0x2e20d4af197664fe),
    ("hostile0/hist/ctxSome(7)/d1", 0x1814821ada5b3a45),
    ("hostile0/hist/ctxSome(7)/d16", 0xb5d418bc8aaf7b9d),
    // Re-pinned when the IGM began serving one trace source: a
    // damaged frame of this stream announces a non-null foreign ID,
    // whose bytes the PTM decoder used to receive (see
    // `only_the_foreign_id_stream_skips_bytes`).
    ("hostile1/token/ctxNone/d1", 0xb8144b3aacdb2aec),
    ("hostile1/token/ctxNone/d16", 0x08776a7fa0f52a42),
    ("hostile1/token/ctxSome(7)/d3", 0x9119713e8280dd4a),
    ("hostile1/hist/ctxNone/d2", 0xffe8238e36a7f9ab),
    ("hostile1/hist/ctxSome(7)/d1", 0x40617b3dd1786198),
    ("hostile1/hist/ctxSome(7)/d16", 0xebdfdf392e541a36),
    ("hostile2/token/ctxNone/d1", 0x35a3f46ae835238f),
    ("hostile2/token/ctxNone/d16", 0xdc35667cf12fe879),
    ("hostile2/token/ctxSome(7)/d3", 0x5c9cbfb4b586899f),
    ("hostile2/hist/ctxNone/d2", 0x6efc24ab395ca2bc),
    ("hostile2/hist/ctxSome(7)/d1", 0x0792fcc9d347925e),
    ("hostile2/hist/ctxSome(7)/d16", 0xf1ebe0e0c41fe19a),
    ("hostile3/token/ctxNone/d1", 0xbad660ff8b7faf9f),
    ("hostile3/token/ctxNone/d16", 0x2662ada962c42eee),
    ("hostile3/token/ctxSome(7)/d3", 0xffb79f59f56386df),
    ("hostile3/hist/ctxNone/d2", 0xbfcbec954e67e97d),
    ("hostile3/hist/ctxSome(7)/d1", 0x88510a7ee5841f14),
    ("hostile3/hist/ctxSome(7)/d16", 0xcb4526e7fa7a98fc),
    ("hostile4/token/ctxNone/d1", 0xcc014bbf03777b90),
    ("hostile4/token/ctxNone/d16", 0x1ebdaf07eb77657b),
    ("hostile4/token/ctxSome(7)/d3", 0x7709cb34069e9a2c),
    ("hostile4/hist/ctxNone/d2", 0x72499ae20bec8f8d),
    ("hostile4/hist/ctxSome(7)/d1", 0x411b04c59805ee2a),
    ("hostile4/hist/ctxSome(7)/d16", 0x143d53a025348928),
    ("hostile5/token/ctxNone/d1", 0xae282f191c4ba123),
    ("hostile5/token/ctxNone/d16", 0x37b5744c0326ec9e),
    ("hostile5/token/ctxSome(7)/d3", 0xebf118314972cf95),
    ("hostile5/hist/ctxNone/d2", 0xf80c97080714c874),
    ("hostile5/hist/ctxSome(7)/d1", 0x2612709fb3ff3055),
    ("hostile5/hist/ctxSome(7)/d16", 0x365b6347671ac5d1),
];

#[test]
fn timed_path_matches_its_pins() {
    let got = all_digests();
    let want: Vec<(String, u64)> = PINS.iter().map(|&(n, d)| (n.to_string(), d)).collect();
    let moved: Vec<_> = got
        .iter()
        .zip(&want)
        .filter(|(g, w)| g != w)
        .map(|(g, _)| format!("(\"{}\", {:#018x}),", g.0, g.1))
        .collect();
    assert_eq!(got.len(), want.len());
    assert!(moved.is_empty(), "moved digests:\n{}", moved.join("\n"));
}

/// The one damaged stream whose digests moved when the IGM began
/// serving one trace source is the one whose damage announces another
/// source.
#[test]
fn only_the_foreign_id_stream_skips_bytes() {
    let raw: Vec<u8> = clean_trace().bytes.iter().map(|tb| tb.byte).collect();
    let config = IgmConfig::token_stream(&targets());
    let foreign: Vec<bool> = (0..HOSTILE)
        .map(|k| {
            Igm::new(config.clone())
                .process_trace(&hostile(&raw, k))
                .stats
                .foreign_bytes
                > 0
        })
        .collect();
    assert_eq!(foreign, [false, true, false, false, false, false]);
}
