//! Property tests for the PTM codec and TPIU framing.
//!
//! Invariant under test: anything the encoder can produce, the decoder
//! recovers exactly — over arbitrary packet sequences, arbitrary source
//! interleavings and arbitrary branch runs through the full pipeline.
//!
//! On hostile input the decoder's exact output is pinned instead: every
//! packet and error it reports on seeded damaged streams folds into a
//! recorded digest ([`HOSTILE_PINS`]).

use proptest::prelude::*;

use rtad_trace::hostile::{damage, Damage};
use rtad_trace::ptm::{Decoded, Packet, PacketDecoder, PacketEncoder};
use rtad_trace::tpiu::{TpiuDeframer, TpiuFormatter, FRAME_BYTES};
use rtad_trace::{BranchKind, BranchRecord, IsetMode, PtmConfig, StreamEncoder, TraceId, VirtAddr};

/// A seeded branch run that exercises every branch-packet length: near
/// targets (1–2 bytes), far targets (3–5 bytes), mode switches,
/// syscalls (exception packets) and context switches.
fn seeded_run(seed: u64, len: usize) -> Vec<BranchRecord> {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut here = 0x0001_0000u32;
    (0..len)
        .map(|i| {
            let r = next();
            here = match r % 8 {
                0..=4 => here.wrapping_add(((r >> 8) as u32 % 64) * 4),
                5 => here ^ (((r >> 8) as u32 % 0x4000) << 2),
                _ => (r >> 16) as u32 & !3,
            };
            let kind = match (r >> 40) % 16 {
                0 => BranchKind::Syscall,
                1 => BranchKind::Return,
                2 => BranchKind::Call,
                _ => BranchKind::IndirectJump,
            };
            let mut rec = BranchRecord::new(
                VirtAddr::new(0x1000 + (i as u32) * 4),
                VirtAddr::new(here),
                kind,
                i as u64 * 40,
            );
            if (r >> 48) % 32 == 0 {
                rec.mode = IsetMode::Thumb;
            }
            rec.context_id = ((i / 300) % 3) as u32;
            rec
        })
        .collect()
}

fn clean_stream(seed: u64, len: usize) -> Vec<u8> {
    let mut cfg = PtmConfig::rtad();
    cfg.fifo_bytes = 4096;
    StreamEncoder::new(cfg)
        .encode_run(&seeded_run(seed, len))
        .bytes
        .iter()
        .map(|tb| tb.byte)
        .collect()
}

/// The damage each pinned stream carries: all kinds together, then each
/// kind alone.
fn pinned_damage(k: usize) -> Vec<Damage> {
    match k {
        0..=7 => Damage::ALL.to_vec(),
        _ => vec![Damage::ALL[(k - 8) % Damage::ALL.len()]],
    }
}

fn hostile_stream(k: usize) -> Vec<u8> {
    let id = PtmConfig::rtad().trace_id;
    let seed = 0x4057_11E0 + k as u64;
    damage(&clean_stream(seed, 1500), id, seed, &pinned_damage(k))
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// What byte-wise decode makes of one stream: whole frames deframe
/// (a rejected frame is dropped, as the IGM drops it), and every
/// surviving byte is fed to the packet decoder. The digest folds every
/// deframe error, packet and decode error in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Transcript {
    digest: u64,
    bytes_consumed: u64,
    packets_decoded: u64,
    decode_errors: u64,
}

fn transcript(bytes: &[u8]) -> Transcript {
    let mut deframer = TpiuDeframer::new();
    let mut decoder = PacketDecoder::new();
    let mut digest = FNV_OFFSET;
    let mut decode_errors = 0;
    for frame in bytes.chunks_exact(FRAME_BYTES) {
        let frame: &[u8; FRAME_BYTES] = frame.try_into().expect("frame-sized");
        let payload = match deframer.feed_frame(frame) {
            Ok(payload) => payload,
            Err(e) => {
                digest = fnv(digest, format!("F{e:?}").as_bytes());
                continue;
            }
        };
        for (_, byte) in payload {
            match decoder.feed(byte) {
                Ok(Some(p)) => digest = fnv(digest, format!("{p:?}").as_bytes()),
                Ok(None) => {}
                Err(e) => {
                    decode_errors += 1;
                    digest = fnv(digest, format!("E{e:?}").as_bytes());
                }
            }
        }
    }
    Transcript {
        digest,
        bytes_consumed: decoder.bytes_consumed(),
        packets_decoded: decoder.packets_decoded(),
        decode_errors,
    }
}

/// `(digest, bytes_consumed, packets_decoded, decode_errors)` of
/// [`transcript`] over `hostile_stream(k)`, recorded from the byte-wise
/// decoder before it gained a slice entry point.
const HOSTILE_PINS: [(u64, u64, u64, u64); 13] = [
    (0x9651_627b_f5bb_3972, 3110, 1042, 27),
    (0x1628_c0cc_dac1_d888, 2556, 858, 14),
    (0xfa6f_83be_daea_b017, 2536, 829, 27),
    (0x463a_753a_f410_a504, 2442, 848, 68),
    (0xa816_45af_ca8b_3748, 3106, 1013, 3),
    (0xdd57_dafa_92d3_5bc9, 3950, 1297, 3),
    (0x63b0_e5cd_969c_08ea, 3474, 1138, 28),
    (0xd028_7f17_d544_433e, 3437, 1194, 81),
    (0x6c27_a118_9669_a8a9, 4414, 1450, 6),
    (0x60e8_0dbc_3e72_cc1c, 4926, 1638, 40),
    (0xbb62_4117_abbc_41d2, 4634, 1509, 2),
    (0x095d_c3ef_a20e_89d9, 4629, 1516, 1),
    (0xfe9d_bc23_f03e_0cec, 2927, 949, 0),
];

#[test]
fn hostile_streams_decode_as_pinned() {
    let got: Vec<(u64, u64, u64, u64)> = (0..HOSTILE_PINS.len())
        .map(|k| {
            let t = transcript(&hostile_stream(k));
            (
                t.digest,
                t.bytes_consumed,
                t.packets_decoded,
                t.decode_errors,
            )
        })
        .collect();
    for (k, (g, want)) in got.iter().zip(&HOSTILE_PINS).enumerate() {
        assert_eq!(
            g,
            want,
            "hostile stream {k} ({:?}); all: {got:#x?}",
            pinned_damage(k)
        );
    }
}

fn arb_mode() -> impl Strategy<Value = IsetMode> {
    prop_oneof![Just(IsetMode::Arm), Just(IsetMode::Thumb)]
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    prop_oneof![
        Just(Packet::Async),
        (any::<u32>(), arb_mode(), any::<u32>()).prop_map(|(a, m, c)| Packet::Isync {
            // Addresses are halfword-aligned code locations.
            addr: VirtAddr::new(a & !1),
            mode: m,
            context_id: c,
        }),
        (any::<u32>(), arb_mode(), proptest::option::of(0u8..=0x7F)).prop_map(|(a, m, e)| {
            Packet::BranchAddress {
                target: VirtAddr::new(a & !1),
                mode: m,
                exception: e,
            }
        }),
        (1u8..=31, any::<bool>()).prop_map(|(e, n)| Packet::Atom {
            e_count: e,
            n_atom: n
        }),
        any::<u32>().prop_map(Packet::ContextId),
        any::<u64>().prop_map(Packet::Timestamp),
        Just(Packet::Overflow),
        Just(Packet::Ignore),
    ]
}

fn arb_branch_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::DirectJump),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::IndirectJump),
        Just(BranchKind::Syscall),
        Just(BranchKind::ExceptionReturn),
    ]
}

/// The PTM bytes of a hostile stream: whole frames deframed, rejected
/// frames dropped.
fn hostile_payload(k: usize) -> Vec<u8> {
    let mut deframer = TpiuDeframer::new();
    let mut out = Vec::new();
    for frame in hostile_stream(k).chunks_exact(FRAME_BYTES) {
        let frame: &[u8; FRAME_BYTES] = frame.try_into().expect("frame-sized");
        let mut data = [0; FRAME_BYTES - 1];
        if let Ok(n) = deframer.feed_frame_bytes(frame, &mut data) {
            out.extend_from_slice(&data[..n]);
        }
    }
    out
}

/// Events, `bytes_consumed` and `packets_decoded` of `feed_slice` over
/// `bytes` cut at `cuts`, with offsets made absolute.
fn slice_events(bytes: &[u8], cuts: &[usize]) -> (Vec<(usize, Decoded)>, u64, u64) {
    let mut cuts: Vec<usize> = cuts.iter().map(|&c| c % (bytes.len() + 1)).collect();
    cuts.push(0);
    cuts.push(bytes.len());
    cuts.sort_unstable();
    let mut dec = PacketDecoder::new();
    let mut events = Vec::new();
    for w in cuts.windows(2) {
        dec.feed_slice(&bytes[w[0]..w[1]], |at, d| events.push((w[0] + at, d)));
    }
    (events, dec.bytes_consumed(), dec.packets_decoded())
}

/// The same as [`slice_events`], from byte-wise `feed`.
fn bytewise_events(bytes: &[u8]) -> (Vec<(usize, Decoded)>, u64, u64) {
    let mut dec = PacketDecoder::new();
    let mut events = Vec::new();
    for (at, &b) in bytes.iter().enumerate() {
        match dec.feed(b) {
            Ok(Some(Packet::BranchAddress {
                target,
                mode,
                exception,
            })) => events.push((
                at,
                Decoded::Branch {
                    target,
                    mode,
                    exception,
                },
            )),
            Ok(Some(Packet::Isync { context_id, .. } | Packet::ContextId(context_id))) => {
                events.push((at, Decoded::Context(context_id)));
            }
            Ok(_) => {}
            Err(e) => events.push((at, Decoded::Error(e))),
        }
    }
    (events, dec.bytes_consumed(), dec.packets_decoded())
}

proptest! {
    /// `feed_slice` is split-invariant: any cut of a hostile stream's
    /// bytes into bursts reports the same events and counters as one
    /// whole-slice call, and both agree with byte-wise `feed`.
    #[test]
    fn feed_slice_is_split_invariant_on_hostile_streams(
        k in 0usize..HOSTILE_PINS.len(),
        cuts in proptest::collection::vec(any::<usize>(), 0..64),
    ) {
        let bytes = hostile_payload(k);
        let whole = slice_events(&bytes, &[]);
        prop_assert!(whole.0.iter().any(|e| matches!(e.1, Decoded::Error(_))) || k >= 8);
        prop_assert_eq!(&slice_events(&bytes, &cuts), &whole);
        prop_assert_eq!(&bytewise_events(&bytes), &whole);
    }

    /// The same on arbitrary bytes, which reach every state and error.
    #[test]
    fn feed_slice_is_split_invariant_on_random_bytes(
        bytes in proptest::collection::vec(any::<u8>(), 0..400),
        cuts in proptest::collection::vec(any::<usize>(), 0..32),
    ) {
        let whole = slice_events(&bytes, &[]);
        prop_assert_eq!(&slice_events(&bytes, &cuts), &whole);
        prop_assert_eq!(&bytewise_events(&bytes), &whole);
    }
}

proptest! {
    /// Any packet sequence survives an encode/decode round trip.
    #[test]
    fn packet_stream_roundtrips(packets in proptest::collection::vec(arb_packet(), 0..200)) {
        let mut enc = PacketEncoder::new();
        let mut bytes = Vec::new();
        for p in &packets {
            bytes.extend(enc.encode(p));
        }
        let mut dec = PacketDecoder::new();
        let mut decoded = Vec::new();
        for b in bytes {
            if let Some(p) = dec.feed(b).expect("valid encodings must decode") {
                decoded.push(p);
            }
        }
        prop_assert_eq!(decoded, packets);
        prop_assert!(dec.at_packet_boundary());
    }

    /// Any (source, byte) interleaving survives TPIU framing.
    #[test]
    fn tpiu_roundtrips(
        stream in proptest::collection::vec((1u8..=0x6F, any::<u8>()), 0..300)
    ) {
        let input: Vec<(TraceId, u8)> = stream
            .into_iter()
            .map(|(id, b)| (TraceId::new(id).expect("range is valid"), b))
            .collect();
        let mut f = TpiuFormatter::new();
        for &(id, b) in &input {
            f.push(id, b);
        }
        let mut d = TpiuDeframer::new();
        let mut out = Vec::new();
        for frame in f.flush() {
            out.extend(d.feed_frame(&frame).expect("own frames must deframe"));
        }
        prop_assert_eq!(out, input);
    }

    /// The full PTM pipeline (packetize -> FIFO -> TPIU) delivers every
    /// non-overflowed packet, bytes in non-decreasing time order.
    #[test]
    fn full_pipeline_roundtrips(
        targets in proptest::collection::vec((any::<u32>(), arb_branch_kind(), 1u64..500), 1..300)
    ) {
        let mut cycle = 0u64;
        let run: Vec<BranchRecord> = targets
            .into_iter()
            .enumerate()
            .map(|(i, (t, k, gap))| {
                cycle += gap;
                BranchRecord::new(
                    VirtAddr::new(0x1000 + (i as u32) * 4),
                    VirtAddr::new(t & !1),
                    k,
                    cycle,
                )
            })
            .collect();

        let mut cfg = PtmConfig::rtad();
        cfg.fifo_bytes = 4096; // generous: this property is about integrity
        let mut enc = StreamEncoder::new(cfg);
        let trace = enc.encode_run(&run);
        prop_assert_eq!(trace.stats.overflow_packets, 0);

        prop_assert!(trace.bytes.windows(2).all(|w| w[0].at <= w[1].at));

        let mut deframer = TpiuDeframer::new();
        let mut decoder = PacketDecoder::new();
        let mut decoded = Vec::new();
        let raw: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();
        prop_assert_eq!(raw.len() % FRAME_BYTES, 0);
        for frame in raw.chunks_exact(FRAME_BYTES) {
            let mut f = [0u8; FRAME_BYTES];
            f.copy_from_slice(frame);
            for (_, byte) in deframer.feed_frame(&f).expect("deframe") {
                if let Some(p) = decoder.feed(byte).expect("decode") {
                    decoded.push(p);
                }
            }
        }
        let sent: Vec<Packet> = trace.packet_times.iter().map(|&(_, p)| p).collect();
        prop_assert_eq!(decoded, sent);
    }

    /// Branch-address compression never exceeds 5 bytes (+1 exception)
    /// and single-byte encodings imply nearby targets.
    #[test]
    fn branch_encoding_length_bounds(addrs in proptest::collection::vec(any::<u32>(), 1..100)) {
        let mut enc = PacketEncoder::new();
        enc.encode(&Packet::Async);
        for a in addrs {
            let bytes = enc.encode(&Packet::branch(VirtAddr::new(a & !1), IsetMode::Arm));
            prop_assert!((1..=5).contains(&bytes.len()));
        }
    }
}
