//! The Trace Analyzer: four byte-lane TA units decoding PTM packets.
//!
//! "The main submodule in IGM is the trace analyzer (TA) that receives
//! the trace stream through a 32-bit port and decodes it to extract
//! branch target addresses. Because the trace stream is constructed of
//! multiple packets of one or more bytes of data, decoding for each
//! packet must be done sequentially in bytes. TA has four TA units
//! responsible for each byte decoding." (§III-A)
//!
//! In RTL the four units form a combinational chain so a whole 32-bit
//! word decodes in one cycle. The decode itself is the IGM's one decode
//! core ([`crate::streaming`]), which hands each frame's data to the
//! reference decoder of [`rtad_trace::ptm`] as one burst; the byte at
//! which a packet completes names the word, and the unit, that completed
//! it. What is the TA's own is its Table I area and its timing: one MLPU
//! cycle per word.

use rtad_sim::{AreaEstimate, ClockDomain, Picos};

/// The four-unit Trace Analyzer's timing and area.
#[derive(Debug, Clone)]
pub struct TraceAnalyzer {
    clock: ClockDomain,
}

impl TraceAnalyzer {
    /// Creates a TA clocked in the given (MLPU) domain.
    pub fn new(clock: ClockDomain) -> Self {
        TraceAnalyzer { clock }
    }

    /// Table I synthesis result for the Trace Analyzer.
    pub fn area() -> AreaEstimate {
        AreaEstimate::new(11_962, 350, 0, 12_375)
    }

    /// When the addresses of word `word` of a frame's burst leave the
    /// TA. The burst's words decode on consecutive MLPU cycles from the
    /// first clock edge at or after `frame_at`, the arrival of the
    /// frame's last byte, and an address is available at the end of its
    /// word's cycle.
    pub fn word_done(&self, frame_at: Picos, word: usize) -> Picos {
        self.clock.next_edge_at_or_after(frame_at) + self.clock.cycles_to_picos(word as u64 + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Igm, IgmConfig, TimedVector};
    use rtad_trace::ptm::{Packet, PacketDecoder, PacketEncoder};
    use rtad_trace::stream::{TimedByte, TimedTrace};
    use rtad_trace::tpiu::{TpiuDeframer, TpiuFormatter, FRAME_BYTES};
    use rtad_trace::{IsetMode, TraceId, VirtAddr};

    fn frames_for(packets: &[Packet]) -> Vec<[u8; FRAME_BYTES]> {
        let mut enc = PacketEncoder::new();
        let mut fmt = TpiuFormatter::new();
        for p in packets {
            fmt.push_slice(TraceId::PTM, &enc.encode(p));
        }
        fmt.flush()
    }

    /// `frames` as a trace whose frame `j` arrives (last byte) at
    /// `arrival(j)`.
    fn timed(frames: &[[u8; FRAME_BYTES]], arrival: impl Fn(usize) -> Picos) -> TimedTrace {
        TimedTrace {
            bytes: frames
                .iter()
                .enumerate()
                .flat_map(|(j, f)| f.iter().map(move |&byte| (j, byte)))
                .map(|(j, byte)| TimedByte {
                    at: arrival(j),
                    byte,
                })
                .collect(),
            packet_times: Vec::new(),
            stats: Default::default(),
        }
    }

    /// An IGM that accepts every target in `targets`.
    fn accept_all(targets: impl IntoIterator<Item = VirtAddr>) -> Igm {
        let table = targets.into_iter().map(|a| (a, 0)).collect();
        Igm::new(IgmConfig::token_stream_table(table))
    }

    #[test]
    fn extracts_branch_addresses_only() {
        let packets = vec![
            Packet::Async,
            Packet::Isync {
                addr: VirtAddr::new(0x1000),
                mode: IsetMode::Arm,
                context_id: 9,
            },
            Packet::branch(VirtAddr::new(0x1040), IsetMode::Arm),
            Packet::Atom {
                e_count: 3,
                n_atom: false,
            },
            Packet::branch(VirtAddr::new(0x1080), IsetMode::Arm),
        ];
        let trace = timed(&frames_for(&packets), |_| Picos::ZERO);
        let mut igm = accept_all([0x1000, 0x1040, 0x1080].map(VirtAddr::new));
        let out = igm.process_trace(&trace);
        let got: Vec<_> = out.vectors.iter().map(|v| v.target).collect();
        assert_eq!(got, [VirtAddr::new(0x1040), VirtAddr::new(0x1080)]);
        assert!(out.vectors.iter().all(|v| v.context_id == 9));
        assert_eq!(out.stats.addresses, 2);
    }

    #[test]
    fn words_decode_on_consecutive_cycles() {
        // 64 single-byte near branches => many words, 4 addresses each.
        let mut packets = vec![Packet::Async];
        packets.extend((0..64).map(|_| Packet::branch(VirtAddr::new(0x40), IsetMode::Arm)));
        let frames = frames_for(&packets);
        let clock = ClockDomain::rtad_mlpu();
        let period = clock.freq().period();
        // Frames far apart: every burst starts on an idle P2S.
        let arrival = |j: usize| Picos::from_micros(j as u64);
        let mut igm = accept_all([VirtAddr::new(0x40)]);
        let out = igm.process_trace(&timed(&frames, arrival));
        assert_eq!(out.vectors.len(), 64);
        // Within a burst the serialized vectors leave one cycle apart,
        // although up to four complete in one TA cycle.
        let burst: Vec<&TimedVector> = out
            .vectors
            .iter()
            .filter(|v| v.at > arrival(1) && v.at < arrival(2))
            .collect();
        assert!(burst.len() > 4, "a frame of one-byte packets");
        assert!(burst.windows(2).all(|w| w[1].at == w[0].at + period));
    }

    /// Every vector leaves where a byte-wise reference decode of the
    /// same bytes places it: its packet completes in some TA unit (the
    /// byte's lane) of some word; that word leaves the TA one cycle
    /// after it starts; the burst's survivors leave the P2S one per
    /// cycle from the later of the port's next free slot and the TA
    /// time of the burst's first address; and the IVG adds two cycles.
    #[test]
    fn units_and_word_times_follow_the_completing_byte() {
        // Targets scattered so packets of every length end in every lane.
        let mut packets = vec![Packet::Async];
        packets.extend((0..300u32).map(|k| {
            let spread = [0x40, 0x4000, 0x40_0000, 0x4000_0000][k as usize % 4];
            Packet::branch(
                VirtAddr::new((k.wrapping_mul(0x9E37_79B9) % spread) & !1),
                IsetMode::Arm,
            )
        }));
        let frames = frames_for(&packets);

        let clock = ClockDomain::rtad_mlpu();
        let period = clock.freq().period();
        // Frames closer than their bursts drain, so the P2S queues.
        let arrival = |j: usize| clock.cycles_to_picos(3 * j as u64);

        // Reference: the deframed bytes, decoded one at a time. Byte `k`
        // sits in word `k / 4`, which the frame that completes it
        // decodes `k / 4 - (words before that frame)` cycles after its
        // arrival edge.
        let mut deframer = TpiuDeframer::new();
        let mut bytes = Vec::new();
        let mut words_before = Vec::new();
        for f in &frames {
            words_before.push(bytes.len() / 4);
            let mut data = [0; FRAME_BYTES - 1];
            let n = deframer.feed_frame_bytes(f, &mut data).unwrap().ptm;
            bytes.extend_from_slice(&data[..n]);
        }
        words_before.push(bytes.len() / 4);
        let last_byte = arrival(frames.len() - 1);
        let mut dec = PacketDecoder::new();
        let mut completions = Vec::new();
        for (k, &b) in bytes.iter().enumerate() {
            let Some(Packet::BranchAddress { target, .. }) = dec.feed(b).unwrap() else {
                continue;
            };
            let word = k / 4;
            // A straggler word decodes at end of trace as a burst of its
            // own, one cycle after the last byte's edge.
            let (burst, ta) = match words_before.iter().rposition(|&w| w <= word) {
                Some(j) if j < frames.len() => {
                    let start = clock.next_edge_at_or_after(arrival(j));
                    (
                        j,
                        start + clock.cycles_to_picos((word - words_before[j]) as u64 + 1),
                    )
                }
                _ => (
                    frames.len(),
                    clock.next_edge_at_or_after(last_byte) + period,
                ),
            };
            completions.push((target, (k % 4) as u8, burst, ta));
        }
        assert!(
            (0..4).all(|u| completions.iter().any(|c| c.1 == u)),
            "every lane completes packets"
        );
        let (mut next_free, mut want) = (Picos::ZERO, Vec::new());
        for (i, &(target, _, burst, ta)) in completions.iter().enumerate() {
            let departure = if i == 0 || completions[i - 1].2 != burst {
                clock.next_edge_at_or_after(next_free.max(ta))
            } else {
                next_free
            };
            next_free = departure + period;
            want.push((target, departure + clock.cycles_to_picos(2)));
        }

        let mut igm = accept_all(completions.iter().map(|c| c.0));
        let out = igm.process_trace(&timed(&frames, arrival));
        let got: Vec<_> = out.vectors.iter().map(|v| (v.target, v.at)).collect();
        assert_eq!(got, want);
        assert!(
            want.iter()
                .zip(&completions)
                .any(|(w, c)| w.1 > c.3 + clock.cycles_to_picos(2)),
            "some vectors queue in the P2S"
        );
    }

    #[test]
    fn decode_errors_are_counted_not_fatal() {
        let mut fmt = TpiuFormatter::new();
        // Garbage byte (invalid header 0x02), then a clean A-sync.
        fmt.push(TraceId::PTM, 0x02);
        fmt.push_slice(TraceId::PTM, &[0, 0, 0, 0, 0, 0x80]);
        let trace = timed(&fmt.flush(), |_| Picos::ZERO);
        let out = accept_all([VirtAddr::new(4)]).process_trace(&trace);
        assert_eq!(out.stats.decode_errors, 1);
        assert_eq!(out.stats.packets, 1); // the A-sync
    }

    #[test]
    fn word_done_counts_cycles_from_the_arrival_edge() {
        let ta = TraceAnalyzer::new(ClockDomain::rtad_mlpu());
        // 125 MHz: edges every 8 ns; a frame at 9 ns starts at 16 ns.
        assert_eq!(ta.word_done(Picos::from_nanos(9), 0), Picos::from_nanos(24));
        assert_eq!(
            ta.word_done(Picos::from_nanos(16), 2),
            Picos::from_nanos(40)
        );
    }

    #[test]
    fn area_matches_table_i() {
        let a = TraceAnalyzer::area();
        assert_eq!(a.luts, 11_962);
        assert_eq!(a.ffs, 350);
        assert_eq!(a.gates, 12_375);
    }
}
