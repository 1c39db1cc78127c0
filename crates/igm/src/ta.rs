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
//! word decodes in one cycle. Here each word goes to the reference
//! decoder of [`rtad_trace::ptm`] as one burst
//! ([`PacketDecoder::feed_slice`]); the byte offset at which a packet
//! completes names the unit that completed it, and the analyzer accounts
//! one MLPU cycle per word. The packet state machine is the *same* one
//! the serving path and the byte-wise reference use, which is exactly
//! the verification story the design needs: hardware TA output ≡
//! reference decode.

use rtad_sim::{AreaEstimate, ClockDomain, Picos};
use rtad_trace::ptm::{DecodeError, Decoded, PacketDecoder};
use rtad_trace::tpiu::{DeframeError, TpiuDeframer, FRAME_BYTES};
use rtad_trace::{IsetMode, VirtAddr};

/// A branch target address extracted by the TA, with decode metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddress {
    /// The branch target.
    pub target: VirtAddr,
    /// Instruction-set state at the target.
    pub mode: IsetMode,
    /// Exception number, if the branch entered an exception (syscalls).
    pub exception: Option<u8>,
    /// Process context the branch belongs to.
    pub context_id: u32,
    /// MLPU-clock time at which the address left the TA.
    pub at: Picos,
    /// Which of the four TA units completed the packet (0..=3).
    pub unit: u8,
}

/// Cumulative TA statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TaStats {
    /// 32-bit words consumed.
    pub words: u64,
    /// Bytes consumed.
    pub bytes: u64,
    /// Packets completed.
    pub packets: u64,
    /// Branch addresses extracted.
    pub addresses: u64,
    /// Decode errors encountered (stream resynchronizes on A-sync).
    pub decode_errors: u64,
    /// Words in which more than one address completed (the reason the
    /// P2S stage exists).
    pub multi_address_words: u64,
}

/// The four-unit Trace Analyzer.
///
/// Feed it TPIU frames (as the MLPU port receives them); it returns the
/// branch addresses completed per 32-bit word together with their
/// completion times.
#[derive(Debug, Clone)]
pub struct TraceAnalyzer {
    deframer: TpiuDeframer,
    decoder: PacketDecoder,
    clock: ClockDomain,
    /// Context carried from I-sync/context-ID packets.
    context_id: u32,
    stats: TaStats,
    /// Bytes awaiting word grouping (a frame is 4 words).
    lane_buffer: Vec<u8>,
}

impl TraceAnalyzer {
    /// Creates a TA clocked in the given (MLPU) domain.
    pub fn new(clock: ClockDomain) -> Self {
        TraceAnalyzer {
            deframer: TpiuDeframer::new(),
            decoder: PacketDecoder::new(),
            clock,
            context_id: 0,
            stats: TaStats::default(),
            lane_buffer: Vec::with_capacity(FRAME_BYTES),
        }
    }

    /// Table I synthesis result for the Trace Analyzer.
    pub fn area() -> AreaEstimate {
        AreaEstimate::new(11_962, 350, 0, 12_375)
    }

    /// Statistics so far.
    pub fn stats(&self) -> TaStats {
        self.stats
    }

    /// The current process context (from the last I-sync / context-ID).
    pub fn context_id(&self) -> u32 {
        self.context_id
    }

    /// Processes one TPIU frame arriving at `at`. The frame's four
    /// 32-bit words decode on consecutive MLPU cycles starting at the
    /// first clock edge at or after `at`.
    ///
    /// # Errors
    ///
    /// Returns a [`TaError`] on malformed frames; packet-level decode
    /// errors are *counted* (the hardware resynchronizes on A-sync)
    /// rather than returned, matching the RTL behaviour.
    pub fn feed_frame(
        &mut self,
        frame: &[u8; FRAME_BYTES],
        at: Picos,
    ) -> Result<Vec<DecodedAddress>, TaError> {
        // The TA only sees the PTM's bytes; the deframer has already
        // dropped null padding.
        let mut data = [0; FRAME_BYTES - 1];
        let n = self
            .deframer
            .feed_frame_bytes(frame, &mut data)
            .map_err(TaError::Deframe)?;
        self.lane_buffer.extend_from_slice(&data[..n]);

        let mut out = Vec::new();
        let mut word_time = self.clock.next_edge_at_or_after(at);
        let period = self.clock.freq().period();

        let whole = self.lane_buffer.len() - self.lane_buffer.len() % 4;
        for k in (0..whole).step_by(4) {
            let word: [u8; 4] = self.lane_buffer[k..k + 4].try_into().expect("four lanes");
            self.decode_word(&word, word_time, &mut out);
            word_time += period;
        }
        self.lane_buffer.drain(..whole);
        Ok(out)
    }

    /// Flushes any straggler bytes (fewer than a full word) at `at`.
    pub fn flush(&mut self, at: Picos) -> Vec<DecodedAddress> {
        let mut out = Vec::new();
        let n = self.lane_buffer.len();
        if n > 0 {
            let mut word = [0u8; 4];
            word[..n].copy_from_slice(&self.lane_buffer);
            self.lane_buffer.clear();
            let t = self.clock.next_edge_at_or_after(at);
            self.decode_word(&word[..n], t, &mut out);
        }
        out
    }

    /// Decodes one word (the last may be short) in the four byte units,
    /// appending its addresses to `out`.
    fn decode_word(&mut self, word: &[u8], at: Picos, out: &mut Vec<DecodedAddress>) {
        self.stats.words += 1;
        self.stats.bytes += word.len() as u64;
        let packets_before = self.decoder.packets_decoded();
        let first = out.len();
        // Address available at the end of the cycle.
        let done = at + self.clock.freq().period();
        let (stats, context_id) = (&mut self.stats, &mut self.context_id);
        self.decoder.feed_slice(word, |lane, event| match event {
            Decoded::Branch {
                target,
                mode,
                exception,
            } => {
                stats.addresses += 1;
                out.push(DecodedAddress {
                    target,
                    mode,
                    exception,
                    context_id: *context_id,
                    at: done,
                    unit: lane as u8,
                });
            }
            Decoded::Context(ctx) => *context_id = ctx,
            Decoded::Error(_) => stats.decode_errors += 1,
        });
        self.stats.packets += self.decoder.packets_decoded() - packets_before;
        if out.len() - first > 1 {
            self.stats.multi_address_words += 1;
        }
    }
}

/// Errors from [`TraceAnalyzer::feed_frame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum TaError {
    /// The TPIU frame was malformed.
    Deframe(DeframeError),
    /// Reserved for packet-stream faults surfaced as hard errors.
    Decode(DecodeError),
}

impl std::fmt::Display for TaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TaError::Deframe(e) => write!(f, "trace analyzer deframe error: {e}"),
            TaError::Decode(e) => write!(f, "trace analyzer decode error: {e}"),
        }
    }
}

impl std::error::Error for TaError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TaError::Deframe(e) => Some(e),
            TaError::Decode(e) => Some(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_trace::ptm::{Packet, PacketEncoder};
    use rtad_trace::tpiu::TpiuFormatter;
    use rtad_trace::TraceId;

    fn frames_for(packets: &[Packet]) -> Vec<[u8; FRAME_BYTES]> {
        let mut enc = PacketEncoder::new();
        let mut fmt = TpiuFormatter::new();
        let id = TraceId::new(0x10).unwrap();
        for p in packets {
            fmt.push_slice(id, &enc.encode(p));
        }
        fmt.flush()
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
        let mut ta = TraceAnalyzer::new(ClockDomain::rtad_mlpu());
        let mut addrs = Vec::new();
        for f in frames_for(&packets) {
            addrs.extend(ta.feed_frame(&f, Picos::ZERO).unwrap());
        }
        addrs.extend(ta.flush(Picos::from_micros(1)));
        assert_eq!(addrs.len(), 2);
        assert_eq!(addrs[0].target, VirtAddr::new(0x1040));
        assert_eq!(addrs[1].target, VirtAddr::new(0x1080));
        assert!(addrs.iter().all(|a| a.context_id == 9));
    }

    #[test]
    fn exception_metadata_survives() {
        let packets = vec![
            Packet::Async,
            Packet::BranchAddress {
                target: VirtAddr::new(0xC000_0000),
                mode: IsetMode::Arm,
                exception: Some(0x11),
            },
        ];
        let mut ta = TraceAnalyzer::new(ClockDomain::rtad_mlpu());
        let mut addrs = Vec::new();
        for f in frames_for(&packets) {
            addrs.extend(ta.feed_frame(&f, Picos::ZERO).unwrap());
        }
        addrs.extend(ta.flush(Picos::from_micros(1)));
        assert_eq!(addrs.len(), 1);
        assert_eq!(addrs[0].exception, Some(0x11));
    }

    #[test]
    fn words_decode_on_consecutive_cycles() {
        // 64 single-byte near branches => many words, 4 bytes each.
        let mut packets = vec![Packet::Async];
        packets.push(Packet::branch(VirtAddr::new(0x40), IsetMode::Arm));
        for _ in 0..63 {
            packets.push(Packet::branch(VirtAddr::new(0x40), IsetMode::Arm));
        }
        let mut ta = TraceAnalyzer::new(ClockDomain::rtad_mlpu());
        let mut addrs = Vec::new();
        for f in frames_for(&packets) {
            addrs.extend(ta.feed_frame(&f, Picos::ZERO).unwrap());
        }
        addrs.extend(ta.flush(Picos::from_millis(1)));
        assert_eq!(addrs.len(), 64);
        // Multiple addresses complete within single words.
        assert!(ta.stats().multi_address_words > 0);
        // Unit indices are per-lane.
        assert!(addrs.iter().all(|a| a.unit < 4));
    }

    /// Every address names the lane whose byte completed its packet and
    /// leaves the TA one cycle after the word holding that byte starts,
    /// exactly where a byte-wise reference decode of the same bytes
    /// places it.
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
        let arrival = |j: usize| clock.cycles_to_picos(8 * j as u64);
        let mut ta = TraceAnalyzer::new(clock.clone());
        let mut got = Vec::new();
        for (j, f) in frames.iter().enumerate() {
            got.extend(ta.feed_frame(f, arrival(j)).unwrap());
        }

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
            let n = deframer.feed_frame_bytes(f, &mut data).unwrap();
            bytes.extend_from_slice(&data[..n]);
        }
        words_before.push(bytes.len() / 4);
        let mut dec = PacketDecoder::new();
        let mut want = Vec::new();
        for (k, &b) in bytes.iter().enumerate() {
            let Some(Packet::BranchAddress { target, .. }) = dec.feed(b).unwrap() else {
                continue;
            };
            let word = k / 4;
            if word >= words_before[frames.len()] {
                continue; // a straggler word, left for `flush`
            }
            let j = words_before.iter().rposition(|&w| w <= word).unwrap();
            let start = clock.next_edge_at_or_after(arrival(j));
            let at = start + clock.cycles_to_picos((word - words_before[j]) as u64 + 1);
            want.push((target, (k % 4) as u8, at));
        }
        let got: Vec<_> = got.iter().map(|a| (a.target, a.unit, a.at)).collect();
        assert_eq!(got, want);
        assert!(
            (0..4).all(|u| got.iter().any(|g| g.1 == u)),
            "every lane completes packets"
        );
    }

    #[test]
    fn decode_errors_are_counted_not_fatal() {
        let id = TraceId::new(0x10).unwrap();
        let mut fmt = TpiuFormatter::new();
        // Garbage byte (invalid header 0x02), then a clean A-sync.
        fmt.push(id, 0x02);
        fmt.push_slice(id, &[0, 0, 0, 0, 0, 0x80]);
        let mut ta = TraceAnalyzer::new(ClockDomain::rtad_mlpu());
        for f in fmt.flush() {
            ta.feed_frame(&f, Picos::ZERO).unwrap();
        }
        ta.flush(Picos::from_micros(1));
        assert_eq!(ta.stats().decode_errors, 1);
        assert_eq!(ta.stats().packets, 1); // the A-sync
    }

    #[test]
    fn area_matches_table_i() {
        let a = TraceAnalyzer::area();
        assert_eq!(a.luts, 11_962);
        assert_eq!(a.ffs, 350);
        assert_eq!(a.gates, 12_375);
    }
}
