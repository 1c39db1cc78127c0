//! From branch streams to timed TPIU bytes: the full PTM pipeline model.
//!
//! Three stages, matching the hardware path of Fig. 1:
//!
//! 1. **Packetization** ([`StreamEncoder::encode_packets`]) — branch
//!    records become PTM packets. In [`TraceMode::BranchBroadcast`] every
//!    branch yields an address packet (what RTAD needs, since the IGM has
//!    no program image to follow atoms through); in
//!    [`TraceMode::WaypointAtoms`] direct branches compress into atom
//!    packets as a classic PTM would emit for an image-aware debugger.
//! 2. **PTM FIFO** ([`PtmFifoModel`]) — packet bytes buffer inside the
//!    CPU and drain to the trace port only once a threshold is reached:
//!    "PTM does not send the packets until enough packets are buffered in
//!    the FIFO inside the ARM CPU" — the dominant term (≈ 2.8 µs of the
//!    3.62 µs total) of RTAD's transfer latency in Fig. 7.
//! 3. **TPIU framing** — drained bytes are packed into 16-byte formatter
//!    frames and leave at the trace-port width (32 bits per trace-clock
//!    cycle).
//!
//! The result is a [`TimedTrace`]: every byte the IGM will see, stamped
//! with its arrival time at the MLPU port.

use serde::{Deserialize, Serialize};

use rtad_sim::{ClockDomain, Picos};

use crate::branch::{BranchKind, BranchRecord};
use crate::ptm::{Packet, PacketEncoder};
use crate::tpiu::{TpiuFormatter, TraceId};

/// Which branches produce address packets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TraceMode {
    /// Every taken branch emits a branch-address packet. This is the
    /// mode RTAD uses: the IGM extracts target addresses directly from
    /// the stream without a program image.
    BranchBroadcast,
    /// Classic PFT waypoint behaviour: direct branches become atoms
    /// (merged, up to 31 per packet), only indirect/exception branches
    /// emit addresses. Roughly 8× fewer trace bytes, but consumable only
    /// with the program image at hand.
    WaypointAtoms,
}

/// Static configuration of the PTM + TPIU path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PtmConfig {
    /// Address-packet policy.
    pub mode: TraceMode,
    /// Emit an I-sync packet every this many branch packets (re-sync for
    /// decoders that join mid-stream). 0 disables periodic I-sync.
    pub isync_interval: usize,
    /// Emit context-ID packets when the scheduled process changes.
    pub context_tracking: bool,
    /// PTM internal FIFO capacity in bytes (trace lost beyond it).
    pub fifo_bytes: usize,
    /// Bytes buffered before the PTM starts draining to the TPIU.
    pub flush_threshold: usize,
    /// Trace-port width in bytes per trace-clock cycle (ZC706: 32-bit).
    pub port_bytes_per_cycle: usize,
    /// The CPU clock (branch retirement timestamps are in its cycles).
    pub cpu_clock: ClockDomain,
    /// The trace-port clock (drain rate).
    pub trace_clock: ClockDomain,
}

impl PtmConfig {
    /// The RTAD prototype configuration: branch broadcast, 512-byte PTM
    /// FIFO draining at a 280-byte threshold, 32-bit port, CPU at
    /// 250 MHz and trace port at 125 MHz.
    ///
    /// The 280-byte threshold is calibrated so that the mean step-(1)
    /// latency of Fig. 7 (packet generation to decoded address) lands
    /// near the paper's ≈ 2.8 µs under SPEC-like branch rates — the
    /// batching behaviour the paper singles out ("PTM does not send the
    /// packets until enough packets are buffered in the FIFO").
    pub fn rtad() -> Self {
        PtmConfig {
            mode: TraceMode::BranchBroadcast,
            isync_interval: 256,
            context_tracking: true,
            fifo_bytes: 512,
            flush_threshold: 280,
            port_bytes_per_cycle: 4,
            cpu_clock: ClockDomain::rtad_cpu(),
            trace_clock: ClockDomain::rtad_mlpu(),
        }
    }
}

impl Default for PtmConfig {
    fn default() -> Self {
        PtmConfig::rtad()
    }
}

/// One TPIU output byte with its arrival time at the MLPU port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TimedByte {
    /// Arrival time.
    pub at: Picos,
    /// The byte.
    pub byte: u8,
}

/// Statistics of one PTM pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct PtmStats {
    /// Branch records consumed.
    pub branches: u64,
    /// PTM packets produced (including syncs).
    pub packets: u64,
    /// Packet payload bytes produced.
    pub payload_bytes: u64,
    /// TPIU frame bytes emitted (payload + framing overhead).
    pub frame_bytes: u64,
    /// Packets lost to PTM FIFO overflow.
    pub overflow_packets: u64,
    /// Mean residency of a payload byte in the PTM FIFO.
    pub mean_fifo_wait: Picos,
}

impl PtmStats {
    /// Framing overhead ratio: frame bytes per payload byte.
    pub fn framing_overhead(&self) -> f64 {
        if self.payload_bytes == 0 {
            0.0
        } else {
            self.frame_bytes as f64 / self.payload_bytes as f64
        }
    }
}

/// A fully timed trace: what arrives at the MLPU, when.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TimedTrace {
    /// TPIU frame bytes in arrival order.
    pub bytes: Vec<TimedByte>,
    /// Every packet with its *generation* time (before FIFO batching);
    /// the latency harness diffs these against decode times.
    pub packet_times: Vec<(Picos, Packet)>,
    /// Run statistics.
    pub stats: PtmStats,
}

/// The PTM internal FIFO batching model.
///
/// Bytes buffer until [`PtmConfig::flush_threshold`] is reached, then the
/// whole backlog drains at the port rate. Bytes arriving during a drain
/// join it. Exceeding [`PtmConfig::fifo_bytes`] drops whole packets (the
/// hardware emits an Overflow packet when space returns).
#[derive(Debug, Clone)]
pub struct PtmFifoModel {
    config: PtmConfig,
    /// (arrival time, length) of buffered packet byte-runs.
    buffered: Vec<(Picos, usize)>,
    buffered_bytes: usize,
    /// Time the output port becomes free.
    port_free_at: Picos,
    overflow_pending: bool,
}

impl PtmFifoModel {
    /// Creates an empty FIFO model.
    pub fn new(config: PtmConfig) -> Self {
        PtmFifoModel {
            config,
            buffered: Vec::new(),
            buffered_bytes: 0,
            port_free_at: Picos::ZERO,
            overflow_pending: false,
        }
    }

    /// Offers a packet of `len` bytes at time `at`. Returns `false` (and
    /// records an overflow) if the FIFO cannot hold it.
    pub fn offer(&mut self, at: Picos, len: usize) -> bool {
        if self.buffered_bytes + len > self.config.fifo_bytes {
            self.overflow_pending = true;
            return false;
        }
        self.buffered.push((at, len));
        self.buffered_bytes += len;
        true
    }

    /// Whether the flush threshold has been reached.
    pub fn should_flush(&self) -> bool {
        self.buffered_bytes >= self.config.flush_threshold
    }

    /// Bytes currently buffered.
    pub fn buffered_bytes(&self) -> usize {
        self.buffered_bytes
    }

    /// Whether an overflow occurred since the last drain.
    pub fn take_overflow(&mut self) -> bool {
        std::mem::take(&mut self.overflow_pending)
    }

    /// Drains everything buffered starting no earlier than `now`,
    /// returning `(drain_start, per-byte wait, emit times)` aligned to
    /// trace-clock edges at the port rate.
    pub fn drain(&mut self, now: Picos) -> DrainResult {
        let start = self
            .config
            .trace_clock
            .next_edge_at_or_after(self.port_free_at.max(now));
        let period = self.config.trace_clock.freq().period();
        let per_cycle = self.config.port_bytes_per_cycle.max(1);

        let mut emit_times = Vec::with_capacity(self.buffered_bytes);
        let mut total_wait = Picos::ZERO;
        let mut idx = 0usize;
        for &(arrived, len) in &self.buffered {
            for _ in 0..len {
                let cycle = (idx / per_cycle) as u64;
                let t = start + period * cycle;
                emit_times.push(t);
                total_wait += t.saturating_sub(arrived);
                idx += 1;
            }
        }
        let bytes = self.buffered_bytes;
        self.buffered.clear();
        self.buffered_bytes = 0;
        if let Some(&last) = emit_times.last() {
            self.port_free_at = last + period;
        }
        DrainResult {
            start,
            bytes,
            emit_times,
            total_wait,
        }
    }
}

/// Result of one [`PtmFifoModel::drain`].
#[derive(Debug, Clone)]
pub struct DrainResult {
    /// Time the drain began (first byte on the port).
    pub start: Picos,
    /// Bytes drained.
    pub bytes: usize,
    /// Per-byte port times.
    pub emit_times: Vec<Picos>,
    /// Sum over bytes of (port time − arrival time).
    pub total_wait: Picos,
}

/// Encodes branch runs into timed TPIU byte streams.
///
/// # Examples
///
/// ```
/// use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder, VirtAddr};
///
/// let run: Vec<BranchRecord> = (0..200)
///     .map(|i| {
///         BranchRecord::new(
///             VirtAddr::new(0x1000 + i * 8),
///             VirtAddr::new(0x2000 + (i % 7) * 64),
///             BranchKind::IndirectJump,
///             (i as u64) * 50,
///         )
///     })
///     .collect();
///
/// let mut enc = StreamEncoder::new(PtmConfig::rtad());
/// let trace = enc.encode_run(&run);
/// assert!(trace.stats.packets as usize >= run.len());
/// assert!(!trace.bytes.is_empty());
/// // Bytes arrive in non-decreasing time order.
/// assert!(trace.bytes.windows(2).all(|w| w[0].at <= w[1].at));
/// ```
#[derive(Debug, Clone)]
pub struct StreamEncoder {
    config: PtmConfig,
    packet_encoder: PacketEncoder,
    branch_packets_since_isync: usize,
    last_context: Option<u32>,
    pending_atoms: u8,
}

impl StreamEncoder {
    /// Creates an encoder for the given configuration.
    pub fn new(config: PtmConfig) -> Self {
        StreamEncoder {
            config,
            packet_encoder: PacketEncoder::new(),
            branch_packets_since_isync: 0,
            last_context: None,
            pending_atoms: 0,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PtmConfig {
        &self.config
    }

    /// Packetizes a branch run (no timing): the pure protocol view.
    ///
    /// Always starts with A-sync + I-sync so any decoder can lock on.
    pub fn encode_packets(&mut self, run: &[BranchRecord]) -> Vec<(u64, Packet)> {
        let mut out: Vec<(u64, Packet)> = Vec::with_capacity(run.len() + 8);
        let first_cycle = run.first().map_or(0, |r| r.cycle);
        out.push((first_cycle, Packet::Async));
        if let Some(first) = run.first() {
            out.push((
                first_cycle,
                Packet::Isync {
                    addr: first.source,
                    mode: first.mode,
                    context_id: first.context_id,
                },
            ));
            self.last_context = Some(first.context_id);
        }
        for rec in run {
            self.encode_record(rec, &mut out);
        }
        self.flush_atoms(run.last().map_or(0, |r| r.cycle), &mut out);
        out
    }

    fn encode_record(&mut self, rec: &BranchRecord, out: &mut Vec<(u64, Packet)>) {
        if self.config.context_tracking && self.last_context != Some(rec.context_id) {
            self.flush_atoms(rec.cycle, out);
            out.push((rec.cycle, Packet::ContextId(rec.context_id)));
            self.last_context = Some(rec.context_id);
        }

        let broadcast = matches!(self.config.mode, TraceMode::BranchBroadcast);
        if !broadcast && rec.kind.is_direct() {
            // Waypoint mode: direct branches merge into atoms.
            self.pending_atoms += 1;
            if self.pending_atoms == 31 {
                self.flush_atoms(rec.cycle, out);
            }
            return;
        }
        self.flush_atoms(rec.cycle, out);

        let exception = match rec.kind {
            BranchKind::Syscall => Some(0x11u8), // SVC exception class
            BranchKind::ExceptionReturn => Some(0x00u8),
            _ => None,
        };
        out.push((
            rec.cycle,
            Packet::BranchAddress {
                target: rec.target,
                mode: rec.mode,
                exception,
            },
        ));
        self.branch_packets_since_isync += 1;
        if self.config.isync_interval > 0
            && self.branch_packets_since_isync >= self.config.isync_interval
        {
            // Periodic synchronization sequence: A-sync re-aligns a
            // decoder that lost packet framing, I-sync restores its
            // address-compression state.
            out.push((rec.cycle, Packet::Async));
            out.push((
                rec.cycle,
                Packet::Isync {
                    addr: rec.target,
                    mode: rec.mode,
                    context_id: rec.context_id,
                },
            ));
            self.branch_packets_since_isync = 0;
        }
    }

    fn flush_atoms(&mut self, cycle: u64, out: &mut Vec<(u64, Packet)>) {
        if self.pending_atoms > 0 {
            out.push((
                cycle,
                Packet::Atom {
                    e_count: self.pending_atoms,
                    n_atom: false,
                },
            ));
            self.pending_atoms = 0;
        }
    }

    /// Runs the full pipeline: packetize, batch through the PTM FIFO,
    /// frame through the TPIU, and timestamp every output byte.
    pub fn encode_run(&mut self, run: &[BranchRecord]) -> TimedTrace {
        let packets = self.encode_packets(run);
        let cpu = self.config.cpu_clock.clone();

        let mut fifo = PtmFifoModel::new(self.config.clone());
        let mut formatter = TpiuFormatter::new();
        let mut trace = TimedTrace::default();
        trace.stats.branches = run.len() as u64;

        // Wire-encode each packet, push through the FIFO model, and on
        // each drain hand the drained bytes to the TPIU formatter.
        let mut pending_wire: Vec<u8> = Vec::new();
        let mut total_wait = Picos::ZERO;
        let mut waited_bytes: u64 = 0;

        let drain = |fifo: &mut PtmFifoModel,
                     formatter: &mut TpiuFormatter,
                     pending_wire: &mut Vec<u8>,
                     trace: &mut TimedTrace,
                     now: Picos,
                     total_wait: &mut Picos,
                     waited_bytes: &mut u64| {
            if fifo.buffered_bytes() == 0 {
                return;
            }
            let result = fifo.drain(now);
            *total_wait += result.total_wait;
            *waited_bytes += result.bytes as u64;
            formatter.push_slice(TraceId::PTM, &pending_wire[..result.bytes]);
            pending_wire.drain(..result.bytes);
            // Frames leave the port at the drain times; approximate
            // each complete frame's bytes as emitted at the drain
            // byte times (framing adds ~7% bytes; we charge the
            // payload times, keeping arrival order exact).
            let frames = formatter.ready_frames();
            let mut it = result.emit_times.into_iter();
            let mut last = result.start;
            for frame in frames {
                for &b in frame.iter() {
                    let t = it.next().unwrap_or(last);
                    last = t;
                    trace.bytes.push(TimedByte { at: t, byte: b });
                    trace.stats.frame_bytes += 1;
                }
            }
        };

        // After a FIFO overflow the decoder's differential-compression
        // state is stale; the hardware recovers by emitting an I-sync
        // once space returns. `resync_needed` models that.
        let mut resync_needed = false;
        let mut last_context = 0u32;

        for (cycle, packet) in &packets {
            let at = cpu.cycles_to_picos(*cycle);
            if let Packet::ContextId(c) | Packet::Isync { context_id: c, .. } = packet {
                last_context = *c;
            }

            let mut to_send: Vec<Packet> = Vec::with_capacity(2);
            if resync_needed {
                if let Packet::BranchAddress { target, mode, .. } = packet {
                    to_send.push(Packet::Isync {
                        addr: *target,
                        mode: *mode,
                        context_id: last_context,
                    });
                }
            }
            to_send.push(*packet);

            let group_len = to_send.len();
            for (gi, p) in to_send.into_iter().enumerate() {
                let wire = self.packet_encoder.encode(&p);
                trace.stats.packets += 1;
                trace.stats.payload_bytes += wire.len() as u64;

                if !fifo.offer(at, wire.len()) {
                    // FIFO full: this packet is lost; drain, mark overflow
                    // and schedule a resync. A dropped I-sync also voids
                    // the address packet it was guarding (sending it
                    // desynced would decode to a wrong address).
                    trace.stats.overflow_packets += (group_len - gi) as u64;
                    resync_needed = true;
                    drain(
                        &mut fifo,
                        &mut formatter,
                        &mut pending_wire,
                        &mut trace,
                        at,
                        &mut total_wait,
                        &mut waited_bytes,
                    );
                    fifo.take_overflow();
                    break;
                }
                if p.is_sync() {
                    resync_needed = false;
                }
                trace.packet_times.push((at, p));
                pending_wire.extend_from_slice(&wire);
                if fifo.should_flush() {
                    drain(
                        &mut fifo,
                        &mut formatter,
                        &mut pending_wire,
                        &mut trace,
                        at,
                        &mut total_wait,
                        &mut waited_bytes,
                    );
                }
            }
        }

        // End of run: force out the tail.
        let end = cpu.cycles_to_picos(run.last().map_or(0, |r| r.cycle));
        drain(
            &mut fifo,
            &mut formatter,
            &mut pending_wire,
            &mut trace,
            end,
            &mut total_wait,
            &mut waited_bytes,
        );
        let tail = formatter.flush();
        let mut t = trace.bytes.last().map_or(end, |b| b.at);
        let period = self.config.trace_clock.freq().period();
        for frame in tail {
            for chunk in frame.chunks(self.config.port_bytes_per_cycle.max(1)) {
                t += period;
                for &b in chunk {
                    trace.bytes.push(TimedByte { at: t, byte: b });
                    trace.stats.frame_bytes += 1;
                }
            }
        }

        if let Some(mean) = total_wait.as_picos().checked_div(waited_bytes) {
            trace.stats.mean_fifo_wait = Picos::from_picos(mean);
        }
        trace
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::branch::VirtAddr;
    use crate::ptm::PacketDecoder;
    use crate::tpiu::{TpiuDeframer, FRAME_BYTES};

    fn mk_run(n: usize, gap_cycles: u64) -> Vec<BranchRecord> {
        (0..n)
            .map(|i| {
                BranchRecord::new(
                    VirtAddr::new(0x1_0000 + (i as u32) * 4),
                    VirtAddr::new(0x2_0000 + ((i % 13) as u32) * 0x40),
                    if i % 5 == 0 {
                        BranchKind::IndirectJump
                    } else {
                        BranchKind::DirectJump
                    },
                    (i as u64) * gap_cycles,
                )
            })
            .collect()
    }

    #[test]
    fn broadcast_emits_packet_per_branch() {
        let mut enc = StreamEncoder::new(PtmConfig::rtad());
        let run = mk_run(100, 10);
        let packets = enc.encode_packets(&run);
        let branch_packets = packets
            .iter()
            .filter(|(_, p)| matches!(p, Packet::BranchAddress { .. }))
            .count();
        assert_eq!(branch_packets, 100);
    }

    #[test]
    fn waypoint_mode_compresses_direct_branches() {
        let mut cfg = PtmConfig::rtad();
        cfg.mode = TraceMode::WaypointAtoms;
        let mut enc = StreamEncoder::new(cfg);
        let run = mk_run(100, 10);
        let packets = enc.encode_packets(&run);
        let branch_packets = packets
            .iter()
            .filter(|(_, p)| matches!(p, Packet::BranchAddress { .. }))
            .count();
        let atoms: u32 = packets
            .iter()
            .filter_map(|(_, p)| match p {
                Packet::Atom { e_count, .. } => Some(u32::from(*e_count)),
                _ => None,
            })
            .sum();
        assert_eq!(branch_packets, 20); // indirect only
        assert_eq!(atoms, 80); // direct merged into atoms
    }

    #[test]
    fn full_pipeline_roundtrips_through_deframer_and_decoder() {
        let mut enc = StreamEncoder::new(PtmConfig::rtad());
        let run = mk_run(500, 20);
        let trace = enc.encode_run(&run);

        // Deframe + decode everything that arrived.
        let mut deframer = TpiuDeframer::new();
        let mut decoder = PacketDecoder::new();
        let mut decoded = Vec::new();
        let raw: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();
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
        assert_eq!(decoded, sent);
    }

    #[test]
    fn batching_delays_first_byte() {
        let mut enc = StreamEncoder::new(PtmConfig::rtad());
        // Slow branch arrival: FIFO takes a while to hit the threshold.
        let run = mk_run(50, 1_000);
        let trace = enc.encode_run(&run);
        let first_packet_at = trace.packet_times[0].0;
        let first_byte_at = trace.bytes[0].at;
        assert!(first_byte_at > first_packet_at);
        assert!(trace.stats.mean_fifo_wait > Picos::ZERO);
    }

    #[test]
    fn tiny_fifo_overflows_under_pressure() {
        let mut cfg = PtmConfig::rtad();
        cfg.fifo_bytes = 16;
        cfg.flush_threshold = 16;
        let mut enc = StreamEncoder::new(cfg);
        // Branches every cycle: drain cannot keep up with a 9-byte isync.
        let run = mk_run(2_000, 1);
        let trace = enc.encode_run(&run);
        assert!(trace.stats.overflow_packets > 0);

        // Even with losses, everything that *was* delivered must decode
        // exactly: the post-overflow I-sync restores compression state.
        let mut deframer = TpiuDeframer::new();
        let mut decoder = PacketDecoder::new();
        let mut decoded = Vec::new();
        let raw: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();
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
        assert_eq!(decoded, sent);
    }

    #[test]
    fn empty_run_is_empty_trace() {
        let mut enc = StreamEncoder::new(PtmConfig::rtad());
        let trace = enc.encode_run(&[]);
        assert_eq!(trace.stats.branches, 0);
        // Only the initial A-sync is packetized.
        assert_eq!(trace.stats.packets, 1);
    }

    #[test]
    fn context_switch_emits_context_packet() {
        let mut run = mk_run(10, 10);
        for (i, r) in run.iter_mut().enumerate() {
            r.context_id = if i < 5 { 1 } else { 2 };
        }
        let mut enc = StreamEncoder::new(PtmConfig::rtad());
        let packets = enc.encode_packets(&run);
        assert!(packets
            .iter()
            .any(|(_, p)| matches!(p, Packet::ContextId(2))));
    }

    #[test]
    fn framing_overhead_is_modest() {
        let mut enc = StreamEncoder::new(PtmConfig::rtad());
        let run = mk_run(2_000, 15);
        let trace = enc.encode_run(&run);
        let overhead = trace.stats.framing_overhead();
        assert!(overhead > 1.0 && overhead < 1.5, "overhead={overhead}");
    }
}
