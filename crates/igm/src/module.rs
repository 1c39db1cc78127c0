//! The composed IGM: TA → P2S → IVG with cycle-accurate timing.
//!
//! [`Igm`] is the IGM's one decode core ([`StreamingIgm`]) plus a timing
//! observer that stamps each vector with the time it leaves the IVG:
//!
//! * **TA.** A frame's time is the arrival of its last byte. Word `k` of
//!   the frame's burst (the whole words completed once its data is
//!   appended, possibly starting with bytes carried from the frame
//!   before) leaves the TA at `next_edge(frame time) + (k + 1)` cycles.
//! * **P2S.** A burst's survivors leave one per cycle from the first
//!   edge at or after both the port's next free slot and the TA time of
//!   the burst's first admitted address.
//! * **IVG.** A vector leaves [`IVG_CYCLES`](crate::ivg::IVG_CYCLES)
//!   after its address left the P2S.
//!
//! At end of trace the carried bytes decode as one word, one cycle after
//! the edge at or after the trace's last byte.

use serde::{Deserialize, Serialize};

use rtad_sim::{AreaEstimate, ClockDomain, Picos};
use rtad_trace::stream::TimedTrace;
use rtad_trace::tpiu::FRAME_BYTES;
use rtad_trace::VirtAddr;

use crate::ivg::{AddressMapper, InputVectorGenerator, VectorFormat, VectorPayload};
use crate::p2s::P2sConverter;
use crate::streaming::{StreamingIgm, StreamingStats, Timing, FRAMES_PER_PASS};
use crate::ta::TraceAnalyzer;

/// Configuration of an IGM instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct IgmConfig {
    /// The mapper table: `(address, token)` pairs. Several addresses may
    /// share a token.
    pub table: Vec<(VirtAddr, u32)>,
    /// Conversion-table shape.
    pub format: VectorFormat,
    /// P2S FIFO depth.
    pub p2s_depth: usize,
    /// MLPU clock domain.
    pub clock: ClockDomain,
    /// Only pass branches of this process context (PTM reports context
    /// IDs precisely so the monitor can single out the victim process);
    /// `None` monitors everything.
    pub context_filter: Option<u32>,
}

impl IgmConfig {
    /// LSTM-style configuration: token stream with consecutive tokens
    /// over `targets`.
    pub fn token_stream(targets: &[VirtAddr]) -> Self {
        Self::token_stream_table(
            targets
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, i as u32))
                .collect(),
        )
    }

    /// LSTM-style configuration with an explicit `(address, token)`
    /// table (supports many-to-one canary mappings).
    pub fn token_stream_table(table: Vec<(VirtAddr, u32)>) -> Self {
        IgmConfig {
            table,
            format: VectorFormat::TokenStream,
            p2s_depth: 16,
            clock: ClockDomain::rtad_mlpu(),
            context_filter: None,
        }
    }

    /// Restricts the IGM to one process context (builder-style).
    pub fn with_context_filter(mut self, context_id: u32) -> Self {
        self.context_filter = Some(context_id);
        self
    }

    /// ELM-style configuration: sliding histogram of width `window` over
    /// `targets` (typically the syscall entry table).
    pub fn histogram(targets: &[VirtAddr], window: usize) -> Self {
        IgmConfig {
            table: targets
                .iter()
                .enumerate()
                .map(|(i, &a)| (a, i as u32))
                .collect(),
            format: VectorFormat::WindowHistogram { window },
            p2s_depth: 16,
            clock: ClockDomain::rtad_mlpu(),
            context_filter: None,
        }
    }
}

/// One input vector with its IGM-exit timestamp.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TimedVector {
    /// Time the vector left the IVG (ready for the MCM).
    pub at: Picos,
    /// The branch target that produced it.
    pub target: VirtAddr,
    /// Process context of the branch.
    pub context_id: u32,
    /// The encoded payload.
    pub payload: VectorPayload,
}

/// Output of one IGM run.
#[derive(Debug, Clone, Default)]
pub struct IgmOutput {
    /// Encoded vectors in production order.
    pub vectors: Vec<TimedVector>,
    /// Counters of the decode core, cumulative over the IGM's runs.
    pub stats: StreamingStats,
}

/// The Input Generation Module.
///
/// See the [crate documentation](crate) for an end-to-end example.
#[derive(Debug, Clone)]
pub struct Igm {
    core: StreamingIgm,
    clock: Clocked,
}

impl Igm {
    /// Builds an IGM from a configuration.
    pub fn new(config: IgmConfig) -> Self {
        Igm {
            core: StreamingIgm::new(&config),
            clock: Clocked {
                ta: TraceAnalyzer::new(config.clock.clone()),
                p2s: P2sConverter::new(config.clock.clone()),
                ivg: InputVectorGenerator::new(config.clock),
                frame_at: [Picos::ZERO; FRAMES_PER_PASS],
                exits: Vec::new(),
            },
        }
    }

    /// Total IGM area (Table I: TA + P2S + IVG).
    pub fn area() -> AreaEstimate {
        TraceAnalyzer::area() + P2sConverter::area() + InputVectorGenerator::area()
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        self.core.mapper()
    }

    /// Processes a complete timed TPIU byte stream, producing the input
    /// vectors the MCM will consume.
    ///
    /// Incomplete trailing frames (possible only if the stream was
    /// truncated mid-frame) are dropped, as the hardware would.
    pub fn process_trace(&mut self, trace: &TimedTrace) -> IgmOutput {
        let mut vectors = Vec::new();
        let mut frames = [0u8; FRAMES_PER_PASS * FRAME_BYTES];
        for pass in trace.bytes.chunks(FRAMES_PER_PASS * FRAME_BYTES) {
            let pass = &pass[..pass.len() - pass.len() % FRAME_BYTES];
            for (b, tb) in frames.iter_mut().zip(pass) {
                *b = tb.byte;
            }
            for (at, frame) in self.clock.frame_at.iter_mut().zip(pass.chunks(FRAME_BYTES)) {
                *at = frame[FRAME_BYTES - 1].at;
            }
            self.core
                .push_frames_timed(&frames[..pass.len()], &mut vectors, &mut self.clock);
        }
        // Straggler TA bytes (sub-word) decode after the last byte.
        self.clock.frame_at[0] = trace.bytes.last().map_or(Picos::ZERO, |tb| tb.at);
        self.core.finish_timed(&mut vectors, &mut self.clock);

        let vectors = vectors
            .into_iter()
            .zip(self.clock.exits.drain(..))
            .map(|(v, at)| TimedVector {
                at,
                target: v.target,
                context_id: v.context_id,
                payload: v.payload,
            })
            .collect();
        IgmOutput {
            vectors,
            stats: self.core.stats(),
        }
    }
}

/// The timing observer of [`Igm`]: TA word time, P2S departure and IVG
/// exit of every admitted address.
#[derive(Debug, Clone)]
struct Clocked {
    ta: TraceAnalyzer,
    p2s: P2sConverter,
    ivg: InputVectorGenerator,
    /// Arrival of the last byte of each frame of the current pass.
    frame_at: [Picos; FRAMES_PER_PASS],
    /// IVG exit times of the vectors emitted so far, in order.
    exits: Vec<Picos>,
}

impl Timing for Clocked {
    fn admit(&mut self, burst: usize, word: usize, slot: usize, accepted: bool) {
        let departure = if slot == 0 {
            let ta = self.ta.word_done(self.frame_at[burst], word);
            self.p2s.depart_first(ta)
        } else {
            self.p2s.depart_next()
        };
        if accepted {
            self.exits.push(self.ivg.exit(departure));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder};

    fn run_with_targets(n: usize) -> (Vec<BranchRecord>, Vec<VirtAddr>) {
        let targets: Vec<VirtAddr> = (0..8u32)
            .map(|k| VirtAddr::new(0x2000 + k * 0x80))
            .collect();
        let run: Vec<BranchRecord> = (0..n)
            .map(|i| {
                BranchRecord::new(
                    VirtAddr::new(0x1000 + (i as u32) * 4),
                    targets[i % targets.len()],
                    BranchKind::IndirectJump,
                    (i as u64) * 30,
                )
            })
            .collect();
        (run, targets)
    }

    #[test]
    fn vectors_match_branches_in_order() {
        let (run, targets) = run_with_targets(300);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let mut igm = Igm::new(IgmConfig::token_stream(&targets));
        let out = igm.process_trace(&trace);
        assert_eq!(out.vectors.len(), run.len());
        for (v, r) in out.vectors.iter().zip(&run) {
            assert_eq!(v.target, r.target);
        }
        // Tokens are the mapper's assignment.
        let mapper = igm.mapper();
        for v in &out.vectors {
            assert_eq!(v.payload.as_token(), mapper.map(v.target));
        }
    }

    #[test]
    fn vector_times_are_monotone_and_after_arrival() {
        let (run, targets) = run_with_targets(200);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let first_arrival = trace.bytes.first().unwrap().at;
        let mut igm = Igm::new(IgmConfig::token_stream(&targets));
        let out = igm.process_trace(&trace);
        assert!(out.vectors.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(out.vectors[0].at > first_arrival);
    }

    #[test]
    fn mapper_filters_unlisted_addresses() {
        let (run, targets) = run_with_targets(100);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        // Only accept the first two targets.
        let mut igm = Igm::new(IgmConfig::token_stream(&targets[..2]));
        let out = igm.process_trace(&trace);
        // 2 of 8 round-robin targets pass: 13 hits each in 100 branches.
        assert_eq!(out.vectors.len(), 26);
        assert!(out.stats.filtered > 0);
        assert_eq!(out.stats.accepted, 26);
    }

    #[test]
    fn histogram_config_produces_dense_vectors() {
        let (run, targets) = run_with_targets(64);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let mut igm = Igm::new(IgmConfig::histogram(&targets, 16));
        let out = igm.process_trace(&trace);
        assert!(!out.vectors.is_empty());
        for v in &out.vectors {
            let d = v.payload.as_dense().expect("histogram payload");
            assert_eq!(d.len(), targets.len());
            let s: f32 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn igm_area_sums_table_i_rows() {
        let a = Igm::area();
        assert_eq!(a.luts, 11_962 + 686 + 890);
        assert_eq!(a.ffs, 350 + 1_074 + 1_067);
        assert_eq!(a.gates, 12_375 + 14_363 + 10_430);
    }

    #[test]
    fn context_filter_passes_only_the_victim_process() {
        // Two interleaved contexts; only context 7 is monitored.
        let targets: Vec<VirtAddr> = (0..4u32)
            .map(|k| VirtAddr::new(0x2000 + k * 0x80))
            .collect();
        let run: Vec<BranchRecord> = (0..200)
            .map(|i| {
                let mut r = BranchRecord::new(
                    VirtAddr::new(0x1000 + (i as u32) * 4),
                    targets[i % targets.len()],
                    BranchKind::IndirectJump,
                    (i as u64) * 40,
                );
                r.context_id = if i % 3 == 0 { 7 } else { 9 };
                r
            })
            .collect();
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let mut igm = Igm::new(IgmConfig::token_stream(&targets).with_context_filter(7));
        let out = igm.process_trace(&trace);
        let expected = run.iter().filter(|r| r.context_id == 7).count();
        assert_eq!(out.vectors.len(), expected);
        assert!(out.vectors.iter().all(|v| v.context_id == 7));
    }

    #[test]
    fn empty_trace_yields_empty_output() {
        let trace = TimedTrace::default();
        let mut igm = Igm::new(IgmConfig::token_stream(&[VirtAddr::new(4)]));
        let out = igm.process_trace(&trace);
        assert!(out.vectors.is_empty());
    }
}
