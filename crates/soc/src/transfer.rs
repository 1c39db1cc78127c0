//! Fig. 7: data-transfer latency from branch retirement to inference
//! start, software vs RTAD hardware.
//!
//! Both paths decompose into three steps:
//!
//! | Step | SW | RTAD |
//! |---|---|---|
//! | (1) collect | instrumented code reads the gathered branch address | IGM decodes the branch address from the PTM trace (dominated by the PTM's FIFO batching) |
//! | (2) vectorize | host loops refine it into the input vector (~7.38 µs) | the IVG does it in 2 cycles (16 ns) |
//! | (3) deliver | host copies the vector into ML-MIAOW memory (~11.5 µs) | the MCM TX engine drives the engine port (~0.78 µs) |
//!
//! The RTAD column is *measured* on the simulated pipeline (PTM FIFO →
//! TPIU → TA → P2S → IVG → MCM TX); the SW column is a cost model with
//! the paper's measured anchors as calibration.

use serde::{Deserialize, Serialize};

use rtad_igm::{Igm, IgmConfig};
use rtad_mcm::{InferenceEngine, InferenceResult, Mcm, McmConfig};
use rtad_sim::{ClockDomain, Picos, RunningStats};
use rtad_trace::{BranchRecord, Packet, PtmConfig, StreamEncoder, VirtAddr};

/// One path's three-step latency decomposition (means over events).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TransferBreakdown {
    /// Step (1): branch retirement → address available to the refiner.
    pub collect: Picos,
    /// Step (2): address → input vector.
    pub vectorize: Picos,
    /// Step (3): vector → resident in engine memory.
    pub deliver: Picos,
}

impl TransferBreakdown {
    /// Total path latency.
    pub fn total(&self) -> Picos {
        self.collect + self.vectorize + self.deliver
    }
}

/// Cost parameters of the software path (per event), in CPU cycles.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SwTransferModel {
    /// Step (1): ring-buffer read + branch of the instrumented handler.
    pub read_cycles: u64,
    /// Step (2): per-element table lookups and stores building the
    /// vector ("multiple data read/write transfers", uncached).
    pub vectorize_cycles_per_word: u64,
    /// Vector width in 32-bit words.
    pub vector_words: usize,
    /// Step (3): driver entry plus one uncached AXI write per word into
    /// the peripheral's memory.
    pub driver_entry_cycles: u64,
    /// Cycles per uncached peripheral write (posted, but the CPU stalls
    /// on the narrow interconnect path).
    pub uncached_write_cycles: u64,
}

impl SwTransferModel {
    /// Calibration anchored to the paper's SW measurements
    /// (1.1 / 7.38 / 11.5 µs at a 250 MHz host).
    pub fn rtad_prototype() -> Self {
        SwTransferModel {
            read_cycles: 280,
            vectorize_cycles_per_word: 115,
            vector_words: 16,
            driver_entry_cycles: 575,
            uncached_write_cycles: 144,
        }
    }
}

/// Computes the software path's breakdown from the cost model.
pub fn measure_sw_transfer(model: &SwTransferModel, cpu: &ClockDomain) -> TransferBreakdown {
    TransferBreakdown {
        collect: cpu.cycles_to_picos(model.read_cycles),
        vectorize: cpu.cycles_to_picos(model.vectorize_cycles_per_word * model.vector_words as u64),
        deliver: cpu.cycles_to_picos(
            model.driver_entry_cycles + model.uncached_write_cycles * model.vector_words as u64,
        ),
    }
}

/// A do-nothing backend: Fig. 7 measures the path *to* the engine, so
/// the engine itself is instantaneous here.
struct NullEngine;

impl InferenceEngine for NullEngine {
    fn infer_event(&mut self, _p: &rtad_igm::VectorPayload, _at: Picos) -> InferenceResult {
        InferenceResult {
            score: 0.0,
            flagged: false,
            engine_cycles: 0,
        }
    }
    fn engine_clock(&self) -> ClockDomain {
        ClockDomain::rtad_miaow()
    }
}

/// Measures the RTAD path on the real simulated pipeline.
///
/// Encodes `run` through the PTM/TPIU (with its FIFO batching), decodes
/// it through the IGM, delivers the vectors through the MCM TX engine,
/// and averages the per-event step latencies. The IGM accepts every
/// target in the run so events align 1:1 with address packets.
///
/// # Panics
///
/// Panics if the run produces no deliverable events.
pub fn measure_rtad_transfer(run: &[BranchRecord], ptm: PtmConfig) -> TransferBreakdown {
    let cpu = ptm.cpu_clock.clone();
    let mlpu = ClockDomain::rtad_mlpu();

    let mut encoder = StreamEncoder::new(ptm);
    let trace = encoder.encode_run(run);

    // Accept everything: vector k <-> k-th delivered address packet.
    let targets: Vec<VirtAddr> = {
        let mut t: Vec<VirtAddr> = run.iter().map(|r| r.target).collect();
        t.sort();
        t.dedup();
        t
    };
    let mut igm = Igm::new(IgmConfig::token_stream(&targets));
    let out = igm.process_trace(&trace);

    let mut mcm = Mcm::new(McmConfig::rtad(), NullEngine);
    let mcm_run = mcm.run(&out.vectors);

    // Generation times of delivered address packets, in order.
    let addr_times: Vec<Picos> = trace
        .packet_times
        .iter()
        .filter(|(_, p)| matches!(p, Packet::BranchAddress { .. }))
        .map(|&(t, _)| t)
        .collect();
    assert!(
        !out.vectors.is_empty() && addr_times.len() == out.vectors.len(),
        "RTAD transfer measurement needs aligned events \
         ({} packets vs {} vectors)",
        addr_times.len(),
        out.vectors.len()
    );

    let ivg = mlpu.cycles_to_picos(rtad_igm::ivg::IVG_CYCLES);
    let mut collect = RunningStats::new();
    let mut deliver = RunningStats::new();
    for ((gen, vec), event) in addr_times.iter().zip(&out.vectors).zip(&mcm_run.events) {
        // vec.at = TA decode + P2S + IVG; step (1) is everything before
        // the IVG's two cycles.
        let c = vec.at.saturating_sub(*gen).saturating_sub(ivg);
        collect.push(c.as_picos() as f64);
        // Step (3): vector ready -> engine memory written, excluding
        // any queueing (Fig. 7 is the unloaded path; with the null
        // engine queue waits are zero anyway).
        let d = event.compute_started.saturating_sub(event.started);
        deliver.push(d.as_picos() as f64);
    }

    let _ = cpu; // (CPU clock only parameterizes the run's timestamps)
    TransferBreakdown {
        collect: Picos::from_picos(collect.mean() as u64),
        vectorize: ivg,
        deliver: Picos::from_picos(deliver.mean() as u64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_workloads::{Benchmark, ProgramModel};

    fn sample_run() -> Vec<BranchRecord> {
        ProgramModel::build(Benchmark::Gcc, 4).generate(4_000, 2)
    }

    #[test]
    fn sw_breakdown_matches_paper_anchors() {
        let b = measure_sw_transfer(&SwTransferModel::rtad_prototype(), &ClockDomain::rtad_cpu());
        // Paper: 1.12 + 7.38 + 11.5 ~= 20.0us.
        assert!(
            (b.collect.as_micros_f64() - 1.12).abs() < 0.1,
            "{}",
            b.collect
        );
        assert!((b.vectorize.as_micros_f64() - 7.38).abs() < 0.1);
        assert!((b.deliver.as_micros_f64() - 11.5).abs() < 0.5);
        assert!((b.total().as_micros_f64() - 20.0).abs() < 0.5);
    }

    #[test]
    fn rtad_path_is_dominated_by_collection() {
        let b = measure_rtad_transfer(&sample_run(), PtmConfig::rtad());
        // Paper: step (1) "occupies the largest part".
        assert!(b.collect > b.vectorize);
        assert!(b.collect > b.deliver);
        // Step (2) is exactly the measured 16ns.
        assert_eq!(b.vectorize, Picos::from_nanos(16));
    }

    /// Fig. 7's RTAD breakdown, exactly: a change to the timed IGM
    /// (TA word times, P2S departures, IVG exits) or to the MCM's
    /// delivery shows here. Recorded from the IGM whose P2S was a
    /// simulated FIFO fed by its own TA loop.
    #[test]
    fn rtad_breakdown_is_pinned() {
        let b = measure_rtad_transfer(&sample_run(), PtmConfig::rtad());
        assert_eq!(b.collect, Picos::from_picos(3_129_978));
        assert_eq!(b.vectorize, Picos::from_picos(16_000));
        assert_eq!(b.deliver, Picos::from_picos(848_000));
    }

    #[test]
    fn rtad_is_an_order_of_magnitude_faster_than_sw() {
        let sw = measure_sw_transfer(&SwTransferModel::rtad_prototype(), &ClockDomain::rtad_cpu());
        let hw = measure_rtad_transfer(&sample_run(), PtmConfig::rtad());
        // Paper: 20.0us vs 3.62us (5.5x); require at least 3x.
        assert!(
            hw.total().as_micros_f64() * 3.0 < sw.total().as_micros_f64(),
            "hw {} vs sw {}",
            hw.total(),
            sw.total()
        );
        // And in the paper's ballpark (within ~2x of 3.62us).
        let t = hw.total().as_micros_f64();
        assert!((1.5..8.0).contains(&t), "RTAD total {t}us");
    }

    #[test]
    fn rtad_delivery_is_sub_microsecond_scale() {
        let hw = measure_rtad_transfer(&sample_run(), PtmConfig::rtad());
        // Paper: 0.78us of successive writes.
        let d = hw.deliver.as_micros_f64();
        assert!((0.2..1.6).contains(&d), "deliver {d}us");
    }
}
