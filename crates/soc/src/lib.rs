//! The RTAD MPSoC: host CPU + MLPU integration and the paper's
//! experiments.
//!
//! This crate assembles the substrates into the system of Fig. 1 — an
//! ARM-like host CPU whose CoreSight PTM feeds the MLPU (IGM → MCM →
//! ML-MIAOW) over the NIC-301 interconnect — and implements the
//! measurement harnesses behind every result in §IV:
//!
//! * [`overhead`] — Fig. 6: host slowdown of RTAD vs the SW_SYS /
//!   SW_FUNC / SW_ALL software tracing baselines on the twelve
//!   CINT2006-like workloads.
//! * [`transfer`] — Fig. 7: the three-step data-path latency (collect →
//!   vectorize → deliver), software vs RTAD hardware.
//! * [`detection`] — Fig. 8: end-to-end anomaly detection latency of the
//!   ELM and LSTM models on MIAOW vs ML-MIAOW, with attack injection.
//! * [`watchlist`] — how the IGM address-mapper tables are derived from
//!   profiling runs (syscall tables for the ELM, branch watchlists for
//!   the LSTM).
//! * [`backend`] — [`rtad_mcm::InferenceEngine`] implementations: the
//!   full device path and the calibrated hybrid (host-functional,
//!   device-timed) used for long experiment sweeps.
//! * [`serve`] — the serving plane's shared core: [`ServeSpec`] (the
//!   deployed model, IGM table and verdict policy), the per-stream
//!   [`VerdictState`], the [`serial_reference`] oracle, and the one
//!   batch former (cross-stream batched ELM/LSTM scoring plus
//!   verdicts) that the serving plane below owns.
//! * [`sparse`] — the serving plane, on the calling thread: per-stream
//!   bounded rings feeding an epoll-style readiness queue so a
//!   100k-stream, mostly-idle population costs CPU proportional to
//!   *ready* streams and a measured, compact number of resident bytes
//!   per idle stream. It is bit-identical to the serial reference and
//!   allocation-free in steady state.
//! * [`sweep`] — the batched sweep runner: order-preserving parallel
//!   execution of independent experiment cells (figure output stays
//!   byte-identical to the serial loops).
//! * [`area`] — Table I assembly: the full RTAD module inventory.
//!
//! # Examples
//!
//! Reproduce one Fig. 6 bar:
//!
//! ```
//! use rtad_soc::overhead::{OverheadModel, TraceMechanism};
//! use rtad_workloads::Benchmark;
//!
//! let model = OverheadModel::rtad_prototype();
//! let row = model.measure(Benchmark::Bzip2, 50_000, 0);
//! let rtad = row.overhead(TraceMechanism::Rtad);
//! let sw_all = row.overhead(TraceMechanism::SwAll);
//! assert!(rtad < 0.01, "RTAD overhead is sub-percent");
//! assert!(sw_all > 10.0 * rtad, "software tracing is far costlier");
//! ```

pub mod area;
pub mod backend;
pub mod detection;
pub mod overhead;
pub mod serve;
pub mod sparse;
pub mod sweep;
pub mod transfer;
pub mod watchlist;

pub use area::{mlpu_total, rtad_module_inventory, ModuleArea};
pub use backend::{
    attest_model_kernels, measure_elm_cycles, measure_lstm_cycles, profile_trim_plan,
    DeviceBackend, EngineKind, HybridBackend, PayloadScorer, SequenceBackendModel,
    VectorBackendModel,
};
pub use detection::{
    DetectionConfig, DetectionOutcome, DetectionRun, ModelKind, PreparedDetection,
};
pub use overhead::{OverheadModel, OverheadRow, TraceMechanism};
pub use serve::{
    encode_streams, fold_score_hash, score_hash, serial_reference, ServeModel, ServeSpec,
    SparseOutcome, StreamOutcome, VerdictPolicy, VerdictState, SCORE_HASH_SEED,
};
pub use sparse::{
    ByteRing, MemoryFootprint, ReadyQueue, RingPool, RingStorage, RoundStats, ShardConfig,
    ShardFeeder, ShardedSparsePipeline, SparseConfig, SparsePipeline, SparseStats,
};
pub use sweep::{parallel_map, sweep_threads};
pub use transfer::{
    measure_rtad_transfer, measure_sw_transfer, SwTransferModel, TransferBreakdown,
};
pub use watchlist::{
    build_lstm_table, hit_fraction, select_watchlist, syscall_table, LstmTable, WatchlistSpec,
};
