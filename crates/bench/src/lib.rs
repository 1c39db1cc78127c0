//! Experiment runners shared by the `repro` binary and the Criterion
//! benches. One function per table/figure of the paper; each returns a
//! structured result whose `Display` prints the same rows/series the
//! paper reports. Sweeps run on `rtad-soc`'s batched sweep runner by
//! default (byte-identical output to the serial loops); [`perf`] holds
//! the host-performance telemetry behind `BENCH_pr2.json`.

use std::fmt;

pub mod perf;

pub use perf::{measure_engine_speedup, BenchReport, EngineComparison, StageTiming};

use rtad::miaow::area::{variant_area, EngineVariant};
use rtad::sim::Zc706;
use rtad::soc::backend::EngineKind;
use rtad::soc::detection::{DetectionConfig, DetectionOutcome, ModelKind, PreparedDetection};
use rtad::soc::overhead::{geomean_overhead, OverheadModel, OverheadRow, TraceMechanism};
use rtad::soc::sweep::{parallel_map, sweep_threads};
use rtad::soc::transfer::{measure_rtad_transfer, measure_sw_transfer, SwTransferModel};
use rtad::soc::{mlpu_total, rtad_module_inventory, TransferBreakdown};
use rtad::trace::PtmConfig;
use rtad::workloads::{Benchmark, ProgramModel};

/// Master seed of all reproduction runs (fix it and every number in
/// EXPERIMENTS.md regenerates exactly).
pub const REPRO_SEED: u64 = 0xDA7E_2019;

// ------------------------------------------------------------------
// Table I
// ------------------------------------------------------------------

/// Table I: the synthesized RTAD module inventory.
pub struct Table1;

impl Table1 {
    /// Runs the experiment (pure area-model assembly).
    pub fn run() -> Table1 {
        Table1
    }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Table I: synthesized results of RTAD ===")?;
        writeln!(
            f,
            "{:<6} {:<24} {:>9} {:>8} {:>7} {:>12}",
            "Module", "Submodule", "LUTs", "FFs", "BRAMs", "Gate Counts"
        )?;
        for row in rtad_module_inventory() {
            writeln!(
                f,
                "{:<6} {:<24} {:>9} {:>8} {:>7} {:>12}",
                row.module,
                row.submodule,
                row.area.luts,
                row.area.ffs,
                row.area.brams,
                row.area.gates
            )?;
        }
        let total = mlpu_total();
        writeln!(
            f,
            "{:<6} {:<24} {:>9} {:>8} {:>7} {:>12}",
            "Total", "", total.luts, total.ffs, total.brams, total.gates
        )?;
        let (l, ff, b) = Zc706::utilization(&total);
        writeln!(
            f,
            "\nZC706 utilization: {:.1}% LUTs, {:.1}% FFs, {:.1}% BRAMs \
             (paper: 91.2% / 18.5% / 27.5%)",
            l * 100.0,
            ff * 100.0,
            b * 100.0
        )
    }
}

// ------------------------------------------------------------------
// Table II
// ------------------------------------------------------------------

/// Table II: trimming results across engine variants, regenerated from
/// the coverage→trim→area pipeline.
pub struct Table2 {
    rows: Vec<(EngineVariant, rtad::sim::AreaEstimate)>,
}

impl Table2 {
    /// Runs the experiment: train the deployed models, lower to kernels,
    /// profile coverage on the full engine, trim, and price each variant.
    pub fn run() -> Table2 {
        use rtad::miaow::area::area_of_retained;
        use rtad::miaow::{CoverageSet, Engine, EngineConfig, TrimPlan};
        use rtad::ml::{DeviceModel, Elm, ElmConfig, ElmDevice, Lstm, LstmConfig, LstmDevice};

        // The deployed LSTM (Table II's comparison deploys one LSTM; our
        // trim plan merges the ELM too, which covers the same features).
        let normal: Vec<Vec<f32>> = (0..60)
            .map(|i| {
                let mut v = vec![0.0; 16];
                v[i % 4] = 0.6;
                v[(i + 1) % 4] = 0.4;
                v
            })
            .collect();
        let elm = Elm::train(&ElmConfig::rtad(), &normal, REPRO_SEED);
        let corpus: Vec<u32> = (0..400).map(|i| (i % 16) as u32).collect();
        let mut cfg = LstmConfig::rtad();
        cfg.epochs = 1;
        let lstm = Lstm::train(&cfg, &corpus, REPRO_SEED);
        let elm_dev = ElmDevice::compile(&elm);
        let lstm_dev = LstmDevice::compile(&lstm);

        let mut profiler = Engine::new(EngineConfig::miaow());
        let mut mem = elm_dev.load(&mut profiler);
        elm_dev
            .infer(&mut profiler, &mut mem, &[0.05; 16])
            .expect("profiling run");
        let mut mem = lstm_dev.load(&mut profiler);
        lstm_dev.reset(&mut mem);
        lstm_dev
            .step(&mut profiler, &mut mem, 1)
            .expect("profiling run");

        let mut merged = CoverageSet::new();
        merged.merge(profiler.observed_coverage());
        let line = TrimPlan::from_coverage(&merged);
        let block = TrimPlan::block_level(&merged);

        Table2 {
            rows: vec![
                (EngineVariant::Miaow, variant_area(EngineVariant::Miaow)),
                (EngineVariant::Miaow2, block.area()),
                (EngineVariant::MlMiaow, area_of_retained(line.retained())),
            ],
        }
    }

    /// The per-CU LUT+FF sums, in MIAOW / MIAOW2.0 / ML-MIAOW order.
    pub fn sums(&self) -> Vec<u64> {
        self.rows.iter().map(|(_, a)| a.lut_ff_sum()).collect()
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Table II: trimming result of ML-MIAOW ===")?;
        writeln!(
            f,
            "{:<16} {:>9} {:>9} {:>9} {:>7}",
            "", "LUTs", "FFs", "Sum", "Area"
        )?;
        let full = self.rows[0].1;
        for (variant, area) in &self.rows {
            let delta = if *variant == EngineVariant::Miaow {
                "-".into()
            } else {
                format!("-{:.0}%", area.reduction_vs(&full) * 100.0)
            };
            writeln!(
                f,
                "{:<16} {:>9} {:>9} {:>9} {:>7}",
                variant.to_string(),
                area.luts,
                area.ffs,
                area.lut_ff_sum(),
                delta
            )?;
        }
        writeln!(
            f,
            "\nML-MIAOW perf-per-area: {:.1}x vs MIAOW, {:.1}x vs MIAOW2.0 \
             (paper: ~5x, 3.2x)",
            full.lut_ff_sum() as f64 / self.rows[2].1.lut_ff_sum() as f64,
            self.rows[1].1.lut_ff_sum() as f64 / self.rows[2].1.lut_ff_sum() as f64
        )
    }
}

// ------------------------------------------------------------------
// Fig. 6
// ------------------------------------------------------------------

/// Fig. 6: host performance overhead per benchmark and mechanism.
pub struct Fig6 {
    rows: Vec<OverheadRow>,
}

impl Fig6 {
    /// Runs the sweep over all twelve benchmarks.
    pub fn run(branches: usize) -> Fig6 {
        Fig6 {
            rows: OverheadModel::rtad_prototype().measure_all(branches, REPRO_SEED),
        }
    }

    /// Geometric-mean overhead of one mechanism.
    pub fn geomean(&self, mech: TraceMechanism) -> f64 {
        geomean_overhead(&self.rows, mech)
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig. 6: performance overhead of RTAD (percent) ===")?;
        writeln!(
            f,
            "{:<16} {:>8} {:>8} {:>9} {:>8}",
            "benchmark", "RTAD", "SW_SYS", "SW_FUNC", "SW_ALL"
        )?;
        for row in &self.rows {
            writeln!(
                f,
                "{:<16} {:>8.3} {:>8.2} {:>9.2} {:>8.2}",
                row.bench.to_string(),
                row.overhead(TraceMechanism::Rtad) * 100.0,
                row.overhead(TraceMechanism::SwSys) * 100.0,
                row.overhead(TraceMechanism::SwFunc) * 100.0,
                row.overhead(TraceMechanism::SwAll) * 100.0,
            )?;
        }
        writeln!(
            f,
            "{:<16} {:>8.3} {:>8.2} {:>9.2} {:>8.2}",
            "geomean",
            self.geomean(TraceMechanism::Rtad) * 100.0,
            self.geomean(TraceMechanism::SwSys) * 100.0,
            self.geomean(TraceMechanism::SwFunc) * 100.0,
            self.geomean(TraceMechanism::SwAll) * 100.0,
        )?;
        writeln!(f, "(paper geomeans: 0.052 / 0.6 / 10.7 / 43.4)")
    }
}

// ------------------------------------------------------------------
// Fig. 7
// ------------------------------------------------------------------

/// Fig. 7: data-transfer latency, SW vs RTAD, three steps each.
pub struct Fig7 {
    /// Software-path breakdown.
    pub sw: TransferBreakdown,
    /// RTAD-path breakdown (measured on the simulated pipeline).
    pub rtad: TransferBreakdown,
}

impl Fig7 {
    /// Runs the measurement on a gcc-like branch run.
    pub fn run(branches: usize) -> Fig7 {
        let run = ProgramModel::build(Benchmark::Gcc, REPRO_SEED).generate(branches, 1);
        Fig7 {
            sw: measure_sw_transfer(
                &SwTransferModel::rtad_prototype(),
                &rtad::sim::ClockDomain::rtad_cpu(),
            ),
            rtad: measure_rtad_transfer(&run, PtmConfig::rtad()),
        }
    }
}

impl fmt::Display for Fig7 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig. 7: data transfer latency (us) ===")?;
        writeln!(
            f,
            "{:<6} {:>12} {:>13} {:>11} {:>9}",
            "path", "(1) collect", "(2) vectorize", "(3) deliver", "total"
        )?;
        for (name, b) in [("SW", &self.sw), ("RTAD", &self.rtad)] {
            writeln!(
                f,
                "{:<6} {:>12.2} {:>13.3} {:>11.2} {:>9.2}",
                name,
                b.collect.as_micros_f64(),
                b.vectorize.as_micros_f64(),
                b.deliver.as_micros_f64(),
                b.total().as_micros_f64()
            )?;
        }
        let lead = self.sw.total().saturating_sub(self.rtad.total());
        writeln!(
            f,
            "\nRTAD drives MCM {:.1}us earlier than SW (paper: 16.4us; \
             paper totals 20.0 vs 3.62us)",
            lead.as_micros_f64()
        )
    }
}

// ------------------------------------------------------------------
// Fig. 8
// ------------------------------------------------------------------

/// One Fig. 8 cell: a (benchmark, model, engine) detection measurement.
pub struct Fig8Cell {
    /// The benchmark.
    pub bench: Benchmark,
    /// The model.
    pub model: ModelKind,
    /// The engine.
    pub engine: EngineKind,
    /// The outcome.
    pub outcome: DetectionOutcome,
}

/// Fig. 8: detection latency of each model on each engine, per benchmark.
pub struct Fig8 {
    /// All measured cells.
    pub cells: Vec<Fig8Cell>,
}

impl Fig8 {
    /// Runs the sweep on the batched sweep runner (one worker per
    /// available core). `benches` selects the benchmark subset (the
    /// full twelve take a while).
    pub fn run(benches: &[Benchmark]) -> Fig8 {
        Fig8::run_threaded(benches, sweep_threads())
    }

    /// Runs the sweep on the plain serial loop (the `--serial` path of
    /// the `repro` binary). Cell-for-cell identical to [`Fig8::run`].
    pub fn run_serial(benches: &[Benchmark]) -> Fig8 {
        Fig8::run_threaded(benches, 1)
    }

    fn run_threaded(benches: &[Benchmark], threads: usize) -> Fig8 {
        // One preparation per (benchmark, model): training, threshold
        // calibration, kernel compilation, trim profiling and attack
        // injection are engine-independent, so the MIAOW and ML-MIAOW
        // cells share them and only re-measure cycles-per-event. Cells
        // come back in input order, so the rendered figure is
        // byte-identical to the old bench→model→engine nested loop.
        let pairs: Vec<(Benchmark, ModelKind)> = benches
            .iter()
            .flat_map(|&bench| [(bench, ModelKind::Elm), (bench, ModelKind::Lstm)])
            .collect();
        let groups = parallel_map(&pairs, threads, |_, &(bench, model)| {
            let config = DetectionConfig {
                seed: REPRO_SEED,
                ..DetectionConfig::fig8(bench, model, EngineKind::Miaow)
            };
            let prepared = PreparedDetection::prepare(config);
            [EngineKind::Miaow, EngineKind::MlMiaow].map(|engine| {
                let outcome = prepared.run_for(engine).execute();
                Fig8Cell {
                    bench,
                    model,
                    engine,
                    outcome,
                }
            })
        });
        Fig8 {
            cells: groups.into_iter().flatten().collect(),
        }
    }

    fn cell(&self, bench: Benchmark, model: ModelKind, engine: EngineKind) -> Option<&Fig8Cell> {
        self.cells
            .iter()
            .find(|c| c.bench == bench && c.model == model && c.engine == engine)
    }

    /// Mean latency (us) over detected cells for a model/engine pair.
    pub fn mean_latency_us(&self, model: ModelKind, engine: EngineKind) -> f64 {
        let v: Vec<f64> = self
            .cells
            .iter()
            .filter(|c| c.model == model && c.engine == engine)
            .filter_map(|c| c.outcome.latency.map(rtad::sim::Picos::as_micros_f64))
            .collect();
        if v.is_empty() {
            f64::NAN
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    }
}

impl fmt::Display for Fig8 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "=== Fig. 8: latencies of anomaly detection (us) ===")?;
        writeln!(
            f,
            "{:<16} {:>11} {:>11} {:>11} {:>11}  overflow(LSTM/MIAOW)",
            "benchmark", "ELM/MIAOW", "ELM/ML-M", "LSTM/MIAOW", "LSTM/ML-M"
        )?;
        let benches: Vec<Benchmark> = {
            let mut v: Vec<Benchmark> = self.cells.iter().map(|c| c.bench).collect();
            v.dedup();
            v
        };
        for bench in benches {
            let fmt_cell = |m, e| -> String {
                match self.cell(bench, m, e) {
                    Some(c) => match c.outcome.latency {
                        Some(l) => format!("{:.2}", l.as_micros_f64()),
                        None => "miss".into(),
                    },
                    None => "-".into(),
                }
            };
            let overflow = self
                .cell(bench, ModelKind::Lstm, EngineKind::Miaow)
                .map_or(0, |c| c.outcome.mcm_overflow);
            writeln!(
                f,
                "{:<16} {:>11} {:>11} {:>11} {:>11}  {}",
                bench.to_string(),
                fmt_cell(ModelKind::Elm, EngineKind::Miaow),
                fmt_cell(ModelKind::Elm, EngineKind::MlMiaow),
                fmt_cell(ModelKind::Lstm, EngineKind::Miaow),
                fmt_cell(ModelKind::Lstm, EngineKind::MlMiaow),
                overflow
            )?;
        }
        let speedup = |m| {
            self.mean_latency_us(m, EngineKind::Miaow)
                / self.mean_latency_us(m, EngineKind::MlMiaow)
        };
        writeln!(
            f,
            "\nmeans: ELM {:.2} -> {:.2}us ({:.2}x), LSTM {:.2} -> {:.2}us ({:.2}x)",
            self.mean_latency_us(ModelKind::Elm, EngineKind::Miaow),
            self.mean_latency_us(ModelKind::Elm, EngineKind::MlMiaow),
            speedup(ModelKind::Elm),
            self.mean_latency_us(ModelKind::Lstm, EngineKind::Miaow),
            self.mean_latency_us(ModelKind::Lstm, EngineKind::MlMiaow),
            speedup(ModelKind::Lstm),
        )?;
        writeln!(
            f,
            "(paper means: ELM 13.83 -> 4.21us, LSTM 53.16 -> 23.98us; 2.75x average)"
        )
    }
}

/// Test-only host-CPU lock. The tests that assert a wall-clock
/// comparison (batched vs per-window engine dispatch) take it
/// exclusively and every other simulator test of this crate takes it
/// shared, so on a small host no other test's work lands in one side of
/// a comparison. A poisoned lock only means a holder panicked; the
/// guard protects no data.
#[cfg(test)]
pub(crate) mod host_cpu {
    use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

    static LOCK: RwLock<()> = RwLock::new(());

    /// For a test that asserts wall-clock timings.
    pub(crate) fn exclusive() -> RwLockWriteGuard<'static, ()> {
        LOCK.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// For any other test that runs the simulator.
    pub(crate) fn shared() -> RwLockReadGuard<'static, ()> {
        LOCK.read().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_prints_all_rows() {
        let _cpu = host_cpu::shared();
        let s = format!("{}", Table1::run());
        assert!(s.contains("Trace Analyzer"));
        assert!(s.contains("ML-MIAOW (5 CUs)"));
        assert!(s.contains("199406"));
    }

    #[test]
    fn table2_reproduces_sums() {
        let _cpu = host_cpu::shared();
        let t = Table2::run();
        assert_eq!(t.sums(), vec![287_903, 167_721, 52_018]);
    }

    #[test]
    fn fig6_ordering_holds() {
        let _cpu = host_cpu::shared();
        let f6 = Fig6::run(20_000);
        assert!(f6.geomean(TraceMechanism::Rtad) < f6.geomean(TraceMechanism::SwSys));
        assert!(f6.geomean(TraceMechanism::SwSys) < f6.geomean(TraceMechanism::SwFunc));
        assert!(f6.geomean(TraceMechanism::SwFunc) < f6.geomean(TraceMechanism::SwAll));
    }

    #[test]
    fn fig7_rtad_beats_sw() {
        let _cpu = host_cpu::shared();
        let f7 = Fig7::run(3_000);
        assert!(f7.rtad.total() < f7.sw.total());
    }
}
