//! Host-performance telemetry for the reproduction harness.
//!
//! The simulated numbers (cycles, latencies, areas) are the paper's
//! results; this module measures the *simulator's* own speed: how long
//! each reproduction stage takes on the host, and how much batched
//! engine dispatch buys over a per-window dispatch loop.
//! `repro -- fig8-full` emits the report as `BENCH_pr2.json` (schema
//! documented in EXPERIMENTS.md); everything is hand-rolled because the
//! workspace vendors no JSON crate.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

use rtad::miaow::{Engine, EngineConfig};
use rtad::ml::{DeviceModel, Elm, ElmConfig, ElmDevice, Lstm, LstmConfig, LstmDevice};
use rtad::soc::backend::profile_trim_plan;

/// Wall-clock of one named reproduction stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTiming {
    /// Stage name (e.g. `fig8_sweep`).
    pub name: String,
    /// Elapsed host wall-clock in milliseconds.
    pub wall_ms: f64,
}

/// Serial-vs-auto engine measurement over a multi-stream batch. "Auto"
/// means batched dispatch: the same per-stream ELM inferences and
/// lockstep LSTM steps run once as a per-window dispatch loop (the
/// serving shape before batching: one fused-stream launch per stream
/// per window) and once through the batched passes (`infer_batch` /
/// `step_batch`, one stream-cache lookup per batch), on engines of the
/// same configuration. Simulated cycle counts are recorded for both
/// sides so the report itself witnesses that batching changes nothing
/// the paper measures.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineComparison {
    /// Batched pass repetitions timed per side.
    pub reps: usize,
    /// Concurrent streams in the batch.
    pub streams: usize,
    /// ELM per-event simulated cycles on the serial per-window path.
    pub elm_cycles_serial: u64,
    /// ELM per-event simulated cycles on the batched auto path.
    pub elm_cycles_auto: u64,
    /// LSTM per-step simulated cycles on the serial per-window path.
    pub lstm_cycles_serial: u64,
    /// LSTM per-step simulated cycles on the batched auto path.
    pub lstm_cycles_auto: u64,
    /// Host wall-clock of the per-window serial pass, milliseconds.
    pub serial_wall_ms: f64,
    /// Host wall-clock of the batched auto pass, milliseconds.
    pub auto_wall_ms: f64,
}

impl EngineComparison {
    /// Host speedup of the batched auto pass over the serial pass.
    pub fn speedup(&self) -> f64 {
        self.serial_wall_ms / self.auto_wall_ms
    }

    /// True when both sides simulated identical cycle counts (always,
    /// by construction; kept as an explicit witness for the report).
    pub fn cycles_match(&self) -> bool {
        self.elm_cycles_serial == self.elm_cycles_auto
            && self.lstm_cycles_serial == self.lstm_cycles_auto
    }
}

/// The `BENCH_pr2.json` payload: per-stage wall-clocks plus the
/// serial-vs-auto engine comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Master seed the reproduction ran under.
    pub seed: u64,
    /// `"parallel"` or `"serial"` (the `--serial` flag).
    pub sweep_mode: String,
    /// Worker count the sweep runner used.
    pub sweep_threads: usize,
    /// Timed stages, in execution order.
    pub stages: Vec<StageTiming>,
    /// The engine measurement, when one was run.
    pub engine: Option<EngineComparison>,
}

impl BenchReport {
    /// Starts an empty report.
    pub fn new(seed: u64, sweep_mode: &str, sweep_threads: usize) -> BenchReport {
        BenchReport {
            seed,
            sweep_mode: sweep_mode.to_string(),
            sweep_threads,
            stages: Vec::new(),
            engine: None,
        }
    }

    /// Appends a timed stage.
    pub fn push_stage(&mut self, name: &str, wall: Duration) {
        self.stages.push(StageTiming {
            name: name.to_string(),
            wall_ms: wall.as_secs_f64() * 1e3,
        });
    }

    /// Renders the report as pretty-printed JSON (stable key order).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        let _ = writeln!(s, "  \"schema\": \"rtad-bench-pr2/v1\",");
        let _ = writeln!(s, "  \"seed\": {},", self.seed);
        let _ = writeln!(
            s,
            "  \"sweep\": {{ \"mode\": {}, \"threads\": {} }},",
            json_string(&self.sweep_mode),
            self.sweep_threads
        );
        s.push_str("  \"stages\": [");
        for (i, stage) in self.stages.iter().enumerate() {
            let sep = if i + 1 < self.stages.len() { "," } else { "" };
            let _ = write!(
                s,
                "\n    {{ \"name\": {}, \"wall_ms\": {} }}{sep}",
                json_string(&stage.name),
                json_f64(stage.wall_ms)
            );
        }
        if self.stages.is_empty() {
            s.push_str("],\n");
        } else {
            s.push_str("\n  ],\n");
        }
        match &self.engine {
            None => s.push_str("  \"engine_speedup\": null\n"),
            Some(e) => {
                s.push_str("  \"engine_speedup\": {\n");
                let _ = writeln!(s, "    \"reps\": {},", e.reps);
                let _ = writeln!(s, "    \"streams\": {},", e.streams);
                let _ = writeln!(
                    s,
                    "    \"simulated_cycles\": {{\n      \"elm\": {{ \"serial\": {}, \"auto\": {} }},\n      \"lstm\": {{ \"serial\": {}, \"auto\": {} }}\n    }},",
                    e.elm_cycles_serial,
                    e.elm_cycles_auto,
                    e.lstm_cycles_serial,
                    e.lstm_cycles_auto
                );
                let _ = writeln!(s, "    \"cycles_match\": {},", e.cycles_match());
                let _ = writeln!(
                    s,
                    "    \"wall_ms\": {{ \"serial\": {}, \"auto\": {} }},",
                    json_f64(e.serial_wall_ms),
                    json_f64(e.auto_wall_ms)
                );
                let _ = writeln!(s, "    \"speedup\": {}", json_f64(e.speedup()));
                s.push_str("  }\n");
            }
        }
        s.push('}');
        s.push('\n');
        s
    }

    /// Writes the JSON report to `path`.
    ///
    /// # Errors
    ///
    /// Propagates the filesystem error when the path is not writable.
    pub fn write_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

/// JSON string literal with the escapes our names can need.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Finite JSON number with millisecond-scale precision.
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

fn trained_devices(seed: u64) -> (ElmDevice, LstmDevice) {
    let normal: Vec<Vec<f32>> = (0..60)
        .map(|i| {
            let mut v = vec![0.0; 16];
            v[i % 4] = 0.6;
            v[(i + 1) % 4] = 0.4;
            v
        })
        .collect();
    let elm = Elm::train(&ElmConfig::rtad(), &normal, seed);
    let corpus: Vec<u32> = (0..400).map(|i| (i % 16) as u32).collect();
    let mut cfg = LstmConfig::rtad();
    cfg.epochs = 1;
    let lstm = Lstm::train(&cfg, &corpus, seed);
    (ElmDevice::compile(&elm), LstmDevice::compile(&lstm))
}

/// Streams in the engine-comparison batch. The batched dispatcher's
/// edge is amortization (one predecode lookup, one dispatch-policy
/// decision and one job table per kernel per *batch* instead of per
/// *window*), so it needs enough streams for the per-batch setup to pay
/// for itself; 64 matches the widest serving cell and sits well past
/// the measured break-even (~16 streams on the bench host).
const COMPARISON_STREAMS: usize = 64;

/// Timed trials per engine comparison (odd, so the median trial is one
/// trial). The batched side's edge is 1.3–3.4% of wall-clock on the
/// interpreter (dev profile, 2-core host, idle or with both cores kept
/// busy by two spin loops), and with both cores oversubscribed a single
/// trial's speedup spreads by tens of percent; the median of 199 paired
/// trials still holds its sign there. A trial of the optimized
/// simulator takes ~40 ms at `reps = 4`.
const COMPARISON_TRIALS: usize = 199;

/// Distinct per-stream ELM inputs (identical inputs would let the
/// allocator or branch predictor flatter one side).
fn comparison_inputs(streams: usize) -> Vec<Vec<f32>> {
    (0..streams)
        .map(|s| {
            (0..16)
                .map(|j| ((s * 16 + j) as f32 * 0.013).sin() * 0.3)
                .collect()
        })
        .collect()
}

/// Warm per-side measurement state: one engine plus loaded per-stream
/// memories for both models, reused across every timed trial so trials
/// measure steady-state dispatch, not image loading or allocator churn.
struct ComparisonSide {
    engine: Engine,
    elm_mems: Vec<rtad::miaow::GpuMemory>,
    lstm_mems: Vec<rtad::miaow::GpuMemory>,
}

impl ComparisonSide {
    fn new(
        elm_dev: &ElmDevice,
        lstm_dev: &LstmDevice,
        config: EngineConfig,
        streams: usize,
    ) -> ComparisonSide {
        let mut engine = Engine::new(config);
        let elm_mems: Vec<_> = (0..streams).map(|_| elm_dev.load(&mut engine)).collect();
        let mut lstm_mems: Vec<_> = (0..streams).map(|_| lstm_dev.load(&mut engine)).collect();
        for m in &mut lstm_mems {
            lstm_dev.reset(m);
        }
        ComparisonSide {
            engine,
            elm_mems,
            lstm_mems,
        }
    }
}

/// Measures batched dispatch against the per-window serial dispatch
/// loop over a `COMPARISON_STREAMS`-stream batch. Both sides run on
/// an `EngineConfig::ml_miaow` engine. The serial side runs one
/// `infer` / `step` dispatch per stream per window — the serving loop
/// the batched passes replaced; the batched side dispatches the same
/// windows through `infer_batch` / `step_batch`. The simulated cycle
/// counts must (and do) match bit-for-bit, stream by stream; only the
/// host wall-clock differs.
///
/// Each of `COMPARISON_TRIALS` trials times, on warm engines, the
/// `reps` ELM passes of both sides back to back and then the `reps`
/// LSTM passes of both sides, alternating which side goes first. The
/// comparison reports the median trial by speedup, so both sides are
/// always timed under the same host conditions. (A per-side best trial
/// would compare the two sides at different moments of a host whose
/// speed drifts by more than the batched side's few-percent edge.)
///
/// # Panics
///
/// Panics if the two sides ever disagree on simulated cycles — that
/// would mean batched dispatch broke the determinism contract.
pub fn measure_engine_speedup(seed: u64, reps: usize) -> EngineComparison {
    let (elm_dev, lstm_dev) = trained_devices(seed);
    let plan = profile_trim_plan(&elm_dev, &lstm_dev);
    let streams = COMPARISON_STREAMS;
    let xs = comparison_inputs(streams);
    let tokens: Vec<u32> = (0..streams).map(|s| (s % 16) as u32).collect();

    let config = EngineConfig::ml_miaow(&plan);
    let mut serial = ComparisonSide::new(&elm_dev, &lstm_dev, config.clone(), streams);
    let mut auto = ComparisonSide::new(&elm_dev, &lstm_dev, config, streams);

    let (mut elm_s, mut lstm_s, mut elm_a, mut lstm_a) = (0u64, 0u64, 0u64, 0u64);
    // One trial times each model on both sides back to back; the side
    // timed first alternates between trials. `wall` is [serial, auto].
    let mut trials: Vec<(f64, f64)> = Vec::with_capacity(COMPARISON_TRIALS);
    for trial in 0..COMPARISON_TRIALS {
        let order = if trial % 2 == 0 { [0, 1] } else { [1, 0] };
        let mut wall = [0.0f64; 2];
        for side in order {
            let start = Instant::now();
            for _ in 0..reps {
                if side == 1 {
                    elm_a = elm_dev
                        .infer_batch(&mut auto.engine, &mut auto.elm_mems, &xs)
                        .expect("measurement batch runs")
                        .last()
                        .expect("at least one stream")
                        .cycles;
                } else {
                    for (mem, x) in serial.elm_mems.iter_mut().zip(&xs) {
                        elm_s = elm_dev
                            .infer(&mut serial.engine, mem, x)
                            .expect("measurement inference runs")
                            .cycles;
                    }
                }
            }
            wall[side] += start.elapsed().as_secs_f64() * 1e3;
        }
        for side in order {
            let start = Instant::now();
            for _ in 0..reps {
                if side == 1 {
                    lstm_a = lstm_dev
                        .step_batch(&mut auto.engine, &mut auto.lstm_mems, &tokens)
                        .expect("measurement batch runs")
                        .last()
                        .expect("at least one stream")
                        .cycles;
                } else {
                    for (mem, &t) in serial.lstm_mems.iter_mut().zip(&tokens) {
                        lstm_s = lstm_dev
                            .step(&mut serial.engine, mem, t)
                            .expect("measurement step runs")
                            .cycles;
                    }
                }
            }
            wall[side] += start.elapsed().as_secs_f64() * 1e3;
        }
        assert_eq!(elm_s, elm_a, "batched engine changed ELM cycles");
        assert_eq!(lstm_s, lstm_a, "batched engine changed LSTM cycles");
        trials.push((wall[0], wall[1]));
    }
    // The median trial by speedup (the trial count is odd).
    trials.sort_by(|a, b| (a.0 / a.1).total_cmp(&(b.0 / b.1)));
    let (serial_wall_ms, auto_wall_ms) = trials[COMPARISON_TRIALS / 2];
    // Both sides stepped the same stream count the same number of
    // times, so the recurrent LSTM states stay in lockstep and the
    // per-stream memory images must agree bit-for-bit.
    assert_eq!(serial.elm_mems, auto.elm_mems, "batched ELM diverged");
    assert_eq!(serial.lstm_mems, auto.lstm_mems, "batched LSTM diverged");

    EngineComparison {
        reps,
        streams,
        elm_cycles_serial: elm_s,
        elm_cycles_auto: elm_a,
        lstm_cycles_serial: lstm_s,
        lstm_cycles_auto: lstm_a,
        serial_wall_ms,
        auto_wall_ms,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_json_has_stable_shape() {
        let mut r = BenchReport::new(7, "parallel", 4);
        r.push_stage("fig8_sweep", Duration::from_millis(1500));
        r.engine = Some(EngineComparison {
            reps: 8,
            streams: 64,
            elm_cycles_serial: 1000,
            elm_cycles_auto: 1000,
            lstm_cycles_serial: 2000,
            lstm_cycles_auto: 2000,
            serial_wall_ms: 10.0,
            auto_wall_ms: 5.0,
        });
        let json = r.to_json();
        assert!(json.contains("\"schema\": \"rtad-bench-pr2/v1\""));
        assert!(json.contains("\"seed\": 7"));
        assert!(json.contains("\"mode\": \"parallel\", \"threads\": 4"));
        assert!(json.contains("\"name\": \"fig8_sweep\", \"wall_ms\": 1500.000"));
        assert!(json.contains("\"streams\": 64,"));
        assert!(json.contains("\"elm\": { \"serial\": 1000, \"auto\": 1000 }"));
        assert!(json.contains("\"cycles_match\": true"));
        assert!(json.contains("\"speedup\": 2.000"));
    }

    #[test]
    fn report_without_engine_serializes_null() {
        let r = BenchReport::new(1, "serial", 1);
        let json = r.to_json();
        assert!(json.contains("\"stages\": [],"));
        assert!(json.contains("\"engine_speedup\": null"));
    }

    #[test]
    fn json_strings_escape_specials() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.25), "1.250");
    }

    #[test]
    fn engine_speedup_preserves_simulated_cycles() {
        let _cpu = crate::host_cpu::shared();
        let cmp = measure_engine_speedup(REPRO_TEST_SEED, 1);
        assert!(cmp.cycles_match());
        assert_eq!(cmp.streams, COMPARISON_STREAMS);
        assert!(cmp.elm_cycles_serial > 0);
        assert!(cmp.lstm_cycles_serial > 0);
        assert!(cmp.serial_wall_ms > 0.0);
        assert!(cmp.auto_wall_ms > 0.0);
    }

    /// The engine-dispatch regression gate: batched dispatch amortizes
    /// per-launch setup across the batch, so over a 64-stream batch it
    /// must actually *win* against the per-window serial loop.
    #[test]
    fn auto_engine_mode_is_not_slower_than_serial() {
        let _cpu = crate::host_cpu::exclusive();
        let cmp = measure_engine_speedup(33, 4);
        assert!(cmp.cycles_match());
        assert!(
            cmp.speedup() >= 1.0,
            "auto batched dispatch lost to serial: {:.3}x (serial {:.2} ms, auto {:.2} ms)",
            cmp.speedup(),
            cmp.serial_wall_ms,
            cmp.auto_wall_ms
        );
    }

    const REPRO_TEST_SEED: u64 = 11;
}
