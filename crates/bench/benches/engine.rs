//! Criterion microbenchmarks of the MIAOW engine simulator: per-event
//! inference on MIAOW vs ML-MIAOW (the engine axis of Fig. 8). Wall
//! clock here is simulator speed; the *simulated* cycle counts (the
//! paper's metric) are printed once per configuration.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use rtad_miaow::{Engine, EngineConfig};
use rtad_ml::{DeviceModel, Elm, ElmConfig, ElmDevice, Lstm, LstmConfig, LstmDevice};
use rtad_soc::backend::{profile_trim_plan, EngineKind};

fn trained_devices() -> (ElmDevice, LstmDevice) {
    let normal: Vec<Vec<f32>> = (0..60)
        .map(|i| {
            let mut v = vec![0.0; 16];
            v[i % 4] = 0.6;
            v[(i + 1) % 4] = 0.4;
            v
        })
        .collect();
    let elm = Elm::train(&ElmConfig::rtad(), &normal, 1);
    let corpus: Vec<u32> = (0..400).map(|i| (i % 16) as u32).collect();
    let mut cfg = LstmConfig::rtad();
    cfg.epochs = 1;
    let lstm = Lstm::train(&cfg, &corpus, 1);
    (ElmDevice::compile(&elm), LstmDevice::compile(&lstm))
}

fn bench_inference(c: &mut Criterion) {
    let (elm_dev, lstm_dev) = trained_devices();
    let plan = profile_trim_plan(&elm_dev, &lstm_dev);

    let mut group = c.benchmark_group("engine_inference");
    for engine_kind in [EngineKind::Miaow, EngineKind::MlMiaow] {
        // Report the simulated cycles once.
        {
            let mut engine = Engine::new(engine_kind.engine_config(&plan));
            let mut mem = elm_dev.load(&mut engine);
            let elm_cycles = elm_dev
                .infer(&mut engine, &mut mem, &[0.05; 16])
                .expect("runs")
                .cycles;
            let mut mem = lstm_dev.load(&mut engine);
            lstm_dev.reset(&mut mem);
            let lstm_cycles = lstm_dev
                .step(&mut engine, &mut mem, 1)
                .expect("runs")
                .cycles;
            println!(
                "[simulated] {engine_kind}: ELM {elm_cycles} cycles ({:.2}us @50MHz), \
                 LSTM {lstm_cycles} cycles ({:.2}us @50MHz)",
                elm_cycles as f64 / 50.0,
                lstm_cycles as f64 / 50.0
            );
        }

        group.bench_with_input(
            BenchmarkId::new("elm_infer", engine_kind.to_string()),
            &engine_kind,
            |b, &kind| {
                let mut engine = Engine::new(kind.engine_config(&plan));
                let mut mem = elm_dev.load(&mut engine);
                b.iter(|| {
                    elm_dev
                        .infer(&mut engine, &mut mem, &[0.05; 16])
                        .expect("runs")
                });
            },
        );
        group.bench_with_input(
            BenchmarkId::new("lstm_step", engine_kind.to_string()),
            &engine_kind,
            |b, &kind| {
                let mut engine = Engine::new(kind.engine_config(&plan));
                let mut mem = lstm_dev.load(&mut engine);
                lstm_dev.reset(&mut mem);
                let mut t = 0u32;
                b.iter(|| {
                    t = (t + 1) % 16;
                    lstm_dev.step(&mut engine, &mut mem, t).expect("runs")
                });
            },
        );
    }
    group.finish();
}

fn bench_trim_flow(c: &mut Criterion) {
    let (elm_dev, lstm_dev) = trained_devices();
    c.bench_function("coverage_profile_and_trim", |b| {
        b.iter(|| profile_trim_plan(&elm_dev, &lstm_dev));
    });
}

fn bench_engine_scaling(c: &mut Criterion) {
    // Simulator cost of a fixed kernel as CU count grows (also prints
    // the simulated-latency scaling behind the 5-CU design point).
    let (_, lstm_dev) = trained_devices();
    let plan = {
        let (e, l) = trained_devices();
        profile_trim_plan(&e, &l)
    };
    let mut group = c.benchmark_group("cu_scaling");
    for cus in [1usize, 2, 5, 8] {
        let mut config = EngineConfig::ml_miaow(&plan);
        config.cus = cus;
        {
            let mut engine = Engine::new(config.clone());
            let mut mem = lstm_dev.load(&mut engine);
            lstm_dev.reset(&mut mem);
            let cycles = lstm_dev
                .step(&mut engine, &mut mem, 1)
                .expect("runs")
                .cycles;
            println!(
                "[simulated] {cus} CU(s): LSTM step {cycles} cycles ({:.2}us @50MHz)",
                cycles as f64 / 50.0
            );
        }
        group.bench_with_input(BenchmarkId::from_parameter(cus), &config, |b, config| {
            let mut engine = Engine::new(config.clone());
            let mut mem = lstm_dev.load(&mut engine);
            lstm_dev.reset(&mut mem);
            b.iter(|| lstm_dev.step(&mut engine, &mut mem, 1).expect("runs"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_inference,
    bench_trim_flow,
    bench_engine_scaling
);
criterion_main!(benches);
