//! Criterion microbenchmarks of the host ML models (training and
//! per-event scoring): the "implementation complexity" axis the paper
//! uses to pick the ELM and LSTM.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig, SequenceModel, VectorModel};

fn histograms(n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let mut v = vec![0.0; 16];
            v[i % 5] = 0.5;
            v[(i + 2) % 5] = 0.3;
            v[(i + 4) % 16] = 0.2;
            v
        })
        .collect()
}

fn bench_training(c: &mut Criterion) {
    let data = histograms(400);
    let corpus: Vec<u32> = (0..2_000).map(|i| ((i * 7 + i / 3) % 64) as u32).collect();

    let mut group = c.benchmark_group("train");
    group.sample_size(10);
    group.bench_function("elm_closed_form", |b| {
        b.iter(|| Elm::train(&ElmConfig::rtad(), &data, 1));
    });
    group.bench_function("lstm_bptt_1_epoch", |b| {
        let mut cfg = LstmConfig::rtad();
        cfg.epochs = 1;
        b.iter(|| Lstm::train(&cfg, &corpus, 1));
    });
    group.finish();
}

fn bench_scoring(c: &mut Criterion) {
    let data = histograms(400);
    let corpus: Vec<u32> = (0..2_000).map(|i| ((i * 7 + i / 3) % 64) as u32).collect();
    let elm = Elm::train(&ElmConfig::rtad(), &data, 1);
    let mut cfg = LstmConfig::rtad();
    cfg.epochs = 1;
    let mut lstm = Lstm::train(&cfg, &corpus, 1);

    let mut group = c.benchmark_group("score_per_event");
    group.throughput(Throughput::Elements(1));
    group.bench_function("elm", |b| {
        let x = &data[3];
        b.iter(|| elm.score(x));
    });
    group.bench_function("lstm", |b| {
        lstm.reset();
        let mut t = 0u32;
        b.iter(|| {
            t = (t + 3) % 64;
            lstm.score_next(t)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_training, bench_scoring);
criterion_main!(benches);
