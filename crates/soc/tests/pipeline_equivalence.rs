//! Equivalence of the serving plane on a real experiment: a prepared
//! detection experiment exported through `serve_spec` and served by
//! `ShardedSparsePipeline` (the benchmark's handle over the one inline
//! `SparsePipeline`) produces outcomes bit-identical to the per-window
//! serial reference.

use rtad_soc::{
    encode_streams, serial_reference, sweep_threads, DetectionConfig, ModelKind, PreparedDetection,
    ShardConfig, ShardFeeder, ShardedSparsePipeline, SparseConfig, SparseOutcome, StreamOutcome,
};
use rtad_trace::BranchRecord;
use rtad_workloads::{AttackInjector, AttackSpec, Benchmark, ProgramModel};

/// Feeds every stream losslessly in 512-byte chunks, pumping whenever a
/// ring lacks space, then closes it.
fn feed_and_close(fd: &ShardFeeder<'_>, streams: &[Vec<u8>]) {
    for (s, bytes) in streams.iter().enumerate() {
        for piece in bytes.chunks(512) {
            let mut sent = 0;
            while sent < piece.len() {
                let n = fd.ring_free(s).min(piece.len() - sent);
                if n == 0 {
                    fd.pump();
                    continue;
                }
                assert_eq!(fd.feed(s, &piece[sent..sent + n]), n);
                sent += n;
            }
        }
        fd.close(s);
    }
}

/// The CI smoke: eight concurrent streams from a *real* prepared
/// detection experiment (trained model, calibrated thresholds, measured
/// per-event cycles via `serve_spec`), each carrying an injected attack
/// burst, served with a bounded batch — verdicts must match the serial
/// reference exactly, and the attacked streams must raise flags.
#[test]
fn eight_attacked_streams_match_serial_reference() {
    let config = DetectionConfig {
        train_branches: 400_000,
        pre_attack_branches: 8_000,
        post_attack_branches: 4_000,
        attack_burst: 256,
        ..DetectionConfig::fig8(
            Benchmark::Bzip2,
            ModelKind::Elm,
            rtad_soc::EngineKind::MlMiaow,
        )
    };
    let seed = config.seed;
    let bench = config.bench;
    let prepared = PreparedDetection::prepare(config);
    let run = prepared.run_for(rtad_soc::EngineKind::MlMiaow);
    let spec = run.serve_spec(4);

    // Eight victim streams, each a fresh normal run with its own attack
    // burst spliced in.
    let model = ProgramModel::build(bench, seed);
    let runs: Vec<Vec<BranchRecord>> = (0..8)
        .map(|s| {
            let normal = model.generate(12_000, seed ^ (0x100 + s));
            let injector = AttackInjector::new(&model, seed ^ (0x200 + s));
            injector
                .inject(
                    &normal,
                    AttackSpec {
                        position: 6_000,
                        burst_len: 256,
                        ..AttackSpec::default()
                    },
                )
                .records
        })
        .collect();
    let streams = encode_streams(&runs, sweep_threads());
    let reference: Vec<SparseOutcome> = serial_reference(&spec, &streams)
        .iter()
        .map(StreamOutcome::summary)
        .collect();

    let mut p = ShardedSparsePipeline::new(
        spec.clone(),
        ShardConfig {
            workers: 1,
            sparse: SparseConfig {
                ring_capacity: 1024,
                max_batch: 8,
                drain_bytes: 512,
            },
        },
    );
    p.register_many(streams.len());
    p.run(|fd| feed_and_close(fd, &streams));
    assert_eq!(p.dropped_bytes_total(), 0, "dropped bytes");
    assert_eq!(p.outcomes(), &reference[..], "verdicts must match serial");

    let windows: u64 = reference.iter().map(|o| o.windows).sum();
    assert!(windows > 0, "streams produced no inference windows");
    for o in &reference {
        assert_eq!(o.device_cycles, o.windows * run.cycles_per_event());
    }
    let flags: u64 = reference.iter().map(|o| o.flags).sum();
    assert!(flags > 0, "no attacked stream raised a flag: {reference:?}");
}
