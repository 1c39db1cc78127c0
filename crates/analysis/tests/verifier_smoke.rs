//! CI verifier smoke: the static resource analyses over every shipped
//! device kernel.
//!
//! This is the job the CI workflow runs (`cargo test --release -p
//! rtad-analysis --test verifier_smoke`): it fails the build if any
//! kernel a device model ships loses its finite cycle bound or its
//! lane-disjointness certificate — i.e. if a kernel change would leave
//! only the engine's watchdog to bound it, or let two of its lanes
//! write the same bytes.

use rtad_analysis::{analyze, cycle_bound, lane_disjointness, CycleBound, FindingKind};
use rtad_miaow::exec::CostModel;
use rtad_ml::{DeviceModel, Elm, ElmConfig, ElmDevice, Lstm, LstmConfig, LstmDevice};

fn shipped_devices() -> (ElmDevice, LstmDevice) {
    let normal: Vec<Vec<f32>> = (0..80)
        .map(|i| {
            let mut v = vec![0.0; 16];
            v[i % 4] = 0.6;
            v[(i + 1) % 4] = 0.4;
            v
        })
        .collect();
    let elm = ElmDevice::compile(&Elm::train(&ElmConfig::rtad(), &normal, 7));
    let corpus: Vec<u32> = (0..400).map(|i| (i % 16) as u32).collect();
    let mut cfg = LstmConfig::rtad();
    cfg.epochs = 1;
    let lstm = LstmDevice::compile(&Lstm::train(&cfg, &corpus, 7));
    (elm, lstm)
}

#[test]
fn every_shipped_kernel_is_bounded_and_lane_disjoint() {
    let (elm, lstm) = shipped_devices();
    let kernels: Vec<_> = elm.kernels().into_iter().chain(lstm.kernels()).collect();
    assert_eq!(kernels.len(), 7, "3 ELM + 4 LSTM kernels ship");

    let cost = CostModel::default();
    for kernel in kernels {
        let bound = cycle_bound(kernel, &cost, None);
        assert!(
            matches!(bound, CycleBound::Bounded(_)),
            "`{}`: {bound} — a shipped kernel lost its static cycle bound",
            kernel.name
        );
        let lanes = lane_disjointness(kernel);
        assert!(
            lanes.is_disjoint(),
            "`{}`: {lanes} — a shipped kernel lost its disjointness certificate",
            kernel.name
        );

        // The full report agrees: clean, and free of resource warnings.
        // Every shipped kernel sees at most 10 user-data SGPRs
        // (LSTM_LAUNCH_ARGS; the ELM's 5 are a prefix).
        let report = analyze(kernel, 10);
        assert!(report.is_clean(), "`{}` has errors:\n{report}", kernel.name);
        for f in &report.findings {
            assert!(
                f.kind != FindingKind::Unbounded && f.kind != FindingKind::MayInterfere,
                "`{}` raised a resource finding: {f}",
                kernel.name
            );
        }
        assert_eq!(report.cycle_bound, Some(bound));
    }
}
