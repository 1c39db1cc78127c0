//! CI verifier smoke: the load-time verdict over every shipped device
//! kernel.
//!
//! This is the job the CI workflow runs (`cargo test --release -p
//! rtad-analysis --test verifier_smoke`): it fails the build if any
//! kernel a device model ships stops analyzing clean, or needs a
//! feature the trim plan profiled from the shipped workload deletes —
//! i.e. if a kernel change would be refused at load time on ML-MIAOW.

use rtad_analysis::analyze_against_plan;
use rtad_miaow::{Engine, EngineConfig, TrimPlan};
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
fn every_shipped_kernel_is_clean_and_fits_the_shipped_trim_plan() {
    let (elm, lstm) = shipped_devices();

    // The plan merged from profiling both models on the full engine.
    let mut profiler = Engine::new(EngineConfig::miaow());
    let mut mem = elm.load(&mut profiler);
    elm.infer(&mut profiler, &mut mem, &[0.05; 16])
        .expect("ELM profiles");
    let mut mem = lstm.load(&mut profiler);
    lstm.reset(&mut mem);
    lstm.step(&mut profiler, &mut mem, 0)
        .expect("LSTM profiles");
    let plan = TrimPlan::from_coverage(profiler.observed_coverage());

    let kernels: Vec<_> = elm.kernels().into_iter().chain(lstm.kernels()).collect();
    assert_eq!(kernels.len(), 7, "3 ELM + 4 LSTM kernels ship");
    for kernel in kernels {
        // Every shipped kernel sees at most 10 user-data SGPRs
        // (LSTM_LAUNCH_ARGS; the ELM's 5 are a prefix).
        let report = analyze_against_plan(kernel, 10, &plan);
        assert!(
            report.findings.is_empty(),
            "`{}` raised findings against the shipped plan:\n{report}",
            kernel.name
        );
    }
}
