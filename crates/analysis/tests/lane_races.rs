//! Dynamic cross-validation of the static lane-disjointness
//! certificate (debug builds only).
//!
//! The engine's debug-build write-log race checker records every pair
//! of active lanes whose wide-store writes overlap with differing
//! contents. These tests tie it to the static analysis both ways:
//!
//! - a kernel certified `Disjoint` never logs a race — including the
//!   full shipped ELM/LSTM inference workload on the profiling engine
//!   and on the trimmed ML-MIAOW engine;
//! - a kernel the analysis flags `MayInterfere` for a real cross-lane
//!   conflict actually exhibits one at runtime, so the checker is not
//!   vacuous.
#![cfg(debug_assertions)]

use rtad_analysis::{cycle_bound, lane_disjointness, CycleBound, LaneDisjointness};
use rtad_miaow::asm::assemble;
use rtad_miaow::exec::CostModel;
use rtad_miaow::{Engine, EngineConfig, GpuMemory, TrimPlan};
use rtad_ml::{DeviceModel, Elm, ElmConfig, ElmDevice, Lstm, LstmConfig, LstmDevice};

#[test]
fn disjoint_certificate_means_no_observed_races() {
    // Lane-indexed store: certified disjoint, and the dynamic checker
    // agrees.
    let k = assemble(
        "v_lshl_b32 v1, v0, 2\n\
         v_cvt_f32_i32 v2, v0\n\
         buffer_store_dword v2, v1, s0\n\
         s_endpgm",
    )
    .unwrap();
    assert_eq!(lane_disjointness(&k), LaneDisjointness::Disjoint);

    let mut engine = Engine::new(EngineConfig::miaow());
    engine.set_race_logging(true);
    let mut mem = GpuMemory::new(4096);
    engine.launch(&k, 2, &[0], &mut mem).expect("kernel runs");
    assert_eq!(engine.take_races(), vec![], "disjoint kernel raced");
}

#[test]
fn uniform_store_of_per_lane_values_races_and_is_flagged() {
    // All 16 lanes store their (distinct) lane id to the same address:
    // the analysis refuses a certificate, and the checker observes the
    // conflicts the certificate would have had to rule out.
    let k = assemble(
        "v_mov_b32 v1, 64\n\
         buffer_store_dword v0, v1, s0\n\
         s_endpgm",
    )
    .unwrap();
    assert_eq!(
        lane_disjointness(&k),
        LaneDisjointness::MayInterfere { pc: 1 }
    );

    let mut engine = Engine::new(EngineConfig::miaow());
    engine.set_race_logging(true);
    let mut mem = GpuMemory::new(4096);
    engine.launch(&k, 1, &[0], &mut mem).expect("kernel runs");
    let races = engine.take_races();
    assert!(!races.is_empty(), "conflicting store logged no race");
    assert!(races.iter().all(|r| r.pc == 1 && r.addr == 64 && !r.lds));
}

#[test]
fn uniform_broadcast_store_is_disjoint_and_race_free() {
    // Same address from every lane, but the same value too: the store
    // commutes across lanes, the analysis certifies it, and the
    // checker's identical-value exemption matches.
    let k = assemble(
        "v_mov_b32 v1, 64\n\
         v_mov_b32 v2, 1.5\n\
         buffer_store_dword v2, v1, s0\n\
         s_endpgm",
    )
    .unwrap();
    assert_eq!(lane_disjointness(&k), LaneDisjointness::Disjoint);

    let mut engine = Engine::new(EngineConfig::miaow());
    engine.set_race_logging(true);
    let mut mem = GpuMemory::new(4096);
    engine.launch(&k, 1, &[0], &mut mem).expect("kernel runs");
    assert_eq!(engine.take_races(), vec![]);
}

#[test]
fn lds_races_are_logged_with_the_lds_flag() {
    let k = assemble(
        "v_mov_b32 v1, 32\n\
         ds_write_b32 v1, v0\n\
         s_endpgm",
    )
    .unwrap();
    assert_eq!(
        lane_disjointness(&k),
        LaneDisjointness::MayInterfere { pc: 1 }
    );

    let mut engine = Engine::new(EngineConfig::miaow());
    engine.set_race_logging(true);
    let mut mem = GpuMemory::new(256);
    engine.launch(&k, 1, &[], &mut mem).expect("kernel runs");
    let races = engine.take_races();
    assert!(!races.is_empty());
    assert!(races.iter().all(|r| r.lds && r.addr == 32));
}

/// The shipped ELM and LSTM models, trained small.
fn shipped_models() -> (ElmDevice, LstmDevice) {
    let normal: Vec<Vec<f32>> = (0..100)
        .map(|i| {
            let mut v = vec![0.0; 16];
            v[i % 4] = 0.6;
            v[(i + 1) % 4] = 0.4;
            v
        })
        .collect();
    let elm = ElmDevice::compile(&Elm::train(&ElmConfig::rtad(), &normal, 11));
    let corpus: Vec<u32> = (0..800).map(|i| (i % 16) as u32).collect();
    let mut cfg = LstmConfig::rtad();
    cfg.epochs = 1;
    let lstm = LstmDevice::compile(&Lstm::train(&cfg, &corpus, 5));
    (elm, lstm)
}

/// The full shipped workload — ELM and LSTM inference on the profiling
/// engine and on the trimmed ML-MIAOW engine, plus the LDS loader —
/// runs race-free, dynamically validating every `Disjoint` certificate
/// the verifier smoke test proves statically.
#[test]
fn shipped_inference_workload_runs_race_free() {
    let (elm, lstm) = shipped_models();

    // Profiling engine.
    let mut profiler = Engine::new(EngineConfig::miaow());
    profiler.set_race_logging(true);
    let mut mem = elm.load(&mut profiler);
    elm.infer(&mut profiler, &mut mem, &[0.05; 16])
        .expect("ELM infers");
    let mut mem = lstm.load(&mut profiler);
    lstm.reset(&mut mem);
    lstm.step(&mut profiler, &mut mem, 3).expect("LSTM steps");
    assert_eq!(profiler.take_races(), vec![], "profiling workload raced");
    let plan = TrimPlan::from_coverage(profiler.observed_coverage());

    // Trimmed five-CU serving engine.
    let mut serving = Engine::new(EngineConfig::ml_miaow(&plan));
    serving.set_race_logging(true);
    let mut mem = elm.load(&mut serving);
    elm.infer(&mut serving, &mut mem, &[0.05; 16])
        .expect("ELM infers trimmed");
    let mut mem = lstm.load(&mut serving);
    lstm.reset(&mut mem);
    for token in [0u32, 5, 9] {
        lstm.step(&mut serving, &mut mem, token)
            .expect("LSTM steps");
    }
    assert_eq!(serving.take_races(), vec![], "trimmed workload raced");
}

/// Every shipped kernel carries both resource certificates — a static
/// cycle bound and lane disjointness — and a four-token LSTM run plus
/// one ELM inference under the race checker logs no race: the dynamic
/// check the disjointness certificates promise to make redundant.
#[test]
fn certified_workload_runs_race_free() {
    let (elm, lstm) = shipped_models();
    let cost = CostModel::default();
    for kernel in elm.kernels().into_iter().chain(lstm.kernels()) {
        assert!(
            matches!(cycle_bound(kernel, &cost, None), CycleBound::Bounded(_)),
            "`{}` lost its static cycle bound",
            kernel.name
        );
        assert!(
            lane_disjointness(kernel).is_disjoint(),
            "`{}` lost its disjointness certificate",
            kernel.name
        );
    }

    let mut engine = Engine::new(EngineConfig::miaow());
    engine.set_race_logging(true);
    let mut mem = elm.load(&mut engine);
    elm.infer(&mut engine, &mut mem, &[0.05; 16])
        .expect("ELM infers");
    let mut mem = lstm.load(&mut engine);
    lstm.reset(&mut mem);
    for token in [0u32, 5, 9, 12] {
        lstm.step(&mut engine, &mut mem, token).expect("LSTM steps");
    }
    assert_eq!(engine.take_races(), vec![], "certified workload raced");
}
