//! Workspace-level properties of the static verifier.
//!
//! Two laws tie the static analysis to the dynamic engine:
//!
//! 1. **Soundness of the feature closure** — for any assembled kernel,
//!    the static feature set is a superset of whatever a dynamic run
//!    actually exercises (the run can take fewer paths, never more).
//! 2. **Self-consistency of the shipped models** — every compiled
//!    `rtad-ml` device kernel is accepted by the verifier against the
//!    trim plan profiled from its own execution, so the ML-MIAOW
//!    configuration the SoC builds is provably trap-free.

use proptest::prelude::*;

use rtad_analysis::{static_features, Cfg, FindingKind, LaunchError, VerifiedEngine};
use rtad_miaow::asm::assemble;
use rtad_miaow::{
    ComputeUnit, CoverageSet, Dispatch, Engine, EngineConfig, Feature, GpuMemory, TrimPlan,
};
use rtad_ml::{DeviceModel, Elm, ElmConfig, ElmDevice, Lstm, LstmConfig, LstmDevice};

/// A random kernel body over a safe register/address space (same
/// universe as the miaow engine proptests).
fn arb_body() -> impl Strategy<Value = String> {
    let instr = prop_oneof![
        (1u8..8, 1u8..8).prop_map(|(d, s)| format!("v_add_f32 v{d}, v{s}, v{d}")),
        (1u8..8, 1u8..8).prop_map(|(d, s)| format!("v_mul_f32 v{d}, v{s}, v{d}")),
        (1u8..8, 1u8..8).prop_map(|(d, s)| format!("v_mac_f32 v{d}, 0.5, v{s}")),
        (1u8..8,).prop_map(|(d,)| format!("v_mov_b32 v{d}, 1.25")),
        (1u8..8,).prop_map(|(d,)| format!("v_exp_f32 v{d}, v{d}")),
        (1u8..8,).prop_map(|(d,)| format!("v_rcp_f32 v{d}, v{d}")),
        (1u8..8, 0u32..60)
            .prop_map(|(d, k)| { format!("v_mov_b32 v9, {}\nds_read_b32 v{d}, v9", k * 4) }),
        (1u8..8, 0u32..60).prop_map(|(d, k)| {
            format!("v_mov_b32 v9, {}\nbuffer_load_dword v{d}, v9, s0", k * 4)
        }),
    ];
    proptest::collection::vec(instr, 1..16).prop_map(|lines| lines.join("\n"))
}

/// A random kernel: a straight-line body, optionally wrapped in a
/// bounded counted loop and/or prefixed by a conditionally-skipped
/// block, so the CFG has branches whose arms a dynamic run may skip.
fn arb_kernel() -> impl Strategy<Value = String> {
    (arb_body(), proptest::option::of(1i32..6), any::<bool>()).prop_map(
        |(body, loop_count, cold_prefix)| {
            let mut src = String::new();
            if cold_prefix {
                // Skipped whenever s0 < 1000 (true for the test args):
                // the exp in the cold arm stays statically visible.
                src.push_str(
                    "s_cmp_lt_i32 s0, 1000\n\
                     s_cbranch_scc1 hot\n\
                     v_exp_f32 v7, v7\n\
                     hot:\n",
                );
            }
            match loop_count {
                Some(n) => src.push_str(&format!(
                    "s_mov_b32 s10, 0\n\
                     top:\n\
                     {body}\n\
                     s_add_i32 s10, s10, 1\n\
                     s_cmp_lt_i32 s10, {n}\n\
                     s_cbranch_scc1 top\n"
                )),
                None => {
                    src.push_str(&body);
                    src.push('\n');
                }
            }
            src.push_str(
                "v_lshl_b32 v10, v0, 2\n\
                 buffer_store_dword v1, v10, s1\n\
                 s_endpgm\n",
            );
            src
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The static feature closure over-approximates any dynamic run:
    /// whatever coverage one execution observes, the verifier already
    /// predicted it.
    #[test]
    fn static_features_cover_any_dynamic_run(src in arb_kernel()) {
        let kernel = assemble(&src).expect("generated source assembles");
        let cfg = Cfg::build(&kernel);
        let stat = static_features(&cfg, &kernel.code);

        let mut cu = ComputeUnit::new();
        cu.write_lds_f32_slice(0, &[1.5; 64]);
        let mut mem = GpuMemory::new(1024);
        let mut cov = CoverageSet::new();
        cu.run(&kernel, &Dispatch::single_wave(&[0, 512]), &mut mem, &mut cov)
            .expect("generated kernels terminate");

        prop_assert!(
            cov.is_subset(&stat),
            "dynamic features not statically predicted: {:?}",
            cov.difference(&stat)
        );
    }
}

fn trained_elm_device() -> ElmDevice {
    let normal: Vec<Vec<f32>> = (0..100)
        .map(|i| {
            let mut v = vec![0.0; 16];
            v[i % 4] = 0.6;
            v[(i + 1) % 4] = 0.4;
            v
        })
        .collect();
    ElmDevice::compile(&Elm::train(&ElmConfig::rtad(), &normal, 11))
}

fn trained_lstm_device() -> LstmDevice {
    let corpus: Vec<u32> = (0..800).map(|i| (i % 16) as u32).collect();
    let mut cfg = LstmConfig::rtad();
    cfg.epochs = 1;
    LstmDevice::compile(&Lstm::train(&cfg, &corpus, 5))
}

/// The trim plan merged from profiling both device models on the full
/// engine (Fig. 4 steps 1-2).
fn merged_plan(elm: &ElmDevice, lstm: &LstmDevice) -> TrimPlan {
    let mut profiler = Engine::new(EngineConfig::miaow());
    let mut mem = elm.load(&mut profiler);
    elm.infer(&mut profiler, &mut mem, &[0.05; 16])
        .expect("ELM profiles");
    let mut mem = lstm.load(&mut profiler);
    lstm.reset(&mut mem);
    lstm.step(&mut profiler, &mut mem, 0)
        .expect("LSTM profiles");
    TrimPlan::from_coverage(profiler.observed_coverage())
}

/// Fig. 4's trimming contract, proven statically: the trim plan merged
/// from profiling both device models accepts every kernel either model
/// ships, so ML-MIAOW can never trap on its own workload.
#[test]
fn shipped_kernels_verify_against_their_merged_coverage_plan() {
    let elm = trained_elm_device();
    let lstm = trained_lstm_device();
    let plan = merged_plan(&elm, &lstm);

    elm.verify_against(&plan)
        .expect("every ELM kernel proves trim-compatible");
    lstm.verify_against(&plan)
        .expect("every LSTM kernel proves trim-compatible");
}

/// Every shipped ELM/LSTM device kernel runs fault-free at any wave
/// index, with arbitrary (here: all-zero) arguments, on both the full
/// datapath and a CU trimmed to the merged shipped-workload plan.
#[test]
fn shipped_kernels_run_fault_free_on_full_and_trimmed_cus() {
    let elm = trained_elm_device();
    let lstm = trained_lstm_device();
    let plan = merged_plan(&elm, &lstm);

    for kernel in elm.kernels().into_iter().chain(lstm.kernels()) {
        let cus = [
            ComputeUnit::new(),
            ComputeUnit::trimmed(plan.retained().clone()),
        ];
        for mut cu in cus {
            for wave in 0..3 {
                let mut mem = GpuMemory::new(1 << 20);
                let mut cov = CoverageSet::new();
                cu.run_wave_indexed(
                    kernel,
                    &Dispatch::single_wave(&[0; 16]),
                    wave,
                    &mut mem,
                    &mut cov,
                )
                .unwrap_or_else(|e| panic!("`{}` wave {wave} faulted: {e}", kernel.name));
            }
        }
    }
}

/// Acceptance criterion: a kernel whose static feature set needs a
/// deleted unit is rejected *at load time* with a diagnostic naming the
/// feature and instruction — where the raw engine only traps once
/// execution reaches the offending pc, after earlier stores already
/// mutated device memory.
#[test]
fn trim_incompatible_kernel_is_rejected_at_load_not_mid_run() {
    // Profile a store-only kernel to get a plan without ValuExp.
    let store = assemble(
        "v_lshl_b32 v1, v0, 2\n\
         v_mov_b32 v2, 3.0\n\
         buffer_store_dword v2, v1, s0\n\
         s_endpgm",
    )
    .unwrap();
    let mut profiler = Engine::new(EngineConfig::miaow());
    let mut mem = GpuMemory::new(512);
    profiler
        .launch(&store, 1, &[0], &mut mem)
        .expect("profiling run");
    let plan = TrimPlan::from_coverage(profiler.observed_coverage());
    assert!(!plan.retained().contains(Feature::ValuExp));

    // This kernel stores first, then needs the deleted exp unit.
    let needs_exp = assemble(
        "v_lshl_b32 v1, v0, 2\n\
         v_mov_b32 v2, 7.0\n\
         buffer_store_dword v2, v1, s0\n\
         v_exp_f32 v3, v2\n\
         buffer_store_dword v3, v1, s1\n\
         s_endpgm",
    )
    .unwrap();

    // Raw trimmed engine: traps mid-execution, after the first store
    // already landed.
    let mut raw = Engine::new(EngineConfig::ml_miaow(&plan));
    let mut mem_raw = GpuMemory::new(512);
    let before_raw = mem_raw.clone();
    raw.launch(&needs_exp, 1, &[0, 256], &mut mem_raw)
        .expect_err("the trimmed engine traps on v_exp_f32");
    assert_ne!(mem_raw, before_raw, "the raw trap left partial writes");

    // Verified engine: rejected before execution, memory untouched,
    // diagnostic names both the feature and the instruction.
    let mut safe = VerifiedEngine::new(Engine::new(EngineConfig::ml_miaow(&plan)));
    let mut mem_safe = GpuMemory::new(512);
    let before_safe = mem_safe.clone();
    let err = safe
        .launch(&needs_exp, 1, &[0, 256], &mut mem_safe)
        .expect_err("verification refuses the launch");
    assert_eq!(mem_safe, before_safe, "rejection must not touch memory");
    let LaunchError::Rejected(report) = err else {
        panic!("expected a static rejection, got {err}");
    };
    let trim: Vec<_> = report
        .errors()
        .filter(|f| f.kind == FindingKind::TrimIncompatible)
        .collect();
    // v_exp_f32 needs both its decoder arm and the exp unit; each
    // missing feature gets its own finding, all naming the instruction.
    assert!(
        trim.iter().any(|f| f.feature == Some(Feature::ValuExp)),
        "a finding names the missing exp unit: {trim:?}"
    );
    assert!(
        trim.iter().all(|f| f.message.contains("v_exp_f32")),
        "diagnostics name the instruction: {trim:?}"
    );
}
