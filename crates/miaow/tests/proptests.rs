//! Property tests for the MIAOW engine: trimming soundness, watchdog
//! termination, assembler robustness, and the multi-CU engine's launch
//! against a serial single-CU run on branchy kernels, faults included.

use proptest::prelude::*;

use rtad_miaow::asm::assemble;
use rtad_miaow::{
    ComputeUnit, CoverageSet, Dispatch, Engine, EngineConfig, ExecError, GpuMemory, LaunchStats,
    RunStats, TrimPlan,
};

/// One kernel instruction over a safe register/address space: VALU
/// ops, EXEC-mask divergence and uniform-address loads from LDS and
/// device memory.
fn arb_instr() -> impl Strategy<Value = String> {
    prop_oneof![
        (1u8..8, 1u8..8).prop_map(|(d, s)| format!("v_add_f32 v{d}, v{s}, v{d}")),
        (1u8..8, 1u8..8).prop_map(|(d, s)| format!("v_sub_f32 v{d}, v{s}, v{d}")),
        (1u8..8, 1u8..8).prop_map(|(d, s)| format!("v_mul_f32 v{d}, v{s}, v{d}")),
        (1u8..8, 1u8..8).prop_map(|(d, s)| format!("v_mac_f32 v{d}, 0.5, v{s}")),
        (1u8..8, 1u8..8).prop_map(|(d, s)| format!("v_max_f32 v{d}, v{s}, v{d}")),
        (1u8..8,).prop_map(|(d,)| format!("v_mov_b32 v{d}, 1.25")),
        (1u8..8,).prop_map(|(d,)| format!("v_exp_f32 v{d}, v{d}")),
        (1u8..8,).prop_map(|(d,)| format!("v_rcp_f32 v{d}, v{d}")),
        (1u8..8,).prop_map(|(d,)| format!("v_cvt_f32_i32 v{d}, v0")),
        (1u8..8,).prop_map(|(d,)| format!(
            "v_cmp_gt_f32 v{d}, v1\ns_and_exec_vcc\n\
                                           v_mov_b32 v{d}, 0.5\ns_mov_exec_all"
        )),
        (1u8..8, 0u32..60)
            .prop_map(|(d, k)| { format!("v_mov_b32 v9, {}\nds_read_b32 v{d}, v9", k * 4) }),
        (1u8..8, 0u32..60).prop_map(|(d, k)| {
            format!("v_mov_b32 v9, {}\nbuffer_load_dword v{d}, v9, s0", k * 4)
        }),
    ]
}

/// A random straight-line kernel ending in a lane-indexed store of
/// `v1` through `s1`.
fn arb_straightline() -> impl Strategy<Value = String> {
    proptest::collection::vec(arb_instr(), 1..24).prop_map(|lines| {
        let mut src = lines.join("\n");
        src.push_str(
            "\nv_lshl_b32 v10, v0, 2\n\
             buffer_store_dword v1, v10, s1\n\
             s_endpgm\n",
        );
        src
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Fig. 4 step 4 as a law: for ANY kernel, trimming to that kernel's
    /// own coverage preserves its outputs exactly.
    #[test]
    fn trim_to_own_coverage_preserves_outputs(src in arb_straightline()) {
        let kernel = assemble(&src).expect("generated source assembles");
        let dispatch = Dispatch::single_wave(&[0, 512]);
        let mut init = GpuMemory::new(1024);
        for i in 0..64 {
            init.write_f32(i * 4, (i as f32) * 0.25 - 4.0);
        }

        let mut full = ComputeUnit::new();
        full.write_lds_f32_slice(0, &[1.5; 64]);
        let mut mem_full = init.clone();
        let mut cov = CoverageSet::new();
        full.run(&kernel, &dispatch, &mut mem_full, &mut cov)
            .expect("straight-line kernels run");

        let plan = TrimPlan::from_coverage(&cov);
        let mut trimmed = plan.build_cu();
        trimmed.write_lds_f32_slice(0, &[1.5; 64]);
        let mut mem_trim = init.clone();
        let mut cov2 = CoverageSet::new();
        trimmed
            .run(&kernel, &dispatch, &mut mem_trim, &mut cov2)
            .expect("trimmed engine must run its own coverage");
        prop_assert_eq!(mem_full, mem_trim);
        // Re-running gathers no NEW features.
        prop_assert!(cov2.iter().all(|f| cov.contains(f)));
    }

    /// Any kernel either terminates or hits a *defined* error under the
    /// watchdog — the simulator never hangs or panics on valid programs.
    #[test]
    fn watchdog_bounds_any_loop(
        body in arb_straightline(),
        loop_count in 0i32..100,
    ) {
        let src = format!(
            "s_mov_b32 s10, 0\n\
             top:\n\
             s_add_i32 s10, s10, 1\n\
             s_cmp_lt_i32 s10, {loop_count}\n\
             s_cbranch_scc1 top\n\
             {body}"
        );
        let kernel = assemble(&src).expect("assembles");
        let mut cu = ComputeUnit::new();
        let mut mem = GpuMemory::new(1024);
        let mut d = Dispatch::single_wave(&[0, 512]);
        d.max_cycles_per_wave = 50_000;
        let mut cov = CoverageSet::new();
        match cu.run(&kernel, &d, &mut mem, &mut cov) {
            Ok(stats) => prop_assert!(stats.cycles <= 50_000 + 32),
            Err(ExecError::Watchdog { .. }) => {}
            Err(other) => prop_assert!(false, "unexpected error {other}"),
        }
    }

    /// The assembler rejects garbage with an error, never a panic.
    #[test]
    fn assembler_never_panics(text in "[ -~\n]{0,200}") {
        let _ = assemble(&text); // Ok or Err are both fine
    }

    /// Under-trimmed engines trap instead of mis-computing: removing any
    /// exercised non-core feature yields TrimmedFeature, never a wrong
    /// answer.
    #[test]
    fn removing_used_features_traps(src in arb_straightline(), pick in any::<prop::sample::Index>()) {
        let kernel = assemble(&src).expect("assembles");
        let dispatch = Dispatch::single_wave(&[0, 512]);
        let mut init = GpuMemory::new(1024);
        let mut full = ComputeUnit::new();
        full.write_lds_f32_slice(0, &[1.0; 64]);
        let mut cov = CoverageSet::new();
        full.run(&kernel, &dispatch, &mut init.clone(), &mut cov)
            .expect("runs");

        let non_core: Vec<_> = cov.iter().filter(|f| !f.is_core()).collect();
        prop_assume!(!non_core.is_empty());
        let removed = non_core[pick.index(non_core.len())];
        let reduced: CoverageSet = cov.iter().filter(|&f| f != removed).collect();
        let plan = TrimPlan::from_coverage(&reduced);
        let mut cu = plan.build_cu();
        cu.write_lds_f32_slice(0, &[1.0; 64]);
        let mut cov2 = CoverageSet::new();
        let err = cu
            .run(&kernel, &dispatch, &mut init, &mut cov2)
            .expect_err("must trap on the removed feature");
        let trapped_on_removed =
            matches!(err, ExecError::TrimmedFeature { feature, .. } if feature == removed);
        prop_assert!(trapped_on_removed, "got {err}");
    }
}

/// Random kernels with a bounded counted loop and an optional forward
/// skip around part of the tail, ending in one lane-indexed store
/// through `s1` (the only instruction that can fault when `s0` = 0).
fn arb_branchy_kernel() -> impl Strategy<Value = String> {
    (
        proptest::collection::vec(arb_instr(), 1..8),
        proptest::collection::vec(arb_instr(), 0..6),
        1u32..5,       // loop trip count
        any::<bool>(), // forward skip in the tail?
    )
        .prop_map(|(body, tail, trips, skip)| {
            let mut src = String::from("s_mov_b32 s2, 0\nloop:\n");
            src.push_str(&body.join("\n"));
            src.push_str(&format!(
                "\ns_add_i32 s2, s2, 1\ns_cmp_lt_i32 s2, {trips}\ns_cbranch_scc1 loop\n"
            ));
            if skip {
                src.push_str(&format!(
                    "s_cmp_eq_i32 s2, {}\ns_cbranch_scc1 skip\n",
                    trips + 1
                ));
            }
            src.push_str(&tail.join("\n"));
            if skip {
                src.push_str("\nskip:");
            }
            src.push_str(
                "\nv_lshl_b32 v10, v0, 2\n\
                 buffer_store_dword v1, v10, s1\n\
                 s_endpgm\n",
            );
            src
        })
}

/// LDS contents staged on every CU before a launch. The values are not
/// short binary fractions, so their products round and a fused
/// multiply-add would read differently from `acc + x * y`.
fn staged_lds(words: usize) -> Vec<f32> {
    (0..words)
        .map(|i| ((i * 7) % 13) as f32 * 0.37 - 2.1)
        .collect()
}

/// Device memory with a recognizable prefix.
fn fresh_mem() -> GpuMemory {
    let mut mem = GpuMemory::new(1024);
    for i in 0..64 {
        mem.write_f32(i * 4, (i as f32) * 0.25 - 4.0);
    }
    mem
}

/// What a launch leaves behind: memory, result and observed coverage.
struct Outcome<S> {
    mem: GpuMemory,
    result: Result<S, ExecError>,
    observed: CoverageSet,
}

/// Launches `waves` waves of `src` on a 2-CU engine.
fn engine_run(
    src: &str,
    waves: usize,
    retained: Option<&CoverageSet>,
    args: &[u32],
    lds_words: usize,
) -> Outcome<LaunchStats> {
    let mut cfg = EngineConfig::miaow();
    cfg.cus = 2;
    cfg.retained = retained.cloned();
    launch_on(cfg, src, waves, args, lds_words)
}

/// Launches `waves` waves of `src` on an engine built from `cfg`.
fn launch_on(
    cfg: EngineConfig,
    src: &str,
    waves: usize,
    args: &[u32],
    lds_words: usize,
) -> Outcome<LaunchStats> {
    let kernel = assemble(src).expect("generated source assembles");
    let mut engine = Engine::new(cfg);
    engine.stage_lds(0, &staged_lds(lds_words));
    let mut mem = fresh_mem();
    let result = engine.launch(&kernel, waves, args, &mut mem);
    Outcome {
        mem,
        result,
        observed: engine.observed_coverage().clone(),
    }
}

/// The same dispatch on one compute unit, wave after wave: the serial
/// reference the engine's round-robin launch must reproduce.
fn serial_run(
    src: &str,
    waves: usize,
    retained: Option<&CoverageSet>,
    args: &[u32],
    lds_words: usize,
) -> Outcome<RunStats> {
    let kernel = assemble(src).expect("generated source assembles");
    let mut cu = match retained {
        Some(r) => ComputeUnit::trimmed(r.clone()),
        None => ComputeUnit::new(),
    };
    cu.write_lds_f32_slice(0, &staged_lds(lds_words));
    let mut mem = fresh_mem();
    let mut observed = CoverageSet::new();
    let result = cu.run(
        &kernel,
        &Dispatch::waves(waves, args),
        &mut mem,
        &mut observed,
    );
    Outcome {
        mem,
        result,
        observed,
    }
}

/// Asserts that an engine launch and the serial run failed with the
/// same error after the same memory writes and coverage.
fn assert_same_fault(engine: &Outcome<LaunchStats>, serial: &Outcome<RunStats>) -> ExecError {
    let e = engine.result.clone().expect_err("engine launch faults");
    let s = serial.result.clone().expect_err("serial run faults");
    assert_eq!(e, s, "same error");
    assert_eq!(engine.mem, serial.mem, "same partial memory image");
    assert_eq!(engine.observed, serial.observed, "same partial coverage");
    e
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Success path: a 2-CU launch equals the serial single-CU run in
    /// memory, instructions, total busy cycles and coverage, and its
    /// latency is the dispatch overhead plus the busier CU.
    #[test]
    fn engine_launch_equals_serial_cu_run(
        src in arb_branchy_kernel(),
        waves in 1usize..=6,
    ) {
        let e = engine_run(&src, waves, None, &[0, 512], 64);
        let s = serial_run(&src, waves, None, &[0, 512], 64);
        let es = e.result.expect("bounded kernels run");
        let ss = s.result.expect("bounded kernels run");
        prop_assert_eq!(e.mem, s.mem);
        prop_assert_eq!(e.observed, s.observed);
        prop_assert_eq!(es.waves, ss.waves);
        prop_assert_eq!(es.instructions, ss.instructions);
        prop_assert_eq!(es.cu_cycles.iter().sum::<u64>(), ss.cycles);
        let busiest = es.cu_cycles.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(es.cycles, EngineConfig::miaow().dispatch_overhead + busiest);
    }

    /// Bad-address path: an out-of-range store base faults at the
    /// store, on lane 0 of wave 0, with the serial run's memory image
    /// and partial coverage.
    #[test]
    fn out_of_range_store_faults_at_the_store(
        src in arb_branchy_kernel(),
        waves in 1usize..=4,
    ) {
        let e = engine_run(&src, waves, None, &[0, 2000], 64);
        let s = serial_run(&src, waves, None, &[0, 2000], 64);
        let err = assert_same_fault(&e, &s);
        let store_pc = assemble(&src).expect("assembles").code.len() - 2;
        prop_assert_eq!(err, ExecError::BadAddress { addr: 2000, pc: store_pc });
    }

    /// Trap path: with a randomly chosen exercised feature trimmed
    /// away, the launch traps on a feature outside the retained set,
    /// at the same pc and with the same prior coverage and memory as
    /// the serial run.
    #[test]
    fn trimmed_feature_traps_like_the_serial_run(
        src in arb_branchy_kernel(),
        waves in 1usize..=4,
        pick in any::<prop::sample::Index>(),
    ) {
        let profiled = serial_run(&src, 1, None, &[0, 512], 64);
        profiled.result.expect("profiling run succeeds");
        let non_core: Vec<_> = profiled.observed.iter().filter(|f| !f.is_core()).collect();
        prop_assume!(!non_core.is_empty());
        let removed = non_core[pick.index(non_core.len())];
        let reduced: CoverageSet =
            profiled.observed.iter().filter(|&f| f != removed).collect();
        let retained = TrimPlan::from_coverage(&reduced).retained().clone();

        let e = engine_run(&src, waves, Some(&retained), &[0, 512], 64);
        let s = serial_run(&src, waves, Some(&retained), &[0, 512], 64);
        let err = assert_same_fault(&e, &s);
        let trapped_outside_plan =
            matches!(err, ExecError::TrimmedFeature { feature, .. } if !retained.contains(feature));
        prop_assert!(trapped_outside_plan, "got {}", err);
    }

    /// Bad-address path across CUs: with the store base 64 bytes below
    /// the end of memory, wave 0 (CU 0) stores all 16 lanes and wave 1
    /// (CU 1) faults on its lane 0 at the end address, leaving the
    /// serial run's memory image and partial coverage.
    #[test]
    fn store_past_the_end_faults_in_the_second_wave(
        src in arb_branchy_kernel(),
        waves in 2usize..=4,
    ) {
        let args = [0, 1024 - 64];
        let e = engine_run(&src, waves, None, &args, 64);
        let s = serial_run(&src, waves, None, &args, 64);
        let err = assert_same_fault(&e, &s);
        let store_pc = assemble(&src).expect("assembles").code.len() - 2;
        prop_assert_eq!(err, ExecError::BadAddress { addr: 1024, pc: store_pc });
    }

    /// Success path on the five-CU ML-MIAOW configuration trimmed to
    /// the kernel's own coverage: nothing traps, and the launch equals
    /// the serial run on a CU trimmed the same way.
    #[test]
    fn ml_miaow_launch_equals_serial_trimmed_cu_run(
        src in arb_branchy_kernel(),
        waves in 1usize..=6,
    ) {
        let profiled = serial_run(&src, waves, None, &[0, 512], 64);
        profiled.result.expect("profiling run succeeds");
        let plan = TrimPlan::from_coverage(&profiled.observed);
        let cfg = EngineConfig::ml_miaow(&plan);
        let overhead = cfg.dispatch_overhead;
        let e = launch_on(cfg, &src, waves, &[0, 512], 64);
        let s = serial_run(&src, waves, Some(plan.retained()), &[0, 512], 64);
        let es = e.result.expect("trimmed to its own coverage, nothing traps");
        let ss = s.result.expect("trimmed to its own coverage, nothing traps");
        prop_assert_eq!(&e.mem, &s.mem);
        prop_assert_eq!(&e.mem, &profiled.mem);
        prop_assert_eq!(e.observed, s.observed);
        prop_assert_eq!(es.cu_cycles.len(), 5);
        prop_assert_eq!(es.instructions, ss.instructions);
        prop_assert_eq!(es.cu_cycles.iter().sum::<u64>(), ss.cycles);
        let busiest = es.cu_cycles.iter().copied().max().unwrap_or(0);
        prop_assert_eq!(es.cycles, overhead + busiest);
    }

    /// Trap path on the five-CU ML-MIAOW configuration: with one
    /// exercised feature left out of the plan, the launch traps on a
    /// feature outside the plan like the serial run on a CU trimmed to
    /// the same plan.
    #[test]
    fn ml_miaow_engine_traps_like_the_serial_run(
        src in arb_branchy_kernel(),
        waves in 1usize..=6,
        pick in any::<prop::sample::Index>(),
    ) {
        let profiled = serial_run(&src, 1, None, &[0, 512], 64);
        profiled.result.expect("profiling run succeeds");
        let non_core: Vec<_> = profiled.observed.iter().filter(|f| !f.is_core()).collect();
        prop_assume!(!non_core.is_empty());
        let removed = non_core[pick.index(non_core.len())];
        let reduced: CoverageSet =
            profiled.observed.iter().filter(|&f| f != removed).collect();
        let plan = TrimPlan::from_coverage(&reduced);

        let e = launch_on(EngineConfig::ml_miaow(&plan), &src, waves, &[0, 512], 64);
        let s = serial_run(&src, waves, Some(plan.retained()), &[0, 512], 64);
        let err = assert_same_fault(&e, &s);
        let trapped_outside_plan = matches!(
            err,
            ExecError::TrimmedFeature { feature, .. } if !plan.retained().contains(feature)
        );
        prop_assert!(trapped_outside_plan, "got {}", err);
    }
}

/// Watchdog path: an unbounded loop stops at the first instruction
/// that takes the wave past the 10M-cycle budget. The entry `s_mov`
/// costs 1 and each iteration 35 (16 `v_add_f32` at 2, then
/// `s_add_i32`, `s_cmp_lt_i32` and `s_cbranch_scc1` at 1), so after
/// 285,714 iterations the wave is at 9,999,991 cycles and the fifth
/// `v_add_f32` of the next one reaches 10,000,001.
#[test]
fn watchdog_fires_at_the_first_instruction_past_the_budget() {
    let src = unbounded_loop_src("");
    let e = engine_run(&src, 1, None, &[0, 512], 64);
    let s = serial_run(&src, 1, None, &[0, 512], 64);
    let err = assert_same_fault(&e, &s);
    assert_eq!(err, ExecError::Watchdog { cycles: 10_000_001 });
}

/// Watchdog path in a multi-wave launch: wave 0 stores `lane + 1` at
/// `s1` (14 cycles) and then spins, so after 285,713 iterations it is
/// at 9,999,970 cycles and the sixteenth `v_add_f32` of the next one
/// reaches 10,000,002. The launch stops there: waves 1 and 2 never run
/// and their store slots keep their initial zeros.
#[test]
fn watchdog_stops_a_multi_wave_launch_at_its_first_wave() {
    let src = unbounded_loop_src(
        "v_lshl_b32 v10, v0, 2\n\
         v_cvt_f32_i32 v11, v0\n\
         v_add_f32 v11, 1.0, v11\n\
         buffer_store_dword v11, v10, s1\n",
    );
    let e = engine_run(&src, 3, None, &[0, 512], 64);
    let s = serial_run(&src, 3, None, &[0, 512], 64);
    let err = assert_same_fault(&e, &s);
    assert_eq!(err, ExecError::Watchdog { cycles: 10_000_002 });
    for lane in 0..48 {
        let expected = if lane < 16 { lane as f32 + 1.0 } else { 0.0 };
        assert_eq!(e.mem.read_f32(512 + 4 * lane), expected, "lane {lane}");
    }
}

/// `prefix` followed by a loop of 16 `v_add_f32` whose trip count no
/// wave reaches under the watchdog budget.
fn unbounded_loop_src(prefix: &str) -> String {
    let body: String = (0..16)
        .map(|i| format!("v_add_f32 v{}, 1.0, v{}\n", 1 + i % 7, 1 + i % 7))
        .collect();
    format!(
        "{prefix}\
         s_mov_b32 s2, 0\n\
         loop:\n\
         {body}\
         s_add_i32 s2, s2, 1\n\
         s_cmp_lt_i32 s2, 1000000000\n\
         s_cbranch_scc1 loop\n\
         s_endpgm\n"
    )
}

/// The counted MAC loop the LSTM kernels compile to: a uniform load
/// (`uniform_buf`: from device memory through `s0`, else from LDS at
/// `s0` plus the loop offset), a per-lane gather from LDS at
/// `stride` bytes per global lane id, and `v_mac_f32` into `v3`,
/// stored at `s1` + 4 * lane id.
fn mac_loop_src(uniform_buf: bool, stride: u32, trips: u32) -> String {
    let uload = if uniform_buf {
        "v_mov_b32 v6, s11\nbuffer_load_dword v7, v6, s0\n"
    } else {
        "s_add_i32 s12, s0, s11\nv_mov_b32 v6, s12\nds_read_b32 v7, v6\n"
    };
    format!(
        "v_mul_i32 v4, {stride}, v0\n\
         v_mov_b32 v3, 0.0\n\
         s_mov_b32 s10, 0\n\
         s_mov_b32 s11, 0\n\
         loop:\n\
         {uload}\
         v_add_i32 v8, s11, v4\n\
         ds_read_b32 v9, v8\n\
         v_mac_f32 v3, v7, v9\n\
         s_add_i32 s11, s11, 4\n\
         s_add_i32 s10, s10, 1\n\
         s_cmp_lt_i32 s10, {trips}\n\
         s_cbranch_scc1 loop\n\
         v_lshl_b32 v10, v0, 2\n\
         buffer_store_dword v3, v10, s1\n\
         s_endpgm\n"
    )
}

/// Both MAC-loop flavors compute, lane by lane, the f32 dot product a
/// host loop computes in the same order.
#[test]
fn mac_loop_matches_a_host_dot_product() {
    let (stride, trips, waves, lds_words) = (64u32, 16usize, 3usize, 1024);
    let lds = staged_lds(lds_words);
    let input = fresh_mem();
    for uniform_buf in [false, true] {
        let src = mac_loop_src(uniform_buf, stride, trips as u32);
        let e = engine_run(&src, waves, None, &[0, 512], lds_words);
        e.result.expect("MAC loop runs");
        for lane in 0..waves * 16 {
            let mut acc = 0.0f32;
            for i in 0..trips {
                let uniform = if uniform_buf {
                    input.read_f32(4 * i)
                } else {
                    lds[i]
                };
                acc += uniform * lds[i + lane * stride as usize / 4];
            }
            assert_eq!(
                e.mem.read_f32(512 + 4 * lane).to_bits(),
                acc.to_bits(),
                "lane {lane} (uniform_buf={uniform_buf})"
            );
        }
        assert!(e.mem.read_f32(512).abs() > 1e-6, "lane 0 saw real data");
    }
}

/// A uniform MAC-loop load faults on the first out-of-range read: the
/// uniform LDS read (pc 6) and the uniform buffer load (pc 5) at
/// iteration 9 when the base sits 32 bytes below the end.
#[test]
fn mac_loop_faults_at_the_first_out_of_range_uniform_load() {
    let lds_end = 32 * 1024;
    assert_mac_loop_fault(
        &mac_loop_src(false, 64, 16),
        [lds_end - 32, 512],
        ExecError::BadLdsAddress {
            addr: u64::from(lds_end),
            pc: 6,
        },
    );
    assert_mac_loop_fault(
        &mac_loop_src(true, 64, 16),
        [1024 - 32, 512],
        ExecError::BadAddress { addr: 1024, pc: 5 },
    );
}

/// The strided MAC-loop gather (pc 8) faults at iteration 3 on lane 15
/// of wave 0, whose address is 4 * i + 15 * 2184 = 32768, after lanes
/// 0..=14 already read theirs.
#[test]
fn mac_loop_faults_at_the_first_out_of_range_gather() {
    assert_mac_loop_fault(
        &mac_loop_src(false, 2184, 16),
        [0, 512],
        ExecError::BadLdsAddress {
            addr: 32 * 1024,
            pc: 8,
        },
    );
}

/// Asserts that a 2-wave launch of `src` faults with `expected`, like
/// the serial run.
fn assert_mac_loop_fault(src: &str, args: [u32; 2], expected: ExecError) {
    let e = engine_run(src, 2, None, &args, 64);
    let s = serial_run(src, 2, None, &args, 64);
    assert_eq!(assert_same_fault(&e, &s), expected);
}
