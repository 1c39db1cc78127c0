//! Lowering ELM and LSTM inference onto the MIAOW engine.
//!
//! "Capitalizing on the GPGPU's versatility to accept software
//! instructions, RTAD would easily support various ML models with the
//! same hardware engine" (§I). This module is that software: generated
//! Southern-Islands-subset assembly for each model, an LDS image holding
//! the trained weights ("ML-MIAOW has in its local memory the model of
//! the target program", §III-C), and a per-event launch sequence.
//!
//! Layout conventions shared by both models:
//!
//! * weights live in every CU's LDS (replicated by
//!   [`Engine::stage_lds`]);
//! * inputs, intermediate activations and the final score live in the
//!   engine's buffer memory, where the MCM's TX/RX engines read and
//!   write them;
//! * one wavefront lane computes one neuron/output, so layer widths are
//!   multiples of the 16-lane wavefront.
//!
//! Host/device equivalence (the functional half of Fig. 4's step 4) is
//! enforced by tests: device scores match the host models' within f32
//! accumulation-order tolerance.

use rtad_analysis::{trim_findings, Finding, VerifiedKernel};
use rtad_miaow::asm::assemble_named;
use rtad_miaow::{Engine, ExecError, GpuMemory, Kernel, TrimPlan, WAVEFRONT_LANES};

use crate::elm::Elm;
use crate::lstm::{Lstm, LOGIT_CLIP};

/// Gate every generated kernel through the static verifier at compile
/// time: CFG + def-before-use dataflow as launched with `n_args`
/// user-data SGPRs. A codegen bug (a read of a register the generator
/// forgot to initialize, an orphaned block) fails here, with the full
/// report, instead of silently mis-scoring events at inference time.
fn verify_compiled(kernel: Kernel, n_args: usize) -> Kernel {
    match VerifiedKernel::new(kernel, n_args) {
        Ok(vk) => vk.into_kernel(),
        Err(report) => panic!("generated kernel failed static verification:\n{report}"),
    }
}

/// Result of one device inference event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceInference {
    /// The anomaly score the device computed.
    pub score: f64,
    /// Whether the on-device threshold compare flagged an anomaly
    /// (always `false` until a threshold is set).
    pub flagged: bool,
    /// Engine cycles spent (sum over the event's kernel launches).
    pub cycles: u64,
    /// Kernel launches issued.
    pub launches: usize,
}

/// A model lowered to the device: kernels + LDS image + memory plan.
pub trait DeviceModel {
    /// The kernels, for coverage profiling and trim verification.
    fn kernels(&self) -> Vec<&Kernel>;
    /// Bytes of engine buffer memory the plan needs.
    fn memory_size(&self) -> usize;
    /// Stages the LDS weight image into every CU and allocates the
    /// engine memory.
    fn load(&self, engine: &mut Engine) -> GpuMemory;

    /// Statically proves every kernel of this model runs trap-free on an
    /// engine trimmed to `plan` (no reachable instruction needs a
    /// deleted feature).
    ///
    /// # Errors
    ///
    /// Returns the trim-incompatibility findings, each naming the
    /// kernel-relative program counter, mnemonic and missing feature.
    fn verify_against(&self, plan: &TrimPlan) -> Result<(), Vec<Finding>> {
        let findings: Vec<Finding> = self
            .kernels()
            .iter()
            .flat_map(|k| trim_findings(k, plan.retained()))
            .collect();
        if findings.is_empty() {
            Ok(())
        } else {
            Err(findings)
        }
    }
}

/// Launch-plan summary, for documentation and the MCM driver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DevicePlan {
    /// Kernel launches per inference event.
    pub launches_per_event: usize,
    /// Total wavefronts per inference event.
    pub waves_per_event: usize,
    /// LDS bytes occupied by the weight image.
    pub lds_bytes: usize,
}

/// Builds the LDS loader kernel: one wavefront per CU copies the staged
/// weight image from buffer memory into its CU's local data share (how
/// a real GPGPU populates LDS — the host cannot write it directly).
///
/// Args: `s0` = staging base (buffer), `s2` = 64-byte group count.
fn lds_loader_kernel() -> Kernel {
    assemble_named(
        "lds_loader",
        r#"
        v_and_b32   v1, 15, v0
        v_lshl_b32  v2, v1, 2
        s_mov_b32   s10, 0
    loop:
        s_lshl_b32  s11, s10, 6
        v_add_i32   v3, s11, v2
        buffer_load_dword v4, v3, s0
        ds_write_b32 v3, v4
        s_add_i32   s10, s10, 1
        s_cmp_lt_i32 s10, s2
        s_cbranch_scc1 loop
        s_endpgm
    "#,
    )
    .map(|k| verify_compiled(k, 3))
    .expect("lds_loader assembles")
}

/// Flattens `(addr, values)` segments into one zero-filled image padded
/// to a whole number of 64-byte loader groups.
fn flatten_lds_image(segments: &[(usize, Vec<f32>)], lds_bytes: usize) -> Vec<f32> {
    let padded_words = lds_bytes.div_ceil(64) * 16;
    let mut image = vec![0.0f32; padded_words];
    for (addr, values) in segments {
        assert!(addr % 4 == 0, "LDS segment must be word-aligned");
        image[addr / 4..addr / 4 + values.len()].copy_from_slice(values);
    }
    image
}

/// Runs the loader: stages the image into buffer memory at
/// `staging_base` and copies it into every CU's LDS.
fn run_lds_loader(engine: &mut Engine, mem: &mut GpuMemory, staging_base: usize, image: &[f32]) {
    mem.write_f32_slice(staging_base, image);
    let groups = (image.len() / 16) as u32;
    let args = [staging_base as u32, 0, groups];
    let loader = lds_loader_kernel();
    engine
        .launch(&loader, engine.cu_count(), &args, mem)
        .expect("LDS loader must run on any engine variant");
}

/// Appends the on-device threshold compare to a score kernel: VCC gets
/// the architectural compare (`score > threshold`) and a saturated
/// arithmetic copy of the flag lands in lane 1 of the result vector
/// (`[score, flag, 0, ...]`) for the MCM's RX engine.
///
/// Expects the score in all lanes of `v8`, `v9 = [score,0,..]` already
/// composed, the per-lane store offset in `v2`/`v10`, and the threshold
/// bits in the given sgpr.
fn threshold_epilogue(thr_sreg: u8, store_vaddr: &str, score_sbase: &str) -> String {
    format!(
        "v_mov_b32   v12, s{thr_sreg}
         v_cmp_gt_f32 v8, v12
         v_sub_f32   v13, v8, v12
         v_mul_f32   v13, 1e30, v13
         v_min_f32   v13, 1.0, v13
         v_max_f32   v13, 0.0, v13
         v_readlane_b32 s21, v13, 0
         v_writelane_b32 v9, s21, 1
         buffer_store_dword v9, {store_vaddr}, {score_sbase}
         s_endpgm
"
    )
}

// --------------------------------------------------------------------
// ELM
// --------------------------------------------------------------------

/// The ELM autoencoder lowered to the engine.
///
/// Three kernels per event: `elm_hidden` (one lane per hidden neuron),
/// `elm_output` (per-wave partial reconstructions), `elm_score`
/// (reduce + squared error). See the assembly in the source.
#[derive(Debug, Clone)]
pub struct ElmDevice {
    hidden: usize,
    k_hidden: Kernel,
    k_output: Kernel,
    k_score: Kernel,
    lds_image: Vec<(usize, Vec<f32>)>,
    lds_bytes: usize,
    x_base: usize,
    hid_base: usize,
    part_base: usize,
    score_base: usize,
    staging_base: usize,
    mem_size: usize,
    threshold: f32,
}

/// Input width the ELM device path supports (one wavefront of inputs).
pub const ELM_DEVICE_INPUT: usize = WAVEFRONT_LANES;

/// User-data SGPRs every ELM kernel launch provides (`s0..s4`): x,
/// hidden, partials and score bases plus the threshold bits. The static
/// verifier seeds its dataflow entry state with exactly these.
const ELM_LAUNCH_ARGS: usize = 5;

/// User-data SGPRs every LSTM kernel launch provides (`s0..s9`); see
/// [`LstmDevice::args`].
const LSTM_LAUNCH_ARGS: usize = 10;

impl ElmDevice {
    /// Compiles a trained ELM for the device.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim != 16` or `hidden` is not a multiple of 16
    /// (the device plan maps lanes to neurons).
    pub fn compile(elm: &Elm) -> Self {
        let d = elm.config().input_dim;
        let h = elm.config().hidden;
        assert_eq!(
            d, ELM_DEVICE_INPUT,
            "ELM device plan needs input_dim == {ELM_DEVICE_INPUT}"
        );
        assert!(
            h.is_multiple_of(WAVEFRONT_LANES) && h > 0,
            "ELM device plan needs hidden to be a multiple of {WAVEFRONT_LANES}"
        );
        let waves = h / WAVEFRONT_LANES;

        // LDS: W1 (h x 16) | b1 (h) | W2 (16 x h, row = output).
        let off_w1 = 0usize;
        let off_b1 = off_w1 + h * d * 4;
        let off_w2 = off_b1 + h * 4;
        let lds_bytes = off_w2 + d * h * 4;
        let lds_image = vec![
            (off_w1, elm.w_in().as_slice().to_vec()),
            (off_b1, elm.b_in().to_vec()),
            (off_w2, elm.w_out().as_slice().to_vec()),
        ];

        // Buffer memory: x | hidden | partials | score.
        let x_base = 0usize;
        let hid_base = x_base + d * 4;
        let part_base = hid_base + h * 4;
        let score_base = part_base + waves * WAVEFRONT_LANES * 4;
        let staging_base = score_base + WAVEFRONT_LANES * 4;
        let mem_size = staging_base + lds_bytes.div_ceil(64) * 64;

        // --- elm_hidden: lane j computes sigmoid(W1[j]·x + b1[j]) ---
        let mut src = String::new();
        src.push_str(
            "v_and_b32   v1, 15, v0\n\
             v_lshl_b32  v2, v1, 2\n\
             buffer_load_dword v3, v2, s0\n",
        );
        src.push_str(&format!("v_mul_i32   v4, {}, v0\n", d * 4));
        src.push_str("v_mov_b32   v5, 0.0\n");
        for k in 0..d {
            src.push_str(&format!(
                "v_add_i32   v6, {}, v4\n\
                 ds_read_b32 v7, v6\n\
                 v_readlane_b32 s10, v3, {k}\n\
                 v_mac_f32   v5, s10, v7\n",
                k * 4
            ));
        }
        src.push_str(&format!(
            "v_lshl_b32  v8, v0, 2\n\
             v_add_i32   v9, {off_b1}, v8\n\
             ds_read_b32 v10, v9\n\
             v_add_f32   v5, v10, v5\n\
             v_mul_f32   v11, -1.0, v5\n\
             v_exp_f32   v11, v11\n\
             v_add_f32   v11, 1.0, v11\n\
             v_rcp_f32   v11, v11\n\
             buffer_store_dword v11, v8, s1\n\
             s_endpgm\n"
        ));
        let k_hidden = assemble_named("elm_hidden", &src)
            .map(|k| verify_compiled(k, ELM_LAUNCH_ARGS))
            .expect("elm_hidden assembles");

        // --- elm_output: lane i of wave w sums W2[i][16w..16w+16]·hid ---
        let mut src = String::new();
        src.push_str(
            "v_and_b32   v1, 15, v0\n\
             v_and_b32   v2, 4294967280, v0\n\
             v_lshl_b32  v3, v0, 2\n\
             buffer_load_dword v4, v3, s1\n",
        );
        src.push_str(&format!("v_mul_i32   v5, {}, v1\n", h * 4));
        src.push_str(&format!("v_add_i32   v5, {off_w2}, v5\n"));
        src.push_str(
            "v_lshl_b32  v6, v2, 2\n\
             v_add_i32   v5, v6, v5\n\
             v_mov_b32   v7, 0.0\n",
        );
        for k in 0..WAVEFRONT_LANES {
            src.push_str(&format!(
                "v_add_i32   v8, {}, v5\n\
                 ds_read_b32 v9, v8\n\
                 v_readlane_b32 s10, v4, {k}\n\
                 v_mac_f32   v7, s10, v9\n",
                k * 4
            ));
        }
        src.push_str("buffer_store_dword v7, v3, s2\ns_endpgm\n");
        let k_output = assemble_named("elm_output", &src)
            .map(|k| verify_compiled(k, ELM_LAUNCH_ARGS))
            .expect("elm_output assembles");

        // --- elm_score: reduce partials, squared error, lane-0 score ---
        let mut src = String::new();
        src.push_str("v_lshl_b32  v2, v0, 2\nv_mov_b32   v3, 0.0\n");
        for w in 0..waves {
            src.push_str(&format!(
                "v_add_i32   v4, {}, v2\n\
                 buffer_load_dword v5, v4, s2\n\
                 v_add_f32   v3, v5, v3\n",
                w * WAVEFRONT_LANES * 4
            ));
        }
        src.push_str(
            "buffer_load_dword v6, v2, s0\n\
             v_sub_f32   v7, v3, v6\n\
             v_mul_f32   v7, v7, v7\n\
             v_mov_b32   v8, 0.0\n",
        );
        for l in 0..WAVEFRONT_LANES {
            src.push_str(&format!(
                "v_readlane_b32 s10, v7, {l}\nv_add_f32   v8, s10, v8\n"
            ));
        }
        src.push_str(
            "v_readlane_b32 s11, v8, 0\n\
             v_mov_b32   v9, 0.0\n\
             v_writelane_b32 v9, s11, 0\n",
        );
        src.push_str(&threshold_epilogue(4, "v2", "s3"));
        let k_score = assemble_named("elm_score", &src)
            .map(|k| verify_compiled(k, ELM_LAUNCH_ARGS))
            .expect("elm_score assembles");

        ElmDevice {
            hidden: h,
            k_hidden,
            k_output,
            k_score,
            lds_image,
            lds_bytes,
            x_base,
            hid_base,
            part_base,
            score_base,
            staging_base,
            mem_size,
            threshold: f32::INFINITY,
        }
    }

    /// Sets the on-device detection threshold (scores strictly above it
    /// raise the anomaly flag). Defaults to `+inf` (never flag).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// The launch plan summary.
    pub fn plan(&self) -> DevicePlan {
        let waves = self.hidden / WAVEFRONT_LANES;
        DevicePlan {
            launches_per_event: 3,
            waves_per_event: waves * 2 + 1,
            lds_bytes: self.lds_bytes,
        }
    }

    /// Runs one inference event on the engine.
    ///
    /// # Errors
    ///
    /// Propagates engine [`ExecError`]s (notably trimmed-feature traps).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not 16 wide or `mem` was not sized by
    /// [`DeviceModel::load`].
    pub fn infer(
        &self,
        engine: &mut Engine,
        mem: &mut GpuMemory,
        x: &[f32],
    ) -> Result<DeviceInference, ExecError> {
        assert_eq!(x.len(), ELM_DEVICE_INPUT, "device input width");
        mem.write_f32_slice(self.x_base, x);
        let waves = self.hidden / WAVEFRONT_LANES;
        let args = [
            self.x_base as u32,
            self.hid_base as u32,
            self.part_base as u32,
            self.score_base as u32,
            self.threshold.to_bits(),
        ];
        debug_assert_eq!(args.len(), ELM_LAUNCH_ARGS);
        // One fused launch stream instead of three separate launches:
        // a single predecode-cache lookup covers the whole event.
        let stages = engine.launch_stream(
            &[
                (&self.k_hidden, waves),
                (&self.k_output, waves),
                (&self.k_score, 1),
            ],
            &args,
            mem,
        )?;
        let cycles = stages.iter().map(|s| s.cycles).sum();
        Ok(DeviceInference {
            score: f64::from(mem.read_f32(self.score_base)),
            flagged: mem.read_f32(self.score_base + 4) > 0.5,
            cycles,
            launches: 3,
        })
    }

    /// Runs one inference event per stream: stages every stream's
    /// input, then runs the fused three-kernel stream for each stream
    /// in turn, with one stream-cache lookup for the whole batch — the
    /// engine-backed serving path's amortized dispatch. Each stream's
    /// score, flag and cycle count is bit-identical to calling
    /// [`ElmDevice::infer`] per stream; batching only changes host-side
    /// throughput.
    ///
    /// # Errors
    ///
    /// Propagates the first failing stream's engine [`ExecError`], with
    /// the effects of calling [`ElmDevice::infer`] per stream in order
    /// up to that stream: earlier streams hold their completed event,
    /// the failing stream keeps its completed kernels and the faulting
    /// wave's pre-fault stores, and later streams hold only their
    /// staged input (no kernel ran on them).
    ///
    /// # Panics
    ///
    /// Panics if `mems` and `xs` disagree in length or any input is not
    /// 16 wide.
    pub fn infer_batch(
        &self,
        engine: &mut Engine,
        mems: &mut [GpuMemory],
        xs: &[Vec<f32>],
    ) -> Result<Vec<DeviceInference>, ExecError> {
        assert_eq!(mems.len(), xs.len(), "one input per stream memory");
        for (mem, x) in mems.iter_mut().zip(xs) {
            assert_eq!(x.len(), ELM_DEVICE_INPUT, "device input width");
            mem.write_f32_slice(self.x_base, x);
        }
        let waves = self.hidden / WAVEFRONT_LANES;
        let args = [
            self.x_base as u32,
            self.hid_base as u32,
            self.part_base as u32,
            self.score_base as u32,
            self.threshold.to_bits(),
        ];
        // One fused stream batched over all streams: a single
        // stream-cache lookup covers the event for the whole batch.
        let jobs: Vec<(&[u32], &mut GpuMemory)> = mems.iter_mut().map(|m| (&args[..], m)).collect();
        let per_job = engine.launch_stream_batch(
            &[
                (&self.k_hidden, waves),
                (&self.k_output, waves),
                (&self.k_score, 1),
            ],
            jobs,
        )?;
        let cycles: Vec<u64> = per_job
            .iter()
            .map(|stages| stages.iter().map(|s| s.cycles).sum())
            .collect();
        Ok(mems
            .iter()
            .zip(cycles)
            .map(|(mem, cycles)| DeviceInference {
                score: f64::from(mem.read_f32(self.score_base)),
                flagged: mem.read_f32(self.score_base + 4) > 0.5,
                cycles,
                launches: 3,
            })
            .collect())
    }
}

impl DeviceModel for ElmDevice {
    fn kernels(&self) -> Vec<&Kernel> {
        vec![&self.k_hidden, &self.k_output, &self.k_score]
    }

    fn memory_size(&self) -> usize {
        self.mem_size
    }

    fn load(&self, engine: &mut Engine) -> GpuMemory {
        // Pre-warm the predecode cache while loading weights, so the
        // first inference event's launches are already cache hits.
        for k in self.kernels() {
            engine.predecode(k);
        }
        let mut mem = GpuMemory::new(self.mem_size.div_ceil(4) * 4);
        let image = flatten_lds_image(&self.lds_image, self.lds_bytes);
        run_lds_loader(engine, &mut mem, self.staging_base, &image);
        mem
    }
}

// --------------------------------------------------------------------
// LSTM
// --------------------------------------------------------------------

/// The LSTM branch model lowered to the engine.
///
/// Four kernels per step: `lstm_gates` (4 waves, one per gate),
/// `lstm_combine` (cell update), `lstm_logits` (vocab/16 waves,
/// clipped logits + per-wave exp partials), `lstm_score`
/// (ln-sum-exp minus the observed token's logit).
#[derive(Debug, Clone)]
pub struct LstmDevice {
    vocab: usize,
    embed: usize,
    k_gates: Kernel,
    k_combine: Kernel,
    k_logits: Kernel,
    k_score: Kernel,
    lds_image: Vec<(usize, Vec<f32>)>,
    lds_bytes: usize,
    off_emb: usize,
    h_base: usize,
    c_base: usize,
    gate_base: usize,
    logit_base: usize,
    exp_base: usize,
    expsum_base: usize,
    score_base: usize,
    staging_base: usize,
    mem_size: usize,
    threshold: f32,
}

impl LstmDevice {
    /// Compiles a trained LSTM for the device.
    ///
    /// # Panics
    ///
    /// Panics unless `hidden == 16`, `embed == 16` and `vocab` is a
    /// positive multiple of 16 (the lane-per-neuron plan).
    pub fn compile(lstm: &Lstm) -> Self {
        let cfg = *lstm.config();
        assert_eq!(cfg.hidden, 16, "LSTM device plan needs hidden == 16");
        assert_eq!(cfg.embed, 16, "LSTM device plan needs embed == 16");
        assert!(
            cfg.vocab.is_multiple_of(WAVEFRONT_LANES) && cfg.vocab > 0,
            "LSTM device plan needs vocab to be a multiple of 16"
        );
        let h = cfg.hidden;
        let e = cfg.embed;
        let v = cfg.vocab;
        let lwaves = v / WAVEFRONT_LANES;

        // LDS: emb | W | U | b | Wo | bo.
        let off_emb = 0usize;
        let off_w = off_emb + v * e * 4;
        let off_u = off_w + 4 * h * e * 4;
        let off_b = off_u + 4 * h * h * 4;
        let off_wo = off_b + 4 * h * 4;
        let off_bo = off_wo + v * h * 4;
        let lds_bytes = off_bo + v * 4;
        let lds_image = vec![
            (off_emb, lstm.embedding().as_slice().to_vec()),
            (off_w, lstm.w().as_slice().to_vec()),
            (off_u, lstm.u().as_slice().to_vec()),
            (off_b, lstm.b().to_vec()),
            (off_wo, lstm.w_out().as_slice().to_vec()),
            (off_bo, lstm.b_out().to_vec()),
        ];

        // Buffer memory: h | c | gates | logits | exps | expsums | score.
        let h_base = 0usize;
        let c_base = h_base + h * 4;
        let gate_base = c_base + h * 4;
        let logit_base = gate_base + 4 * h * 4;
        let exp_base = logit_base + v * 4;
        let expsum_base = exp_base + v * 4;
        let score_base = expsum_base + lwaves * WAVEFRONT_LANES * 4;
        let staging_base = score_base + WAVEFRONT_LANES * 4;
        let mem_size = staging_base + lds_bytes.div_ceil(64) * 64;

        // --- lstm_gates: wave g computes gate g's 16 pre-activations ---
        // args: s0 = token embedding offset (LDS), s1 = h_base,
        //       s2 = gate_base.
        let src = format!(
            r#"
            v_mul_i32   v4, {row}, v0
            v_add_i32   v4, {off_w}, v4
            v_mul_i32   v5, {row}, v0
            v_add_i32   v5, {off_u}, v5
            v_mov_b32   v3, 0.0
            s_mov_b32   s10, 0
            s_mov_b32   s11, 0
        xloop:
            s_add_i32   s12, s0, s11
            v_mov_b32   v6, s12
            ds_read_b32 v7, v6
            v_add_i32   v8, s11, v4
            ds_read_b32 v9, v8
            v_mac_f32   v3, v7, v9
            s_add_i32   s11, s11, 4
            s_add_i32   s10, s10, 1
            s_cmp_lt_i32 s10, {e}
            s_cbranch_scc1 xloop
            s_mov_b32   s10, 0
            s_mov_b32   s11, 0
        hloop:
            v_mov_b32   v6, s11
            buffer_load_dword v7, v6, s1
            v_add_i32   v8, s11, v5
            ds_read_b32 v9, v8
            v_mac_f32   v3, v7, v9
            s_add_i32   s11, s11, 4
            s_add_i32   s10, s10, 1
            s_cmp_lt_i32 s10, {h}
            s_cbranch_scc1 hloop
            v_lshl_b32  v10, v0, 2
            v_add_i32   v11, {off_b}, v10
            ds_read_b32 v12, v11
            v_add_f32   v3, v12, v3
            v_readlane_b32 s20, v0, 0
            s_and_b32   s21, s20, 48
            s_cmp_eq_i32 s21, 32
            s_cbranch_scc1 tanh_path
            v_mul_f32   v13, -1.0, v3
            v_exp_f32   v13, v13
            v_add_f32   v13, 1.0, v13
            v_rcp_f32   v13, v13
            s_branch store
        tanh_path:
            v_mul_f32   v13, -2.0, v3
            v_exp_f32   v13, v13
            v_add_f32   v13, 1.0, v13
            v_rcp_f32   v13, v13
            v_mul_f32   v13, 2.0, v13
            v_add_f32   v13, -1.0, v13
        store:
            buffer_store_dword v13, v10, s2
            s_endpgm
        "#,
            row = e * 4,
            off_w = off_w,
            off_u = off_u,
            off_b = off_b,
            e = e,
            h = h,
        );
        let k_gates = assemble_named("lstm_gates", &src)
            .map(|k| verify_compiled(k, LSTM_LAUNCH_ARGS))
            .expect("lstm_gates assembles");

        // --- lstm_combine: c = f*c + i*g; h = o*tanh(c) ---
        // args: s1 = h_base, s2 = gate_base, s3 = c_base.
        let src = format!(
            r#"
            v_lshl_b32  v1, v0, 2
            buffer_load_dword v2, v1, s2
            v_add_i32   v10, {f_off}, v1
            buffer_load_dword v3, v10, s2
            v_add_i32   v10, {g_off}, v1
            buffer_load_dword v4, v10, s2
            v_add_i32   v10, {o_off}, v1
            buffer_load_dword v5, v10, s2
            buffer_load_dword v6, v1, s3
            v_mul_f32   v7, v3, v6
            v_mac_f32   v7, v2, v4
            buffer_store_dword v7, v1, s3
            v_mul_f32   v8, -2.0, v7
            v_exp_f32   v8, v8
            v_add_f32   v8, 1.0, v8
            v_rcp_f32   v8, v8
            v_mul_f32   v8, 2.0, v8
            v_add_f32   v8, -1.0, v8
            v_mul_f32   v8, v5, v8
            buffer_store_dword v8, v1, s1
            s_endpgm
        "#,
            f_off = h * 4,
            g_off = 2 * h * 4,
            o_off = 3 * h * 4,
        );
        let k_combine = assemble_named("lstm_combine", &src)
            .map(|k| verify_compiled(k, LSTM_LAUNCH_ARGS))
            .expect("lstm_combine assembles");

        // --- lstm_logits: clipped logits + exps + per-wave partials ---
        // args: s1 = h_base, s4 = logit_base, s5 = exp_base,
        //       s6 = expsum_base.
        let mut src = format!(
            r#"
            v_mul_i32   v4, {row}, v0
            v_add_i32   v4, {off_wo}, v4
            v_mov_b32   v3, 0.0
            s_mov_b32   s10, 0
            s_mov_b32   s11, 0
        kloop:
            v_mov_b32   v6, s11
            buffer_load_dword v7, v6, s1
            v_add_i32   v8, s11, v4
            ds_read_b32 v9, v8
            v_mac_f32   v3, v7, v9
            s_add_i32   s11, s11, 4
            s_add_i32   s10, s10, 1
            s_cmp_lt_i32 s10, {h}
            s_cbranch_scc1 kloop
            v_lshl_b32  v10, v0, 2
            v_add_i32   v11, {off_bo}, v10
            ds_read_b32 v12, v11
            v_add_f32   v3, v12, v3
            v_min_f32   v3, {clip}.0, v3
            v_max_f32   v3, -{clip}.0, v3
            buffer_store_dword v3, v10, s4
            v_exp_f32   v13, v3
            buffer_store_dword v13, v10, s5
            v_mov_b32   v14, 0.0
        "#,
            row = h * 4,
            off_wo = off_wo,
            off_bo = off_bo,
            h = h,
            clip = LOGIT_CLIP as i64,
        );
        for l in 0..WAVEFRONT_LANES {
            src.push_str(&format!(
                "v_readlane_b32 s20, v13, {l}\nv_add_f32   v14, s20, v14\n"
            ));
        }
        src.push_str(
            "v_and_b32   v15, 4294967280, v0\n\
             v_lshl_b32  v15, v15, 2\n\
             buffer_store_dword v14, v15, s6\n\
             s_endpgm\n",
        );
        let k_logits = assemble_named("lstm_logits", &src)
            .map(|k| verify_compiled(k, LSTM_LAUNCH_ARGS))
            .expect("lstm_logits assembles");

        // --- lstm_score: ln(sum exp) - logit[token] ---
        // args: s4 = logit_base, s6 = expsum_base, s7 = token*4,
        //       s8 = score_base.
        let mut src = String::from("v_mov_b32   v2, 0.0\n");
        for w in 0..lwaves {
            src.push_str(&format!(
                "v_mov_b32   v3, {}\n\
                 buffer_load_dword v4, v3, s6\n\
                 v_add_f32   v2, v4, v2\n",
                w * WAVEFRONT_LANES * 4
            ));
        }
        src.push_str(
            "v_log_f32   v5, v2\n\
             v_mov_b32   v6, s7\n\
             buffer_load_dword v7, v6, s4\n\
             v_sub_f32   v8, v5, v7\n\
             v_readlane_b32 s20, v8, 0\n\
             v_mov_b32   v9, 0.0\n\
             v_writelane_b32 v9, s20, 0\n\
             v_lshl_b32  v10, v0, 2\n",
        );
        src.push_str(&threshold_epilogue(9, "v10", "s8"));
        let k_score = assemble_named("lstm_score", &src)
            .map(|k| verify_compiled(k, LSTM_LAUNCH_ARGS))
            .expect("lstm_score assembles");

        LstmDevice {
            vocab: v,
            embed: e,
            k_gates,
            k_combine,
            k_logits,
            k_score,
            lds_image,
            lds_bytes,
            off_emb,
            h_base,
            c_base,
            gate_base,
            logit_base,
            exp_base,
            expsum_base,
            score_base,
            staging_base,
            mem_size,
            threshold: f32::INFINITY,
        }
    }

    /// Sets the on-device detection threshold (scores strictly above it
    /// raise the anomaly flag). Defaults to `+inf` (never flag).
    pub fn set_threshold(&mut self, threshold: f32) {
        self.threshold = threshold;
    }

    /// The launch plan summary.
    pub fn plan(&self) -> DevicePlan {
        DevicePlan {
            launches_per_event: 4,
            waves_per_event: 4 + 1 + self.vocab / WAVEFRONT_LANES + 1,
            lds_bytes: self.lds_bytes,
        }
    }

    /// Zeroes the recurrent state in device memory (new trace).
    pub fn reset(&self, mem: &mut GpuMemory) {
        mem.write_f32_slice(self.h_base, &[0.0; 16]);
        mem.write_f32_slice(self.c_base, &[0.0; 16]);
    }

    /// Scores the observed token against the *standing* prediction (the
    /// state advanced by the previous tokens), then advances the state —
    /// exactly the host model's `score_next` contract. One event = four
    /// kernel launches.
    ///
    /// # Errors
    ///
    /// Propagates engine [`ExecError`]s.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn step(
        &self,
        engine: &mut Engine,
        mem: &mut GpuMemory,
        token: u32,
    ) -> Result<DeviceInference, ExecError> {
        assert!((token as usize) < self.vocab, "token outside vocabulary");
        let lwaves = self.vocab / WAVEFRONT_LANES;
        let mut cycles = 0;

        // Score the token against the standing logits (computed by the
        // previous step's logits launch; for a fresh state, run logits
        // first).
        let args = self.args(token);
        let score_stages =
            engine.launch_stream(&[(&self.k_logits, lwaves), (&self.k_score, 1)], &args, mem)?;
        cycles += score_stages.iter().map(|s| s.cycles).sum::<u64>();
        let nll = f64::from(mem.read_f32(self.score_base));

        // Advance the recurrent state with the observed token; the
        // gate/combine pair is one fused launch stream.
        let advance_stages =
            engine.launch_stream(&[(&self.k_gates, 4), (&self.k_combine, 1)], &args, mem)?;
        cycles += advance_stages.iter().map(|s| s.cycles).sum::<u64>();

        Ok(DeviceInference {
            score: nll,
            flagged: mem.read_f32(self.score_base + 4) > 0.5,
            cycles,
            launches: 4,
        })
    }

    /// Advances one step per stream as the two fused kernel streams of
    /// [`LstmDevice::step`], each batched over all streams (each stream
    /// may observe a different token — per-job launch arguments carry
    /// the per-stream embedding and logit offsets). Each stream's score
    /// and cycle count is bit-identical to calling [`LstmDevice::step`]
    /// per stream; batching only changes host-side throughput.
    ///
    /// # Errors
    ///
    /// Propagates the first engine [`ExecError`]. Not failure-atomic
    /// across streams: the scoring stream runs over every stream before
    /// the advancing stream starts, so on an error some streams may have
    /// run more kernels of the step than others. Callers should discard
    /// the batch's memories.
    ///
    /// # Panics
    ///
    /// Panics if `mems` and `tokens` disagree in length or any token is
    /// outside the vocabulary.
    pub fn step_batch(
        &self,
        engine: &mut Engine,
        mems: &mut [GpuMemory],
        tokens: &[u32],
    ) -> Result<Vec<DeviceInference>, ExecError> {
        assert_eq!(mems.len(), tokens.len(), "one token per stream memory");
        for &t in tokens {
            assert!((t as usize) < self.vocab, "token outside vocabulary");
        }
        let lwaves = self.vocab / WAVEFRONT_LANES;
        let argvs: Vec<[u32; LSTM_LAUNCH_ARGS]> = tokens.iter().map(|&t| self.args(t)).collect();
        let mut cycles = vec![0u64; mems.len()];

        // The same two fused streams [`LstmDevice::step`] issues, each
        // batched over all streams with one stream-cache lookup.
        let stream = |engine: &mut Engine,
                      mems: &mut [GpuMemory],
                      stages: &[(&Kernel, usize)],
                      cycles: &mut [u64]|
         -> Result<(), ExecError> {
            let jobs: Vec<(&[u32], &mut GpuMemory)> = argvs
                .iter()
                .zip(mems.iter_mut())
                .map(|(a, m)| (a.as_slice(), m))
                .collect();
            let per_job = engine.launch_stream_batch(stages, jobs)?;
            for (c, stages) in cycles.iter_mut().zip(&per_job) {
                *c += stages.iter().map(|s| s.cycles).sum::<u64>();
            }
            Ok(())
        };

        stream(
            engine,
            mems,
            &[(&self.k_logits, lwaves), (&self.k_score, 1)],
            &mut cycles,
        )?;
        let nlls: Vec<f64> = mems
            .iter()
            .map(|m| f64::from(m.read_f32(self.score_base)))
            .collect();
        stream(
            engine,
            mems,
            &[(&self.k_gates, 4), (&self.k_combine, 1)],
            &mut cycles,
        )?;

        Ok(mems
            .iter()
            .zip(nlls)
            .zip(cycles)
            .map(|((mem, nll), cycles)| DeviceInference {
                score: nll,
                flagged: mem.read_f32(self.score_base + 4) > 0.5,
                cycles,
                launches: 4,
            })
            .collect())
    }

    fn args(&self, token: u32) -> [u32; LSTM_LAUNCH_ARGS] {
        [
            (self.off_emb + token as usize * self.embed * 4) as u32, // s0
            self.h_base as u32,                                      // s1
            self.gate_base as u32,                                   // s2
            self.c_base as u32,                                      // s3
            self.logit_base as u32,                                  // s4
            self.exp_base as u32,                                    // s5
            self.expsum_base as u32,                                 // s6
            token * 4,                                               // s7
            self.score_base as u32,                                  // s8
            self.threshold.to_bits(),                                // s9
        ]
    }
}

impl DeviceModel for LstmDevice {
    fn kernels(&self) -> Vec<&Kernel> {
        vec![
            &self.k_gates,
            &self.k_combine,
            &self.k_logits,
            &self.k_score,
        ]
    }

    fn memory_size(&self) -> usize {
        self.mem_size
    }

    fn load(&self, engine: &mut Engine) -> GpuMemory {
        for k in self.kernels() {
            engine.predecode(k);
        }
        let mut mem = GpuMemory::new(self.mem_size.div_ceil(4) * 4);
        let image = flatten_lds_image(&self.lds_image, self.lds_bytes);
        run_lds_loader(engine, &mut mem, self.staging_base, &image);
        self.reset(&mut mem);
        mem
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elm::{Elm, ElmConfig};
    use crate::lstm::{Lstm, LstmConfig};
    use crate::{SequenceModel, VectorModel};
    use rtad_miaow::EngineConfig;

    fn trained_elm() -> Elm {
        let normal: Vec<Vec<f32>> = (0..100)
            .map(|i| {
                let mut v = vec![0.0; 16];
                v[i % 4] = 0.6;
                v[(i + 1) % 4] = 0.4;
                v
            })
            .collect();
        Elm::train(&ElmConfig::rtad(), &normal, 11)
    }

    fn trained_lstm() -> Lstm {
        let corpus: Vec<u32> = (0..800).map(|i| (i % 16) as u32).collect();
        let mut cfg = LstmConfig::rtad();
        cfg.epochs = 1; // enough for an equivalence check
        Lstm::train(&cfg, &corpus, 5)
    }

    #[test]
    fn elm_device_matches_host_scores() {
        let elm = trained_elm();
        let dev = ElmDevice::compile(&elm);
        let mut engine = Engine::new(EngineConfig::miaow());
        let mut mem = dev.load(&mut engine);

        for case in 0..5 {
            let mut x = vec![0.0f32; 16];
            x[case % 4] = 0.6;
            x[(case + 2) % 16] = 0.4;
            let host = elm.score(&x);
            let got = dev.infer(&mut engine, &mut mem, &x).expect("device runs");
            let abs = (got.score - host).abs();
            let err = abs / host.abs().max(1e-6);
            assert!(
                err < 1e-3 || abs < 1e-5,
                "case {case}: host {host} device {} (rel err {err})",
                got.score
            );
            assert!(got.cycles > 0);
        }
    }

    #[test]
    fn lstm_device_matches_host_scores() {
        let mut lstm = trained_lstm();
        let dev = LstmDevice::compile(&lstm);
        let mut engine = Engine::new(EngineConfig::miaow());
        let mut mem = dev.load(&mut engine);

        lstm.reset();
        dev.reset(&mut mem);
        let tokens = [0u32, 1, 2, 3, 4, 5, 9, 1];
        for &t in &tokens {
            let host = lstm.score_next(t);
            let got = dev.step(&mut engine, &mut mem, t).expect("device runs");
            let err = (got.score - host).abs() / host.abs().max(1e-6);
            assert!(
                err < 5e-3,
                "token {t}: host {host} device {} (rel err {err})",
                got.score
            );
        }
    }

    #[test]
    fn device_plans_report_shape() {
        let elm = ElmDevice::compile(&trained_elm());
        let p = elm.plan();
        assert_eq!(p.launches_per_event, 3);
        assert_eq!(p.waves_per_event, 2 * 2 + 1); // hidden=32 => 2 waves x2 +1
        let lstm = LstmDevice::compile(&trained_lstm());
        let p = lstm.plan();
        assert_eq!(p.launches_per_event, 4);
        assert_eq!(p.waves_per_event, 4 + 1 + 4 + 1);
        assert!(lstm.memory_size() > 0);
        assert!(p.lds_bytes < 32 * 1024, "LDS image must fit");
    }

    #[test]
    fn ml_miaow_runs_both_models_faster() {
        use rtad_miaow::{CoverageSet, TrimPlan};

        let elm = trained_elm();
        let elm_dev = ElmDevice::compile(&elm);
        let mut lstm = trained_lstm();
        lstm.reset();
        let lstm_dev = LstmDevice::compile(&lstm);

        // Profile coverage on the full engine.
        let mut profiler = Engine::new(EngineConfig::miaow());
        let mut mem_e = elm_dev.load(&mut profiler);
        let x = vec![0.05f32; 16];
        let full_elm = elm_dev.infer(&mut profiler, &mut mem_e, &x).unwrap();
        let mut mem_l = lstm_dev.load(&mut profiler);
        let full_lstm = lstm_dev.step(&mut profiler, &mut mem_l, 3).unwrap();

        let mut merged = CoverageSet::new();
        merged.merge(profiler.observed_coverage());
        let plan = TrimPlan::from_coverage(&merged);

        // The trimmed 5-CU engine runs the same models, faster.
        let mut ml = Engine::new(EngineConfig::ml_miaow(&plan));
        let mut mem_e2 = elm_dev.load(&mut ml);
        let fast_elm = elm_dev.infer(&mut ml, &mut mem_e2, &x).unwrap();
        let mut mem_l2 = lstm_dev.load(&mut ml);
        lstm_dev.reset(&mut mem_l2);
        let fast_lstm = lstm_dev.step(&mut ml, &mut mem_l2, 3).unwrap();

        assert!((fast_elm.score - full_elm.score).abs() < 1e-6);
        assert!((fast_lstm.score - full_lstm.score).abs() < 1e-6);
        assert!(fast_elm.cycles < full_elm.cycles);
        assert!(fast_lstm.cycles < full_lstm.cycles);
    }

    /// The batched passes are the serving hot path: per stream they
    /// must equal the one-event-at-a-time reference bit for bit —
    /// scores, flags, cycles and the full memory images.
    #[test]
    fn batched_passes_are_bit_identical_to_per_stream_loops() {
        let elm = trained_elm();
        let elm_dev = ElmDevice::compile(&elm);
        let mut lstm = trained_lstm();
        lstm.reset();
        let lstm_dev = LstmDevice::compile(&lstm);
        let streams = 7;

        let mut cfg = EngineConfig::miaow();
        cfg.cus = 5;
        let mut re = Engine::new(cfg.clone());
        let mut be = Engine::new(cfg);

        // ELM: distinct inputs per stream.
        let xs: Vec<Vec<f32>> = (0..streams)
            .map(|i| {
                let mut x = vec![0.0f32; 16];
                x[i % 4] = 0.6;
                x[(i + 2) % 16] = 0.4;
                x
            })
            .collect();
        let proto = elm_dev.load(&mut re);
        let mut ref_mems: Vec<GpuMemory> = (0..streams).map(|_| proto.clone()).collect();
        let _ = elm_dev.load(&mut be); // same predecode warm-up
        let mut bat_mems: Vec<GpuMemory> = (0..streams).map(|_| proto.clone()).collect();
        let mut ref_out = Vec::new();
        for (mem, x) in ref_mems.iter_mut().zip(&xs) {
            ref_out.push(elm_dev.infer(&mut re, mem, x).unwrap());
        }
        let bat_out = elm_dev.infer_batch(&mut be, &mut bat_mems, &xs).unwrap();
        assert_eq!(bat_out, ref_out, "ELM");
        assert_eq!(bat_mems, ref_mems);

        // LSTM: distinct token streams, several lockstep steps.
        let proto = lstm_dev.load(&mut re);
        let mut ref_mems: Vec<GpuMemory> = (0..streams).map(|_| proto.clone()).collect();
        let _ = lstm_dev.load(&mut be);
        let mut bat_mems: Vec<GpuMemory> = (0..streams).map(|_| proto.clone()).collect();
        for step in 0..3u32 {
            let tokens: Vec<u32> = (0..streams as u32).map(|s| (s + step) % 16).collect();
            let mut ref_out = Vec::new();
            for (mem, &t) in ref_mems.iter_mut().zip(&tokens) {
                ref_out.push(lstm_dev.step(&mut re, mem, t).unwrap());
            }
            let bat_out = lstm_dev
                .step_batch(&mut be, &mut bat_mems, &tokens)
                .unwrap();
            assert_eq!(bat_out, ref_out, "LSTM step {step}");
        }
        assert_eq!(bat_mems, ref_mems);
    }

    #[test]
    fn lstm_device_reset_restores_initial_score() {
        let mut lstm = trained_lstm();
        let dev = LstmDevice::compile(&lstm);
        let mut engine = Engine::new(EngineConfig::miaow());
        let mut mem = dev.load(&mut engine);
        lstm.reset();
        dev.reset(&mut mem);
        let first = dev.step(&mut engine, &mut mem, 2).unwrap().score;
        dev.step(&mut engine, &mut mem, 7).unwrap();
        dev.reset(&mut mem);
        let again = dev.step(&mut engine, &mut mem, 2).unwrap().score;
        assert!((first - again).abs() < 1e-6);
    }

    #[test]
    fn device_model_trim_proof_matches_runtime_behaviour() {
        use rtad_miaow::CoverageSet;

        let dev = ElmDevice::compile(&trained_elm());
        // A plan profiled from an actual run accepts the model...
        let mut engine = Engine::new(EngineConfig::miaow());
        let mut mem = dev.load(&mut engine);
        dev.infer(&mut engine, &mut mem, &[0.05; 16]).unwrap();
        let plan = TrimPlan::from_coverage(engine.observed_coverage());
        dev.verify_against(&plan)
            .expect("own-coverage plan accepted");
        // ...while a core-only plan is refused with findings that name
        // the missing features.
        let empty = TrimPlan::from_coverage(&CoverageSet::new());
        let findings = dev.verify_against(&empty).unwrap_err();
        assert!(!findings.is_empty());
        assert!(findings.iter().all(|f| f.feature.is_some()));
    }

    #[test]
    #[should_panic(expected = "input_dim == 16")]
    fn elm_device_rejects_narrow_input() {
        let normal: Vec<Vec<f32>> = (0..50)
            .map(|i| {
                let mut v = vec![0.0; 8];
                v[i % 3] = 1.0;
                v
            })
            .collect();
        let elm = Elm::train(&ElmConfig::tiny(8), &normal, 0);
        let _ = ElmDevice::compile(&elm);
    }
}
