//! Predecoded (dispatch-optimized) kernel form and its per-engine cache.
//!
//! The interpreter's original hot loop re-derived everything about an
//! instruction on every execution: `Feature::of_instr` allocated a
//! `Vec<Feature>` per executed instruction, the cost model re-matched
//! the full `Instr` enum, and trimmed-feature traps re-queried a
//! `BTreeSet` per feature. For the per-event LSTM/ELM launches of
//! `rtad-ml` — thousands of executed instructions per inference event —
//! that walk dominated host wall-clock.
//!
//! Lowering happens once per kernel instead: every instruction becomes a
//! `PreInstr` carrying its precomputed cycle cost, its coverage
//! features as a single [`Feature::bit`] mask, and — when the engine is
//! trimmed — the trap verdict (which feature faults, and which features
//! of the same instruction were already recorded when the serial path
//! trapped, so error-path coverage stays bit-identical). Branch targets
//! are already resolved instruction indices in [`Instr`]; the lowered
//! form keeps them and the executor dispatches on the copied `Instr`
//! without any per-step feature or cost derivation.
//!
//! The [`Engine`](crate::engine::Engine) caches lowered kernels by
//! [`Kernel::fingerprint`] — the same content fingerprint
//! `rtad-analysis`'s `VerifiedEngine` keys its static verdicts with —
//! so repeated launches of the same kernel (the steady state of every
//! detection run) skip lowering entirely.

use std::collections::HashMap;
use std::sync::Arc;

use crate::coverage::{CoverageSet, Feature};
use crate::exec::CostModel;
use crate::isa::{Instr, Kernel};

/// The five always-exercised core datapath features, as a mask. The
/// engine records these once per *launch* (they are per-run facts, not
/// per-wave facts — every launch fetches, issues and touches both
/// register files).
pub(crate) const CORE_FEATURE_MASK: u64 = Feature::Fetch.bit()
    | Feature::IssueLogic.bit()
    | Feature::WavefrontCtl.bit()
    | Feature::SgprFile.bit()
    | Feature::VgprFile.bit();

/// A trimmed-feature trap precomputed at lowering time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreTrap {
    /// The first feature of the instruction outside the retained set
    /// (iteration order of [`Feature::of_instr`], matching the serial
    /// reference).
    pub feature: Feature,
    /// Features of the same instruction listed *before* the trapping
    /// one: the serial path records them before faulting, so the
    /// predecoded error path must too.
    pub prior_mask: u64,
}

/// One lowered instruction: the architectural op plus everything the
/// dispatch loop would otherwise re-derive per execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PreInstr {
    /// The architectural instruction (branch targets are resolved
    /// instruction indices already).
    pub instr: Instr,
    /// Precomputed cycle cost under the engine's [`CostModel`].
    pub cost: u64,
    /// Coverage features as a [`Feature::bit`] mask.
    pub mask: u64,
    /// `Some` iff executing this instruction traps on the engine's
    /// trimmed configuration.
    pub trap: Option<PreTrap>,
}

/// A kernel lowered for one engine configuration (cost model + retained
/// feature set).
#[derive(Debug, Clone, PartialEq)]
pub struct PredecodedKernel {
    name: String,
    fingerprint: u64,
    pub(crate) code: Vec<PreInstr>,
    static_mask: u64,
}

impl PredecodedKernel {
    /// Lowers `kernel` for an engine with the given cost model and
    /// (optional) retained-feature set.
    pub fn lower(kernel: &Kernel, cost: &CostModel, retained: Option<&CoverageSet>) -> Self {
        let retained_mask = retained.map(CoverageSet::mask);
        let mut static_mask = 0u64;
        let code = kernel
            .code
            .iter()
            .map(|instr| {
                let features = Feature::of_instr(instr);
                let mut mask = 0u64;
                let mut trap = None;
                for f in &features {
                    if trap.is_none() {
                        if let Some(rm) = retained_mask {
                            if rm & f.bit() == 0 {
                                trap = Some(PreTrap {
                                    feature: *f,
                                    prior_mask: mask,
                                });
                            }
                        }
                    }
                    mask |= f.bit();
                }
                static_mask |= mask;
                PreInstr {
                    instr: *instr,
                    cost: cost.cost(instr),
                    mask,
                    trap,
                }
            })
            .collect();
        PredecodedKernel {
            name: kernel.name.clone(),
            fingerprint: kernel.fingerprint(),
            code,
            static_mask,
        }
    }

    /// The source kernel's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The source kernel's [`Kernel::fingerprint`] (the cache key).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.code.len()
    }

    /// Whether the kernel is empty.
    pub fn is_empty(&self) -> bool {
        self.code.is_empty()
    }

    /// Union of every instruction's feature mask (static coverage upper
    /// bound; the core features are not included).
    pub fn static_mask(&self) -> u64 {
        self.static_mask
    }

    /// Whether any instruction traps on the configuration this kernel
    /// was lowered for.
    pub fn traps(&self) -> bool {
        self.code.iter().any(|p| p.trap.is_some())
    }
}

/// Per-kernel hit/miss telemetry of one `PredecodeCache` entry, keyed
/// by name + fingerprint so a report can show *which* kernel
/// misses rather than one global hit-rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelCacheStats {
    /// Source kernel name.
    pub name: String,
    /// [`Kernel::fingerprint`] of the cached lowering.
    pub fingerprint: u64,
    /// Lookups of this kernel served from the cache.
    pub hits: u64,
    /// Lookups of this kernel that had to lower it.
    pub misses: u64,
}

/// Hit/miss/size counters of a `PredecodeCache`, surfaced through
/// [`Engine::predecode_stats`](crate::Engine::predecode_stats) and the
/// benchmark telemetry so cache effectiveness is visible across PRs.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PredecodeStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to lower the kernel.
    pub misses: u64,
    /// Distinct kernels currently cached.
    pub kernels: usize,
    /// Cached fused launch streams.
    pub streams: usize,
    /// Per-kernel hit/miss breakdown, sorted by kernel name (then
    /// fingerprint, for same-named variants under different trims).
    pub per_kernel: Vec<KernelCacheStats>,
}

impl PredecodeStats {
    /// Hit fraction over all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One cached lowering plus its private hit/miss counters.
#[derive(Debug, Clone)]
struct CacheEntry {
    pk: Arc<PredecodedKernel>,
    hits: u64,
    misses: u64,
}

/// A fused launch stream: the lowered kernels of a fixed multi-kernel
/// sequence (e.g. the LSTM gate/combine pair), resolved once and
/// relaunched as one unit so the steady state pays a single cache
/// lookup — not one fingerprint + hash probe per stage — and no
/// per-launch front-end re-setup between stages.
#[derive(Debug, Clone)]
pub struct PredecodedStream {
    /// `(lowered kernel, wave count)` per stage, in launch order.
    pub(crate) stages: Vec<(Arc<PredecodedKernel>, usize)>,
}

impl PredecodedStream {
    /// Number of stages.
    pub fn len(&self) -> usize {
        self.stages.len()
    }

    /// Whether the stream has no stages.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// A cache of lowered kernels keyed by `(fingerprint, trim mask)` — the
/// trim mask being the retained-feature set the lowering baked its trap
/// verdicts against (`None` = untrimmed). Within one engine the retained
/// set is fixed, but the compound key makes the cache sound to share.
/// `Arc` so a launch can hold a lowered kernel or stream while it
/// mutates the engine's CUs and counters. Fused streams are cached separately
/// by the stage fingerprint/wave sequence; their lookups are accounted
/// as one hit or miss *per stage* so totals stay comparable with
/// per-launch counting.
#[derive(Debug, Clone, Default)]
pub(crate) struct PredecodeCache {
    kernels: HashMap<(u64, Option<u64>), CacheEntry>,
    streams: HashMap<StreamKey, Arc<PredecodedStream>>,
    hits: u64,
    misses: u64,
}

/// Fused-stream cache key: the per-stage `(kernel fingerprint, wave
/// count)` sequence plus the trim-plan fingerprint.
type StreamKey = (Vec<(u64, usize)>, Option<u64>);

impl PredecodeCache {
    /// Returns the cached lowering of `kernel`, lowering on first use.
    pub fn get_or_lower(
        &mut self,
        kernel: &Kernel,
        cost: &CostModel,
        retained: Option<&CoverageSet>,
    ) -> Arc<PredecodedKernel> {
        let key = (kernel.fingerprint(), retained.map(CoverageSet::mask));
        if let Some(e) = self.kernels.get_mut(&key) {
            self.hits += 1;
            e.hits += 1;
            return Arc::clone(&e.pk);
        }
        self.misses += 1;
        let pk = Arc::new(PredecodedKernel::lower(kernel, cost, retained));
        self.kernels.insert(
            key,
            CacheEntry {
                pk: Arc::clone(&pk),
                hits: 0,
                misses: 1,
            },
        );
        pk
    }

    /// Returns the cached fused stream for a fixed `(kernel, waves)`
    /// sequence, resolving each stage through [`Self::get_or_lower`] on
    /// first use. A stream hit books one cache hit per stage.
    pub fn get_or_stream(
        &mut self,
        stages: &[(&Kernel, usize)],
        cost: &CostModel,
        retained: Option<&CoverageSet>,
    ) -> Arc<PredecodedStream> {
        let trim = retained.map(CoverageSet::mask);
        let key = (
            stages
                .iter()
                .map(|(k, w)| (k.fingerprint(), *w))
                .collect::<Vec<_>>(),
            trim,
        );
        if let Some(s) = self.streams.get(&key).cloned() {
            self.hits += stages.len() as u64;
            for (pk, _) in &s.stages {
                if let Some(e) = self.kernels.get_mut(&(pk.fingerprint(), trim)) {
                    e.hits += 1;
                }
            }
            return s;
        }
        let built = stages
            .iter()
            .map(|(k, w)| (self.get_or_lower(k, cost, retained), *w))
            .collect();
        let s = Arc::new(PredecodedStream { stages: built });
        self.streams.insert(key, Arc::clone(&s));
        s
    }

    /// Number of cached kernels.
    pub fn len(&self) -> usize {
        self.kernels.len()
    }

    /// Hit/miss/size counters plus the per-kernel breakdown.
    pub fn stats(&self) -> PredecodeStats {
        let mut s = PredecodeStats {
            hits: self.hits,
            misses: self.misses,
            kernels: self.kernels.len(),
            streams: self.streams.len(),
            ..PredecodeStats::default()
        };
        for e in self.kernels.values() {
            let k = &e.pk;
            s.per_kernel.push(KernelCacheStats {
                name: k.name().to_string(),
                fingerprint: k.fingerprint(),
                hits: e.hits,
                misses: e.misses,
            });
        }
        s.per_kernel
            .sort_by(|a, b| a.name.cmp(&b.name).then(a.fingerprint.cmp(&b.fingerprint)));
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::assemble;

    fn kernel() -> Kernel {
        assemble(
            r#"
            v_lshl_b32 v1, v0, 2
            v_exp_f32 v2, 1.0
            buffer_store_dword v2, v1, s0
            s_endpgm
        "#,
        )
        .expect("assembles")
    }

    #[test]
    fn lowering_precomputes_cost_and_masks() {
        let k = kernel();
        let cost = CostModel::miaow();
        let pk = PredecodedKernel::lower(&k, &cost, None);
        assert_eq!(pk.len(), k.code.len());
        assert_eq!(pk.fingerprint(), k.fingerprint());
        for (pre, instr) in pk.code.iter().zip(&k.code) {
            assert_eq!(pre.cost, cost.cost(instr));
            let mut expect = 0u64;
            for f in Feature::of_instr(instr) {
                expect |= f.bit();
            }
            assert_eq!(pre.mask, expect);
            assert!(pre.trap.is_none(), "untrimmed engines never trap");
        }
        assert!(pk.static_mask() & Feature::ValuExp.bit() != 0);
        assert!(!pk.traps());
    }

    #[test]
    fn lowering_marks_traps_with_serial_prior_mask() {
        let k = kernel();
        // Retain everything except the transcendental decoder arm: the
        // v_exp instruction must trap on DecValuTrans with no priors
        // recorded (it is of_instr's first feature for that op).
        let retained: CoverageSet = Feature::all()
            .into_iter()
            .filter(|f| *f != Feature::DecValuTrans)
            .collect();
        let pk = PredecodedKernel::lower(&k, &CostModel::miaow(), Some(&retained));
        assert!(pk.traps());
        let trap = pk.code[1].trap.expect("v_exp traps");
        assert_eq!(trap.feature, Feature::DecValuTrans);
        assert_eq!(trap.prior_mask, 0);

        // Retain the decoder arm but not the exp unit: the prior mask
        // now holds the already-recorded decoder feature.
        let retained: CoverageSet = Feature::all()
            .into_iter()
            .filter(|f| *f != Feature::ValuExp)
            .collect();
        let pk = PredecodedKernel::lower(&k, &CostModel::miaow(), Some(&retained));
        let trap = pk.code[1].trap.expect("v_exp traps");
        assert_eq!(trap.feature, Feature::ValuExp);
        assert_eq!(trap.prior_mask, Feature::DecValuTrans.bit());
    }

    #[test]
    fn mac_loop_lowering_resolves_backedges_and_marks_mac_traps() {
        // The LSTM-gates inner-loop shapes: a uniform LDS weight load
        // (xloop) and a uniform buffer activation load (hloop), each
        // followed by a strided LDS gather and a MAC.
        let k = assemble(
            r#"
            v_mul_i32 v4, 64, v0
            v_mov_b32 v3, 0.0
            s_mov_b32 s10, 0
            s_mov_b32 s11, 0
        xloop:
            s_add_i32 s12, s0, s11
            v_mov_b32 v6, s12
            ds_read_b32 v7, v6
            v_add_i32 v8, s11, v4
            ds_read_b32 v9, v8
            v_mac_f32 v3, v7, v9
            s_add_i32 s11, s11, 4
            s_add_i32 s10, s10, 1
            s_cmp_lt_i32 s10, 16
            s_cbranch_scc1 xloop
            s_mov_b32 s10, 0
            s_mov_b32 s11, 0
        hloop:
            v_mov_b32 v6, s11
            buffer_load_dword v7, v6, s1
            v_add_i32 v8, s11, v4
            ds_read_b32 v9, v8
            v_mac_f32 v3, v7, v9
            s_add_i32 s11, s11, 4
            s_add_i32 s10, s10, 1
            s_cmp_lt_i32 s10, 16
            s_cbranch_scc1 hloop
            v_lshl_b32 v10, v0, 2
            buffer_store_dword v3, v10, s2
            s_endpgm
        "#,
        )
        .expect("assembles");
        let cost = CostModel::miaow();
        let pk = PredecodedKernel::lower(&k, &cost, None);
        let backedges: Vec<(usize, usize)> = pk
            .code
            .iter()
            .enumerate()
            .filter_map(|(pc, p)| match p.instr {
                Instr::SCbranchScc1 { target } => Some((pc, target)),
                _ => None,
            })
            .collect();
        assert_eq!(backedges, vec![(13, 4), (24, 16)], "loop heads resolved");
        let body_cost: u64 = pk.code[4..=13].iter().map(|p| p.cost).sum();
        assert_eq!(body_cost, 5 * cost.scalar + 3 * cost.valu + 2 * cost.lds);

        // Trimmed to its own features the kernel never traps; without
        // the MAC unit it traps at both MACs, after the decoder arm.
        let mut own = CoverageSet::new();
        own.record_mask(pk.static_mask() | CORE_FEATURE_MASK);
        assert!(!PredecodedKernel::lower(&k, &cost, Some(&own)).traps());
        let no_mac: CoverageSet = own.iter().filter(|f| *f != Feature::ValuMacF32).collect();
        let pk = PredecodedKernel::lower(&k, &cost, Some(&no_mac));
        let traps: Vec<(usize, PreTrap)> = pk
            .code
            .iter()
            .enumerate()
            .filter_map(|(pc, p)| p.trap.map(|t| (pc, t)))
            .collect();
        let mac_trap = PreTrap {
            feature: Feature::ValuMacF32,
            prior_mask: Feature::DecValuF32.bit(),
        };
        assert_eq!(traps, vec![(9, mac_trap), (20, mac_trap)]);
    }

    #[test]
    fn cache_lowers_once_per_fingerprint() {
        let k = kernel();
        let mut cache = PredecodeCache::default();
        let a = cache.get_or_lower(&k, &CostModel::miaow(), None);
        let b = cache.get_or_lower(&k, &CostModel::miaow(), None);
        assert_eq!(cache.len(), 1);
        assert!(Arc::ptr_eq(&a, &b), "second lookup reuses the lowering");

        let other = assemble("v_mov_b32 v1, 1.0\ns_endpgm").unwrap();
        cache.get_or_lower(&other, &CostModel::miaow(), None);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn cache_counts_hits_and_misses() {
        let k = kernel();
        let mut cache = PredecodeCache::default();
        assert_eq!(cache.stats(), PredecodeStats::default());
        cache.get_or_lower(&k, &CostModel::miaow(), None);
        cache.get_or_lower(&k, &CostModel::miaow(), None);
        cache.get_or_lower(&k, &CostModel::miaow(), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.kernels), (2, 1, 1));
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12);

        let other = assemble("v_mov_b32 v1, 1.0\ns_endpgm").unwrap();
        cache.get_or_lower(&other, &CostModel::miaow(), None);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.kernels), (2, 2, 2));
    }

    /// A second, looping kernel for the multi-kernel cache tests.
    fn loop_kernel() -> Kernel {
        assemble(
            r#"
            s_mov_b32 s1, 0
            loop:
            v_mul_f32 v1, 2.0, v0
            v_add_f32 v2, 1.0, v1
            s_add_i32 s1, s1, 1
            s_cmp_lt_i32 s1, 4
            s_cbranch_scc1 loop
            s_endpgm
        "#,
        )
        .expect("assembles")
    }

    #[test]
    fn stream_lookup_counts_per_stage_hits() {
        let a = loop_kernel();
        let b = kernel();
        let mut cache = PredecodeCache::default();
        let s1 = cache.get_or_stream(&[(&a, 2), (&b, 1)], &CostModel::miaow(), None);
        // First stream lookup lowers both stages: 2 misses, no hits.
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.streams), (0, 2, 1));
        let s2 = cache.get_or_stream(&[(&a, 2), (&b, 1)], &CostModel::miaow(), None);
        assert!(Arc::ptr_eq(&s1, &s2), "second lookup reuses the stream");
        // A stream hit books one hit per stage, globally and per kernel.
        let st = cache.stats();
        assert_eq!((st.hits, st.misses, st.streams), (2, 2, 1));
        for pk in &st.per_kernel {
            assert_eq!((pk.hits, pk.misses), (1, 1), "{}", pk.name);
        }
        // A different wave split is a different stream.
        cache.get_or_stream(&[(&a, 4), (&b, 1)], &CostModel::miaow(), None);
        assert_eq!(cache.stats().streams, 2);
    }

    #[test]
    fn per_kernel_stats_are_sorted_and_complete() {
        let mut cache = PredecodeCache::default();
        cache.get_or_lower(&loop_kernel(), &CostModel::miaow(), None);
        cache.get_or_lower(&loop_kernel(), &CostModel::miaow(), None);
        cache.get_or_lower(&kernel(), &CostModel::miaow(), None);
        let s = cache.stats();
        assert_eq!(s.per_kernel.len(), 2);
        let names: Vec<&str> = s.per_kernel.iter().map(|k| k.name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
        let total_hits: u64 = s.per_kernel.iter().map(|k| k.hits).sum();
        let total_misses: u64 = s.per_kernel.iter().map(|k| k.misses).sum();
        assert_eq!((total_hits, total_misses), (s.hits, s.misses));
    }
}
