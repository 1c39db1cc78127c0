//! CI smoke for the sparse-readiness ingest layer, sized to run fast
//! in a debug build: a 1 000-stream registration where only 1% of
//! streams are ever active. Pins the three production contracts at
//! once:
//!
//! 1. **Zero steady-state allocations** on the sparse hot path (feed →
//!    ring → readiness → decode → batch → verdict), measured with the
//!    counting global allocator after one warm pass.
//! 2. **No cross-stream stalls**: firehosing one stream into a full
//!    ring drops (and counts) its overflow while every neighbor's
//!    verdicts stay bit-identical to the serial reference.
//! 3. **A memory-per-idle-stream ceiling**: registered-but-idle
//!    streams cost a bounded, measured number of resident bytes, and
//!    hold no ring storage.
//!
//! Everything lives in one `#[test]` so no sibling test thread can
//! allocate while the counting gate is open.

use rtad_alloc_counter::{allocations, CountingAlloc};
use rtad_igm::IgmConfig;
use rtad_ml::{Lstm, LstmConfig};
use rtad_soc::{
    encode_streams, serial_reference, ServeModel, ServeSpec, SparseConfig, SparsePipeline,
    VerdictPolicy,
};
use rtad_trace::{BranchKind, BranchRecord, VirtAddr};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Registered population; `ACTIVE` of them ever see bytes.
const STREAMS: usize = 1_000;
const ACTIVE: usize = 10;
/// Branch events per active stream (reduced for debug-build CI).
const BRANCHES: usize = 600;
/// Ceiling on resident bytes per registered-but-idle stream with
/// 256-byte rings and the token-stream (LSTM) front end: the measured
/// 552 B plus an 88-byte margin for struct-layout drift. The margin is
/// below one ring's 256 bytes, so giving every stream its ring storage
/// at registration again fails here, as does a per-stream copy of
/// anything sized by the deployment (mapper table, vocab, window
/// pools). `memory_footprint` sums sizes and capacities, so the figure
/// does not depend on the host allocator.
const IDLE_BYTES_CEILING: usize = 640;

fn targets() -> Vec<VirtAddr> {
    (0..8u32)
        .map(|k| VirtAddr::new(0x6000 + k * 0x40))
        .collect()
}

fn spec() -> ServeSpec {
    let corpus: Vec<u32> = (0..300).map(|i| (i % 8) as u32).collect();
    ServeSpec {
        igm: IgmConfig::token_stream(&targets()),
        model: ServeModel::Lstm(Lstm::train(&LstmConfig::tiny(8), &corpus, 5)),
        // Quiet policy: verdict hit deques stay empty so the gate pins
        // the structural path, not flag bookkeeping.
        policy: VerdictPolicy {
            threshold: 1e9,
            hard_threshold: 1e18,
            alpha: 0.5,
            burst_k: 2,
            burst_window_events: 5,
        },
        cycles_per_event: 1000,
    }
}

fn synth_streams(n: usize) -> Vec<Vec<u8>> {
    let tgts = targets();
    let runs: Vec<Vec<BranchRecord>> = (0..n)
        .map(|s| {
            (0..BRANCHES)
                .map(|i| {
                    BranchRecord::new(
                        VirtAddr::new(0x1000 + (i as u32) * 4),
                        tgts[(i * (s + 2) + s) % tgts.len()],
                        BranchKind::IndirectJump,
                        (i as u64) * 25,
                    )
                })
                .collect()
        })
        .collect();
    encode_streams(&runs, 1)
}

/// Lossless feeder: polls to drain whenever the ring lacks space.
fn feed_lossless(p: &mut SparsePipeline, stream: usize, bytes: &[u8]) {
    for piece in bytes.chunks(128) {
        while p.ring_free(stream) < piece.len() {
            p.poll_round();
        }
        assert_eq!(p.feed(stream, piece), piece.len());
    }
}

/// Minimum allocation count over three runs of `pass` (filters one-off
/// allocations from harness threads; a genuinely allocating path is
/// deterministic and still reports nonzero).
fn settled_allocations(mut pass: impl FnMut()) -> u64 {
    (0..3).map(|_| allocations(&mut pass)).min().unwrap_or(0)
}

#[test]
fn sparse_serve_smoke() {
    assert!(
        rtad_alloc_counter::is_installed(),
        "counting allocator is not the global allocator"
    );
    let spec = spec();
    let streams = synth_streams(ACTIVE);
    let config = SparseConfig {
        ring_capacity: 256,
        max_batch: 8,
        drain_bytes: 256,
    };

    // --- Memory-per-idle-stream ceiling, measured right after
    // registration (every stream is idle at this point).
    let mut p = SparsePipeline::new(spec.clone(), config);
    p.register_many(STREAMS);
    let idle = p.memory_footprint();
    assert_eq!(idle.streams, STREAMS);
    let per_idle = idle.bytes_per_stream();
    assert!(
        per_idle > 0.0 && per_idle <= IDLE_BYTES_CEILING as f64,
        "memory per idle stream {per_idle:.0} B exceeds the {IDLE_BYTES_CEILING} B ceiling"
    );

    // --- Zero steady-state allocations under sparse load (1% of the
    // registered population active), including pure idle rounds.
    for (s, bytes) in streams.iter().enumerate() {
        feed_lossless(&mut p, s, bytes); // warm pass
    }
    p.drain();
    let warm_windows = p.stats().windows;
    assert!(warm_windows > 0, "warm-up emitted no windows");
    let n = settled_allocations(|| {
        for (s, bytes) in streams.iter().enumerate() {
            feed_lossless(&mut p, s, bytes);
        }
        p.drain();
        for _ in 0..32 {
            p.poll_round(); // idle rounds over the full 1k population
        }
    });
    let steady_windows = p.stats().windows - warm_windows;
    assert!(steady_windows > 0, "steady phase emitted no windows");
    assert_eq!(
        n, 0,
        "steady-state sparse ingest made {n} allocations over {steady_windows} windows"
    );
    assert_eq!(p.stats().dropped_bytes, 0, "lossless feeder dropped bytes");

    // --- Backpressure containment: saturate stream 0's ring with no
    // polling; neighbors must stay bit-identical to the reference.
    let mut p = SparsePipeline::new(spec.clone(), config);
    p.register_many(STREAMS);
    let mut offered0 = 0u64;
    for piece in streams[0].chunks(96) {
        p.feed(0, piece); // fire-and-forget: overflow drops
        offered0 += piece.len() as u64;
    }
    assert!(
        p.dropped_bytes(0) > 0,
        "an unpolled firehose into a {}-byte ring must drop",
        config.ring_capacity
    );
    assert_eq!(
        p.stats().fed_bytes + p.stats().dropped_bytes,
        offered0,
        "bytes neither accepted nor counted dropped"
    );
    for (s, bytes) in streams.iter().enumerate().skip(1) {
        feed_lossless(&mut p, s, bytes);
    }
    for s in 0..ACTIVE {
        p.close(s);
    }
    p.drain();
    let reference = serial_reference(&spec, &streams);
    for (s, r) in reference.iter().enumerate().skip(1) {
        assert_eq!(
            p.outcome(s),
            &r.summary(),
            "stream {s} stalled or diverged while a sibling's ring was saturated"
        );
        assert_eq!(p.dropped_bytes(s), 0, "stream {s} dropped");
    }
    // The saturated stream itself still made forward progress on the
    // bytes it accepted.
    assert!(
        p.outcome(0).windows > 0,
        "saturated stream made no progress"
    );
}
