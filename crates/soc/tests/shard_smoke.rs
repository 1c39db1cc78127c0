//! CI smoke for the sharded sparse serving plane, sized to run fast in
//! a debug build: 1 000 registered streams partitioned over two worker
//! shards, 1% of them active. Pins the production contracts the shard
//! layer adds on top of `sparse_smoke`:
//!
//! 1. **Bit-identical verdicts across worker counts**: the same
//!    streams served at W=1 (inline) and W=2 (threaded shards) produce
//!    identical outcomes, both equal to the serial reference.
//! 2. **Zero steady-state allocations per shard** with the transport
//!    live: after one warm pass inside a running plane, a full
//!    feed-and-quiesce cycle allocates nothing on any thread (the
//!    counting allocator gate is process-global, so worker shards and
//!    the batch-former consumer are all inside it).
//! 3. **Bounded ring occupancy**: completion-ring high-water marks
//!    never exceed the configured depth, and the pending overflow
//!    queue stays within its preallocated bound.
//!
//! Everything lives in one `#[test]` so no sibling test thread can
//! allocate while the counting gate is open.

use rtad_alloc_counter::{allocations, CountingAlloc};
use rtad_igm::IgmConfig;
use rtad_ml::{Lstm, LstmConfig};
use rtad_soc::{
    encode_streams, serial_reference, ServeModel, ServeSpec, ShardConfig, ShardFeeder,
    ShardedSparsePipeline, SparseConfig, VerdictPolicy,
};
use rtad_trace::{BranchKind, BranchRecord, VirtAddr};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Registered population; `ACTIVE` of them ever see bytes.
const STREAMS: usize = 1_000;
const ACTIVE: usize = 10;
/// Branch events per active stream (reduced for debug-build CI).
const BRANCHES: usize = 600;
/// Worker shards of the threaded configuration under test.
const WORKERS: usize = 2;

fn targets() -> Vec<VirtAddr> {
    (0..8u32)
        .map(|k| VirtAddr::new(0x6800 + k * 0x40))
        .collect()
}

fn spec() -> ServeSpec {
    let corpus: Vec<u32> = (0..300).map(|i| (i % 8) as u32).collect();
    ServeSpec {
        igm: IgmConfig::token_stream(&targets()),
        model: ServeModel::Lstm(Lstm::train(&LstmConfig::tiny(8), &corpus, 5)),
        // Quiet policy: verdict hit deques stay empty so the alloc gate
        // pins the structural path, not flag bookkeeping.
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

fn config() -> ShardConfig {
    ShardConfig {
        workers: WORKERS,
        sparse: SparseConfig {
            ring_capacity: 256,
            max_batch: 8,
            drain_bytes: 256,
        },
        completion_depth: 64,
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

/// Lossless feeder through the live handle: pumps whenever a ring
/// lacks space.
fn feed_lossless(fd: &ShardFeeder<'_>, stream: usize, bytes: &[u8]) {
    for piece in bytes.chunks(128) {
        while fd.ring_free(stream) < piece.len() {
            fd.pump();
        }
        assert_eq!(fd.feed(stream, piece), piece.len());
    }
}

/// Minimum allocation count over three runs of `pass` (filters one-off
/// allocations from harness threads; a genuinely allocating path is
/// deterministic and still reports nonzero).
fn settled_allocations(mut pass: impl FnMut()) -> u64 {
    (0..3).map(|_| allocations(&mut pass)).min().unwrap_or(0)
}

#[test]
fn sharded_serve_smoke() {
    assert!(
        rtad_alloc_counter::is_installed(),
        "counting allocator is not the global allocator"
    );
    let spec = spec();
    let streams = synth_streams(ACTIVE);
    let reference = serial_reference(&spec, &streams);

    // --- Bit-identity across worker counts: W=1 (inline) and W=2
    // (threaded shards) against the serial reference.
    let mut runs = Vec::new();
    for workers in [1usize, WORKERS] {
        let mut p = ShardedSparsePipeline::new(
            spec.clone(),
            ShardConfig {
                workers,
                ..config()
            },
        );
        p.register_many(STREAMS);
        assert_eq!(p.workers(), workers);
        p.run(|fd| {
            for (s, bytes) in streams.iter().enumerate() {
                feed_lossless(fd, s, bytes);
            }
            for s in 0..ACTIVE {
                fd.close(s);
            }
        });
        assert_eq!(p.dropped_bytes_total(), 0, "W={workers} dropped bytes");
        for (s, r) in reference.iter().enumerate() {
            assert_eq!(
                p.outcome(s),
                &r.summary(),
                "W={workers} stream {s} diverged from the serial reference"
            );
        }
        runs.push(p.outcomes()[..ACTIVE].to_vec());
    }
    assert_eq!(runs[0], runs[1], "W=1 and W={WORKERS} outcomes differ");

    // --- Zero steady-state allocations with the W=2 transport live:
    // warm one feed+quiesce cycle inside a single run, then gate a
    // full cycle. The counting gate is process-global, so the two
    // worker shards and the consumer are all measured.
    let mut p = ShardedSparsePipeline::new(spec.clone(), config());
    p.register_many(STREAMS);
    let (steady_allocs, warm_windows, steady_windows) = p.run(|fd| {
        let cycle = |fd: &ShardFeeder<'_>| {
            for (s, bytes) in streams.iter().enumerate() {
                feed_lossless(fd, s, bytes);
            }
            fd.quiesce();
        };
        cycle(fd); // warm pass: pools, scratch and arena reach steady shape
        let warm = p_windows(fd);
        let n = settled_allocations(|| cycle(fd));
        (n, warm, p_windows(fd) - warm)
    });
    assert!(warm_windows > 0, "warm-up emitted no windows");
    assert!(steady_windows > 0, "steady phase emitted no windows");
    assert_eq!(
        steady_allocs, 0,
        "steady-state sharded serving made {steady_allocs} allocations \
         over {steady_windows} windows across {WORKERS} shards"
    );
    assert_eq!(p.dropped_bytes_total(), 0, "lossless feeder dropped bytes");

    // --- Bounded ring occupancy and populated per-shard telemetry.
    let depth_cap = config().completion_depth.next_power_of_two();
    let shards = p.shard_stats();
    assert_eq!(shards.len(), WORKERS);
    for st in &shards {
        assert_eq!(st.streams, STREAMS / WORKERS, "uneven stream partition");
        assert!(st.stream_polls > 0, "shard {} never polled", st.shard);
        assert!(st.windows_decoded > 0, "shard {} decoded nothing", st.shard);
        assert!(
            st.completion_high_water <= depth_cap,
            "shard {} completion ring overflowed its bound: {} > {depth_cap}",
            st.shard,
            st.completion_high_water
        );
        assert!(st.busy_rounds <= st.rounds);
        let util = st.utilization();
        assert!(
            util > 0.0 && util <= 1.0,
            "shard {} utilization {util} out of range",
            st.shard
        );
    }
    let decoded: u64 = shards.iter().map(|s| s.windows_decoded).sum();
    assert_eq!(decoded, p.stats().windows, "decoded vs scored windows");
}

/// Total windows scored so far, observed from inside a live run via a
/// quiesced feeder (the counters are stable once quiesced).
fn p_windows(fd: &ShardFeeder<'_>) -> u64 {
    fd.quiesce();
    fd.windows_scored()
}
