//! Steady-state allocation discipline of the data-plane hot path.
//!
//! The PR 4 overhaul makes the decode and inference hot loops
//! allocation-free once their scratch buffers are warm: the streaming
//! IGM recycles scored window buffers, the batch kernels run out of a
//! reusable [`BatchArena`], and the decoder state machine carries
//! fixed-size packet staging. This test pins that property with a
//! counting global allocator: after a warm-up pass, decoding further
//! chunks (with recycling) and scoring further batches must perform
//! **zero** heap allocations.
//!
//! The serving plane is gated on clean traffic and on clean streams
//! mixed with damaged ones (`rtad_trace::hostile`): resynchronizing
//! after damage must not allocate either.
//!
//! Everything lives in one `#[test]` so no sibling test thread can
//! allocate while the counting gate is open.

use rtad_alloc_counter::{allocations, CountingAlloc};
use rtad_igm::{IgmConfig, StreamingIgm, VectorPayload};
use rtad_ml::{BatchArena, Elm, ElmConfig, Lstm, LstmConfig, LstmLane};
use rtad_soc::{
    ServeModel, ServeSpec, ShardConfig, ShardFeeder, ShardedSparsePipeline, SparseConfig,
    SparsePipeline, VerdictPolicy,
};
use rtad_trace::hostile::{damage, Damage};
use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder, VirtAddr};

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn targets() -> Vec<VirtAddr> {
    (0..8u32)
        .map(|k| VirtAddr::new(0x3000 + k * 0x40))
        .collect()
}

fn trace_bytes(events: usize) -> Vec<u8> {
    let tgts = targets();
    let run: Vec<BranchRecord> = (0..events)
        .map(|i| {
            BranchRecord::new(
                VirtAddr::new(0x1000 + (i as u32) * 4),
                tgts[(i * 5 + 1) % tgts.len()],
                BranchKind::IndirectJump,
                (i as u64) * 25,
            )
        })
        .collect();
    let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
    trace.bytes.iter().map(|tb| tb.byte).collect()
}

/// Decodes `bytes` chunk by chunk through `igm`, recycling every dense
/// window buffer, and returns the number of windows emitted.
fn decode_with_recycling(
    igm: &mut StreamingIgm,
    bytes: &[u8],
    emitted: &mut Vec<rtad_igm::StreamedVector>,
    scratch: &mut Vec<f32>,
) -> usize {
    let mut windows = 0usize;
    for chunk in bytes.chunks(512) {
        igm.push_bytes(chunk, emitted);
        for v in emitted.drain(..) {
            windows += 1;
            if let VectorPayload::Dense(buf) = v.payload {
                // Touch the payload like a consumer would, then recycle.
                scratch.clear();
                scratch.extend_from_slice(&buf);
                igm.recycle(buf);
            }
        }
    }
    windows
}

/// Feeds `bytes` into `stream`'s ingest ring losslessly, polling the
/// pipeline to drain whenever the ring lacks space. Pure slicing and
/// ring copies — allocation-free by construction, so it can run inside
/// the counting gate.
fn sparse_feed_lossless(p: &mut SparsePipeline, stream: usize, bytes: &[u8]) {
    for piece in bytes.chunks(256) {
        while p.ring_free(stream) < piece.len() {
            p.poll_round();
        }
        let took = p.feed(stream, piece);
        assert_eq!(took, piece.len());
    }
}

/// Runs `pass` up to three times and returns the fewest allocation
/// events observed. Every measured pass is deterministic, so a path
/// that genuinely allocates reports the same nonzero count on all
/// attempts and still fails; the minimum only filters one-off
/// allocations from harness/runtime threads, which the process-global
/// counting gate would otherwise attribute to the hot path.
/// Batch sizes scored after warm-up: the warm shape, a partial 8-lane
/// block, a lone window, and back to the warm shape.
const RAGGED: [usize; 4] = [32, 7, 1, 32];

fn settled_allocations(mut pass: impl FnMut()) -> u64 {
    (0..3).map(|_| allocations(&mut pass)).min().unwrap_or(0)
}

#[test]
fn hot_paths_are_allocation_free_in_steady_state() {
    assert!(
        rtad_alloc_counter::is_installed(),
        "counting allocator is not the global allocator"
    );
    let bytes = trace_bytes(4000);

    // --- Dense (histogram) decode: the recycling pool must absorb all
    // window-buffer churn once warm. The warm-up pass feeds the whole
    // stream once (sizing the pool for the largest burst); the measured
    // pass replays the same traffic shape into the still-open session.
    let mut igm = StreamingIgm::new(&IgmConfig::histogram(&targets(), 16));
    let mut emitted = Vec::with_capacity(128);
    let mut scratch = Vec::new();
    let warm = decode_with_recycling(&mut igm, &bytes, &mut emitted, &mut scratch);
    assert!(warm > 0, "warm-up emitted no windows");
    let mut steady = 0usize;
    let n = settled_allocations(|| {
        steady = decode_with_recycling(&mut igm, &bytes, &mut emitted, &mut scratch);
    });
    assert!(steady > 0, "steady phase emitted no windows");
    assert_eq!(
        n, 0,
        "steady-state dense decode made {n} allocations over {steady} windows"
    );

    // --- Token-stream decode (the LSTM front end): payloads are inline
    // tokens, so the decode loop itself must not allocate at all.
    let mut igm = StreamingIgm::new(&IgmConfig::token_stream(&targets()));
    decode_with_recycling(&mut igm, &bytes, &mut emitted, &mut scratch);
    let n = settled_allocations(|| {
        steady = decode_with_recycling(&mut igm, &bytes, &mut emitted, &mut scratch);
    });
    assert!(steady > 0);
    assert_eq!(
        n, 0,
        "steady-state token decode made {n} allocations over {steady} windows"
    );

    // --- Batched ELM scoring out of a warm arena.
    let dim = 16usize;
    let normal: Vec<Vec<f32>> = (0..80)
        .map(|i| {
            let mut v = vec![0.0; dim];
            v[i % dim] = 1.0;
            v
        })
        .collect();
    let elm = Elm::train(&ElmConfig::tiny(dim), &normal, 11);
    let rows: Vec<Vec<f32>> = (0..64)
        .map(|r| (0..dim).map(|j| ((r * dim + j) % 7) as f32 * 0.1).collect())
        .collect();
    let mut arena = BatchArena::new();
    let mut scores = Vec::new();
    let score_rows = |arena: &mut BatchArena, scores: &mut Vec<f64>, b: usize| {
        arena.begin(dim);
        for r in &rows[..b] {
            arena.push_row(r);
        }
        elm.score_batch_arena(arena, scores);
    };
    score_rows(&mut arena, &mut scores, RAGGED[0]); // warm-up at the largest shape
                                                    // Serving planes form batches of mixed size: after the warm-up,
                                                    // smaller batches (down to a single window, all remainder lanes)
                                                    // and a return to the full shape must reuse the warm buffers.
    let mut lens = [0usize; RAGGED.len()];
    let n = settled_allocations(|| {
        for (len, &b) in lens.iter_mut().zip(&RAGGED) {
            score_rows(&mut arena, &mut scores, b);
            *len = scores.len();
        }
    });
    assert_eq!(lens, RAGGED);
    assert_eq!(n, 0, "steady-state ELM batches made {n} allocations");

    // --- Lockstep LSTM stepping out of a warm arena and lane pool, over
    // the same ragged batch sizes (each batch a prefix of the pool).
    let vocab = 8usize;
    let corpus: Vec<u32> = (0..300).map(|i| (i % vocab) as u32).collect();
    let lstm = Lstm::train(&LstmConfig::tiny(vocab), &corpus, 5);
    let mut lanes: Vec<LstmLane> = (0..RAGGED[0]).map(|_| lstm.lane()).collect();
    let idx: Vec<usize> = (0..RAGGED[0]).collect();
    let mut tokens = vec![0u32; RAGGED[0]];
    let mut arena = BatchArena::new();
    let mut scores = Vec::new();
    for step in 0..3u32 {
        // warm-up steps
        tokens.iter_mut().for_each(|t| *t = step % vocab as u32);
        lstm.score_next_batch_arena(&mut lanes, &idx, &tokens, &mut arena, &mut scores);
    }
    let mut step = 3u32;
    let n = settled_allocations(|| {
        for (len, &b) in lens.iter_mut().zip(&RAGGED) {
            tokens.iter_mut().for_each(|t| *t = step % vocab as u32);
            step += 1;
            lstm.score_next_batch_arena(
                &mut lanes,
                &idx[..b],
                &tokens[..b],
                &mut arena,
                &mut scores,
            );
            *len = scores.len();
        }
    });
    assert_eq!(lens, RAGGED);
    assert_eq!(n, 0, "steady-state LSTM batches made {n} allocations");

    // --- Sparse-readiness ingest (PR 9): once streams are registered,
    // the whole sparse hot path — ring push/drain, readiness
    // enqueue/dequeue, per-session decode, cross-stream batch
    // formation, scoring and verdict updates, plus pure idle rounds —
    // must make zero allocations. The quiet policy keeps verdict hit
    // deques empty so the gate pins the structural path, not flag
    // bookkeeping.
    let quiet = VerdictPolicy {
        threshold: 1e9,
        hard_threshold: 1e18,
        alpha: 0.5,
        burst_k: 2,
        burst_window_events: 5,
    };
    let normal8: Vec<Vec<f32>> = (0..80)
        .map(|i| {
            let mut v = vec![0.0; 8];
            v[i % 8] = 1.0;
            v
        })
        .collect();
    let sparse_specs = [
        ServeSpec {
            igm: IgmConfig::histogram(&targets(), 16),
            model: ServeModel::Elm(Elm::train(&ElmConfig::tiny(8), &normal8, 11)),
            policy: quiet,
            cycles_per_event: 500,
        },
        ServeSpec {
            igm: IgmConfig::token_stream(&targets()),
            model: ServeModel::Lstm(lstm.clone()),
            policy: quiet,
            cycles_per_event: 700,
        },
    ];
    for spec in sparse_specs.clone() {
        let is_lstm = matches!(spec.model, ServeModel::Lstm(_));
        let mut p = SparsePipeline::new(spec, SparseConfig::default());
        p.register_many(64); // 4 will be active, 60 stay idle
        let active = 4usize;
        // Warm-up: size the window pools, queue, emit buffer and arena.
        for s in 0..active {
            sparse_feed_lossless(&mut p, s, &bytes);
        }
        p.drain();
        let warm_windows = p.stats().windows;
        assert!(warm_windows > 0, "sparse warm-up emitted no windows");
        let n = settled_allocations(|| {
            for s in 0..active {
                sparse_feed_lossless(&mut p, s, &bytes);
            }
            p.drain();
            for _ in 0..16 {
                p.poll_round(); // idle rounds with 64 registered streams
            }
        });
        let steady_windows = p.stats().windows - warm_windows;
        assert!(steady_windows > 0, "sparse steady phase emitted no windows");
        assert_eq!(p.stats().dropped_bytes, 0, "lossless feeder dropped bytes");
        assert_eq!(
            n, 0,
            "steady-state sparse ingest (lstm={is_lstm}) made {n} allocations \
             over {steady_windows} windows"
        );
    }

    // --- The same plane over hostile traffic: every other active
    // stream is damaged (bit flips, reserved-ID frames, desync floods,
    // malformed branch packets, mid-frame cuts). Decode errors and
    // resynchronization, ring storage and dense windows going back to
    // the plane's pools must all stay allocation-free once warm.
    let id = PtmConfig::rtad().trace_id;
    let mixed: Vec<Vec<u8>> = (0..8u64)
        .map(|s| {
            if s % 2 == 1 {
                damage(&bytes, id, 0xA11C + s, &Damage::ALL)
            } else {
                bytes.clone()
            }
        })
        .collect();
    for spec in sparse_specs.clone() {
        let is_lstm = matches!(spec.model, ServeModel::Lstm(_));
        let mut p = SparsePipeline::new(spec, SparseConfig::default());
        p.register_many(64); // 8 active (4 damaged), 56 idle
        let cycle = |p: &mut SparsePipeline| {
            for (s, b) in mixed.iter().enumerate() {
                sparse_feed_lossless(p, s, b);
            }
            p.drain();
        };
        cycle(&mut p); // warm-up
        let warm_windows = p.stats().windows;
        let n = settled_allocations(|| cycle(&mut p));
        let steady_windows = p.stats().windows - warm_windows;
        let errors: u64 = (0..mixed.len())
            .map(|s| p.session_stats(s).decode_errors)
            .sum();
        assert!(errors > 0, "damaged streams decoded without an error");
        assert!(
            steady_windows > 0,
            "hostile steady phase emitted no windows"
        );
        assert_eq!(p.stats().dropped_bytes, 0, "lossless feeder dropped bytes");
        assert_eq!(
            n, 0,
            "steady-state hostile ingest (lstm={is_lstm}) made {n} allocations \
             over {steady_windows} windows and {errors} decode errors"
        );
    }

    // --- The benchmark's serving handle: `ShardedSparsePipeline` at
    // one worker, driven the way perfbench drives it (`run` hands out a
    // `ShardFeeder` whose `feed` / `pump` / `quiesce` borrow the inline
    // pipeline through a `RefCell`). A warm feed-and-quiesce cycle
    // inside one `run`, then a gated cycle, for both the dense ELM and
    // the LSTM token front ends.
    for spec in sparse_specs {
        let is_lstm = matches!(spec.model, ServeModel::Lstm(_));
        let mut p = ShardedSparsePipeline::new(
            spec,
            ShardConfig {
                workers: 1,
                sparse: SparseConfig::default(),
            },
        );
        p.register_many(64); // 4 active, 60 idle
        let active = 4usize;
        let (n, steady_windows) = p.run(|fd| {
            let cycle = |fd: &ShardFeeder<'_>| {
                for s in 0..active {
                    for piece in bytes.chunks(256) {
                        while fd.ring_free(s) < piece.len() {
                            fd.pump();
                        }
                        assert_eq!(fd.feed(s, piece), piece.len());
                    }
                }
                fd.quiesce();
            };
            cycle(fd); // warm pass inside the run
            let warm = fd.windows_scored();
            assert!(warm > 0, "handle warm-up emitted no windows");
            let n = settled_allocations(|| cycle(fd));
            (n, fd.windows_scored() - warm)
        });
        assert!(steady_windows > 0, "handle steady phase emitted no windows");
        assert_eq!(p.dropped_bytes_total(), 0, "lossless feeder dropped bytes");
        assert_eq!(
            n, 0,
            "steady-state serving through the handle (lstm={is_lstm}) made {n} \
             allocations over {steady_windows} windows"
        );
    }
}
