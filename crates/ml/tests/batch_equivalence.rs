//! Property tests for cross-stream batched inference: every batched
//! score must be bit-identical to the scalar per-window path, across
//! random stream counts, batch sizes, window shapes, and ragged stream
//! lengths (streams ending mid-batch).

use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

use rtad_ml::{BatchArena, Elm, ElmConfig, Lstm, LstmConfig, LstmLane, SequenceModel, VectorModel};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `Elm::score_batch` row `b` equals `Elm::score(xs[b])` bit for
    /// bit, for any batch size and input width.
    #[test]
    fn elm_batch_is_bit_identical(
        seed in any::<u64>(),
        dim in 2usize..12,
        batch in 1usize..17,
        raw in proptest::collection::vec(-1.0f32..1.0, 16 * 12),
    ) {
        let normal: Vec<Vec<f32>> = (0..60)
            .map(|i| {
                let mut v = vec![0.0; dim];
                v[i % dim] = 1.0;
                v
            })
            .collect();
        let elm = Elm::train(&ElmConfig::tiny(dim), &normal, seed);
        let inputs: Vec<Vec<f32>> = (0..batch)
            .map(|b| (0..dim).map(|j| raw[(b * dim + j) % raw.len()]).collect())
            .collect();
        let rows: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
        let batched = elm.score_batch(&rows);
        prop_assert_eq!(batched.len(), batch);
        for (x, s) in inputs.iter().zip(&batched) {
            let scalar = elm.score(x);
            prop_assert_eq!(scalar.to_bits(), s.to_bits(), "scalar {} batched {}", scalar, s);
        }
    }

    /// Lockstep LSTM batch stepping over ragged streams (every stream a
    /// random length, so lanes drop out of later batches) produces the
    /// same score sequence per stream as a scalar model replaying that
    /// stream alone.
    #[test]
    fn lstm_lockstep_is_bit_identical_over_ragged_streams(
        seed in any::<u64>(),
        vocab in 3usize..10,
        streams in proptest::collection::vec(
            proptest::collection::vec(0u32..3, 0..24),
            1..9,
        ),
    ) {
        // Tokens were drawn in 0..3; rescale into the model's vocab so
        // every width is exercised without invalidating the draw.
        let streams: Vec<Vec<u32>> = streams
            .into_iter()
            .map(|s| s.into_iter().map(|t| t % vocab as u32).collect())
            .collect();
        let lstm = Lstm::init(&LstmConfig::tiny(vocab), seed);

        let mut lanes: Vec<LstmLane> = streams.iter().map(|_| lstm.lane()).collect();
        let mut batched: Vec<Vec<f64>> = streams.iter().map(|_| Vec::new()).collect();
        let max_len = streams.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..max_len {
            // Only streams still alive at this timestep join the batch —
            // the ragged-drain case the pipeline hits on stream end.
            let mut ids = Vec::new();
            let mut tokens = Vec::new();
            for (i, s) in streams.iter().enumerate() {
                if step < s.len() {
                    ids.push(i);
                    tokens.push(s[step]);
                }
            }
            let mut lane_refs: Vec<&mut LstmLane> = Vec::with_capacity(ids.len());
            let mut rest: &mut [LstmLane] = &mut lanes;
            let mut taken = 0usize;
            for &i in &ids {
                let (_, tail) = std::mem::take(&mut rest).split_at_mut(i - taken);
                let (lane, tail) = tail.split_first_mut().expect("lane exists");
                lane_refs.push(lane);
                rest = tail;
                taken = i + 1;
            }
            let scores = lstm.score_next_batch(&mut lane_refs, &tokens);
            for (&i, s) in ids.iter().zip(scores) {
                batched[i].push(s);
            }
        }

        for (stream, scores) in streams.iter().zip(&batched) {
            prop_assert_eq!(stream.len(), scores.len());
            let mut scalar = lstm.clone();
            scalar.reset();
            for (&t, &b) in stream.iter().zip(scores) {
                let s = scalar.score_next(t);
                prop_assert_eq!(s.to_bits(), b.to_bits(), "scalar {} batched {}", s, b);
            }
        }
    }

    /// Reusing one dirty [`BatchArena`] and score buffer across many ELM
    /// batches of varying sizes is bit-identical to the allocating
    /// wrapper on every batch — arena residue never leaks into scores.
    #[test]
    fn elm_arena_reuse_is_bit_identical(
        seed in any::<u64>(),
        dim in 2usize..12,
        batches in proptest::collection::vec(1usize..17, 1..5),
        raw in proptest::collection::vec(-1.0f32..1.0, 16 * 12),
    ) {
        let normal: Vec<Vec<f32>> = (0..60)
            .map(|i| {
                let mut v = vec![0.0; dim];
                v[i % dim] = 1.0;
                v
            })
            .collect();
        let elm = Elm::train(&ElmConfig::tiny(dim), &normal, seed);
        let mut arena = BatchArena::new();
        let mut scores = Vec::new();
        let mut cursor = 0usize;
        for batch in batches {
            let inputs: Vec<Vec<f32>> = (0..batch)
                .map(|b| {
                    (0..dim)
                        .map(|j| raw[(cursor + b * dim + j) % raw.len()])
                        .collect()
                })
                .collect();
            cursor += batch * dim;
            arena.begin(dim);
            for x in &inputs {
                arena.push_row(x);
            }
            elm.score_batch_arena(&mut arena, &mut scores);
            let rows: Vec<&[f32]> = inputs.iter().map(Vec::as_slice).collect();
            let reference = elm.score_batch(&rows);
            prop_assert_eq!(scores.len(), batch);
            for (r, s) in reference.iter().zip(&scores) {
                prop_assert_eq!(r.to_bits(), s.to_bits(), "wrapper {} arena {}", r, s);
            }
        }
    }

    /// The indexed arena LSTM step over ragged streams, reusing one
    /// arena and score buffer throughout, matches the scalar per-stream
    /// replay bit for bit. Tokens span the whole vocabulary; up to 70
    /// streams make batches of full 8-lane blocks plus a remainder; the
    /// deployed `LstmConfig::rtad()` shape runs beside the tiny one; and
    /// batch slots map to lanes in shuffled order.
    #[test]
    fn lstm_arena_reuse_is_bit_identical(
        seed in any::<u64>(),
        vocab in 3usize..10,
        rtad_shape in any::<bool>(),
        streams in proptest::collection::vec(
            proptest::collection::vec(any::<u32>(), 0..24),
            1..71,
        ),
    ) {
        let cfg = if rtad_shape { LstmConfig::rtad() } else { LstmConfig::tiny(vocab) };
        let streams: Vec<Vec<u32>> = streams
            .into_iter()
            .map(|s| s.into_iter().map(|t| t % cfg.vocab as u32).collect())
            .collect();
        let lstm = Lstm::init(&cfg, seed);
        let mut order = ChaCha12Rng::seed_from_u64(seed);

        let mut lanes: Vec<LstmLane> = streams.iter().map(|_| lstm.lane()).collect();
        let mut arena = BatchArena::new();
        let mut scores = Vec::new();
        let mut batched: Vec<Vec<f64>> = streams.iter().map(|_| Vec::new()).collect();
        let max_len = streams.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..max_len {
            let mut idx: Vec<usize> = (0..streams.len())
                .filter(|&i| step < streams[i].len())
                .collect();
            if idx.is_empty() {
                continue;
            }
            idx.shuffle(&mut order);
            let tokens: Vec<u32> = idx.iter().map(|&i| streams[i][step]).collect();
            lstm.score_next_batch_arena(&mut lanes, &idx, &tokens, &mut arena, &mut scores);
            for (&i, &s) in idx.iter().zip(&scores) {
                batched[i].push(s);
            }
        }

        for ((stream, scores), lane) in streams.iter().zip(&batched).zip(&lanes) {
            prop_assert_eq!(stream.len(), scores.len());
            let mut scalar = lstm.clone();
            scalar.reset();
            for (&t, &b) in stream.iter().zip(scores) {
                let s = scalar.score_next(t);
                prop_assert_eq!(s.to_bits(), b.to_bits(), "scalar {} arena {}", s, b);
            }
            let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(lane.prediction()), bits(scalar.prediction()));
            let ((h, c), (sh, sc)) = (lane.state(), scalar.hidden_state());
            prop_assert_eq!(bits(h), bits(sh));
            prop_assert_eq!(bits(c), bits(sc));
        }
    }

    /// Splitting one stream's windows across differently-sized batches
    /// never changes its scores: batch composition is score-invariant.
    #[test]
    fn batch_size_does_not_change_elm_scores(
        seed in any::<u64>(),
        split in 1usize..7,
        raw in proptest::collection::vec(0.0f32..1.0, 8 * 8),
    ) {
        let normal: Vec<Vec<f32>> = (0..60)
            .map(|i| {
                let mut v = vec![0.0; 8];
                v[i % 8] = 1.0;
                v
            })
            .collect();
        let elm = Elm::train(&ElmConfig::tiny(8), &normal, seed);
        let inputs: Vec<&[f32]> = raw.chunks_exact(8).collect();
        let whole = elm.score_batch(&inputs);
        let mut pieced = Vec::new();
        for chunk in inputs.chunks(split) {
            pieced.extend(elm.score_batch(chunk));
        }
        prop_assert_eq!(whole, pieced);
    }
}
