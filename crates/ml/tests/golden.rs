//! Golden digests of trained weights and score streams.
//!
//! The scalar models (`Lstm::score_next`, `Elm::score`) are the oracle
//! the serving plane and the device kernels are checked against, and
//! `Lstm::train` / `Elm::train` produce every model behind the paper's
//! numbers. Rewrites of their inner loops must keep every bit, so each
//! case below hashes what a model produces (all trained weights, or a
//! long stream of scores) and compares it with a digest recorded at
//! commit `eaee6a6`, before the single-vector kernels were rewritten
//! as column-vectorised products. A digest that moves fails with the
//! model's name.

use rtad_ml::{Elm, ElmConfig, Lstm, LstmConfig, SequenceModel, VectorModel};

/// FNV-1a over 64-bit words.
#[derive(Clone, Copy)]
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(mut self, w: u64) -> Self {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self
    }

    fn f32s(self, xs: &[f32]) -> Self {
        let d = self.word(xs.len() as u64);
        xs.iter().fold(d, |d, x| d.word(u64::from(x.to_bits())))
    }
}

/// A token corpus with some structure and every token of `vocab`.
fn corpus(vocab: u32, len: usize) -> Vec<u32> {
    (0..len as u32).map(|i| (i * 7 + i / 3) % vocab).collect()
}

/// Syscall-style histograms in the ELM's input simplex.
fn histograms(dim: usize, n: usize) -> Vec<Vec<f32>> {
    (0..n)
        .map(|i| {
            let mut v = vec![0.0; dim];
            v[i % 5] = 0.5;
            v[(i + 2) % 5] = 0.3;
            v[(i * 3 + 4) % dim] += 0.2;
            v
        })
        .collect()
}

fn lstm_weights(m: &Lstm) -> u64 {
    Digest::new()
        .f32s(m.embedding().as_slice())
        .f32s(m.w().as_slice())
        .f32s(m.u().as_slice())
        .f32s(m.b())
        .f32s(m.w_out().as_slice())
        .f32s(m.b_out())
        .0
}

fn elm_weights(m: &Elm) -> u64 {
    Digest::new()
        .f32s(m.w_in().as_slice())
        .f32s(m.b_in())
        .f32s(m.w_out().as_slice())
        .0
}

/// `LstmConfig::rtad()` (4 epochs, 32-token chunks) on 300 tokens:
/// nine full chunks and a partial one per epoch, so chunk boundaries
/// and the Adam bias correction over many steps are both covered.
#[test]
fn lstm_rtad_training_weights_are_pinned() {
    let m = Lstm::train(&LstmConfig::rtad(), &corpus(64, 300), 17);
    assert_eq!(
        lstm_weights(&m),
        0x1299b4cd216b63a3,
        "Lstm::train weights moved for LstmConfig::rtad()"
    );
}

#[test]
fn lstm_tiny_training_weights_are_pinned() {
    let m = Lstm::train(&LstmConfig::tiny(6), &corpus(6, 200), 3);
    assert_eq!(
        lstm_weights(&m),
        0x895b09656225d30e,
        "Lstm::train weights moved for LstmConfig::tiny(6)"
    );
}

#[test]
fn elm_rtad_training_weights_are_pinned() {
    let m = Elm::train(&ElmConfig::rtad(), &histograms(16, 400), 9);
    assert_eq!(
        elm_weights(&m),
        0xa7476ee53c59383b,
        "Elm::train weights moved for ElmConfig::rtad()"
    );
}

/// 10k `score_next` steps of a trained `rtad()` LSTM, with a reset
/// halfway so the reset prediction is in the stream too.
#[test]
fn lstm_score_stream_is_pinned() {
    let mut m = Lstm::train(&LstmConfig::rtad(), &corpus(64, 300), 17);
    m.reset();
    let mut d = Digest::new();
    for i in 0..10_000u32 {
        if i == 5_000 {
            m.reset();
        }
        let t = (i * 13 + i / 7 + (i * i) % 11) % 64;
        d = d.word(m.score_next(t).to_bits());
    }
    let d = d.f32s(m.prediction()).f32s(m.hidden_state().0);
    assert_eq!(
        d.0, 0xeac9471f496537a8,
        "Lstm::score_next stream moved for LstmConfig::rtad()"
    );
}

/// 1k `Elm::score` windows of a trained `rtad()` ELM: in-distribution
/// histograms, shifted ones, and one-hot anomalies.
#[test]
fn elm_score_stream_is_pinned() {
    let m = Elm::train(&ElmConfig::rtad(), &histograms(16, 400), 9);
    let mut d = Digest::new();
    for (i, mut x) in histograms(16, 1_000).into_iter().enumerate() {
        match i % 3 {
            0 => {}
            1 => x.rotate_left(i % 16),
            _ => {
                x.iter_mut().for_each(|v| *v = 0.0);
                x[i % 16] = 1.0;
            }
        }
        d = d.word(m.score(&x).to_bits());
    }
    assert_eq!(
        d.0, 0x9a2195fab382d075,
        "Elm::score stream moved for ElmConfig::rtad()"
    );
}
