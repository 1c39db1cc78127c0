//! Seeded hostile trace streams for robustness tests.
//!
//! A serving host sees whatever bytes arrive on a stream: flipped bits,
//! frames from sources it does not know, garbage that never
//! resynchronizes, malformed packets and streams cut mid-frame. The
//! decoder must count such damage and carry on, and a damaged stream
//! must never disturb its neighbours. [`damage`] turns a clean TPIU byte
//! stream (for example [`StreamEncoder`](crate::StreamEncoder) output)
//! into such a stream, deterministically from a seed, so tests can pin
//! exactly what the decode path makes of it.

use crate::tpiu::{TpiuFormatter, TraceId, FRAME_BYTES};

/// One kind of damage [`damage`] can apply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Damage {
    /// Spliced-in frames carrying 5-byte branch-address packets whose
    /// final byte sets the exception bit (`0x20`, followed by an
    /// exception byte), the reserved bit (`0x40`) or a fifth
    /// continuation bit.
    BadBranchPackets,
    /// Spliced-in frames carrying a run of random non-zero bytes: no
    /// A-sync can form, so the decoder stays out of step to its end.
    DesyncFlood,
    /// One frame whose first slot announces a reserved trace-source ID
    /// (`0x70..=0x7F`), which the deframer rejects.
    ReservedIdFrame,
    /// Random single-bit flips, about one per 512 bytes.
    BitFlips,
    /// A stream longer than one frame is cut at a point that is not a
    /// frame boundary.
    Truncate,
}

impl Damage {
    /// Every kind, in the order [`damage`] applies them.
    pub const ALL: [Damage; 5] = [
        Damage::BadBranchPackets,
        Damage::DesyncFlood,
        Damage::ReservedIdFrame,
        Damage::BitFlips,
        Damage::Truncate,
    ];
}

/// SplitMix64: a tiny, dependency-free, fully specified generator, so a
/// seed names the same stream on every platform.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }

    fn byte(&mut self) -> u8 {
        self.next() as u8
    }
}

/// Frames `payload` as source `id` and splices the frames in at a
/// seeded frame boundary of `bytes`.
fn splice_frames(bytes: &mut Vec<u8>, id: TraceId, payload: &[u8], rng: &mut SplitMix) {
    let mut fmt = TpiuFormatter::new();
    fmt.push_slice(id, payload);
    let frames: Vec<u8> = fmt.flush().concat();
    let at = rng.below(bytes.len() / FRAME_BYTES + 1) * FRAME_BYTES;
    bytes.splice(at..at, frames);
}

/// Applies `kinds` to the clean TPIU stream `clean` of source `id`,
/// deterministically from `seed`. Every kind in `kinds` is applied once,
/// in [`Damage::ALL`] order.
pub fn damage(clean: &[u8], id: TraceId, seed: u64, kinds: &[Damage]) -> Vec<u8> {
    let mut rng = SplitMix(seed);
    let mut bytes = clean.to_vec();
    for kind in Damage::ALL.into_iter().filter(|k| kinds.contains(k)) {
        match kind {
            Damage::BadBranchPackets => {
                let mut payload = Vec::new();
                for _ in 0..2 + rng.below(4) {
                    let low = [
                        0x81 | rng.byte(),
                        0x80 | rng.byte(),
                        0x80 | rng.byte(),
                        0x80 | rng.byte(),
                    ];
                    payload.extend_from_slice(&low);
                    match rng.below(3) {
                        0 => payload.extend_from_slice(&[0x20 | (rng.byte() & 0x1F), rng.byte()]),
                        1 => payload.push(0x40 | (rng.byte() & 0x3F)),
                        _ => payload.push(0x80 | rng.byte()),
                    }
                }
                splice_frames(&mut bytes, id, &payload, &mut rng);
            }
            Damage::DesyncFlood => {
                let payload: Vec<u8> = (0..64 + rng.below(448))
                    .map(|_| rng.byte().max(1))
                    .collect();
                splice_frames(&mut bytes, id, &payload, &mut rng);
            }
            Damage::ReservedIdFrame => {
                let frames = bytes.len() / FRAME_BYTES;
                if frames > 0 {
                    let at = rng.below(frames) * FRAME_BYTES;
                    bytes[at] = ((0x70 + rng.below(16) as u8) << 1) | 0x01;
                }
            }
            Damage::BitFlips => {
                for _ in 0..bytes.len() / 512 + 1 {
                    if bytes.is_empty() {
                        break;
                    }
                    let at = rng.below(bytes.len());
                    bytes[at] ^= 1 << rng.below(8);
                }
            }
            Damage::Truncate => {
                if bytes.len() > FRAME_BYTES {
                    let mut keep = bytes.len() / 2 + rng.below(bytes.len() / 2);
                    if keep.is_multiple_of(FRAME_BYTES) {
                        keep -= 1 + rng.below(FRAME_BYTES - 1);
                    }
                    bytes.truncate(keep);
                }
            }
        }
    }
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id() -> TraceId {
        TraceId::new(0x10).expect("valid id")
    }

    #[test]
    fn damage_is_deterministic_and_seed_dependent() {
        let clean: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        let a = damage(&clean, id(), 3, &Damage::ALL);
        assert_eq!(a, damage(&clean, id(), 3, &Damage::ALL));
        assert_ne!(a, damage(&clean, id(), 4, &Damage::ALL));
    }

    #[test]
    fn truncation_cuts_mid_frame() {
        let clean = vec![0u8; 64 * FRAME_BYTES];
        for seed in 0..32 {
            let cut = damage(&clean, id(), seed, &[Damage::Truncate]);
            assert!(cut.len() < clean.len());
            assert_ne!(cut.len() % FRAME_BYTES, 0, "seed {seed}");
        }
    }

    #[test]
    fn splices_land_on_frame_boundaries() {
        let clean = vec![0u8; 8 * FRAME_BYTES];
        let out = damage(
            &clean,
            id(),
            9,
            &[Damage::DesyncFlood, Damage::BadBranchPackets],
        );
        assert!(out.len() > clean.len());
        assert_eq!(out.len() % FRAME_BYTES, 0);
    }
}
