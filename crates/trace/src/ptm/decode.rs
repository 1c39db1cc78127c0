//! Resumable PTM packet decoder.
//!
//! The decoder is an explicit, resumable state machine: a packet may
//! start in one burst of bytes and end in the next. It has two entry
//! points over one core.
//!
//! * [`PacketDecoder::feed_slice`] decodes a whole burst — a 32-bit TA
//!   word, or the whole words of several frames in a serving session —
//!   with the machine's registers held in locals. It reports only what
//!   a trace consumer acts on ([`Decoded`]: branch targets, context
//!   changes and errors), each with the offset of the byte that
//!   completed it. A branch-address packet, the packet that dominates
//!   branch-broadcast trace, decodes in one step when its bytes lie in
//!   the burst.
//! * [`PacketDecoder::feed`] is the byte-at-a-time view of the same core
//!   and returns every completed [`Packet`].
//!
//! Both produce the same packets, errors and counters for any split of
//! the input. The paper's Trace Analyzer works the same way: packets are
//! defined byte-sequentially ("decoding for each packet must be done
//! sequentially in bytes", §III-A), yet four chained byte units decode a
//! whole 32-bit word per cycle. The TA model in `rtad-igm` feeds this
//! decoder one word at a time, and this reference decoder is what it is
//! verified against.

use std::error::Error;
use std::fmt;

use crate::branch::{IsetMode, VirtAddr};
use crate::ptm::packet::Packet;
use crate::ptm::GROUP_SHIFT;

/// An error raised while decoding a PTM byte stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DecodeError {
    /// A byte that is not a legal packet header arrived in the idle state.
    InvalidHeader(u8),
    /// An A-sync terminator (`0x80`) arrived after fewer than five zeros.
    AsyncTooShort(usize),
    /// A non-zero, non-terminator byte interrupted an A-sync run.
    AsyncInterrupted {
        /// Zeros seen so far.
        zeros: usize,
        /// The interrupting byte.
        byte: u8,
    },
    /// The fifth branch-address byte had its continuation bit set.
    BranchTooLong,
    /// A reserved bit was set in a final branch-address byte.
    ReservedBitSet(u8),
    /// A timestamp ran past the maximum ten payload bytes.
    TimestampTooLong,
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::InvalidHeader(b) => write!(f, "invalid packet header byte 0x{b:02x}"),
            DecodeError::AsyncTooShort(n) => {
                write!(f, "a-sync terminator after only {n} zero bytes")
            }
            DecodeError::AsyncInterrupted { zeros, byte } => write!(
                f,
                "a-sync run of {zeros} zeros interrupted by byte 0x{byte:02x}"
            ),
            DecodeError::BranchTooLong => {
                write!(f, "branch-address packet exceeds five bytes")
            }
            DecodeError::ReservedBitSet(b) => {
                write!(f, "reserved bit set in branch-address byte 0x{b:02x}")
            }
            DecodeError::TimestampTooLong => write!(f, "timestamp exceeds ten payload bytes"),
        }
    }
}

impl Error for DecodeError {}

#[derive(Debug, Clone, Copy)]
enum State {
    Idle,
    AsyncZeros(usize),
    // Partial packets are held inline, not in heap buffers: branch
    // packets arrive once per traced branch, and a per-packet `Vec`
    // (plus its growth reallocations) dominated the decode hot path.
    // Every packet kind has a small architectural length bound, so a
    // fixed array (or word) plus a fill count loses nothing. A branch
    // packet cut by the end of a burst keeps its first 1–4 bytes
    // little-endian in `bytes`.
    Branch { bytes: u64, len: u8 },
    BranchException { target: VirtAddr, mode: IsetMode },
    Isync { buf: [u8; 9], len: u8 },
    CtxId { buf: [u8; 4], len: u8 },
    Timestamp { acc: u64, shift: u32, bytes: usize },
}

/// What [`PacketDecoder::feed_slice`] reports: the subset of the packet
/// stream a trace consumer acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decoded {
    /// A branch-address packet completed.
    Branch {
        /// Branch target address.
        target: VirtAddr,
        /// Instruction-set state at the target.
        mode: IsetMode,
        /// Exception number if the branch entered an exception.
        exception: Option<u8>,
    },
    /// An I-sync or context-ID packet completed and names the current
    /// process context.
    Context(u32),
    /// Malformed input; the decoder has reset to the idle state.
    Error(DecodeError),
}

/// The packet state machine and the address-compression state it
/// expands branch packets against. `Copy`, so a burst decodes on a
/// local copy and writes it back once.
#[derive(Debug, Clone, Copy)]
struct Regs {
    state: State,
    last_halfword: u32,
    last_mode: IsetMode,
}

/// Stateful PTM packet decoder, fed bytes or bursts of bytes.
///
/// Mirrors [`PacketEncoder`](crate::ptm::PacketEncoder)'s
/// address-compression state so partial branch-address packets can be
/// expanded back to full addresses.
///
/// # Examples
///
/// ```
/// use rtad_trace::ptm::{Decoded, Packet, PacketDecoder, PacketEncoder};
/// use rtad_trace::{IsetMode, VirtAddr};
///
/// # fn main() -> Result<(), rtad_trace::DecodeError> {
/// let mut enc = PacketEncoder::new();
/// let sent = Packet::branch(VirtAddr::new(0x20), IsetMode::Arm);
/// let bytes = enc.encode(&sent);
///
/// // One byte at a time, every packet:
/// let mut dec = PacketDecoder::new();
/// let mut got = None;
/// for &b in &bytes {
///     got = dec.feed(b)?;
/// }
/// assert_eq!(got, Some(sent));
///
/// // A whole burst, only what a consumer acts on:
/// let mut dec = PacketDecoder::new();
/// let mut seen = Vec::new();
/// dec.feed_slice(&bytes, |at, d| seen.push((at, d)));
/// let branch = Decoded::Branch {
///     target: VirtAddr::new(0x20),
///     mode: IsetMode::Arm,
///     exception: None,
/// };
/// assert_eq!(seen, vec![(bytes.len() - 1, branch)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PacketDecoder {
    regs: Regs,
    bytes_consumed: u64,
    packets_decoded: u64,
}

impl PacketDecoder {
    /// Creates a decoder in the post-reset state (address 0, ARM mode).
    pub fn new() -> Self {
        PacketDecoder {
            regs: Regs {
                state: State::Idle,
                last_halfword: 0,
                last_mode: IsetMode::Arm,
            },
            bytes_consumed: 0,
            packets_decoded: 0,
        }
    }

    /// Total bytes fed so far.
    pub fn bytes_consumed(&self) -> u64 {
        self.bytes_consumed
    }

    /// Total packets completed so far (every kind, not only those
    /// [`feed_slice`](Self::feed_slice) reports).
    pub fn packets_decoded(&self) -> u64 {
        self.packets_decoded
    }

    /// Whether the decoder sits at a packet boundary (no partial packet).
    pub fn at_packet_boundary(&self) -> bool {
        matches!(self.regs.state, State::Idle)
    }

    /// Feeds one byte; returns a completed packet if this byte finished one.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input. After an error the
    /// decoder resets to the idle state and resynchronizes on the next
    /// A-sync (feeding further bytes is permitted; anything before the
    /// next A-sync may mis-decode, exactly like the hardware).
    pub fn feed(&mut self, byte: u8) -> Result<Option<Packet>, DecodeError> {
        let mut got = Ok(None);
        self.decode(&[byte], |_, r| got = r.map(Some));
        got
    }

    /// Decodes a burst of bytes, calling `sink(offset, event)` for every
    /// branch target, context change and error, in stream order.
    /// `offset` indexes the byte of `bytes` that completed the packet
    /// (or raised the error).
    ///
    /// Packets may straddle bursts: any split of a stream into bursts
    /// yields the same events, and the same
    /// [`bytes_consumed`](Self::bytes_consumed) and
    /// [`packets_decoded`](Self::packets_decoded), as one call over the
    /// whole stream or one [`feed`](Self::feed) per byte. Errors reset
    /// the decoder to idle, exactly as in `feed`.
    #[inline]
    pub fn feed_slice(&mut self, bytes: &[u8], mut sink: impl FnMut(usize, Decoded)) {
        self.decode(bytes, |at, r| match r {
            Ok(Packet::BranchAddress {
                target,
                mode,
                exception,
            }) => sink(
                at,
                Decoded::Branch {
                    target,
                    mode,
                    exception,
                },
            ),
            Ok(Packet::Isync { context_id, .. } | Packet::ContextId(context_id)) => {
                sink(at, Decoded::Context(context_id));
            }
            Ok(_) => {}
            Err(e) => sink(at, Decoded::Error(e)),
        });
    }

    /// The one decoder core: runs `bytes` through the state machine on a
    /// local copy of the registers and hands every completed packet or
    /// error to `emit` with the offset of the byte that completed it.
    #[inline]
    fn decode(&mut self, bytes: &[u8], mut emit: impl FnMut(usize, Result<Packet, DecodeError>)) {
        let mut regs = self.regs;
        let mut packets = 0u64;
        let mut i = 0;
        while i < bytes.len() {
            let rest = &bytes[i..];
            // Branch-address packets dominate branch-broadcast trace:
            // take them straight to their routine, skipping the state
            // dispatch (`step` routes them the same way).
            let (step, used) = match regs.state {
                State::Idle if rest[0] & 0x01 != 0 => regs.branch(0, 0, rest),
                _ => regs.step(rest),
            };
            i += used;
            match step {
                Ok(None) => {}
                Ok(Some(packet)) => {
                    packets += 1;
                    emit(i - 1, Ok(packet));
                }
                Err(e) => {
                    regs.state = State::Idle;
                    emit(i - 1, Err(e));
                }
            }
        }
        self.regs = regs;
        self.bytes_consumed += bytes.len() as u64;
        self.packets_decoded += packets;
    }
}

/// Continuation bits (bit 7) of the five branch-address bytes in a
/// little-endian word.
const BRANCH_CONTINUES: u64 = 0x80_8080_8080;

/// Up to the first five bytes of `bytes` (a branch-address packet's
/// maximum), little-endian, zero-padded.
#[inline]
fn load_le(bytes: &[u8]) -> u64 {
    match bytes.first_chunk::<5>() {
        Some(&[a, b, c, d, e]) => u64::from_le_bytes([a, b, c, d, e, 0, 0, 0]),
        None => bytes.iter().rev().fold(0, |x, &b| x << 8 | u64::from(b)),
    }
}

/// Length of the branch-address packet starting the little-endian word
/// `x`: one past the first of its five bytes without a continuation
/// bit, or 9 when all five continue (a malformed packet).
#[inline]
fn branch_len(x: u64) -> usize {
    ((!x & BRANCH_CONTINUES).trailing_zeros() / 8 + 1) as usize
}

impl Regs {
    /// Advances the state machine over the start of `rest` (never
    /// empty). Returns what completed, if anything, and how many bytes
    /// were consumed: a branch-address packet's bytes in one step, as
    /// many as lie in `rest`; one byte for everything else.
    #[inline]
    fn step(&mut self, rest: &[u8]) -> (Result<Option<Packet>, DecodeError>, usize) {
        let byte = rest[0];
        let state = std::mem::replace(&mut self.state, State::Idle);
        let result = match state {
            State::Idle if byte & 0x01 != 0 => return self.branch(0, 0, rest),
            State::Branch { bytes, len } => return self.branch(bytes, len, rest),
            State::Idle => self.start_packet(byte),
            State::AsyncZeros(n) => {
                if byte == 0x00 {
                    self.state = State::AsyncZeros(n + 1);
                    Ok(None)
                } else if byte == 0x80 {
                    if n >= 5 {
                        self.last_halfword = 0;
                        self.last_mode = IsetMode::Arm;
                        Ok(Some(Packet::Async))
                    } else {
                        Err(DecodeError::AsyncTooShort(n))
                    }
                } else {
                    Err(DecodeError::AsyncInterrupted { zeros: n, byte })
                }
            }
            State::BranchException { target, mode } => {
                let exc = byte & 0x7F;
                Ok(Some(Packet::BranchAddress {
                    target,
                    mode,
                    exception: Some(exc),
                }))
            }
            State::Isync { mut buf, len } => {
                buf[len as usize] = byte;
                let len = len + 1;
                if len == 9 {
                    let addr = VirtAddr::new(u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]));
                    let mode = if buf[4] & 0x01 != 0 {
                        IsetMode::Thumb
                    } else {
                        IsetMode::Arm
                    };
                    let context_id = u32::from_le_bytes([buf[5], buf[6], buf[7], buf[8]]);
                    self.last_halfword = addr.halfword_index();
                    self.last_mode = mode;
                    Ok(Some(Packet::Isync {
                        addr,
                        mode,
                        context_id,
                    }))
                } else {
                    self.state = State::Isync { buf, len };
                    Ok(None)
                }
            }
            State::CtxId { mut buf, len } => {
                buf[len as usize] = byte;
                let len = len + 1;
                if len == 4 {
                    Ok(Some(Packet::ContextId(u32::from_le_bytes([
                        buf[0], buf[1], buf[2], buf[3],
                    ]))))
                } else {
                    self.state = State::CtxId { buf, len };
                    Ok(None)
                }
            }
            State::Timestamp { acc, shift, bytes } => {
                if bytes >= 10 {
                    return (Err(DecodeError::TimestampTooLong), 1);
                }
                let acc = acc | (u64::from(byte & 0x7F) << shift.min(63));
                if byte & 0x80 != 0 {
                    self.state = State::Timestamp {
                        acc,
                        shift: shift + 7,
                        bytes: bytes + 1,
                    };
                    Ok(None)
                } else {
                    Ok(Some(Packet::Timestamp(acc)))
                }
            }
        };
        (result, 1)
    }

    /// Starts a packet other than a branch address (header bit 0 clear).
    fn start_packet(&mut self, byte: u8) -> Result<Option<Packet>, DecodeError> {
        match byte {
            0x00 => {
                self.state = State::AsyncZeros(1);
                Ok(None)
            }
            0x08 => {
                self.state = State::Isync {
                    buf: [0; 9],
                    len: 0,
                };
                Ok(None)
            }
            0x6E => {
                self.state = State::CtxId {
                    buf: [0; 4],
                    len: 0,
                };
                Ok(None)
            }
            0x42 => {
                self.state = State::Timestamp {
                    acc: 0,
                    shift: 0,
                    bytes: 0,
                };
                Ok(None)
            }
            0x76 => Ok(Some(Packet::Overflow)),
            0x66 => Ok(Some(Packet::Ignore)),
            b if b & 0x80 != 0 => {
                // Atom packet: bit6 = N atom, bits 5..1 = E count.
                let e_count = (b >> 1) & 0x1F;
                let n_atom = b & 0x40 != 0;
                if e_count == 0 && !n_atom {
                    return Err(DecodeError::InvalidHeader(b));
                }
                Ok(Some(Packet::Atom { e_count, n_atom }))
            }
            b => Err(DecodeError::InvalidHeader(b)),
        }
    }

    /// Continues a branch-address packet whose first `len` bytes
    /// (little-endian in `seen`, none when `rest` starts with the
    /// header) were consumed earlier, taking as many of its remaining
    /// bytes from `rest` as it needs. Returns the outcome and the number
    /// of bytes of `rest` consumed.
    #[inline(always)]
    fn branch(
        &mut self,
        seen: u64,
        len: u8,
        rest: &[u8],
    ) -> (Result<Option<Packet>, DecodeError>, usize) {
        let len = usize::from(len);
        let x = seen | load_le(rest) << (8 * len);
        let avail = len + rest.len();
        let n = branch_len(x);
        if n > 5 && avail >= 5 {
            // Five bytes, all with the continuation bit.
            return (Err(DecodeError::BranchTooLong), 5 - len);
        }
        if n > avail {
            // The burst ends inside the packet: keep what arrived.
            self.state = State::Branch {
                bytes: x,
                len: avail as u8,
            };
            return (Ok(None), rest.len());
        }
        let used = n - len;
        let fin = (x >> 32) as u8;
        if n == 5 && fin & 0x40 != 0 {
            return (Err(DecodeError::ReservedBitSet(fin)), used);
        }
        let target = self.expand(x, n);
        let mode = self.last_mode;
        if n == 5 && fin & 0x20 != 0 {
            self.state = State::BranchException { target, mode };
            return (Ok(None), used);
        }
        let packet = Packet::BranchAddress {
            target,
            mode,
            exception: None,
        };
        (Ok(Some(packet)), used)
    }

    /// Expands a complete `n`-byte branch-address packet, held
    /// little-endian in `x`, over the previous address: the groups the
    /// packet carries replace the low bits of the previous halfword
    /// index, the rest are inherited. A 5-byte packet also sets the mode.
    #[inline(always)]
    fn expand(&mut self, x: u64, n: usize) -> VirtAddr {
        // Gather the groups (6, 7, 7, 7 and 4 bits, see `GROUP_SHIFT`)
        // from bytes 0..5 into one halfword index.
        let groups = ((x >> 1) & 0x3F)
            | ((x >> 2) & (0x7F << GROUP_SHIFT[1]))
            | ((x >> 3) & (0x7F << GROUP_SHIFT[2]))
            | ((x >> 4) & (0x7F << GROUP_SHIFT[3]))
            | ((x >> 5) & (0x0F << GROUP_SHIFT[4]));
        // The first `n` groups end at bit 7n - 1 (31 for all five).
        let carried = (1u64 << (7 * n as u64 - 1).min(31)) - 1;
        let h = (u64::from(self.last_halfword) & !carried) | (groups & carried);
        self.last_halfword = h as u32;
        if n == 5 {
            self.last_mode = if x & (0x10 << 32) != 0 {
                IsetMode::Thumb
            } else {
                IsetMode::Arm
            };
        }
        VirtAddr::from_halfword_index(self.last_halfword)
    }
}

impl Default for PacketDecoder {
    fn default() -> Self {
        PacketDecoder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ptm::PacketEncoder;

    fn feed_all(dec: &mut PacketDecoder, bytes: &[u8]) -> Vec<Packet> {
        bytes
            .iter()
            .filter_map(|&b| dec.feed(b).expect("decode error"))
            .collect()
    }

    #[test]
    fn decodes_async() {
        let mut dec = PacketDecoder::new();
        let out = feed_all(&mut dec, &[0, 0, 0, 0, 0, 0x80]);
        assert_eq!(out, vec![Packet::Async]);
        assert!(dec.at_packet_boundary());
    }

    #[test]
    fn long_async_runs_are_accepted() {
        // Hardware may stretch the zero run; any >= 5 zeros then 0x80 is
        // one A-sync.
        let mut dec = PacketDecoder::new();
        let out = feed_all(&mut dec, &[0, 0, 0, 0, 0, 0, 0, 0, 0x80]);
        assert_eq!(out, vec![Packet::Async]);
    }

    #[test]
    fn short_async_is_error() {
        let mut dec = PacketDecoder::new();
        for b in [0u8, 0, 0] {
            assert_eq!(dec.feed(b).unwrap(), None);
        }
        assert_eq!(dec.feed(0x80), Err(DecodeError::AsyncTooShort(3)));
    }

    #[test]
    fn interrupted_async_is_error() {
        let mut dec = PacketDecoder::new();
        dec.feed(0x00).unwrap();
        assert_eq!(
            dec.feed(0x42),
            Err(DecodeError::AsyncInterrupted {
                zeros: 1,
                byte: 0x42
            })
        );
    }

    #[test]
    fn invalid_header_is_error_and_recoverable() {
        let mut dec = PacketDecoder::new();
        assert_eq!(dec.feed(0x02), Err(DecodeError::InvalidHeader(0x02)));
        // Recovers at the next A-sync.
        let out = feed_all(&mut dec, &[0, 0, 0, 0, 0, 0x80]);
        assert_eq!(out, vec![Packet::Async]);
    }

    #[test]
    fn branch_continuation_overflow_is_error() {
        let mut dec = PacketDecoder::new();
        for b in [0x81u8, 0x80, 0x80, 0x80] {
            assert_eq!(dec.feed(b).unwrap(), None);
        }
        assert_eq!(dec.feed(0x80), Err(DecodeError::BranchTooLong));
    }

    #[test]
    fn reserved_bit_is_error() {
        let mut dec = PacketDecoder::new();
        for b in [0x81u8, 0x80, 0x80, 0x80] {
            dec.feed(b).unwrap();
        }
        assert_eq!(dec.feed(0x40), Err(DecodeError::ReservedBitSet(0x40)));
    }

    #[test]
    fn partial_branch_inherits_high_bits_and_mode() {
        let mut enc = PacketEncoder::new();
        let mut dec = PacketDecoder::new();
        let mut bytes = Vec::new();
        bytes.extend(enc.encode(&Packet::Isync {
            addr: VirtAddr::new(0x0040_1000),
            mode: IsetMode::Thumb,
            context_id: 0,
        }));
        bytes.extend(enc.encode(&Packet::branch(VirtAddr::new(0x0040_1010), IsetMode::Thumb)));
        let out = feed_all(&mut dec, &bytes);
        assert_eq!(
            out[1],
            Packet::branch(VirtAddr::new(0x0040_1010), IsetMode::Thumb)
        );
    }

    #[test]
    fn counts_bytes_and_packets() {
        let mut dec = PacketDecoder::new();
        feed_all(&mut dec, &[0, 0, 0, 0, 0, 0x80, 0x76]);
        assert_eq!(dec.bytes_consumed(), 7);
        assert_eq!(dec.packets_decoded(), 2);
    }

    #[test]
    fn timestamp_too_long_is_error() {
        let mut dec = PacketDecoder::new();
        dec.feed(0x42).unwrap();
        for _ in 0..10 {
            dec.feed(0xFF).unwrap();
        }
        assert_eq!(dec.feed(0xFF), Err(DecodeError::TimestampTooLong));
    }
}
