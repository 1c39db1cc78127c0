//! CoreSight TPIU trace-port formatter and deframer.
//!
//! The TPIU multiplexes several on-chip trace sources (in RTAD: just the
//! PTM) onto one trace port using the CoreSight formatter protocol:
//! 16-byte frames in which even-position bytes either carry data (their
//! true LSB deferred to the auxiliary byte 15) or announce a new 7-bit
//! trace-source ID, while odd-position bytes always carry data for the
//! current ID. An ID announcement can take effect immediately or be
//! delayed past one data byte (auxiliary bit = 1), which is what lets a
//! stream hand over at an odd byte position.
//!
//! In the RTAD prototype "the output signals of TPIU are directly routed
//! to the on-chip ports of MLPU instead of the off-chip pins"; the IGM
//! therefore receives exactly these frames, 32 bits per 125 MHz cycle.

use std::error::Error;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Size of a CoreSight formatter frame in bytes.
pub const FRAME_BYTES: usize = 16;

/// A 7-bit CoreSight trace-source ID.
///
/// ID 0 is the null source (padding); IDs `0x70..=0x7F` are reserved by
/// the architecture.
///
/// # Examples
///
/// ```
/// use rtad_trace::TraceId;
///
/// let ptm = TraceId::new(0x10)?;
/// assert_eq!(ptm.value(), 0x10);
/// assert!(TraceId::new(0x75).is_err()); // reserved range
/// # Ok::<(), rtad_trace::tpiu::InvalidTraceId>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct TraceId(u8);

/// Error for out-of-range trace-source IDs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InvalidTraceId(pub u8);

impl fmt::Display for InvalidTraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "invalid trace source id 0x{:02x} (must be 0x01..=0x6f)",
            self.0
        )
    }
}

impl Error for InvalidTraceId {}

impl TraceId {
    /// The null (padding) source.
    pub const NULL: TraceId = TraceId(0);

    /// Creates a trace ID.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidTraceId`] for ID 0 (reserved for padding) and the
    /// architecturally reserved range `0x70..`.
    pub fn new(id: u8) -> Result<Self, InvalidTraceId> {
        if id == 0 || id >= 0x70 {
            Err(InvalidTraceId(id))
        } else {
            Ok(TraceId(id))
        }
    }

    /// The raw 7-bit value.
    pub const fn value(self) -> u8 {
        self.0
    }

    /// Whether this is the null (padding) source.
    pub const fn is_null(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "id:0x{:02x}", self.0)
    }
}

/// The TPIU formatter: packs `(TraceId, byte)` pairs into 16-byte frames.
///
/// # Examples
///
/// ```
/// use rtad_trace::{TpiuDeframer, TpiuFormatter, TraceId};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let ptm = TraceId::new(0x10)?;
/// let mut fmt = TpiuFormatter::new();
/// for b in [1u8, 2, 3, 4, 5] {
///     fmt.push(ptm, b);
/// }
/// let frames = fmt.flush();
///
/// let mut defmt = TpiuDeframer::new();
/// let mut out = Vec::new();
/// for frame in &frames {
///     out.extend(defmt.feed_frame(frame)?);
/// }
/// assert_eq!(out, vec![(ptm, 1), (ptm, 2), (ptm, 3), (ptm, 4), (ptm, 5)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct TpiuFormatter {
    queue: std::collections::VecDeque<(TraceId, u8)>,
    current_id: TraceId,
    frames_emitted: u64,
    frames_since_announce: u64,
}

/// Frames between periodic trace-source-ID re-announcements. A receiver
/// that joins mid-stream (or loses a corrupted ID byte) re-locks within
/// this many frames — the formatter-level half of CoreSight's periodic
/// synchronization.
pub const ID_REANNOUNCE_FRAMES: u64 = 16;

impl TpiuFormatter {
    /// Creates a formatter with no current source (null ID).
    pub fn new() -> Self {
        TpiuFormatter {
            queue: std::collections::VecDeque::new(),
            current_id: TraceId::NULL,
            frames_emitted: 0,
            frames_since_announce: 0,
        }
    }

    /// Queues one byte from `source`.
    pub fn push(&mut self, source: TraceId, byte: u8) {
        self.queue.push_back((source, byte));
    }

    /// Queues a run of bytes from `source`.
    pub fn push_slice(&mut self, source: TraceId, bytes: &[u8]) {
        for &b in bytes {
            self.queue.push_back((source, b));
        }
    }

    /// Bytes currently waiting to be framed.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Total frames produced so far.
    pub fn frames_emitted(&self) -> u64 {
        self.frames_emitted
    }

    /// Drains as many *full* frames as the queued data supports, leaving
    /// any remainder queued. Call [`TpiuFormatter::flush`] to force out a
    /// final padded frame.
    pub fn ready_frames(&mut self) -> Vec<[u8; FRAME_BYTES]> {
        let mut frames = Vec::new();
        // A frame consumes at most 15 queued bytes; requiring 15 queued
        // guarantees no padding is needed.
        while self.queue.len() >= FRAME_BYTES - 1 {
            frames.push(self.pack_frame());
        }
        frames
    }

    /// Pads and emits everything still queued. Returns all remaining
    /// frames (possibly empty if nothing was pending).
    pub fn flush(&mut self) -> Vec<[u8; FRAME_BYTES]> {
        let mut frames = self.ready_frames();
        while !self.queue.is_empty() {
            frames.push(self.pack_frame());
        }
        frames
    }

    fn pack_frame(&mut self) -> [u8; FRAME_BYTES] {
        let mut frame = [0u8; FRAME_BYTES];
        let mut aux = 0u8;
        let mut slot = 0usize;
        // The ID that becomes current *after* the next data byte, when a
        // delayed ID switch was emitted.
        let mut delayed: Option<TraceId> = None;
        // Periodic re-announcement: even without a switch, restate the
        // current ID so receivers recover from corrupted ID bytes.
        let mut reannounce = self.frames_since_announce >= ID_REANNOUNCE_FRAMES;

        while slot < FRAME_BYTES - 1 {
            let k = slot / 2; // aux bit index for even slots
            if slot.is_multiple_of(2) {
                match self.queue.front().copied() {
                    None => {
                        // Nothing left: announce the null source and pad.
                        if !self.current_id.is_null() {
                            frame[slot] = 0x01; // ID 0, immediate
                            self.current_id = TraceId::NULL;
                        }
                        // Remaining bytes stay zero (null data).
                        slot = FRAME_BYTES - 1;
                        continue;
                    }
                    Some((id, byte)) => {
                        if reannounce && id == self.current_id {
                            frame[slot] = (id.value() << 1) | 0x01;
                            reannounce = false;
                            self.frames_since_announce = 0;
                            slot += 1;
                            continue;
                        }
                        if id != self.current_id {
                            // Immediate ID switch; data not consumed.
                            frame[slot] = (id.value() << 1) | 0x01;
                            self.current_id = id;
                            self.frames_since_announce = 0;
                        } else {
                            // Peek the byte that will land at the odd slot.
                            let next_id = self.queue.get(1).map(|&(i, _)| i);
                            let wants_switch = match next_id {
                                Some(n) if n != self.current_id => Some(n),
                                None => Some(TraceId::NULL),
                                _ => None,
                            };
                            if let (Some(new_id), true) = (wants_switch, slot < FRAME_BYTES - 2) {
                                // Delayed switch: takes effect after the
                                // data byte the odd slot will carry.
                                frame[slot] = (new_id.value() << 1) | 0x01;
                                aux |= 1 << k;
                                delayed = Some(new_id);
                            } else {
                                // Plain data at an even slot: LSB goes to aux.
                                self.queue.pop_front();
                                frame[slot] = byte & 0xFE;
                                if byte & 0x01 != 0 {
                                    aux |= 1 << k;
                                }
                                if let Some(d) = delayed.take() {
                                    self.current_id = d;
                                }
                            }
                        }
                    }
                }
            } else {
                // Odd slot: data for the current ID, or null padding.
                match self.queue.front().copied() {
                    Some((id, byte)) if id == self.current_id => {
                        self.queue.pop_front();
                        frame[slot] = byte;
                        if let Some(d) = delayed.take() {
                            self.current_id = d;
                        }
                    }
                    _ => {
                        debug_assert!(
                            self.current_id.is_null() || delayed.is_some(),
                            "odd-slot stall for a live stream should be \
                             prevented by even-slot lookahead"
                        );
                        frame[slot] = 0x00;
                        if let Some(d) = delayed.take() {
                            self.current_id = d;
                        }
                    }
                }
            }
            slot += 1;
        }
        frame[FRAME_BYTES - 1] = aux;
        self.frames_emitted += 1;
        self.frames_since_announce += 1;
        frame
    }
}

impl Default for TpiuFormatter {
    fn default() -> Self {
        TpiuFormatter::new()
    }
}

/// Error raised by [`TpiuDeframer::feed_frame`] and
/// [`TpiuDeframer::feed_frame_bytes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum DeframeError {
    /// An even-position byte announced a reserved trace-source ID.
    ReservedId(u8),
}

impl fmt::Display for DeframeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeframeError::ReservedId(id) => {
                write!(f, "frame announces reserved trace id 0x{id:02x}")
            }
        }
    }
}

impl Error for DeframeError {}

/// The receive side: unpacks formatter frames back into `(TraceId, byte)`
/// pairs, dropping null-source padding. This is the first thing the IGM
/// does with the 32-bit TPIU input port.
#[derive(Debug, Clone)]
pub struct TpiuDeframer {
    current_id: TraceId,
    delayed: Option<TraceId>,
}

impl TpiuDeframer {
    /// Creates a deframer with no current source.
    pub fn new() -> Self {
        TpiuDeframer {
            current_id: TraceId::NULL,
            delayed: None,
        }
    }

    /// Unpacks one 16-byte frame into `(source, byte)` pairs.
    ///
    /// # Errors
    ///
    /// Returns [`DeframeError::ReservedId`] if the frame announces an ID
    /// in the architecturally reserved range.
    pub fn feed_frame(
        &mut self,
        frame: &[u8; FRAME_BYTES],
    ) -> Result<Vec<(TraceId, u8)>, DeframeError> {
        let mut out = Vec::with_capacity(FRAME_BYTES - 1);
        self.deframe(frame, |id, b| out.push((id, b)))?;
        Ok(out)
    }

    /// Unpacks one 16-byte frame's data bytes into `out` and returns how
    /// many there are: the receive path of a consumer that serves one
    /// trace source and has no use for the ID. Allocation-free. The
    /// bytes are exactly those of [`feed_frame`](Self::feed_frame)'s
    /// pairs.
    ///
    /// # Errors
    ///
    /// Returns [`DeframeError::ReservedId`] if the frame announces an ID
    /// in the architecturally reserved range. `out` then holds nothing
    /// of use, as `feed_frame` returns nothing of a rejected frame.
    pub fn feed_frame_bytes(
        &mut self,
        frame: &[u8; FRAME_BYTES],
        out: &mut [u8; FRAME_BYTES - 1],
    ) -> Result<usize, DeframeError> {
        let mut n = 0;
        self.deframe(frame, |_, b| {
            out[n] = b;
            n += 1;
        })?;
        Ok(n)
    }

    /// The one deframer core: walks the frame's slots, tracking ID
    /// announcements, and hands every non-null data byte to `sink`.
    #[inline]
    fn deframe(
        &mut self,
        frame: &[u8; FRAME_BYTES],
        mut sink: impl FnMut(TraceId, u8),
    ) -> Result<(), DeframeError> {
        let aux = frame[FRAME_BYTES - 1];
        for (slot, &b) in frame.iter().enumerate().take(FRAME_BYTES - 1) {
            let byte = if slot.is_multiple_of(2) {
                let flag = (aux >> (slot / 2)) & 1 != 0;
                if b & 0x01 != 0 {
                    // ID byte.
                    let raw = b >> 1;
                    let id = if raw == 0 {
                        TraceId::NULL
                    } else {
                        TraceId::new(raw).map_err(|e| DeframeError::ReservedId(e.0))?
                    };
                    if flag {
                        self.delayed = Some(id);
                    } else {
                        self.current_id = id;
                        self.delayed = None;
                    }
                    continue;
                }
                // Data byte; true LSB deferred to aux.
                b | u8::from(flag)
            } else {
                b
            };
            if !self.current_id.is_null() {
                sink(self.current_id, byte);
            }
            if let Some(d) = self.delayed.take() {
                self.current_id = d;
            }
        }
        Ok(())
    }
}

impl Default for TpiuDeframer {
    fn default() -> Self {
        TpiuDeframer::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(input: &[(TraceId, u8)]) -> Vec<(TraceId, u8)> {
        let mut f = TpiuFormatter::new();
        for &(id, b) in input {
            f.push(id, b);
        }
        let mut d = TpiuDeframer::new();
        let mut out = Vec::new();
        for frame in f.flush() {
            out.extend(d.feed_frame(&frame).expect("deframe"));
        }
        out
    }

    fn id(v: u8) -> TraceId {
        TraceId::new(v).expect("valid id")
    }

    #[test]
    fn single_source_roundtrip() {
        let src = id(0x10);
        let input: Vec<_> = (0u8..100).map(|b| (src, b)).collect();
        assert_eq!(roundtrip(&input), input);
    }

    #[test]
    fn lsb_of_even_slot_data_survives() {
        // Odd-valued bytes at even slots exercise the aux-byte LSB path.
        let src = id(0x01);
        let input: Vec<_> = [0xFFu8, 0x01, 0xAB, 0x55, 0x81]
            .iter()
            .map(|&b| (src, b))
            .collect();
        assert_eq!(roundtrip(&input), input);
    }

    #[test]
    fn interleaved_sources_roundtrip() {
        let a = id(0x10);
        let b = id(0x20);
        let input = vec![(a, 1), (a, 2), (b, 3), (a, 4), (b, 5), (b, 6), (a, 7)];
        assert_eq!(roundtrip(&input), input);
    }

    #[test]
    fn rapidly_alternating_sources_roundtrip() {
        let a = id(0x11);
        let b = id(0x22);
        let input: Vec<_> = (0u8..40)
            .map(|i| (if i % 2 == 0 { a } else { b }, i))
            .collect();
        assert_eq!(roundtrip(&input), input);
    }

    #[test]
    fn ready_frames_leaves_remainder() {
        let src = id(0x10);
        let mut f = TpiuFormatter::new();
        for b in 0u8..20 {
            f.push(src, b);
        }
        let frames = f.ready_frames();
        assert_eq!(frames.len(), 1);
        assert!(f.pending() > 0);
        let rest = f.flush();
        assert_eq!(rest.len(), 1);
        assert_eq!(f.pending(), 0);
    }

    #[test]
    fn flush_on_empty_is_empty() {
        let mut f = TpiuFormatter::new();
        assert!(f.flush().is_empty());
    }

    #[test]
    fn null_padding_is_dropped() {
        let src = id(0x10);
        let mut f = TpiuFormatter::new();
        f.push(src, 0xAA);
        let frames = f.flush();
        assert_eq!(frames.len(), 1);
        let mut d = TpiuDeframer::new();
        assert_eq!(d.feed_frame(&frames[0]).unwrap(), vec![(src, 0xAA)]);
    }

    #[test]
    fn reserved_id_is_error() {
        assert!(TraceId::new(0).is_err());
        assert!(TraceId::new(0x70).is_err());
        assert!(TraceId::new(0x7F).is_err());
        assert!(TraceId::new(0x6F).is_ok());
    }

    #[test]
    fn deframer_rejects_reserved_announcement() {
        let mut d = TpiuDeframer::new();
        let mut frame = [0u8; FRAME_BYTES];
        frame[0] = (0x75 << 1) | 1;
        assert_eq!(d.feed_frame(&frame), Err(DeframeError::ReservedId(0x75)));
    }

    #[test]
    fn bytes_only_entry_matches_pairs() {
        let (a, b) = (id(0x10), id(0x20));
        let input: Vec<_> = (0u8..90)
            .map(|i| (if i % 7 < 4 { a } else { b }, i))
            .collect();
        let mut f = TpiuFormatter::new();
        for &(src, byte) in &input {
            f.push(src, byte);
        }
        let mut frames = f.flush();
        frames[2][0] = (0x71 << 1) | 1;
        let (mut pairs, mut bytes) = (TpiuDeframer::new(), TpiuDeframer::new());
        for frame in &frames {
            let mut data = [0; FRAME_BYTES - 1];
            match (
                pairs.feed_frame(frame),
                bytes.feed_frame_bytes(frame, &mut data),
            ) {
                (Ok(want), Ok(n)) => {
                    let want: Vec<u8> = want.iter().map(|&(_, b)| b).collect();
                    assert_eq!(data[..n], want[..]);
                }
                (want, got) => assert_eq!(want.map(|_| ()), got.map(|_| ())),
            }
        }
    }

    #[test]
    fn frame_counter_increments() {
        let src = id(0x10);
        let mut f = TpiuFormatter::new();
        f.push_slice(src, &[0; 64]);
        let n = f.flush().len() as u64;
        assert_eq!(f.frames_emitted(), n);
        assert!(n >= 4);
    }
}
