//! The IGM's one decode core, and the serving path built on it.
//!
//! Every packet the IGM decodes goes through [`IgmSession`]. Whole TPIU
//! frames deframe behind the bytes of an incomplete word carried from
//! the frame before, keeping only the PTM's bytes
//! ([`TraceId::PTM`](rtad_trace::TraceId::PTM)); up to eight frames then
//! decode in one [`PacketDecoder::feed_slice`] call, whose sink runs the
//! context filter, the P2S admission bound, the mapper and the encoder
//! on each branch address. Each deframed frame ends a TA burst at its
//! last whole word. The P2S FIFO empties between bursts, so only the
//! first `p2s_depth` addresses of a burst that pass the context filter
//! survive; mapper misses take a slot too, because the mapper sits
//! after the P2S.
//!
//! A timing model rides on the core as an observer (`Timing`): it is
//! told the burst, word and P2S slot of every admitted address. The
//! serving path's observer is zero-sized and does nothing, so the
//! generic compiles away; [`Igm::process_trace`](crate::Igm::process_trace)
//! passes one that adds TA word times, P2S departures and IVG exits.
//!
//! A serving host multiplexing many victim streams keeps one
//! [`IgmShared`] (the mapper table and configuration) and one compact
//! [`IgmSession`] per stream. [`StreamingIgm`] bundles the two for a
//! single stream.

use std::mem::size_of;

use rtad_trace::ptm::{Decoded, PacketDecoder};
use rtad_trace::tpiu::{TpiuDeframer, FRAME_BYTES};
use rtad_trace::VirtAddr;

use crate::ivg::{AddressMapper, VectorEncoder, VectorPayload};
use crate::module::IgmConfig;

/// One vector emitted by the decode core: the timed path's
/// `TimedVector` minus the timestamp.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamedVector {
    /// The branch target that produced it.
    pub target: VirtAddr,
    /// Process context of the branch.
    pub context_id: u32,
    /// The encoded payload.
    pub payload: VectorPayload,
}

/// Counters of a [`StreamingIgm`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StreamingStats {
    /// Complete TPIU frames consumed.
    pub frames: u64,
    /// Data bytes of trace sources other than the PTM, skipped.
    pub foreign_bytes: u64,
    /// PTM packets completed.
    pub packets: u64,
    /// Branch addresses extracted.
    pub addresses: u64,
    /// Packet-level decode errors (stream resynchronizes on A-sync).
    pub decode_errors: u64,
    /// Addresses dropped by the P2S admission bound (burst longer than
    /// the FIFO depth).
    pub p2s_dropped: u64,
    /// Addresses accepted by the mapper.
    pub accepted: u64,
    /// Addresses filtered by the mapper or context filter.
    pub filtered: u64,
}

/// The per-deployment, read-only half of the streaming chain: the
/// address-mapper table plus the admission/format configuration.
///
/// A serving host watching 100k streams of one deployment keeps exactly
/// **one** of these; each stream carries only a compact mutable
/// [`IgmSession`]. Before this split every [`StreamingIgm`] duplicated
/// the mapper table (the dominant resident cost for realistic
/// watchlists — hundreds of entries — multiplied by every idle stream).
#[derive(Debug, Clone)]
pub struct IgmShared {
    mapper: AddressMapper,
    format: crate::VectorFormat,
    vocab: usize,
    context_filter: Option<u32>,
    p2s_depth: usize,
}

impl IgmShared {
    /// Builds the shared half from the same configuration as the timed
    /// [`crate::Igm`].
    pub fn new(config: &IgmConfig) -> Self {
        let mapper = AddressMapper::from_entries(config.table.iter().copied());
        let vocab = mapper.vocab_size().max(1);
        IgmShared {
            mapper,
            format: config.format,
            vocab,
            context_filter: config.context_filter,
            p2s_depth: config.p2s_depth,
        }
    }

    /// A fresh per-stream session over this shared configuration.
    pub fn session(&self) -> IgmSession {
        IgmSession {
            deframer: TpiuDeframer::new(),
            decoder: PacketDecoder::new(),
            context_id: 0,
            encoder: VectorEncoder::new(self.format, self.vocab),
            carry: [0; 3],
            carry_len: 0,
            frame_buf: [0u8; FRAME_BYTES],
            frame_fill: 0,
            pool: Vec::new(),
            stats: StreamingStats::default(),
        }
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Estimated resident bytes of the shared half (struct plus mapper
    /// table). Counted **once** per deployment, not per stream.
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>() + self.mapper.resident_bytes_estimate()
    }
}

// Thread-ownership contract of the split, pinned at compile time: a
// serving pipeline may move to its own thread (one per traced CPU)
// together with its [`IgmShared`] and [`IgmSession`]s (`Send`), and
// one [`IgmShared`] may be read from several threads at once (`Sync`).
// Both types are plain owned data —
// no interior mutability, no `Rc`, no raw pointers — so the bounds
// hold structurally; these assertions keep a future field from
// silently revoking them.
const _: () = {
    const fn assert_send<T: Send>() {}
    const fn assert_sync<T: Sync>() {}
    assert_send::<IgmShared>();
    assert_sync::<IgmShared>();
    assert_send::<IgmSession>();
    assert_send::<StreamedVector>();
    assert_sync::<StreamedVector>();
};

/// A timing model riding on the decode core.
pub(crate) trait Timing {
    /// The P2S admitted an address: it completed in word `word` (counted
    /// from the burst's first word) of burst `burst` (the pass's frame
    /// whose data ends it) and takes survivor slot `slot`. `accepted`
    /// says whether the mapper passed it, so whether a vector follows.
    fn admit(&mut self, burst: usize, word: usize, slot: usize, accepted: bool);
}

/// The serving path's observer: it times nothing.
struct Untimed;

impl Timing for Untimed {
    #[inline(always)]
    fn admit(&mut self, _: usize, _: usize, _: usize, _: bool) {}
}

/// The per-stream mutable state of the incremental TA →
/// P2S-admission → IVG chain: deframer/decoder state machines, the
/// sub-word TA lane buffer, a partial-frame staging buffer and the
/// stream's encoder window. Everything a registered-but-idle stream
/// keeps resident; [`IgmSession::resident_bytes`] measures it.
#[derive(Debug, Clone)]
pub struct IgmSession {
    deframer: TpiuDeframer,
    decoder: PacketDecoder,
    /// Context carried from I-sync/context-ID packets.
    context_id: u32,
    /// Per-stream encoder state (the histogram window is stream
    /// history, so it cannot be shared).
    encoder: VectorEncoder,
    /// Bytes of an incomplete 4-byte word awaiting the next frame (or
    /// `finish`): the TA's lane buffer. Word boundaries decide which
    /// *burst* an address belongs to, and burst boundaries decide P2S
    /// truncation and the timed path's word times.
    carry: [u8; 3],
    carry_len: usize,
    /// Partial TPIU frame from `push_bytes` chunks.
    frame_buf: [u8; FRAME_BYTES],
    frame_fill: usize,
    /// Recycled dense-window buffers of the entry points that take no
    /// pool: consumers hand scored windows back via
    /// [`IgmSession::recycle`] so steady-state histogram emission
    /// allocates nothing. Stays empty for a session that is always
    /// driven through [`IgmSession::push_bytes_pooled`].
    pool: Vec<Vec<f32>>,
    stats: StreamingStats,
}

/// Whole frames [`IgmSession::push_bytes`] deframes before decoding
/// their bursts in one pass.
pub(crate) const FRAMES_PER_PASS: usize = 8;

/// Upper bound on recycled window buffers held per session; anything
/// past this is dropped (recycling is an allocation optimization, never
/// a correctness requirement).
const WINDOW_POOL_CAP: usize = 256;

impl IgmSession {
    /// Hands a scored dense-window buffer back for reuse by the next
    /// histogram emission. Buffers past the pool cap are dropped.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        if self.pool.len() < WINDOW_POOL_CAP {
            self.pool.push(buf);
        }
    }

    /// Counters so far.
    pub fn stats(&self) -> StreamingStats {
        self.stats
    }

    /// Resident heap + inline bytes of this session: the struct itself
    /// plus every owned buffer's capacity. This is the
    /// memory-per-stream quantity the sparse serving report tracks;
    /// the shared mapper table is *not* included (see
    /// [`IgmShared::resident_bytes`]).
    pub fn resident_bytes(&self) -> usize {
        size_of::<Self>()
            + self.encoder.resident_heap_bytes()
            + self.pool.capacity() * size_of::<Vec<f32>>()
            + self
                .pool
                .iter()
                .map(|b| b.capacity() * size_of::<f32>())
                .sum::<usize>()
    }

    /// Pushes an arbitrary chunk of the TPIU byte stream, emitting every
    /// vector that completes. Chunks need not align with frames. Dense
    /// windows draw their buffers from the session's own pool.
    pub fn push_bytes(&mut self, shared: &IgmShared, bytes: &[u8], out: &mut Vec<StreamedVector>) {
        let mut pool = std::mem::take(&mut self.pool);
        self.push_bytes_pooled(shared, bytes, &mut pool, out);
        self.pool = pool;
    }

    /// [`push_bytes`](Self::push_bytes) with dense-window buffers drawn
    /// from `pool` instead of the session's own, so a host serving many
    /// streams keeps one pool for all of them. Output is identical.
    pub fn push_bytes_pooled(
        &mut self,
        shared: &IgmShared,
        bytes: &[u8],
        pool: &mut Vec<Vec<f32>>,
        out: &mut Vec<StreamedVector>,
    ) {
        let mut rest = bytes;
        // Complete any partial frame carried over from earlier chunks.
        if self.frame_fill > 0 {
            let take = (FRAME_BYTES - self.frame_fill).min(rest.len());
            self.frame_buf[self.frame_fill..self.frame_fill + take].copy_from_slice(&rest[..take]);
            self.frame_fill += take;
            rest = &rest[take..];
            if self.frame_fill < FRAME_BYTES {
                return;
            }
            self.frame_fill = 0;
            let frame = self.frame_buf;
            self.push_frames(shared, &frame, pool, out, &mut Untimed);
        }
        // Whole frames straight out of the chunk, not staged through
        // `frame_buf`; each pass decodes several frames' bursts in one
        // call.
        let whole = rest.len() - rest.len() % FRAME_BYTES;
        for pass in rest[..whole].chunks(FRAMES_PER_PASS * FRAME_BYTES) {
            self.push_frames(shared, pass, pool, out, &mut Untimed);
        }
        let tail = &rest[whole..];
        self.frame_buf[..tail.len()].copy_from_slice(tail);
        self.frame_fill = tail.len();
    }

    /// Pushes one complete TPIU frame. Malformed frames are dropped, as
    /// the hardware (and the timed path) drop them.
    pub fn push_frame(
        &mut self,
        shared: &IgmShared,
        frame: &[u8; FRAME_BYTES],
        out: &mut Vec<StreamedVector>,
    ) {
        let mut pool = std::mem::take(&mut self.pool);
        self.push_frames(shared, frame, &mut pool, out, &mut Untimed);
        self.pool = pool;
    }

    /// Flushes straggler bytes at end of stream: sub-word TA bytes
    /// decode, and a partial TPIU frame (stream truncated mid-frame) is
    /// dropped — both exactly as the timed path does.
    pub fn finish(&mut self, shared: &IgmShared, out: &mut Vec<StreamedVector>) {
        let mut pool = std::mem::take(&mut self.pool);
        self.finish_pooled(shared, &mut pool, out);
        self.pool = pool;
    }

    /// [`finish`](Self::finish) with dense-window buffers drawn from
    /// `pool` (see [`push_bytes_pooled`](Self::push_bytes_pooled)).
    pub fn finish_pooled(
        &mut self,
        shared: &IgmShared,
        pool: &mut Vec<Vec<f32>>,
        out: &mut Vec<StreamedVector>,
    ) {
        self.finish_timed(shared, pool, out, &mut Untimed);
    }

    /// [`finish_pooled`](Self::finish_pooled) under a timing model: the
    /// carried bytes decode as one word, burst 0 of their own.
    fn finish_timed(
        &mut self,
        shared: &IgmShared,
        pool: &mut Vec<Vec<f32>>,
        out: &mut Vec<StreamedVector>,
        timing: &mut impl Timing,
    ) {
        self.frame_fill = 0;
        let (carry, n) = (self.carry, self.carry_len);
        self.decode_bursts(shared, &carry[..n], &[n], pool, out, timing);
    }

    /// Deframes up to [`FRAMES_PER_PASS`] whole frames behind the carried
    /// bytes and decodes them in one pass. Frame `i` of the pass ends
    /// burst `i` at its last completed word; a malformed frame is
    /// dropped whole, so its burst is empty.
    fn push_frames(
        &mut self,
        shared: &IgmShared,
        frames: &[u8],
        pool: &mut Vec<Vec<f32>>,
        out: &mut Vec<StreamedVector>,
        timing: &mut impl Timing,
    ) {
        let mut bytes = [0u8; 3 + FRAMES_PER_PASS * (FRAME_BYTES - 1)];
        let mut len = self.carry_len;
        bytes[..len].copy_from_slice(&self.carry[..len]);
        let mut ends = [0; FRAMES_PER_PASS];
        let n = frames.len() / FRAME_BYTES;
        for (frame, end) in frames.chunks_exact(FRAME_BYTES).zip(&mut ends) {
            let frame = frame.try_into().expect("chunk is frame-sized");
            let data = (&mut bytes[len..len + FRAME_BYTES - 1])
                .try_into()
                .expect("room for one frame");
            if let Ok(got) = self.deframer.feed_frame_bytes(frame, data) {
                self.stats.frames += 1;
                self.stats.foreign_bytes += got.foreign as u64;
                len += got.ptm;
            }
            *end = len - len % 4;
        }
        self.decode_bursts(shared, &bytes[..len], &ends[..n], pool, out, timing);
    }

    /// Decodes `bytes` up to the last of the burst ends `ends` in one
    /// pass, applying the P2S admission bound per burst and encoding the
    /// survivors, and carries the rest (under a word) to the next pass.
    fn decode_bursts(
        &mut self,
        shared: &IgmShared,
        bytes: &[u8],
        ends: &[usize],
        pool: &mut Vec<Vec<f32>>,
        out: &mut Vec<StreamedVector>,
        timing: &mut impl Timing,
    ) {
        let take = ends.last().copied().unwrap_or(0);
        let packets_before = self.decoder.packets_decoded();
        // P2S admission: the FIFO is empty at every burst start, so only
        // the first `depth` addresses of a burst that pass the context
        // filter survive. An address belongs to the burst holding the
        // byte that completed it.
        let (mut burst, mut start, mut admitted) = (0, 0, 0);
        let stats = &mut self.stats;
        let context_id = &mut self.context_id;
        let encoder = &mut self.encoder;
        self.decoder
            .feed_slice(&bytes[..take], |at, event| match event {
                Decoded::Branch { target, .. } => {
                    stats.addresses += 1;
                    while at >= ends[burst] {
                        start = ends[burst];
                        burst += 1;
                        admitted = 0;
                    }
                    if shared.context_filter.is_some_and(|ctx| ctx != *context_id) {
                        stats.filtered += 1;
                    } else if admitted == shared.p2s_depth {
                        stats.p2s_dropped += 1;
                    } else {
                        let token = shared.mapper.map(target);
                        timing.admit(burst, (at - start) / 4, admitted, token.is_some());
                        admitted += 1;
                        match token {
                            None => stats.filtered += 1,
                            Some(token) => {
                                stats.accepted += 1;
                                out.push(StreamedVector {
                                    target,
                                    context_id: *context_id,
                                    payload: encoder.encode_pooled(token, pool),
                                });
                            }
                        }
                    }
                }
                Decoded::Context(ctx) => *context_id = ctx,
                Decoded::Error(_) => stats.decode_errors += 1,
            });
        self.stats.packets += self.decoder.packets_decoded() - packets_before;
        let rest = &bytes[take..];
        self.carry[..rest.len()].copy_from_slice(rest);
        self.carry_len = rest.len();
    }
}

/// The self-contained incremental chain: one [`IgmShared`] bundled with
/// one [`IgmSession`]. The historical single-stream API — each instance
/// carries its own mapper table, which is exactly right for tests and
/// one-stream tools and exactly wrong for 100k-stream serving (use
/// [`IgmShared`] + [`IgmSession`] there; `rtad-soc`'s sparse pipeline
/// does).
#[derive(Debug, Clone)]
pub struct StreamingIgm {
    shared: IgmShared,
    session: IgmSession,
}

impl StreamingIgm {
    /// Builds the streaming chain from the same configuration as the
    /// timed [`crate::Igm`].
    pub fn new(config: &IgmConfig) -> Self {
        let shared = IgmShared::new(config);
        let session = shared.session();
        StreamingIgm { shared, session }
    }

    /// Hands a scored dense-window buffer back for reuse by the next
    /// histogram emission. Buffers past the pool cap are dropped.
    pub fn recycle(&mut self, buf: Vec<f32>) {
        self.session.recycle(buf);
    }

    /// Counters so far.
    pub fn stats(&self) -> StreamingStats {
        self.session.stats()
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        self.shared.mapper()
    }

    /// Pushes an arbitrary chunk of the TPIU byte stream, emitting every
    /// vector that completes. Chunks need not align with frames.
    pub fn push_bytes(&mut self, bytes: &[u8], out: &mut Vec<StreamedVector>) {
        self.session.push_bytes(&self.shared, bytes, out);
    }

    /// Pushes one complete TPIU frame. Malformed frames are dropped, as
    /// the hardware (and the timed path) drop them.
    pub fn push_frame(&mut self, frame: &[u8; FRAME_BYTES], out: &mut Vec<StreamedVector>) {
        self.session.push_frame(&self.shared, frame, out);
    }

    /// Flushes straggler bytes at end of stream: sub-word TA bytes
    /// decode, and a partial TPIU frame (stream truncated mid-frame) is
    /// dropped — both exactly as the timed path does.
    pub fn finish(&mut self, out: &mut Vec<StreamedVector>) {
        self.session.finish(&self.shared, out);
    }

    /// Decodes whole frames (at most [`FRAMES_PER_PASS`]) under a timing
    /// model. Its dense windows never come back, so it draws on no pool.
    pub(crate) fn push_frames_timed(
        &mut self,
        frames: &[u8],
        out: &mut Vec<StreamedVector>,
        timing: &mut impl Timing,
    ) {
        self.session
            .push_frames(&self.shared, frames, &mut Vec::new(), out, timing);
    }

    /// [`finish`](Self::finish) under a timing model.
    pub(crate) fn finish_timed(&mut self, out: &mut Vec<StreamedVector>, timing: &mut impl Timing) {
        self.session
            .finish_timed(&self.shared, &mut Vec::new(), out, timing);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::module::Igm;
    use crate::VectorFormat;
    use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder};

    fn run_with_targets(n: usize) -> (Vec<BranchRecord>, Vec<VirtAddr>) {
        let targets: Vec<VirtAddr> = (0..8u32)
            .map(|k| VirtAddr::new(0x2000 + k * 0x80))
            .collect();
        let run: Vec<BranchRecord> = (0..n)
            .map(|i| {
                let mut r = BranchRecord::new(
                    VirtAddr::new(0x1000 + (i as u32) * 4),
                    targets[i % targets.len()],
                    BranchKind::IndirectJump,
                    (i as u64) * 30,
                );
                r.context_id = if i % 3 == 0 { 7 } else { 9 };
                r
            })
            .collect();
        (run, targets)
    }

    fn assert_streaming_matches_timed(config: IgmConfig, chunk: usize) {
        let (run, _) = run_with_targets(300);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let bytes: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();

        let mut timed = Igm::new(config.clone());
        let timed_out = timed.process_trace(&trace);

        let mut streaming = StreamingIgm::new(&config);
        let mut got = Vec::new();
        for c in bytes.chunks(chunk) {
            streaming.push_bytes(c, &mut got);
        }
        streaming.finish(&mut got);

        assert_eq!(got.len(), timed_out.vectors.len(), "vector count");
        for (s, t) in got.iter().zip(&timed_out.vectors) {
            assert_eq!(s.target, t.target);
            assert_eq!(s.context_id, t.context_id);
            assert_eq!(s.payload, t.payload);
        }
        assert_eq!(streaming.stats().accepted, timed_out.stats.accepted);
    }

    #[test]
    fn token_stream_matches_timed_path() {
        let (_, targets) = run_with_targets(1);
        assert_streaming_matches_timed(IgmConfig::token_stream(&targets), 16);
    }

    #[test]
    fn histogram_matches_timed_path() {
        let (_, targets) = run_with_targets(1);
        assert_streaming_matches_timed(IgmConfig::histogram(&targets, 16), 16);
    }

    #[test]
    fn context_filter_matches_timed_path() {
        let (_, targets) = run_with_targets(1);
        assert_streaming_matches_timed(
            IgmConfig::token_stream(&targets).with_context_filter(7),
            16,
        );
    }

    #[test]
    fn unaligned_chunks_do_not_change_output() {
        let (_, targets) = run_with_targets(1);
        for chunk in [1usize, 3, 7, 16, 64, 1024] {
            assert_streaming_matches_timed(IgmConfig::token_stream(&targets), chunk);
        }
    }

    /// A shallow P2S FIFO truncates bursts: the streaming path must cut
    /// each burst exactly where the timed path does, however the bytes
    /// are chunked (chunks of many frames decode their bursts in one
    /// pass).
    #[test]
    fn p2s_truncation_matches_timed_path() {
        let (_, targets) = run_with_targets(1);
        for depth in [1, 2, 3] {
            for chunk in [1usize, 16, 80, 1024] {
                let mut config = IgmConfig::token_stream(&targets);
                config.p2s_depth = depth;
                assert_streaming_matches_timed(config, chunk);
            }
        }
        let mut config = IgmConfig::token_stream(&targets);
        config.p2s_depth = 2;
        let (run, _) = run_with_targets(300);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let bytes: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();
        let mut s = StreamingIgm::new(&config);
        let mut got = Vec::new();
        s.push_bytes(&bytes, &mut got);
        s.finish(&mut got);
        assert!(s.stats().p2s_dropped > 0, "depth 2 must truncate bursts");
    }

    #[test]
    fn partial_trailing_frame_is_dropped() {
        let (run, targets) = run_with_targets(100);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let bytes: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();

        let mut streaming = StreamingIgm::new(&IgmConfig::token_stream(&targets));
        let mut got = Vec::new();
        // Withhold the last 5 bytes: a torn frame that must not emit.
        streaming.push_bytes(&bytes[..bytes.len() - 5], &mut got);
        streaming.finish(&mut got);
        let n_torn = got.len();

        let mut whole = StreamingIgm::new(&IgmConfig::token_stream(&targets));
        let mut got_whole = Vec::new();
        whole.push_bytes(&bytes, &mut got_whole);
        whole.finish(&mut got_whole);
        assert!(n_torn <= got_whole.len());
        // The torn prefix is a prefix of the whole decode.
        assert_eq!(&got_whole[..n_torn], &got[..]);
    }

    #[test]
    fn recycled_buffers_are_bit_identical_to_fresh_allocations() {
        let (run, targets) = run_with_targets(300);
        let config = IgmConfig::histogram(&targets, 16);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let bytes: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();

        let mut fresh = StreamingIgm::new(&config);
        let mut expect = Vec::new();
        fresh.push_bytes(&bytes, &mut expect);
        fresh.finish(&mut expect);

        let mut pooled = StreamingIgm::new(&config);
        let mut emitted = Vec::new();
        let mut got = Vec::new();
        let drain = |pooled: &mut StreamingIgm,
                     emitted: &mut Vec<StreamedVector>,
                     got: &mut Vec<StreamedVector>| {
            for v in emitted.drain(..) {
                got.push(v.clone());
                if let VectorPayload::Dense(mut buf) = v.payload {
                    // Poison the returned buffer: the pooled encode must
                    // fully overwrite recycled storage.
                    buf.iter_mut().for_each(|x| *x = f32::NAN);
                    pooled.recycle(buf);
                }
            }
        };
        for c in bytes.chunks(64) {
            pooled.push_bytes(c, &mut emitted);
            drain(&mut pooled, &mut emitted, &mut got);
        }
        pooled.finish(&mut emitted);
        drain(&mut pooled, &mut emitted, &mut got);

        assert_eq!(got, expect, "recycling must not change emitted vectors");
    }

    /// Many sessions over one shared half decode exactly like
    /// independent `StreamingIgm`s, and an idle session's resident
    /// footprint excludes the shared mapper table.
    #[test]
    fn shared_sessions_match_independent_igms() {
        let (run, targets) = run_with_targets(240);
        let config = IgmConfig::histogram(&targets, 16);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let bytes: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();

        let shared = IgmShared::new(&config);
        let mut sessions: Vec<IgmSession> = (0..3).map(|_| shared.session()).collect();
        let mut independent: Vec<StreamingIgm> =
            (0..3).map(|_| StreamingIgm::new(&config)).collect();

        for (s, (session, igm)) in sessions.iter_mut().zip(&mut independent).enumerate() {
            // Each stream sees a different chunking of the same bytes.
            let chunk = 7 + s * 13;
            let (mut got_s, mut got_i) = (Vec::new(), Vec::new());
            for c in bytes.chunks(chunk) {
                session.push_bytes(&shared, c, &mut got_s);
                igm.push_bytes(c, &mut got_i);
            }
            session.finish(&shared, &mut got_s);
            igm.finish(&mut got_i);
            assert_eq!(got_s, got_i, "session {s} diverged from StreamingIgm");
            assert_eq!(session.stats(), igm.stats());
        }

        // An idle session is compact: its resident bytes must not grow
        // with the mapper table (shared), only with its own state.
        let idle = shared.session();
        assert!(idle.resident_bytes() > 0);
        let wide_table: Vec<VirtAddr> = (0..4096u32)
            .map(|k| VirtAddr::new(0x10_0000 + k * 4))
            .collect();
        let wide = IgmShared::new(&IgmConfig::token_stream(&wide_table));
        let wide_idle = wide.session();
        assert!(
            wide.resident_bytes() > shared.resident_bytes(),
            "a 4096-entry table must dominate the shared footprint"
        );
        // Token sessions carry no histogram window; a 256x larger table
        // must not balloon the per-stream state (the counts vector
        // scales with vocab, which is the model's input dimension — a
        // deployment constant, not a table-size artifact).
        assert!(
            wide_idle.resident_bytes() < wide.resident_bytes(),
            "session ({}) must be smaller than the shared table ({})",
            wide_idle.resident_bytes(),
            wide.resident_bytes()
        );
    }

    #[test]
    fn record_level_vectorizer_matches_byte_level() {
        let (run, targets) = run_with_targets(200);
        let config = IgmConfig::token_stream(&targets).with_context_filter(7);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let bytes: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();

        let mut byte_level = StreamingIgm::new(&config);
        let mut got = Vec::new();
        byte_level.push_bytes(&bytes, &mut got);
        byte_level.finish(&mut got);

        // The record-level reference: context filter, mapper and encoder
        // straight over the branch records, no PTM bytes at all.
        let mapper = AddressMapper::from_entries(config.table.iter().copied());
        let mut encoder = VectorEncoder::new(config.format, mapper.vocab_size().max(1));
        let functional: Vec<VectorPayload> = run
            .iter()
            .filter(|r| Some(r.context_id) == config.context_filter)
            .filter_map(|r| mapper.map(r.target).map(|token| encoder.encode(token)))
            .collect();

        assert_eq!(got.len(), functional.len());
        for (s, f) in got.iter().zip(&functional) {
            assert_eq!(&s.payload, f);
        }
    }

    #[test]
    fn stats_count_filtering() {
        let (run, targets) = run_with_targets(100);
        // Accept only two targets.
        let config = IgmConfig::token_stream(&targets[..2]);
        let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
        let bytes: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();
        let mut s = StreamingIgm::new(&config);
        let mut got = Vec::new();
        s.push_bytes(&bytes, &mut got);
        s.finish(&mut got);
        assert_eq!(s.stats().accepted as usize, got.len());
        assert!(s.stats().filtered > 0);
        assert_eq!(s.stats().p2s_dropped, 0);
        let _ = format!("{:?}", VectorFormat::TokenStream);
    }
}
