//! The Input Vector Generator: address mapper + vector encoder.
//!
//! "IVG is largely divided into two sub-blocks: the address mapper and
//! vector encoder (VE). The address mapper lets only the relevant branch
//! addresses be passed by filtering out the addresses not existing
//! within a lookup table. Users can configure the table to select
//! branches related to their ML models, such as system calls or critical
//! API function calls [...]. The filtered address values are transferred
//! in real time to VE as input and then converted into vector format
//! following a conversion table that can be configured to match the need
//! of target ML models." (§III-A)
//!
//! Two conversion-table shapes cover the paper's two models:
//!
//! * [`VectorFormat::TokenStream`] — one token ID per accepted address;
//!   the LSTM's input (Yi et al., general branches).
//! * [`VectorFormat::WindowHistogram`] — a sliding-window frequency
//!   vector over the accepted token alphabet; the ELM's input (Creech &
//!   Hu-style syscall features).
//!
//! The whole IVG takes 2 MLPU cycles (the paper's measured 16 ns).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use rtad_sim::{AreaEstimate, ClockDomain, Picos};
use rtad_trace::VirtAddr;

use crate::ta::DecodedAddress;

/// Hasher of the address-mapper table: one multiply by a 64-bit odd
/// constant, folded so the bucket index (low bits) and hashbrown's tag
/// (top bits) both depend on every address bit.
///
/// It is not flood-resistant, and need not be: the table's keys are
/// chosen by the deployer, and trace input only probes them. A probe
/// cannot insert, so hostile trace cannot lengthen any probe sequence;
/// the cost of a lookup is fixed by the deployed table alone.
#[derive(Debug, Clone, Copy, Default)]
struct AddrHasher(u64);

/// 2^64 / φ, the Fibonacci-hashing multiplier.
const FIB_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

impl Hasher for AddrHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        let x = (self.0 ^ u64::from(n)).wrapping_mul(FIB_MUL);
        self.0 = x ^ (x >> 32);
    }
}

/// The configurable lookup table: address → feature token.
///
/// Addresses absent from the table are filtered out (never reach the ML
/// model). Lookups hash the address with one multiply instead of
/// SipHash: trace input only probes the deployer's keys, so no input
/// can make a probe longer.
///
/// # Examples
///
/// ```
/// use rtad_igm::AddressMapper;
/// use rtad_trace::VirtAddr;
///
/// let mapper = AddressMapper::from_targets([VirtAddr::new(0x100), VirtAddr::new(0x200)]);
/// assert_eq!(mapper.map(VirtAddr::new(0x100)), Some(0));
/// assert_eq!(mapper.map(VirtAddr::new(0x200)), Some(1));
/// assert_eq!(mapper.map(VirtAddr::new(0x999)), None); // filtered
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct AddressMapper {
    table: HashMap<VirtAddr, u32, BuildHasherDefault<AddrHasher>>,
}

impl AddressMapper {
    /// Builds a table assigning consecutive tokens to `targets` in
    /// iteration order. Duplicate addresses keep their first token.
    pub fn from_targets<I: IntoIterator<Item = VirtAddr>>(targets: I) -> Self {
        let mut table = HashMap::default();
        let mut next = 0u32;
        for a in targets {
            table.entry(a).or_insert_with(|| {
                let t = next;
                next += 1;
                t
            });
        }
        AddressMapper { table }
    }

    /// Builds a table from explicit `(address, token)` entries. Several
    /// addresses may share one token — how a deployment maps a large
    /// class of addresses (e.g. every non-entry instruction address, as
    /// a gadget canary) onto a single model input. Duplicate addresses
    /// keep their first token.
    pub fn from_entries<I: IntoIterator<Item = (VirtAddr, u32)>>(entries: I) -> Self {
        let mut table = HashMap::default();
        for (a, t) in entries {
            table.entry(a).or_insert(t);
        }
        AddressMapper { table }
    }

    /// Number of table entries (mapped addresses).
    pub fn table_len(&self) -> usize {
        self.table.len()
    }

    /// The model's vocabulary size: one past the largest token.
    pub fn vocab_size(&self) -> usize {
        self.table
            .values()
            .copied()
            .max()
            .map_or(0, |t| t as usize + 1)
    }

    /// Looks up an address; `None` means "filtered out".
    pub fn map(&self, addr: VirtAddr) -> Option<u32> {
        self.table.get(&addr).copied()
    }

    /// Whether the table is empty (everything would be filtered).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Estimated resident bytes of the lookup table: allocated-bucket
    /// payload plus hashbrown's one control byte per bucket. An
    /// estimate (the allocator's rounding is not visible), used by the
    /// sparse serving report's memory accounting — where the whole
    /// point is that this cost is paid once per deployment, not once
    /// per stream.
    pub fn resident_bytes_estimate(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.table.capacity() * (std::mem::size_of::<(VirtAddr, u32)>() + 1)
    }
}

/// The conversion-table shape of the vector encoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum VectorFormat {
    /// Emit one token ID per accepted address (LSTM-style input).
    TokenStream,
    /// Emit a normalized frequency histogram over the last `window`
    /// accepted tokens, one vector per accepted address (ELM-style).
    WindowHistogram {
        /// Sliding-window length in accepted events.
        window: usize,
    },
}

/// One encoded input vector.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum VectorPayload {
    /// A single token ID.
    Token(u32),
    /// A dense feature vector (histogram form).
    Dense(Vec<f32>),
}

impl VectorPayload {
    /// The token, if this is a token payload.
    pub fn as_token(&self) -> Option<u32> {
        match self {
            VectorPayload::Token(t) => Some(*t),
            VectorPayload::Dense(_) => None,
        }
    }

    /// The dense vector, if this is a dense payload.
    pub fn as_dense(&self) -> Option<&[f32]> {
        match self {
            VectorPayload::Dense(v) => Some(v),
            VectorPayload::Token(_) => None,
        }
    }

    /// Size of this payload on the MCM bus, in bytes (token: one 32-bit
    /// word; dense: one 32-bit word per element).
    pub fn wire_bytes(&self) -> usize {
        match self {
            VectorPayload::Token(_) => 4,
            VectorPayload::Dense(v) => v.len() * 4,
        }
    }
}

/// The vector encoder: applies the conversion table.
#[derive(Debug, Clone)]
pub struct VectorEncoder {
    format: VectorFormat,
    vocab: usize,
    /// Ring of recent tokens for the histogram form.
    window: Vec<u32>,
    head: usize,
    filled: usize,
    /// Running counts so histogram emission is O(1) amortized.
    counts: Vec<u32>,
}

impl VectorEncoder {
    /// Creates an encoder over a vocabulary of `vocab` tokens.
    ///
    /// # Panics
    ///
    /// Panics if a histogram format has a zero-length window or the
    /// vocabulary is empty.
    pub fn new(format: VectorFormat, vocab: usize) -> Self {
        assert!(vocab > 0, "vector encoder needs a non-empty vocabulary");
        if let VectorFormat::WindowHistogram { window } = format {
            assert!(window > 0, "histogram window must be non-zero");
        }
        // Token-stream encoders carry no window and no counts: tokens
        // pass through untouched, so a per-stream session costs no
        // heap at all (the sparse serving path keeps one encoder per
        // registered stream — at 100k streams a vocab-sized counts
        // vector here would dominate idle memory for nothing).
        let (window_len, counts_len) = match format {
            VectorFormat::TokenStream => (0, 0),
            VectorFormat::WindowHistogram { window } => (window, vocab),
        };
        VectorEncoder {
            format,
            vocab,
            window: vec![0; window_len],
            head: 0,
            filled: 0,
            counts: vec![0; counts_len],
        }
    }

    /// The configured format.
    pub fn format(&self) -> VectorFormat {
        self.format
    }

    /// Heap bytes owned by this encoder's per-stream state (the sliding
    /// token window and running counts). Token-stream encoders own no
    /// window, so they report only the counts vector.
    pub fn resident_heap_bytes(&self) -> usize {
        self.window.capacity() * std::mem::size_of::<u32>()
            + self.counts.capacity() * std::mem::size_of::<u32>()
    }

    /// Encodes one accepted token.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn encode(&mut self, token: u32) -> VectorPayload {
        let mut empty_pool = Vec::new();
        self.encode_pooled(token, &mut empty_pool)
    }

    /// Encodes one accepted token, drawing any dense-payload buffer from
    /// `pool` instead of the heap. Payloads are bit-identical to
    /// [`VectorEncoder::encode`]'s; token payloads never touch the pool.
    ///
    /// A steady-state session recycles scored window buffers back into
    /// its pool, so histogram emission allocates only while the pool
    /// warms up.
    ///
    /// # Panics
    ///
    /// Panics if `token` is outside the vocabulary.
    pub fn encode_pooled(&mut self, token: u32, pool: &mut Vec<Vec<f32>>) -> VectorPayload {
        assert!(
            (token as usize) < self.vocab,
            "token {token} outside vocabulary of {}",
            self.vocab
        );
        match self.format {
            VectorFormat::TokenStream => VectorPayload::Token(token),
            VectorFormat::WindowHistogram { window } => {
                if self.filled == window {
                    let evicted = self.window[self.head];
                    self.counts[evicted as usize] -= 1;
                } else {
                    self.filled += 1;
                }
                self.window[self.head] = token;
                self.head = (self.head + 1) % window;
                self.counts[token as usize] += 1;
                let denom = self.filled as f32;
                let mut buf = pool.pop().unwrap_or_default();
                buf.clear();
                buf.extend(self.counts.iter().map(|&c| c as f32 / denom));
                VectorPayload::Dense(buf)
            }
        }
    }
}

/// The composed IVG with its 2-cycle latency.
#[derive(Debug, Clone)]
pub struct InputVectorGenerator {
    mapper: AddressMapper,
    encoder: VectorEncoder,
    clock: ClockDomain,
    accepted: u64,
    filtered: u64,
}

/// The paper-measured IVG pipeline depth in MLPU cycles ("requires only
/// 2 cycles (16ns)").
pub const IVG_CYCLES: u64 = 2;

impl InputVectorGenerator {
    /// Creates an IVG.
    pub fn new(mapper: AddressMapper, format: VectorFormat, clock: ClockDomain) -> Self {
        let vocab = mapper.vocab_size().max(1);
        InputVectorGenerator {
            mapper,
            encoder: VectorEncoder::new(format, vocab),
            clock,
            accepted: 0,
            filtered: 0,
        }
    }

    /// Table I synthesis result for the IVG.
    pub fn area() -> AreaEstimate {
        AreaEstimate::new(890, 1_067, 0, 10_430)
    }

    /// Addresses accepted so far.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Addresses filtered out so far.
    pub fn filtered(&self) -> u64 {
        self.filtered
    }

    /// The address mapper in use.
    pub fn mapper(&self) -> &AddressMapper {
        &self.mapper
    }

    /// Processes one serialized address. Returns the encoded vector,
    /// timestamped `IVG_CYCLES` after the input, or `None` if the
    /// address was filtered by the mapper.
    pub fn process(&mut self, addr: &DecodedAddress) -> Option<(Picos, VectorPayload)> {
        match self.mapper.map(addr.target) {
            None => {
                self.filtered += 1;
                None
            }
            Some(token) => {
                self.accepted += 1;
                let payload = self.encoder.encode(token);
                let done = addr.at + self.clock.cycles_to_picos(IVG_CYCLES);
                Some((done, payload))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtad_trace::IsetMode;

    fn decoded(addr: u32, at_ns: u64) -> DecodedAddress {
        DecodedAddress {
            target: VirtAddr::new(addr),
            mode: IsetMode::Arm,
            exception: None,
            context_id: 0,
            at: Picos::from_nanos(at_ns),
            unit: 0,
        }
    }

    #[test]
    fn mapper_assigns_stable_tokens() {
        let m = AddressMapper::from_targets([
            VirtAddr::new(0x10),
            VirtAddr::new(0x20),
            VirtAddr::new(0x10), // duplicate keeps first token
            VirtAddr::new(0x30),
        ]);
        assert_eq!(m.vocab_size(), 3);
        assert_eq!(m.map(VirtAddr::new(0x10)), Some(0));
        assert_eq!(m.map(VirtAddr::new(0x30)), Some(2));
    }

    #[test]
    fn token_stream_passes_tokens() {
        let mut e = VectorEncoder::new(VectorFormat::TokenStream, 8);
        assert_eq!(e.encode(3), VectorPayload::Token(3));
        assert_eq!(e.encode(3).wire_bytes(), 4);
    }

    #[test]
    fn histogram_slides_and_normalizes() {
        let mut e = VectorEncoder::new(VectorFormat::WindowHistogram { window: 2 }, 3);
        let v1 = e.encode(0);
        assert_eq!(v1.as_dense().unwrap(), &[1.0, 0.0, 0.0]);
        let v2 = e.encode(1);
        assert_eq!(v2.as_dense().unwrap(), &[0.5, 0.5, 0.0]);
        // Window is 2: token 0 falls out.
        let v3 = e.encode(2);
        assert_eq!(v3.as_dense().unwrap(), &[0.0, 0.5, 0.5]);
    }

    #[test]
    fn histogram_sums_to_one() {
        let mut e = VectorEncoder::new(VectorFormat::WindowHistogram { window: 16 }, 5);
        for i in 0..100u32 {
            let v = e.encode(i % 5);
            let s: f32 = v.as_dense().unwrap().iter().sum();
            assert!((s - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    #[should_panic(expected = "outside vocabulary")]
    fn out_of_vocab_token_panics() {
        VectorEncoder::new(VectorFormat::TokenStream, 2).encode(2);
    }

    #[test]
    fn ivg_filters_and_timestamps() {
        let mapper = AddressMapper::from_targets([VirtAddr::new(0x100)]);
        let mut ivg =
            InputVectorGenerator::new(mapper, VectorFormat::TokenStream, ClockDomain::rtad_mlpu());
        assert!(ivg.process(&decoded(0x999, 8)).is_none());
        let (t, payload) = ivg.process(&decoded(0x100, 8)).unwrap();
        // 2 cycles at 125 MHz = 16 ns after the 8 ns input.
        assert_eq!(t, Picos::from_nanos(24));
        assert_eq!(payload, VectorPayload::Token(0));
        assert_eq!(ivg.accepted(), 1);
        assert_eq!(ivg.filtered(), 1);
    }

    #[test]
    fn area_matches_table_i() {
        let a = InputVectorGenerator::area();
        assert_eq!((a.luts, a.ffs, a.gates), (890, 1_067, 10_430));
    }
}
