//! RTAD's Input Generation Module (IGM).
//!
//! The IGM (paper §III-A, Fig. 2) sits between the CoreSight TPIU output
//! and the ML Computing Module. Its job is the paper's first challenge:
//! *collect and transfer branch data to the ML model in a timely
//! fashion*, entirely in hardware. It comprises:
//!
//! * [`TraceAnalyzer`] — receives the 32-bit trace stream and decodes
//!   PTM packets byte-sequentially with **four TA units** (one per byte
//!   lane), extracting branch target addresses. Up to four addresses can
//!   complete in one cycle (four single-byte branch packets in one
//!   word), hence:
//! * [`P2sConverter`] — a parallel-to-serial stage that serializes
//!   same-cycle addresses toward the vector generator, one per cycle.
//! * [`InputVectorGenerator`] — the IVG: an [`AddressMapper`] lookup
//!   table that passes only the addresses relevant to the deployed ML
//!   model (e.g. syscall entries, API entry points, or all branch
//!   targets), and a [`VectorEncoder`] that converts the filtered stream
//!   into the model's input format via a configurable conversion table.
//!   The paper measures the IVG at 2 cycles (16 ns at 125 MHz).
//!
//! [`Igm`] composes the three with cycle-accurate timing at the MLPU
//! clock and reports the Table I area figures via [`Igm::area`].
//!
//! # Examples
//!
//! End to end: a branch run through PTM/TPIU, then through the IGM.
//!
//! ```
//! use rtad_igm::{Igm, IgmConfig};
//! use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder, VirtAddr};
//!
//! let run: Vec<BranchRecord> = (0..100)
//!     .map(|i| BranchRecord::new(
//!         VirtAddr::new(0x1000 + i * 4),
//!         VirtAddr::new(0x2000 + (i % 4) * 0x100),
//!         BranchKind::IndirectJump,
//!         (i as u64) * 40,
//!     ))
//!     .collect();
//! let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
//!
//! // Accept all four targets the run uses; encode as token IDs.
//! let targets: Vec<VirtAddr> = (0..4).map(|k| VirtAddr::new(0x2000 + k * 0x100)).collect();
//! let mut igm = Igm::new(IgmConfig::token_stream(&targets));
//! let out = igm.process_trace(&trace);
//! assert_eq!(out.vectors.len(), 100);
//! ```

pub mod ivg;
pub mod module;
pub mod p2s;
pub mod streaming;
pub mod ta;

pub use ivg::{AddressMapper, InputVectorGenerator, VectorEncoder, VectorFormat, VectorPayload};
pub use module::{Igm, IgmConfig, IgmOutput, IgmStats, TimedVector};
pub use p2s::P2sConverter;
pub use streaming::{IgmSession, IgmShared, StreamedVector, StreamingIgm, StreamingStats};
pub use ta::{DecodedAddress, TraceAnalyzer};
