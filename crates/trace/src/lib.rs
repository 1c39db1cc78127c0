//! ARM CoreSight PTM / TPIU trace protocol model.
//!
//! RTAD's Input Generation Module is fed by the host CPU's CoreSight
//! **Program Flow Trace Macrocell** (PTM) through the **Trace Port
//! Interface Unit** (TPIU). This crate models that path:
//!
//! * [`branch`] — the architectural branch events a program produces
//!   ([`BranchRecord`], [`BranchKind`]).
//! * [`ptm`] — a PFT-style packet protocol: byte-oriented, with
//!   differentially-compressed branch-address packets, atom (waypoint)
//!   packets, I-sync/A-sync synchronization, context-ID and timestamp
//!   packets. Both an encoder and a resumable decoder (fed a byte or a
//!   burst at a time, over one state machine) are
//!   provided; the decoder is the reference against which the IGM Trace
//!   Analyzer is verified.
//! * [`tpiu`] — the CoreSight formatter: 16-byte frames that interleave
//!   multiple trace-source IDs onto one port.
//! * [`stream`] — turning a program's branch stream into a timed packet
//!   stream, including the PTM internal-FIFO batching model that the
//!   paper identifies as the dominant term of RTAD's transfer latency
//!   ("PTM does not send the packets until enough packets are buffered
//!   in the FIFO inside the ARM CPU", Fig. 7).
//! * [`hostile`] — seeded damage (bit flips, reserved-ID frames, desync
//!   floods, malformed branch packets, mid-frame cuts) for robustness
//!   tests of everything that consumes the stream.
//!
//! The packet format is a documented simplification of ARM's PFT v1.1
//! (IHI0035): same packet taxonomy, same differential address
//! compression idea, but with a fixed simple header map (see
//! [`ptm::packet`]). DESIGN.md records this substitution.
//!
//! # Examples
//!
//! Round-tripping a branch-address packet stream:
//!
//! ```
//! use rtad_trace::ptm::{PacketDecoder, PacketEncoder, Packet};
//! use rtad_trace::{IsetMode, VirtAddr};
//!
//! let mut enc = PacketEncoder::new();
//! let mut bytes = Vec::new();
//! bytes.extend(enc.encode(&Packet::Async));
//! bytes.extend(enc.encode(&Packet::branch(VirtAddr::new(0x0001_0440), IsetMode::Arm)));
//! bytes.extend(enc.encode(&Packet::branch(VirtAddr::new(0x0001_0448), IsetMode::Arm)));
//!
//! let mut dec = PacketDecoder::new();
//! let decoded: Vec<Packet> = bytes.iter().filter_map(|&b| dec.feed(b).unwrap()).collect();
//! assert_eq!(decoded.len(), 3);
//! ```

pub mod branch;
pub mod hostile;
pub mod ptm;
pub mod stream;
pub mod tpiu;

pub use branch::{BranchKind, BranchRecord, IsetMode, VirtAddr};
pub use ptm::{DecodeError, Packet, PacketDecoder, PacketEncoder};
pub use stream::{PtmConfig, PtmFifoModel, StreamEncoder, TimedByte, TimedTrace, TraceMode};
pub use tpiu::{TpiuDeframer, TpiuFormatter, TraceId};
