//! The PFT-style PTM packet protocol: packet taxonomy, encoder, decoder.
//!
//! # Wire format
//!
//! The format is a documented simplification of ARM PFT v1.1 — the same
//! packet classes and the same differential branch-address compression,
//! with a simple fixed header map:
//!
//! | Header byte | Packet |
//! |---|---|
//! | `0x00` × 5 then `0x80` | A-sync (alignment synchronization) |
//! | bit 0 = 1 | Branch-address packet, 1–5 bytes (+1 exception byte) |
//! | `0x08` | I-sync: 4-byte address, info byte, 4-byte context ID |
//! | bit 7 = 1, bit 0 = 0 | Atom (waypoint) packet: up to 31 E atoms + optional N |
//! | `0x6E` | Context-ID: 4-byte payload |
//! | `0x42` | Timestamp: 7-bit continuation varint, ≤ 10 bytes |
//! | `0x76` | Overflow marker |
//! | `0x66` | Ignore (padding) |
//!
//! ## Branch-address compression
//!
//! A branch target is carried as a 31-bit halfword index (`addr >> 1`)
//! split into bit groups of 6, 7, 7, 7 and 4 bits. Bytes 0–3 set bit 7
//! when another byte follows; the final (fifth) byte additionally carries
//! the instruction-set mode (bit 4) and an exception flag (bit 5). Groups
//! not transmitted are inherited from the previously decoded address —
//! short packets for near branches, full packets only when the target is
//! far, the mode changes or an exception is reported. This is the
//! property the IGM Trace Analyzer's byte-sequential decoding (four TA
//! units) exists to handle.

pub mod decode;
pub mod encode;
pub mod packet;

pub use decode::{DecodeError, Decoded, PacketDecoder};
pub use encode::PacketEncoder;
pub use packet::Packet;

/// Number of halfword-index bits carried by each branch-address byte.
pub(crate) const GROUP_BITS: [u32; 5] = [6, 7, 7, 7, 4];

/// Cumulative shift of each branch-address group.
pub(crate) const GROUP_SHIFT: [u32; 5] = [0, 6, 13, 20, 27];

/// Mask for each branch-address group (unshifted).
pub(crate) fn group_mask(i: usize) -> u32 {
    (1u32 << GROUP_BITS[i]) - 1
}

#[cfg(test)]
mod tests {
    use super::packet::Packet;
    use super::{PacketDecoder, PacketEncoder};
    use crate::branch::{IsetMode, VirtAddr};

    fn roundtrip(packets: &[Packet]) -> Vec<Packet> {
        let mut enc = PacketEncoder::new();
        let mut bytes = Vec::new();
        for p in packets {
            bytes.extend(enc.encode(p));
        }
        let mut dec = PacketDecoder::new();
        bytes
            .iter()
            .filter_map(|&b| dec.feed(b).expect("decode error"))
            .collect()
    }

    #[test]
    fn roundtrip_mixed_stream() {
        let stream = vec![
            Packet::Async,
            Packet::Isync {
                addr: VirtAddr::new(0x0001_0000),
                mode: IsetMode::Arm,
                context_id: 7,
            },
            Packet::branch(VirtAddr::new(0x0001_0040), IsetMode::Arm),
            Packet::Atom {
                e_count: 5,
                n_atom: true,
            },
            Packet::branch(VirtAddr::new(0x0001_0044), IsetMode::Arm),
            Packet::ContextId(42),
            Packet::branch(VirtAddr::new(0x8000_0000), IsetMode::Thumb),
            Packet::Timestamp(123_456_789_000),
            Packet::Overflow,
            Packet::Ignore,
            Packet::BranchAddress {
                target: VirtAddr::new(0xffff_0008),
                mode: IsetMode::Arm,
                exception: Some(11),
            },
        ];
        assert_eq!(roundtrip(&stream), stream);
    }

    #[test]
    fn near_branch_is_one_byte() {
        let mut enc = PacketEncoder::new();
        enc.encode(&Packet::Isync {
            addr: VirtAddr::new(0x0001_0000),
            mode: IsetMode::Arm,
            context_id: 0,
        });
        // Target within the low 6 halfword-index bits of the previous
        // address: single byte on the wire.
        let bytes = enc.encode(&Packet::branch(VirtAddr::new(0x0001_0010), IsetMode::Arm));
        assert_eq!(bytes.len(), 1);
    }

    #[test]
    fn far_branch_is_five_bytes() {
        let mut enc = PacketEncoder::new();
        enc.encode(&Packet::Async);
        let bytes = enc.encode(&Packet::branch(VirtAddr::new(0xf000_0000), IsetMode::Arm));
        assert_eq!(bytes.len(), 5);
    }

    #[test]
    fn exception_branch_has_trailing_info_byte() {
        let mut enc = PacketEncoder::new();
        enc.encode(&Packet::Async);
        let bytes = enc.encode(&Packet::BranchAddress {
            target: VirtAddr::new(0x10),
            mode: IsetMode::Arm,
            exception: Some(3),
        });
        assert_eq!(bytes.len(), 6);
        assert_eq!(bytes[5] & 0x80, 0);
    }
}
