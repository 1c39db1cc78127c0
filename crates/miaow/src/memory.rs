//! The engine's device memory.
//!
//! ML-MIAOW "has an AXI bus interface through which bus masters can
//! deliver data [...]. When the data is delivered via the interface,
//! ML-MIAOW stores the data in its internal memory" (§III-B). This is
//! that internal memory: a flat byte array with dword accessors, shared
//! by host-side data staging (the MCM's TX engine writes here) and
//! kernel buffer instructions.

use serde::{Deserialize, Serialize};

/// Flat device memory with 4-byte-aligned dword access.
///
/// # Examples
///
/// ```
/// use rtad_miaow::GpuMemory;
///
/// let mut mem = GpuMemory::new(256);
/// mem.write_f32(8, 3.5);
/// assert_eq!(mem.read_f32(8), 3.5);
/// mem.write_u32(12, 0xdead_beef);
/// assert_eq!(mem.read_u32(12), 0xdead_beef);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GpuMemory {
    bytes: Vec<u8>,
}

impl GpuMemory {
    /// Allocates `size` zeroed bytes.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a multiple of 4.
    pub fn new(size: usize) -> Self {
        assert!(size.is_multiple_of(4), "memory size must be dword-aligned");
        GpuMemory {
            bytes: vec![0; size],
        }
    }

    /// Capacity in bytes.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    /// Reads a dword as `u32`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses — a kernel doing
    /// that has a bug and the simulator should fail loudly.
    pub fn read_u32(&self, addr: usize) -> u32 {
        self.check(addr);
        u32::from_le_bytes(self.bytes[addr..addr + 4].try_into().expect("4 bytes"))
    }

    /// Writes a dword.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    pub fn write_u32(&mut self, addr: usize, value: u32) {
        self.check(addr);
        self.bytes[addr..addr + 4].copy_from_slice(&value.to_le_bytes());
    }

    /// Reads a dword as `f32`.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    pub fn read_f32(&self, addr: usize) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32` dword.
    ///
    /// # Panics
    ///
    /// Panics on unaligned or out-of-range addresses.
    pub fn write_f32(&mut self, addr: usize, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Copies an `f32` slice into memory starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the region runs out of range.
    pub fn write_f32_slice(&mut self, addr: usize, values: &[f32]) {
        for (i, &v) in values.iter().enumerate() {
            self.write_f32(addr + i * 4, v);
        }
    }

    /// Reads `n` consecutive `f32`s starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if the region runs out of range.
    pub fn read_f32_slice(&self, addr: usize, n: usize) -> Vec<f32> {
        (0..n).map(|i| self.read_f32(addr + i * 4)).collect()
    }

    /// Whether `addr` is a valid dword address.
    pub fn contains(&self, addr: usize) -> bool {
        addr.is_multiple_of(4) && addr + 4 <= self.bytes.len()
    }

    fn check(&self, addr: usize) {
        assert!(
            self.contains(addr),
            "invalid dword access at {addr:#x} (size {:#x})",
            self.bytes.len()
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips_values() {
        let mut m = GpuMemory::new(64);
        m.write_f32(0, -1.25);
        m.write_u32(4, 42);
        assert_eq!(m.read_f32(0), -1.25);
        assert_eq!(m.read_u32(4), 42);
    }

    #[test]
    fn slice_helpers() {
        let mut m = GpuMemory::new(64);
        m.write_f32_slice(16, &[1.0, 2.0, 3.0]);
        assert_eq!(m.read_f32_slice(16, 3), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    #[should_panic(expected = "invalid dword access")]
    fn unaligned_access_panics() {
        GpuMemory::new(64).read_u32(2);
    }

    #[test]
    #[should_panic(expected = "invalid dword access")]
    fn out_of_range_access_panics() {
        GpuMemory::new(64).read_u32(64);
    }

    #[test]
    #[should_panic(expected = "dword-aligned")]
    fn odd_size_rejected() {
        GpuMemory::new(63);
    }

    #[test]
    fn contains_checks_bounds_and_alignment() {
        let m = GpuMemory::new(8);
        assert!(m.contains(0));
        assert!(m.contains(4));
        assert!(!m.contains(5));
        assert!(!m.contains(8));
    }
}
