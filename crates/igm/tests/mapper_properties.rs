//! The address mapper is an exact lookup table whatever its hasher:
//! `map` agrees with a `BTreeMap` reference built under the same rule
//! (duplicate addresses keep their first token), for probes of mapped
//! and unmapped addresses alike.

use std::collections::BTreeMap;

use proptest::prelude::*;
use proptest::TestCaseError;

use rtad_igm::AddressMapper;
use rtad_trace::VirtAddr;

/// The reference: first token wins.
fn reference(entries: &[(u32, u32)]) -> BTreeMap<u32, u32> {
    let mut table = BTreeMap::new();
    for &(a, t) in entries {
        table.entry(a).or_insert(t);
    }
    table
}

fn check(entries: &[(u32, u32)], probes: &[u32]) -> Result<(), TestCaseError> {
    let mapper = AddressMapper::from_entries(entries.iter().map(|&(a, t)| (VirtAddr::new(a), t)));
    let want = reference(entries);
    prop_assert_eq!(mapper.table_len(), want.len());
    prop_assert_eq!(
        mapper.vocab_size(),
        want.values().max().map_or(0, |&t| t as usize + 1)
    );
    for (&a, &t) in &want {
        prop_assert_eq!(mapper.map(VirtAddr::new(a)), Some(t), "mapped {:#x}", a);
    }
    for &a in probes {
        prop_assert_eq!(
            mapper.map(VirtAddr::new(a)),
            want.get(&a).copied(),
            "probe {:#x}",
            a
        );
    }
    Ok(())
}

proptest! {
    /// Small tables with many duplicate addresses (drawn from a narrow,
    /// word-aligned range) and shared tokens (drawn from a small set).
    #[test]
    fn map_agrees_with_btreemap_on_small_tables(
        entries in proptest::collection::vec((0u32..64, 0u32..8), 0..96),
        probes in proptest::collection::vec(0u32..80, 0..64),
    ) {
        let entries: Vec<(u32, u32)> = entries.iter().map(|&(a, t)| (0x4000 + a * 4, t)).collect();
        let probes: Vec<u32> = probes.iter().map(|&a| 0x4000 + a * 4).collect();
        check(&entries, &probes)?;
    }

    /// Arbitrary 32-bit addresses, including unaligned ones.
    #[test]
    fn map_agrees_with_btreemap_on_arbitrary_addresses(
        entries in proptest::collection::vec((any::<u32>(), 0u32..1024), 0..256),
        probes in proptest::collection::vec(any::<u32>(), 0..256),
    ) {
        let probes: Vec<u32> = probes.into_iter().chain(entries.iter().map(|&(a, _)| a ^ 4)).collect();
        check(&entries, &probes)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// A canary-style deployment: ~100k instruction addresses of a code
    /// region share one canary token, a few hundred entry points carry
    /// their own tokens (listed first, so they win over the canary), and
    /// probes sweep the region and beyond.
    #[test]
    fn map_agrees_with_btreemap_on_a_canary_table(
        base in 0u32..0x1000,
        entry_stride in 16u32..512,
        probe_seed in any::<u64>(),
    ) {
        let base = 0x0040_0000 + base * 0x1000;
        let words = 100_000u32;
        let canary = 400u32;
        let mut entries: Vec<(u32, u32)> = (0..canary)
            .map(|k| (base + (k * entry_stride % words) * 4, k))
            .collect();
        entries.extend((0..words).map(|w| (base + w * 4, canary)));
        let mut x = probe_seed | 1;
        let probes: Vec<u32> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                base.wrapping_sub(0x1000) + (x % u64::from(words * 4 + 0x2000)) as u32
            })
            .collect();
        check(&entries, &probes)?;
    }
}
