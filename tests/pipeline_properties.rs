//! Property-based tests over the full hardware pipeline.

use proptest::prelude::*;

use rtad::igm::{Igm, IgmConfig};
use rtad::trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder, VirtAddr};

fn arb_kind() -> impl Strategy<Value = BranchKind> {
    prop_oneof![
        Just(BranchKind::DirectJump),
        Just(BranchKind::Call),
        Just(BranchKind::Return),
        Just(BranchKind::IndirectJump),
        Just(BranchKind::Syscall),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any branch run over a small target set, the IGM recovers the
    /// accepted branches exactly, in order, with monotone timestamps —
    /// through PTM encoding, FIFO batching, TPIU framing, TA decode, P2S
    /// serialization and IVG encoding.
    #[test]
    fn igm_recovers_branch_sequences(
        picks in proptest::collection::vec((0u32..12, arb_kind(), 1u64..300), 1..400)
    ) {
        let targets: Vec<VirtAddr> =
            (0..12).map(|k| VirtAddr::new(0x4000 + k * 0x40)).collect();
        let mut cycle = 0u64;
        let run: Vec<BranchRecord> = picks
            .iter()
            .enumerate()
            .map(|(i, &(t, kind, gap))| {
                cycle += gap;
                BranchRecord::new(
                    VirtAddr::new(0x1000 + (i as u32) * 4),
                    targets[t as usize],
                    kind,
                    cycle,
                )
            })
            .collect();

        let mut cfg = PtmConfig::rtad();
        cfg.fifo_bytes = 8192; // integrity property: no overflow losses
        cfg.flush_threshold = 256;
        let trace = StreamEncoder::new(cfg).encode_run(&run);
        prop_assert_eq!(trace.stats.overflow_packets, 0);

        let mut igm = Igm::new(IgmConfig::token_stream(&targets));
        let out = igm.process_trace(&trace);

        prop_assert_eq!(out.vectors.len(), run.len());
        for (v, r) in out.vectors.iter().zip(&run) {
            prop_assert_eq!(v.target, r.target);
        }
        prop_assert!(out.vectors.windows(2).all(|w| w[0].at <= w[1].at));
        prop_assert_eq!(out.stats.p2s_dropped, 0);
    }

    /// The mapper filters exactly the complement of the table, for any
    /// run and any table subset.
    #[test]
    fn mapper_filters_complement(
        picks in proptest::collection::vec(0u32..16, 1..300),
        table_mask in 1u16..u16::MAX
    ) {
        let all: Vec<VirtAddr> = (0..16).map(|k| VirtAddr::new(0x8000 + k * 0x20)).collect();
        let table: Vec<VirtAddr> = all
            .iter()
            .enumerate()
            .filter(|(i, _)| table_mask & (1 << i) != 0)
            .map(|(_, &a)| a)
            .collect();
        let run: Vec<BranchRecord> = picks
            .iter()
            .enumerate()
            .map(|(i, &t)| {
                BranchRecord::new(
                    VirtAddr::new(0x100 + (i as u32) * 4),
                    all[t as usize],
                    BranchKind::IndirectJump,
                    (i as u64 + 1) * 40,
                )
            })
            .collect();
        let expected = run
            .iter()
            .filter(|r| table.contains(&r.target))
            .count();

        let mut cfg = PtmConfig::rtad();
        cfg.fifo_bytes = 8192;
        let trace = StreamEncoder::new(cfg).encode_run(&run);
        let out = Igm::new(IgmConfig::token_stream(&table)).process_trace(&trace);
        prop_assert_eq!(out.vectors.len(), expected);
    }
}
