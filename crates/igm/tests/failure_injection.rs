//! Failure injection: the IGM facing corrupted, truncated and hostile
//! trace streams. Hardware keeps running through garbage — it counts
//! errors, resynchronizes on the next A-sync, and never wedges.

use rtad_igm::{Igm, IgmConfig};
use rtad_sim::Picos;
use rtad_trace::stream::{TimedByte, TimedTrace};
use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder, VirtAddr};

fn targets() -> Vec<VirtAddr> {
    (0..8u32)
        .map(|k| VirtAddr::new(0x2000 + k * 0x80))
        .collect()
}

fn clean_run(n: usize) -> (Vec<BranchRecord>, TimedTrace) {
    let t = targets();
    let run: Vec<BranchRecord> = (0..n)
        .map(|i| {
            BranchRecord::new(
                VirtAddr::new(0x1000 + (i as u32) * 4),
                t[i % t.len()],
                BranchKind::IndirectJump,
                (i as u64) * 50,
            )
        })
        .collect();
    let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
    (run, trace)
}

#[test]
fn single_byte_corruption_is_contained() {
    let (run, clean) = clean_run(600);
    let mut igm = Igm::new(IgmConfig::token_stream(&targets()));
    let baseline = igm.process_trace(&clean).vectors.len();
    assert_eq!(baseline, run.len());

    // Flip one mid-stream payload byte.
    let mut corrupted = clean.clone();
    let mid = corrupted.bytes.len() / 2;
    corrupted.bytes[mid].byte ^= 0xA5;

    let mut igm = Igm::new(IgmConfig::token_stream(&targets()));
    let out = igm.process_trace(&corrupted);
    // The stream keeps flowing: we lose at most a sync window of events,
    // never the tail of the trace.
    assert!(
        out.vectors.len() + 1_200 >= baseline,
        "corruption cost {} of {baseline} events",
        baseline - out.vectors.len()
    );
    // And the final events match the clean run's final events (resync
    // recovered the stream).
    let clean_out = Igm::new(IgmConfig::token_stream(&targets()))
        .process_trace(&clean)
        .vectors;
    let tail = 5.min(out.vectors.len());
    assert_eq!(
        out.vectors[out.vectors.len() - tail..]
            .iter()
            .map(|v| v.target)
            .collect::<Vec<_>>(),
        clean_out[clean_out.len() - tail..]
            .iter()
            .map(|v| v.target)
            .collect::<Vec<_>>()
    );
}

#[test]
fn truncated_stream_keeps_prefix() {
    let (_, clean) = clean_run(400);
    let mut truncated = clean.clone();
    truncated.bytes.truncate(clean.bytes.len() / 3);

    let mut igm = Igm::new(IgmConfig::token_stream(&targets()));
    let full = igm.process_trace(&clean).vectors;
    let mut igm = Igm::new(IgmConfig::token_stream(&targets()));
    let part = igm.process_trace(&truncated).vectors;
    assert!(!part.is_empty());
    assert!(part.len() < full.len());
    // Prefix property: everything decoded from the truncation is a
    // prefix of the clean decode.
    for (p, f) in part.iter().zip(&full) {
        assert_eq!(p.target, f.target);
    }
}

#[test]
fn pure_garbage_produces_no_vectors_and_no_panic() {
    let bytes: Vec<TimedByte> = (0..4_096u64)
        .map(|i| TimedByte {
            at: Picos::from_nanos(i * 8),
            byte: (i.wrapping_mul(2654435761) >> 3) as u8,
        })
        .collect();
    let garbage = TimedTrace {
        bytes,
        packet_times: Vec::new(),
        stats: Default::default(),
    };
    let mut igm = Igm::new(IgmConfig::token_stream(&targets()));
    let out = igm.process_trace(&garbage);
    // Garbage may accidentally decode as packets, but nothing should map
    // to our table's addresses more than incidentally, and the TA must
    // have logged decode errors rather than wedging.
    assert!(out.vectors.len() < 64);
}

#[test]
fn repeated_corruption_storm_still_recovers() {
    let (_, clean) = clean_run(2_000);
    let mut stormy = clean.clone();
    // Corrupt every 512th byte.
    let mut i = 64;
    while i < stormy.bytes.len() {
        stormy.bytes[i].byte = !stormy.bytes[i].byte;
        i += 512;
    }
    let mut igm = Igm::new(IgmConfig::token_stream(&targets()));
    let out = igm.process_trace(&stormy);
    // Every 512th byte is slot 0 of a frame. Inverted, a data byte there
    // reads as an ID announcement, mostly of a source other than the
    // PTM, whose bytes the IGM skips until the formatter restates the
    // PTM's ID (at most 16 frames later). Pinned exactly: 407 events
    // survive and 1,427 bytes are skipped as foreign. While the IGM fed
    // every source's bytes to its one PTM decoder, 906 survived.
    assert_eq!(out.vectors.len(), 407);
    assert_eq!(out.stats.foreign_bytes, 1_427);
}
