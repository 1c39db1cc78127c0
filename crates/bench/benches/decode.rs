//! Criterion benchmarks of the decode stage in isolation:
//!
//! * the streaming IGM (TPIU deframe → PTM decode → P2S admission →
//!   encode) over a realistic serving byte stream, in the
//!   allocation-free buffer-recycling regime the pipeline runs in versus
//!   the allocate-per-window regime it replaced;
//! * the bare `PacketDecoder` over seeded, fleet-shaped PTM bytes,
//!   byte-wise `feed` against burst-wise `feed_slice`.
//!
//! CI compiles and smoke-runs this bench so the decode hot path cannot
//! silently rot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use rtad_igm::{IgmConfig, StreamingIgm, VectorPayload};
use rtad_trace::ptm::{Decoded, PacketDecoder};
use rtad_trace::tpiu::{TpiuDeframer, FRAME_BYTES};
use rtad_trace::{BranchKind, BranchRecord, PtmConfig, StreamEncoder, VirtAddr};

fn watch_targets() -> Vec<VirtAddr> {
    (0..16u32)
        .map(|k| VirtAddr::new(0x4000 + k * 0x40))
        .collect()
}

/// Serving-shaped traffic: every 16th branch hits the watchlist, the
/// rest miss, so decode (not inference) dominates — the same shape as
/// `perfbench`'s serving streams.
fn trace_bytes(branches: usize) -> Vec<u8> {
    let targets = watch_targets();
    let run: Vec<BranchRecord> = (0..branches)
        .map(|i| {
            let target = if i % 16 == 0 {
                targets[(i / 16) % targets.len()]
            } else {
                VirtAddr::new(0x9000_0000 + ((i * 52) as u32 % 4096) * 4)
            };
            BranchRecord::new(
                VirtAddr::new(0x1000 + (i as u32 % 8192) * 4),
                target,
                BranchKind::IndirectJump,
                (i as u64) * 30,
            )
        })
        .collect();
    let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
    trace.bytes.iter().map(|tb| tb.byte).collect()
}

fn decode_stage(c: &mut Criterion) {
    let bytes = trace_bytes(4_096);
    let mut group = c.benchmark_group("decode_stage");
    group.throughput(Throughput::Bytes(bytes.len() as u64));

    for (label, recycle) in [("recycled", true), ("alloc_per_window", false)] {
        for config in &[
            ("histogram", IgmConfig::histogram(&watch_targets(), 16)),
            ("token_stream", IgmConfig::token_stream(&watch_targets())),
        ] {
            let (fmt, igm_config) = (&config.0, &config.1);
            // Dense buffers only exist on the histogram path; the
            // token-stream recycling variant would measure the same
            // code twice.
            if !recycle && *fmt == "token_stream" {
                continue;
            }
            group.bench_with_input(
                BenchmarkId::new(format!("{fmt}/{label}"), bytes.len()),
                &bytes,
                |b, bytes| {
                    let mut igm = StreamingIgm::new(igm_config);
                    let mut emitted = Vec::with_capacity(512);
                    b.iter(|| {
                        let mut windows = 0usize;
                        for chunk in bytes.chunks(2048) {
                            igm.push_bytes(chunk, &mut emitted);
                            for v in emitted.drain(..) {
                                windows += 1;
                                if recycle {
                                    if let VectorPayload::Dense(buf) = v.payload {
                                        igm.recycle(buf);
                                    }
                                }
                            }
                        }
                        windows
                    });
                },
            );
        }
    }
    group.finish();
}

/// Seeded, fleet-shaped PTM bytes: one branch in 16 targets a watched
/// address, the rest land anywhere in a 16 KiB region (the shape of the
/// serving benchmark's streams), deframed to the bytes the packet
/// decoder sees.
fn fleet_ptm_bytes(branches: usize, seed: u64) -> Vec<u8> {
    let targets = watch_targets();
    let mut x = seed | 1;
    let mut below = |n: u64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x % n
    };
    let run: Vec<BranchRecord> = (0..branches)
        .map(|i| {
            let target = if below(16) == 0 {
                targets[below(targets.len() as u64) as usize]
            } else {
                VirtAddr::new(0x9000_0000 + below(4096) as u32 * 4)
            };
            BranchRecord::new(
                VirtAddr::new(0x1000 + (i as u32 % 8192) * 4),
                target,
                BranchKind::IndirectJump,
                (i as u64) * 30,
            )
        })
        .collect();
    let trace = StreamEncoder::new(PtmConfig::rtad()).encode_run(&run);
    let framed: Vec<u8> = trace.bytes.iter().map(|tb| tb.byte).collect();
    let mut deframer = TpiuDeframer::new();
    let mut ptm = Vec::new();
    for frame in framed.chunks_exact(FRAME_BYTES) {
        let frame: &[u8; FRAME_BYTES] = frame.try_into().expect("frame-sized");
        let mut data = [0; FRAME_BYTES - 1];
        let n = deframer
            .feed_frame_bytes(frame, &mut data)
            .expect("own frames deframe")
            .ptm;
        ptm.extend_from_slice(&data[..n]);
    }
    ptm
}

fn packet_decoder(c: &mut Criterion) {
    let bytes = fleet_ptm_bytes(4_096, 0x5EED);
    let mut group = c.benchmark_group("packet_decoder");
    group.throughput(Throughput::Bytes(bytes.len() as u64));
    group.bench_with_input(BenchmarkId::new("feed", bytes.len()), &bytes, |b, bytes| {
        b.iter(|| {
            let mut dec = PacketDecoder::new();
            let mut branches = 0usize;
            for &byte in bytes {
                if let Ok(Some(_)) = dec.feed(byte) {
                    branches += 1;
                }
            }
            branches
        });
    });
    // Serving decodes one frame's whole words per burst: 12-16 bytes.
    group.bench_with_input(
        BenchmarkId::new("feed_slice", bytes.len()),
        &bytes,
        |b, bytes| {
            b.iter(|| {
                let mut dec = PacketDecoder::new();
                let mut branches = 0usize;
                for burst in bytes.chunks(16) {
                    dec.feed_slice(burst, |_, d| {
                        if let Decoded::Branch { .. } = d {
                            branches += 1;
                        }
                    });
                }
                branches
            });
        },
    );
    group.finish();
}

criterion_group!(benches, decode_stage, packet_decoder);
criterion_main!(benches);
