//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run --release -p rtad-bench --bin repro -- all
//! cargo run --release -p rtad-bench --bin repro -- table1 table2 fig6 fig7
//! cargo run --release -p rtad-bench --bin repro -- fig8          # 3-benchmark subset
//! cargo run --release -p rtad-bench --bin repro -- fig8-full     # all twelve
//! cargo run --release -p rtad-bench --bin repro -- fig8-full --serial
//! ```
//!
//! Sweeps run on the batched sweep runner (one worker per core) by
//! default; `--serial` opts back into the plain serial loops. Either
//! way the tables and figures are byte-identical — only host wall-clock
//! changes. `fig8-full` additionally writes `BENCH_pr2.json` (host
//! perf telemetry; schema in EXPERIMENTS.md) to the working directory.
//! Serving performance is measured by the `perfbench` package at the
//! repository root.

use std::time::Instant;

use rtad_bench::{
    measure_engine_speedup, BenchReport, Fig6, Fig7, Fig8, Table1, Table2, REPRO_SEED,
};
use rtad_soc::sweep_threads;
use rtad_workloads::Benchmark;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let serial = args.iter().any(|a| a == "--serial");
    let targets: Vec<&str> = args
        .iter()
        .map(String::as_str)
        .filter(|&a| a != "--serial")
        .collect();
    let wanted: Vec<&str> = if targets.is_empty() {
        vec!["all"]
    } else {
        targets
    };
    let has = |name: &str| wanted.iter().any(|&w| w == name || w == "all");
    let run_fig8 = |benches: &[Benchmark]| {
        if serial {
            Fig8::run_serial(benches)
        } else {
            Fig8::run(benches)
        }
    };

    if has("table1") {
        println!("{}\n", Table1::run());
    }
    if has("table2") {
        println!("{}\n", Table2::run());
    }
    if has("fig6") {
        println!("{}\n", Fig6::run(60_000));
    }
    if has("fig7") {
        println!("{}\n", Fig7::run(4_000));
    }
    if has("fig8") && !wanted.contains(&"fig8-full") {
        // A representative subset: a small memory-bound program, a
        // mid-size chess engine, and the paper's branch-pressure worst
        // case.
        println!(
            "{}\n",
            run_fig8(&[Benchmark::Mcf, Benchmark::Sjeng, Benchmark::Omnetpp])
        );
    }
    if wanted.contains(&"fig8-full") {
        let mode = if serial { "serial" } else { "parallel" };
        let threads = if serial { 1 } else { sweep_threads() };
        let mut report = BenchReport::new(REPRO_SEED, mode, threads);

        let start = Instant::now();
        let fig8 = run_fig8(&Benchmark::ALL);
        report.push_stage("fig8_sweep", start.elapsed());
        println!("{fig8}\n");

        let start = Instant::now();
        report.engine = Some(measure_engine_speedup(REPRO_SEED, 8));
        report.push_stage("engine_speedup", start.elapsed());

        let path = std::path::Path::new("BENCH_pr2.json");
        match report.write_to(path) {
            Ok(()) => eprintln!("wrote {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    if wanted.iter().all(|w| {
        ![
            "all",
            "table1",
            "table2",
            "fig6",
            "fig7",
            "fig8",
            "fig8-full",
        ]
        .contains(w)
    }) {
        eprintln!(
            "unknown target(s) {wanted:?}; expected any of: \
             table1 table2 fig6 fig7 fig8 fig8-full all [--serial]"
        );
        std::process::exit(2);
    }
}
