//! Figure 9: memory usage of all four benchmarks, Ref vs Current.
//!
//! The paper shows O(N^2) memory savings up to 3.8x (36 GB for NiO-64),
//! letting every benchmark fit KNL's 16 GB MCDRAM. We report the same
//! node-memory model (table + N_th engines + N_w walker buffers) for both
//! versions, plus the measured process RSS as a cross-check.

use qmc_bench::{mib, run_report, HarnessConfig};
use qmc_instrument::current_rss_bytes;
use qmc_workloads::{Batching, Benchmark, CodeVersion};

fn main() {
    let cfg = HarnessConfig::from_env();
    println!(
        "== Fig 9: memory usage (model: table + {} engines + {} walkers) ==\n",
        cfg.threads, cfg.walkers
    );
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>10}",
        "workload", "N", "Ref MiB", "Current MiB", "reduction"
    );

    for b in Benchmark::all() {
        let w = cfg.workload(b);
        let mr = run_report(&w, CodeVersion::Ref, &cfg, Batching::PerWalker).total_bytes();
        let mc = run_report(&w, CodeVersion::Current, &cfg, Batching::PerWalker).total_bytes();
        println!(
            "{:<10} {:>6} {:>14.1} {:>14.1} {:>9.2}x",
            w.spec.name,
            w.num_electrons(),
            mib(mr),
            mib(mc),
            mr as f64 / mc as f64
        );
    }
    if let Some(rss) = current_rss_bytes() {
        println!("\nprocess RSS after all runs: {:.1} MiB", mib(rss));
    }
    println!(
        "\n(expected shape per the paper: up to ~3.8x reduction, growing with\n\
         N; NiO-64's Current footprint fits the 16 GB MCDRAM budget.)"
    );
}
