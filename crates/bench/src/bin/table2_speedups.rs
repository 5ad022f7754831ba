//! Table 2: "Speedup of Current over Ref" for all four benchmarks.
//!
//! The paper reports three platforms (BG/Q, BDW, KNL); this reproduction
//! has one host, reported as a single row. The expected shape: speedups in
//! the 1.3-5x band, largest for the biggest problem (NiO-64), smallest for
//! the all-electron Be-64 / small problems.

use qmc_bench::{run_report, HarnessConfig};
use qmc_workloads::{Batching, Benchmark, CodeVersion};

fn main() {
    let cfg = HarnessConfig::from_env();
    println!("== Table 2: speedup of Current over Ref ==\n");
    println!("paper values for reference:");
    println!(
        "{:<8} {:>10} {:>8} {:>8} {:>8}",
        "", "Graphite", "Be-64", "NiO-32", "NiO-64"
    );
    println!("{:<8} {:>10} {:>8} {:>8} {:>8}", "BG/Q", 1.6, 1.3, 1.3, 2.4);
    println!("{:<8} {:>10} {:>8} {:>8} {:>8}", "BDW", 2.9, 3.4, 2.6, 5.2);
    println!("{:<8} {:>10} {:>8} {:>8} {:>8}", "KNL", 2.2, 2.9, 2.4, 2.4);
    println!();

    let crowd = cfg.walkers.clamp(1, 4);
    print!("{:<8}", "host");
    let mut speedups = Vec::new();
    let mut crowd_speedups = Vec::new();
    for b in Benchmark::all() {
        let w = cfg.workload(b);
        let r = run_report(&w, CodeVersion::Ref, &cfg, Batching::PerWalker);
        let c = run_report(&w, CodeVersion::Current, &cfg, Batching::PerWalker);
        // Crowd batching drives the fused multi-walker SPO kernel
        // (`Bspline-mw-vgl`), so the table also reports the batched path.
        let cc = run_report(&w, CodeVersion::Current, &cfg, Batching::Crowd(crowd));
        let s = c.throughput() / r.throughput();
        speedups.push((w.spec.name, s));
        crowd_speedups.push((w.spec.name, cc.throughput() / r.throughput()));
        print!("{s:>9.1}x");
    }
    println!();
    print!("{:<8}", "+crowd");
    for (_, s) in &crowd_speedups {
        print!("{s:>9.1}x");
    }
    println!();
    println!("\nmeasured (this host, {:?} size):", cfg.size());
    for (name, s) in &speedups {
        println!("  {name:<10} {s:.2}x");
    }
    let min = speedups
        .iter()
        .map(|(_, s)| *s)
        .fold(f64::INFINITY, f64::min);
    println!(
        "\nall speedups >= 1: {}",
        if min >= 1.0 {
            "yes"
        } else {
            "NO (investigate)"
        }
    );
}
