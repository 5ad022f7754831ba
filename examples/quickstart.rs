//! Quickstart: run the paper's headline comparison in a dozen lines.
//!
//! Builds the NiO-32 benchmark workload (scaled to laptop size), runs a
//! short diffusion Monte Carlo calculation with the baseline (`Ref`) and
//! optimized (`Current`) code versions, and prints the throughput speedup
//! and memory reduction — the two quantities the paper is about.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qmc::prelude::*;

fn main() {
    println!("QMC quickstart: NiO-32 (scaled), Ref vs Current\n");

    let cfg = RunConfig {
        threads: 1,
        walkers: 4,
        steps: 6,
        warmup: 1,
        tau: 0.005,
        seed: 7,
        ..RunConfig::default()
    };
    let workload = Workload::new(Benchmark::NiO32, Size::Scaled, cfg.seed);
    let base = run_dmc_benchmark(&workload, CodeVersion::Ref, &cfg);
    let best = run_dmc_benchmark(&workload, CodeVersion::Current, &cfg);

    println!(
        "{:<10} {:>12} {:>14} {:>12}",
        "version", "samples/s", "E (hartree)", "walker MiB"
    );
    for out in [&base, &best] {
        println!(
            "{:<10} {:>12.1} {:>14.3} {:>12.2}",
            out.label,
            out.throughput(),
            out.energy.0,
            out.walker_bytes as f64 / (1 << 20) as f64
        );
    }
    println!(
        "\nspeedup {:.2}x, walker memory reduction {:.1}x",
        best.throughput() / base.throughput(),
        base.walker_bytes as f64 / best.walker_bytes as f64
    );
    println!("\nhot-spot profile of the optimized run:");
    print!("{}", best.profile.to_table());
}
