//! Figure 8: "Speedup and memory-usage reduction of NiO benchmarks" —
//! throughput (normalized to Ref) and memory usage for NiO-32 and NiO-64
//! across the paper's three code versions (Ref, Ref+MP, Current).
//!
//! The memory model is the paper's: shared read-only spline table +
//! per-thread engine state + per-walker buffers
//! (`gamma (N_th + N_w) N^2` + table).

use qmc_bench::{mib, run_report, HarnessConfig};
use qmc_workloads::{Batching, Benchmark, CodeVersion};

fn main() {
    let cfg = HarnessConfig::from_env();
    for b in [Benchmark::NiO32, Benchmark::NiO64] {
        let w = cfg.workload(b);
        println!(
            "\n== Fig 8: {} ({} electrons), {} threads, {} walkers ==",
            w.spec.name,
            w.num_electrons(),
            cfg.threads,
            cfg.walkers
        );
        println!(
            "{:<10} {:>14} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "version", "samp/s", "speedup", "table MiB", "engine MiB", "walker MiB", "total MiB"
        );

        let mut base = 0.0f64;
        for code in CodeVersion::paper_ladder() {
            let out = run_report(&w, code, &cfg, Batching::PerWalker);
            let thr = out.throughput();
            if base == 0.0 {
                base = thr;
            }
            println!(
                "{:<10} {:>14.1} {:>9.2}x {:>12.1} {:>12.2} {:>12.2} {:>12.1}",
                out.code,
                thr,
                thr / base,
                mib(out.table_bytes),
                mib(out.engine_bytes),
                mib(out.walker_bytes),
                mib(out.total_bytes())
            );
        }
    }
    println!(
        "\n(expected shape per the paper: Ref+MP gains more on the larger,\n\
         bandwidth-bound NiO-64; Current more than doubles Ref+MP; memory\n\
         decreases monotonically down the ladder.)"
    );
}
