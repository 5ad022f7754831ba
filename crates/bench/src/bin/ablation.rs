//! Ablation of the paper's optimization ladder (§7 steps) on NiO-32:
//!
//!   Ref  ->  Ref+MP  ->  SoA(double)  ->  Current  ->  Current+crowd
//!
//! isolating the contribution of (i) expanded single precision, (ii) the
//! SoA/forward-update/compute-on-the-fly transformation, (iii) their
//! combination, and (iv) lock-step crowd scheduling of Current. The paper
//! only reports Ref / Ref+MP / Current ("other intermediate steps ... can
//! be measured using different build options and miniapps" — this binary
//! is that measurement).

use qmc_bench::{mib, run_report, HarnessConfig};
use qmc_workloads::{Batching, Benchmark, CodeVersion};

fn main() {
    let cfg = HarnessConfig::from_env();
    let w = cfg.workload(Benchmark::NiO32);
    println!(
        "== Ablation ladder, {} ({} electrons), {} threads ==\n",
        w.spec.name,
        w.num_electrons(),
        cfg.threads
    );
    let ladder = [
        CodeVersion::Ref,
        CodeVersion::RefMp,
        CodeVersion::SoaDouble,
        CodeVersion::Current,
    ];
    println!(
        "{:<18} {:>12} {:>9} {:>9} {:>12} {:>10}",
        "version", "samp/s", "vs Ref", "vs prev", "walker MiB", "energy"
    );

    let (mut base, mut prev) = (0.0f64, 0.0f64);
    for code in ladder {
        let out = run_report(&w, code, &cfg, Batching::PerWalker);
        let thr = out.throughput();
        if base == 0.0 {
            base = thr;
            prev = thr;
        }
        println!(
            "{:<18} {:>12.1} {:>8.2}x {:>8.2}x {:>12.2} {:>10.2}",
            out.code,
            thr,
            thr / base,
            thr / prev,
            mib(out.walker_bytes),
            out.energy_mean
        );
        prev = thr;
    }

    // Final rung: the same Current code driven in lock-step crowds (the
    // batched mw_* kernel path) instead of walker-at-a-time. Statistics
    // are bitwise identical to the Current row; only scheduling changes.
    let crowd = cfg.walkers.max(1);
    let out = run_report(&w, CodeVersion::Current, &cfg, Batching::Crowd(crowd));
    let thr = out.throughput();
    println!(
        "{:<18} {:>12.1} {:>8.2}x {:>8.2}x {:>12.2} {:>10.2}",
        format!("{}+crowd({crowd})", out.code),
        thr,
        thr / base,
        thr / prev,
        mib(out.walker_bytes),
        out.energy_mean
    );
    println!(
        "\n(each rung should be >= the previous, with the biggest jumps from\n\
         the SoA transformation and its combination with single precision.)"
    );
}
