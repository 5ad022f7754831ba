//! Figure 2: normalized hot-spot profiles of the NiO benchmarks, Ref vs
//! Current.
//!
//! As in the paper, the Current profile is plotted on the Ref time axis
//! ("Current version profiles accommodate the speedup wrt. Ref"): each
//! Current kernel share is scaled by `T_current / T_ref`, so shrinking
//! bars show where the time went.

use qmc_bench::{run_report, HarnessConfig};
use qmc_instrument::ALL_KERNELS;
use qmc_workloads::{Batching, Benchmark, CodeVersion};

fn main() {
    let cfg = HarnessConfig::from_env();
    for b in [Benchmark::NiO32, Benchmark::NiO64] {
        let w = cfg.workload(b);
        println!(
            "\n== Fig 2: hot-spot profile, {} ({} electrons) ==",
            w.spec.name,
            w.num_electrons()
        );

        let ref_out = run_report(&w, CodeVersion::Ref, &cfg, Batching::PerWalker);
        let cur_out = run_report(&w, CodeVersion::Current, &cfg, Batching::PerWalker);
        let speed = ref_out.seconds / cur_out.seconds;

        let t_ref = ref_out.profile.total_seconds();
        let t_cur = cur_out.profile.total_seconds();
        println!(
            "wall: Ref {:.3}s, Current {:.3}s  ->  speedup {:.2}x",
            ref_out.seconds, cur_out.seconds, speed
        );
        println!(
            "{:<14} {:>12} {:>18} {:>12}",
            "kernel", "Ref share", "Current (Ref axis)", "kernel speedup"
        );
        for &k in &ALL_KERNELS {
            let sr = ref_out.profile.get(k).seconds();
            let sc = cur_out.profile.get(k).seconds();
            if sr < 1e-6 && sc < 1e-6 {
                continue;
            }
            let share_ref = sr / t_ref * 100.0;
            // Scale Current shares onto the Ref axis.
            let share_cur_on_ref = sc / t_cur * (t_cur / t_ref) * 100.0;
            let kspeed = if sc > 0.0 { sr / sc } else { f64::INFINITY };
            println!(
                "{:<14} {:>11.1}% {:>17.1}% {:>11.2}x",
                k.label(),
                share_ref,
                share_cur_on_ref,
                kspeed
            );
        }

        // Crowd-batched Current: the lock-step path routes SPO work through
        // the fused multi-walker kernel, so `Bspline-mw-vgl` is live here
        // (it is structurally zero in the per-walker profiles above).
        let crowd = cfg.walkers.clamp(1, 4);
        let crowd_out = run_report(&w, CodeVersion::Current, &cfg, Batching::Crowd(crowd));
        let t_crowd = crowd_out.profile.total_seconds();
        println!("\nCurrent, crowd({crowd}) batching — batched-kernel shares:");
        for &k in &ALL_KERNELS {
            let s = crowd_out.profile.get(k).seconds();
            if s < 1e-6 {
                continue;
            }
            println!("{:<14} {:>11.1}%", k.label(), s / t_crowd * 100.0);
        }
    }
    println!(
        "\n(expected shape per the paper: DistTable+J2 dominate Ref and shrink\n\
         the most; DetUpdate's share grows in Current, motivating §8.4.)"
    );
}
