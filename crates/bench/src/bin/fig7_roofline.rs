//! Figure 7: hot-spot profile and roofline analysis of NiO-32, Ref vs
//! Current.
//!
//! The roofline (Williams et al.) locates each kernel at its arithmetic
//! intensity (model-counted FLOPs / bytes) and achieved GFLOP/s, against
//! machine ceilings measured by a microbenchmark probe (substitute for
//! Intel Advisor; see DESIGN.md). The paper's observation: the SoA +
//! mixed-precision transformation moves DistTable, J2, Bspline-vgh and
//! SPO-vgl up and to the right.

use qmc_bench::{run_report, HarnessConfig};
use qmc_instrument::{probe_machine, Kernel};
use qmc_workloads::{Batching, Benchmark, CodeVersion};

const ROOFLINE_KERNELS: [Kernel; 6] = [
    Kernel::DistTableAA,
    Kernel::J1,
    Kernel::J2,
    Kernel::BsplineV,
    Kernel::BsplineVGH,
    Kernel::SpoVGL,
];

fn main() {
    let cfg = HarnessConfig::from_env();
    let w = cfg.workload(Benchmark::NiO32);
    println!(
        "== Fig 7: roofline + hot spots, {} ({} electrons) ==",
        w.spec.name,
        w.num_electrons()
    );

    println!("probing machine ceilings (single thread)...");
    let machine = probe_machine();
    println!(
        "peak (scalar-FMA probe): {:.2} SP GFLOP/s, {:.2} DP GFLOP/s; stream {:.1} GB/s",
        machine.peak_sp_gflops, machine.peak_dp_gflops, machine.bandwidth_gbs
    );
    println!(
        "ridge points: SP {:.3} F/B, DP {:.3} F/B\n",
        machine.ridge(true),
        machine.ridge(false)
    );

    let ref_out = run_report(&w, CodeVersion::Ref, &cfg, Batching::PerWalker);
    let cur_out = run_report(&w, CodeVersion::Current, &cfg, Batching::PerWalker);

    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "Ref AI", "Ref GF/s", "Cur AI", "Cur GF/s", "AI gain", "GF gain"
    );
    for &k in &ROOFLINE_KERNELS {
        let r = ref_out.profile.get(k);
        let c = cur_out.profile.get(k);
        let (rai, rgf) = (
            r.arithmetic_intensity().unwrap_or(0.0),
            r.gflops().unwrap_or(0.0),
        );
        let (cai, cgf) = (
            c.arithmetic_intensity().unwrap_or(0.0),
            c.gflops().unwrap_or(0.0),
        );
        println!(
            "{:<14} {:>10.2} {:>10.2} {:>10.2} {:>10.2} {:>9.2}x {:>9.2}x",
            k.label(),
            rai,
            rgf,
            cai,
            cgf,
            if rai > 0.0 { cai / rai } else { 0.0 },
            if rgf > 0.0 { cgf / rgf } else { 0.0 },
        );
    }

    println!("\nattainable GFLOP/s at each kernel's AI (Current, SP ceiling):");
    for &k in &ROOFLINE_KERNELS {
        let c = cur_out.profile.get(k);
        if let (Some(ai), Some(gf)) = (c.arithmetic_intensity(), c.gflops()) {
            let att = machine.attainable(ai, true);
            println!(
                "  {:<14} AI {:>6.2}  achieved {:>7.2}  attainable {:>7.2}  ({:>4.0}% of roof)",
                k.label(),
                ai,
                gf,
                att,
                gf / att * 100.0
            );
        }
    }

    println!(
        "\nkernel speedups Ref -> Current (paper: DistTable 5x, J2 8x, vgh 1.7x, v 1.3x on BDW):"
    );
    for &k in &ROOFLINE_KERNELS {
        let sr = ref_out.profile.get(k).seconds();
        let sc = cur_out.profile.get(k).seconds();
        if sr > 1e-6 && sc > 1e-6 {
            println!("  {:<14} {:>6.2}x", k.label(), sr / sc);
        }
    }
}
