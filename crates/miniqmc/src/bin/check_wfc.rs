//! Wavefunction correctness checker (miniQMC's `check_wfc` analogue):
//! drives the Ref (AoS, f64) and Current (SoA, f32) engines through the
//! *same* Monte Carlo move stream and reports the maximum deviations of
//! log values, ratios and gradients. Exits nonzero if tolerances fail.
//!
//! The two stacks share neither layout nor precision, so agreement here
//! exercises every kernel pair in the paper's ladder at once.

use miniqmc::{at_least, Options};
use qmc_containers::{Pos, TinyVector};
use qmc_workloads::{Benchmark, CodeVersion, Size, Workload};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn run(opts: &Options) -> Result<(), String> {
    let sweeps = opts
        .try_get("sweeps", 2usize)
        .and_then(at_least("sweeps", 1))?;
    let seed = opts.try_get("seed", 42u64)?;
    let tol_ratio = opts.try_get("tol", 5e-3f64)?;

    let w = Workload::new(Benchmark::NiO32, Size::Scaled, seed);
    println!(
        "check_wfc: NiO-32 scaled, N = {}, comparing {} vs {}",
        w.num_electrons(),
        CodeVersion::Ref.label(),
        CodeVersion::Current.label()
    );

    let mut e64 = w.build_engine_f64(CodeVersion::Ref);
    let mut e32 = w.build_engine_f32(CodeVersion::Current);

    let log64 = e64.psi.evaluate_log(&mut e64.pset);
    let log32 = e32.psi.evaluate_log(&mut e32.pset);
    let dlog0 = (log64 - log32).abs();
    println!("evaluate_log: {log64:.6} vs {log32:.6}  |diff| = {dlog0:.2e}");

    let n = w.num_electrons();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC0FFEE);
    let (mut max_ratio_diff, mut max_grad_diff) = (0.0f64, 0.0f64);
    let mut accepted = 0usize;
    for _sweep in 0..sweeps {
        for iat in 0..n {
            let delta = TinyVector([
                0.4 * (rng.random::<f64>() - 0.5),
                0.4 * (rng.random::<f64>() - 0.5),
                0.4 * (rng.random::<f64>() - 0.5),
            ]);
            let p64: Pos<f64> = e64.pset.pos(iat) + delta;
            let p32: Pos<f32> = p64.cast();

            e64.pset.prepare_move(iat);
            e64.pset.make_move(iat, p64);
            e32.pset.prepare_move(iat);
            e32.pset.make_move(iat, p32);

            let (r64, g64) = e64.psi.calc_ratio_grad(&e64.pset, iat);
            let (r32, g32) = e32.psi.calc_ratio_grad(&e32.pset, iat);
            max_ratio_diff = max_ratio_diff.max((r64 - r32).abs() / (1.0 + r64.abs()));
            max_grad_diff = max_grad_diff.max((g64 - g32).norm() / (1.0 + g64.norm()));

            // Accept based on the f64 ratio so both stacks stay in sync.
            if r64.abs() > 0.5 {
                e64.psi.accept_move(&e64.pset, iat);
                e64.pset.accept_move(iat);
                e32.psi.accept_move(&e32.pset, iat);
                e32.pset.accept_move(iat);
                accepted += 1;
            } else {
                e64.psi.reject_move(iat);
                e64.pset.reject_move(iat);
                e32.psi.reject_move(iat);
                e32.pset.reject_move(iat);
            }
        }
    }

    let l64 = e64.psi.log_value();
    let l32 = e32.psi.log_value();
    let dlog = (l64 - l32).abs() / (1.0 + l64.abs());
    println!("after {sweeps} sweeps ({accepted} accepts):");
    println!("  max relative ratio diff    = {max_ratio_diff:.2e}");
    println!("  max relative gradient diff = {max_grad_diff:.2e}");
    println!("  relative log diff          = {dlog:.2e}");

    let ok = max_ratio_diff < tol_ratio && max_grad_diff < tol_ratio * 10.0 && dlog < tol_ratio;
    if ok {
        println!("check_wfc PASSED (tolerance {tol_ratio:.0e})");
    } else {
        eprintln!("check_wfc FAILED");
        std::process::exit(1);
    }
    Ok(())
}

fn main() {
    let opts = Options::from_env();
    if let Err(e) = run(&opts) {
        opts.fail_usage(&e);
    }
}
