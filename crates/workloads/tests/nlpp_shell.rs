//! The NLPP shell at engine level: one `calc_ratios_v` call per
//! quadrature shell on real workload engines (`Current`, f32, simd).
//!
//! Every test here builds engines on the simd backend; `set_backend` is
//! process-wide, but no test in this binary selects anything else.

use qmc_containers::{Pos, TinyVector};
use qmc_drivers::QmcEngine;
use qmc_instrument::{drain_thread_profile, Kernel};
use qmc_kernels::{set_backend, Backend};
use qmc_workloads::{Benchmark, CodeVersion, Size, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A scaled `Current` f32 engine on the simd backend, two sweeps past its
/// initial configuration (so the Jastrow accumulators have seen accepts)
/// with G/L and every table fresh.
fn engine(b: Benchmark) -> QmcEngine<f32> {
    set_backend(Backend::Simd);
    let w = Workload::new(b, Size::Scaled, 17);
    let mut e = w.build_engine_f32(CodeVersion::Current);
    e.psi.evaluate_log(&mut e.pset);
    let mut rng = StdRng::seed_from_u64(23);
    for _ in 0..2 {
        e.sweep(0.005, &mut rng);
    }
    e.psi.update_gl(&mut e.pset);
    e
}

/// The 12 points of a shell of radius 0.6 around electron `iat`'s current
/// position, in a fixed skewed orientation (no RNG).
fn shell(e: &QmcEngine<f32>, iat: usize) -> Vec<Pos<f32>> {
    let centre: Pos<f64> = e.pset.pos(iat).cast();
    qmc_hamiltonian::nlpp::icosahedron_grid()
        .into_iter()
        .map(|q| {
            let d = TinyVector([q[0] + 0.1 * q[1], q[1] - 0.2 * q[2], q[2] + 0.05]);
            (centre + d * (0.6 / d.norm())).cast()
        })
        .collect()
}

/// `NonLocalPP::evaluate` bits recorded on the parent of the PR that gave
/// the Jastrows a batched value-only path (a1aa931), before any edit.
#[test]
fn nlpp_energy_bits_are_the_parents() {
    for (b, want) in [
        (Benchmark::NiO32, 0xc004_05e8_9caa_4281_u64),
        (Benchmark::Graphite, 0x3fdc_bf88_ed46_dc8e),
    ] {
        let mut e = engine(b);
        let nlpp = e.ham.nlpp.as_ref().expect("workload has a pseudopotential");
        let v = nlpp.evaluate(&mut e.pset, &mut e.psi, &mut StdRng::seed_from_u64(5));
        assert_eq!(v.to_bits(), want, "{b:?}: NLPP energy {v}");
    }
}

/// The contract `calc_ratios_v` documents: each shell ratio is bitwise the
/// per-point product in determinant, J2, J1 order, and within a few ULP
/// of `calc_ratio` (which multiplies in component order, J2·J1·D).
#[test]
fn shell_ratios_are_the_per_point_product_in_det_j2_j1_order() {
    let mut e = engine(Benchmark::Graphite);
    assert_eq!(
        e.psi.describe(),
        "J2-soa * J1-soa * DiracDeterminant * DiracDeterminant"
    );
    let n = e.pset.len();
    let (mut total, mut reordered) = (0, 0);
    for iat in [0, 1, n / 2 - 1, n / 2, n - 1] {
        let pts = shell(&e, iat);
        let mut shell_ratios = vec![0.0; pts.len()];
        e.psi
            .calc_ratios_v(&mut e.pset, iat, &pts, &mut shell_ratios);
        assert!(e.pset.active_pos().is_none(), "dangling active move");
        for (q, &pos) in pts.iter().enumerate() {
            e.pset.make_move(iat, pos);
            let f: Vec<f64> = (0..4)
                .map(|c| e.psi.component_mut(c).ratio(&e.pset, iat))
                .collect();
            let whole = e.psi.calc_ratio(&e.pset, iat);
            e.psi.reject_move(iat);
            e.pset.reject_move(iat);
            let (j2, j1, up, dn) = (f[0], f[1], f[2], f[3]);
            let det_first = 1.0 * up * dn * j2 * j1;
            assert_eq!(
                shell_ratios[q].to_bits(),
                det_first.to_bits(),
                "iat {iat} point {q}: {} vs {det_first}",
                shell_ratios[q]
            );
            let ulps = shell_ratios[q].to_bits().abs_diff(whole.to_bits());
            assert!(ulps <= 4, "iat {iat} point {q}: {ulps} ulp from calc_ratio");
            total += 1;
            reordered += usize::from(ulps != 0);
        }
    }
    eprintln!("{reordered} of {total} shell ratios differ from calc_ratio in the last bits");
}

/// One shell costs each SoA component one call: exactly one DistTable-AA,
/// DistTable-AB, J2 and J1 timer scope, whatever the number of points.
#[test]
fn one_shell_opens_one_scope_per_jastrow_kernel() {
    let mut e = engine(Benchmark::Graphite);
    let iat = e.pset.len() / 2 + 3;
    let pts = shell(&e, iat);
    let mut ratios = vec![0.0; pts.len()];
    drain_thread_profile();
    e.psi.calc_ratios_v(&mut e.pset, iat, &pts, &mut ratios);
    let prof = drain_thread_profile();
    for k in [
        Kernel::DistTableAA,
        Kernel::DistTableAB,
        Kernel::J2,
        Kernel::J1,
    ] {
        assert_eq!(prof.get(k).calls, 1, "{} scopes per shell", k.label());
    }
}
