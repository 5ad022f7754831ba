//! Cross-implementation consistency tests: every optimized (SoA,
//! compute-on-the-fly, mixed-precision) component must
//! reproduce its reference twin, and analytic derivatives must match finite
//! differences of the log wavefunction.

use qmc_bspline::CubicBspline1D;
use qmc_containers::{Pos, TinyVector};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{
    traits::WaveFunctionComponent, CosineSpo, DiracDeterminant, J1Ref, J1Soa, J2Ref, J2Soa,
    PairFunctors, TrialWaveFunction,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const L: f64 = 8.0;

fn functor(cusp: f64, rcut: f64) -> CubicBspline1D<f64> {
    CubicBspline1D::fit(
        move |r| -cusp * rcut / 3.0 * (1.0 - r / rcut).powi(2) * (-0.6 * r).exp(),
        cusp,
        rcut,
        10,
    )
}

fn pair_functors() -> PairFunctors<f64> {
    PairFunctors::new(2, |a, b| functor(if a == b { -0.25 } else { -0.5 }, 3.5))
}

fn ion_functors() -> Vec<CubicBspline1D<f64>> {
    vec![functor(-1.2, 3.0), functor(-0.7, 2.5)]
}

fn make_electrons(n: usize, seed: u64) -> ParticleSet<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lat = CrystalLattice::cubic(L);
    let mut pos = |k: usize| -> Vec<Pos<f64>> {
        (0..k)
            .map(|_| {
                TinyVector([
                    rng.random::<f64>() * L,
                    rng.random::<f64>() * L,
                    rng.random::<f64>() * L,
                ])
            })
            .collect()
    };
    let up = pos(n / 2);
    let dn = pos(n - n / 2);
    ParticleSet::new(
        "e",
        lat,
        vec![
            (
                Species {
                    name: "u".into(),
                    charge: -1.0,
                },
                up,
            ),
            (
                Species {
                    name: "d".into(),
                    charge: -1.0,
                },
                dn,
            ),
        ],
    )
}

fn make_ions() -> ParticleSet<f64> {
    let lat = CrystalLattice::cubic(L);
    ParticleSet::new(
        "ion0",
        lat,
        vec![
            (
                Species {
                    name: "Ni".into(),
                    charge: 18.0,
                },
                vec![
                    TinyVector([0.5, 0.5, 0.5]),
                    TinyVector([L / 2.0, L / 2.0, 0.7]),
                ],
            ),
            (
                Species {
                    name: "O".into(),
                    charge: 6.0,
                },
                vec![TinyVector([L / 2.0, 0.3, L / 2.0])],
            ),
        ],
    )
}

/// Runs a full PbyP sweep with mixed accept/reject on two component stacks
/// attached to the same particle set and asserts ratio/gradient parity.
fn parity_sweep(
    p: &mut ParticleSet<f64>,
    a: &mut dyn WaveFunctionComponent<f64>,
    b: &mut dyn WaveFunctionComponent<f64>,
    tol: f64,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let log_a = a.evaluate_log(p);
    {
        // separate scope: evaluate_log needs &mut p
    }
    let log_b = b.evaluate_log(p);
    assert!(
        (log_a - log_b).abs() < tol,
        "evaluate_log: {log_a} vs {log_b}"
    );
    let n = p.len();
    for sweep in 0..2 {
        for iat in 0..n {
            let ga = a.eval_grad(p, iat);
            let gb = b.eval_grad(p, iat);
            assert!(
                (ga - gb).norm() < tol * 10.0,
                "sweep {sweep} eval_grad[{iat}]: {ga:?} vs {gb:?}"
            );
            let newpos = p.pos(iat)
                + TinyVector([
                    0.6 * (rng.random::<f64>() - 0.5),
                    0.6 * (rng.random::<f64>() - 0.5),
                    0.6 * (rng.random::<f64>() - 0.5),
                ]);
            p.prepare_move(iat);
            p.make_move(iat, newpos);
            let mut grad_a = TinyVector::zero();
            let mut grad_b = TinyVector::zero();
            let ra = a.ratio_grad(p, iat, &mut grad_a);
            let rb = b.ratio_grad(p, iat, &mut grad_b);
            assert!(
                (ra - rb).abs() < tol * (1.0 + ra.abs()),
                "sweep {sweep} ratio[{iat}]: {ra} vs {rb}"
            );
            assert!(
                (grad_a - grad_b).norm() < tol * 10.0,
                "sweep {sweep} ratio_grad[{iat}]"
            );
            if rng.random::<f64>() < 0.6 {
                a.accept_move(p, iat);
                b.accept_move(p, iat);
                p.accept_move(iat);
            } else {
                a.restore(iat);
                b.restore(iat);
                p.reject_move(iat);
            }
        }
    }
    // Incrementally maintained log values agree with each other and with a
    // fresh evaluation.
    let la = a.log_value();
    let lb = b.log_value();
    assert!((la - lb).abs() < tol * 100.0, "final logs: {la} vs {lb}");
    p.update_tables();
    let fresh = a.evaluate_log(p);
    let fresh_b = b.evaluate_log(p);
    assert!((fresh - fresh_b).abs() < tol * 100.0);
    assert!(
        (la - fresh).abs() < tol * 100.0,
        "incremental {la} vs fresh {fresh}"
    );
}

#[test]
fn j2_ref_and_soa_agree_through_sweeps() {
    let mut p = make_electrons(10, 3);
    let h_aos = p.add_table_aa(Layout::Aos);
    let h_soa = p.add_table_aa(Layout::Soa);
    let mut jref = J2Ref::new(&p, h_aos, pair_functors());
    let mut jsoa = J2Soa::new(&p, h_soa, pair_functors());
    parity_sweep(&mut p, &mut jref, &mut jsoa, 1e-9, 17);
}

#[test]
fn j1_ref_and_soa_agree_through_sweeps() {
    let ions = make_ions();
    let mut p = make_electrons(8, 5);
    let h_aos = p.add_table_ab(&ions, Layout::Aos);
    let h_soa = p.add_table_ab(&ions, Layout::Soa);
    let mut jref = J1Ref::new(&p, &ions, h_aos, ion_functors());
    let mut jsoa = J1Soa::new(&p, &ions, h_soa, ion_functors());
    parity_sweep(&mut p, &mut jref, &mut jsoa, 1e-9, 29);
}

/// Finite-difference check of gradient and Laplacian accumulated by
/// `evaluate_log` for an arbitrary component constructor.
type ComponentBuilder = dyn Fn(&ParticleSet<f64>) -> Box<dyn WaveFunctionComponent<f64>>;

fn check_gl_finite_difference(
    build: &ComponentBuilder,
    attach: &dyn Fn(&mut ParticleSet<f64>),
    n: usize,
    tol_g: f64,
    tol_l: f64,
) {
    let mut p = make_electrons(n, 11);
    attach(&mut p);
    let mut c = build(&p);
    c.evaluate_log(&mut p);
    let g0 = p.g.clone();
    let l0 = p.l.clone();

    let logpsi_at = |positions: &[Pos<f64>]| -> f64 {
        let mut q = make_electrons(n, 11);
        attach(&mut q);
        q.load_positions(positions);
        let mut cc = build(&q);
        cc.evaluate_log(&mut q)
    };

    let mut base = vec![TinyVector::zero(); n];
    p.store_positions(&mut base);
    let eps = 1e-5;
    for iat in [0usize, n / 2, n - 1] {
        let mut lap_fd = 0.0;
        let f0 = logpsi_at(&base);
        for d in 0..3 {
            let mut rp = base.clone();
            rp[iat][d] += eps;
            let mut rm = base.clone();
            rm[iat][d] -= eps;
            let fp = logpsi_at(&rp);
            let fm = logpsi_at(&rm);
            let fd = (fp - fm) / (2.0 * eps);
            assert!(
                (g0[iat][d] - fd).abs() < tol_g * (1.0 + fd.abs()),
                "grad[{iat}][{d}]: {} vs {fd}",
                g0[iat][d]
            );
            lap_fd += (fp - 2.0 * f0 + fm) / (eps * eps);
        }
        assert!(
            (l0[iat] - lap_fd).abs() < tol_l * (1.0 + lap_fd.abs()),
            "lap[{iat}]: {} vs {lap_fd}",
            l0[iat]
        );
    }
}

#[test]
fn j2_soa_gradient_laplacian_finite_difference() {
    check_gl_finite_difference(
        &|p| Box::new(J2Soa::new(p, 0, pair_functors())),
        &|p| {
            p.add_table_aa(Layout::Soa);
        },
        8,
        1e-5,
        1e-3,
    );
}

#[test]
fn j1_soa_gradient_laplacian_finite_difference() {
    let ions = make_ions();
    let ions2 = make_ions();
    check_gl_finite_difference(
        &move |p| Box::new(J1Soa::new(p, &ions, 0, ion_functors())),
        &move |p| {
            p.add_table_ab(&ions2, Layout::Soa);
        },
        6,
        1e-5,
        1e-3,
    );
}

#[test]
fn determinant_gradient_laplacian_finite_difference() {
    check_gl_finite_difference(
        &|_p| {
            Box::new(DiracDeterminant::new(
                Box::new(CosineSpo::<f64>::new(4, [L, L, L])),
                0,
                4,
            ))
        },
        &|_p| {},
        8,
        1e-4,
        1e-2,
    );
}

#[test]
fn determinant_ratio_matches_log_difference() {
    let n = 8;
    let mut p = make_electrons(n, 13);
    let spo = Box::new(CosineSpo::<f64>::new(4, [L, L, L]));
    let mut det = DiracDeterminant::new(spo, 0, 4);
    let log0 = det.evaluate_log(&mut p);
    let iat = 2;
    let newpos = p.pos(iat) + TinyVector([0.4, -0.3, 0.2]);
    p.make_move(iat, newpos);
    let ratio = det.ratio(&p, iat);
    det.accept_move(&p, iat);
    p.accept_move(iat);
    let log1 = det.evaluate_log(&mut p);
    assert!(
        (ratio.abs().ln() - (log1 - log0)).abs() < 1e-9,
        "ln|ratio| {} vs dlog {}",
        ratio.abs().ln(),
        log1 - log0
    );
}

#[test]
fn determinant_moves_outside_range_are_identity() {
    let n = 8;
    let mut p = make_electrons(n, 19);
    // Determinant covers only the "up" electrons 0..4.
    let spo = Box::new(CosineSpo::<f64>::new(4, [L, L, L]));
    let mut det = DiracDeterminant::new(spo, 0, 4);
    det.evaluate_log(&mut p);
    let log0 = det.log_value();
    let iat = 6; // a "down" electron
    p.make_move(iat, p.pos(iat) + TinyVector([0.5, 0.5, 0.5]));
    assert_eq!(det.ratio(&p, iat), 1.0);
    assert_eq!(det.eval_grad(&p, iat), TinyVector::zero());
    det.accept_move(&p, iat);
    p.accept_move(iat);
    assert_eq!(det.log_value(), log0);
}

#[test]
fn mixed_precision_tracks_double_through_sweep() {
    // f32 stack must track the f64 stack to single-precision accuracy.
    let n = 10;
    let mut p64 = make_electrons(n, 23);
    let h64 = p64.add_table_aa(Layout::Soa);
    let mut j64 = J2Soa::new(&p64, h64, pair_functors());

    let mut base = vec![TinyVector::zero(); n];
    p64.store_positions(&mut base);

    let lat32: CrystalLattice<f32> = CrystalLattice::cubic(L);
    let mut p32 = ParticleSet::<f32>::new(
        "e",
        lat32,
        vec![
            (
                Species {
                    name: "u".into(),
                    charge: -1.0,
                },
                base[..n / 2].to_vec(),
            ),
            (
                Species {
                    name: "d".into(),
                    charge: -1.0,
                },
                base[n / 2..].to_vec(),
            ),
        ],
    );
    let h32 = p32.add_table_aa(Layout::Soa);
    let pf32 = PairFunctors::new(2, |a, b| {
        functor(if a == b { -0.25 } else { -0.5 }, 3.5).cast::<f32>()
    });
    let mut j32 = J2Soa::new(&p32, h32, pf32);

    let l64 = j64.evaluate_log(&mut p64);
    let l32 = j32.evaluate_log(&mut p32);
    assert!((l64 - l32).abs() < 1e-3, "{l64} vs {l32}");

    let mut rng = StdRng::seed_from_u64(31);
    for iat in 0..n {
        let delta = TinyVector([
            0.4 * (rng.random::<f64>() - 0.5),
            0.4 * (rng.random::<f64>() - 0.5),
            0.4 * (rng.random::<f64>() - 0.5),
        ]);
        let np64 = p64.pos(iat) + delta;
        let np32: Pos<f32> = np64.cast();
        p64.prepare_move(iat);
        p64.make_move(iat, np64);
        p32.prepare_move(iat);
        p32.make_move(iat, np32);
        let r64 = j64.ratio(&p64, iat);
        let r32 = j32.ratio(&p32, iat);
        assert!(
            (r64 - r32).abs() < 1e-3 * (1.0 + r64.abs()),
            "{r64} vs {r32}"
        );
        j64.accept_move(&p64, iat);
        j32.accept_move(&p32, iat);
        p64.accept_move(iat);
        p32.accept_move(iat);
    }
    assert!((j64.log_value() - j32.log_value()).abs() < 1e-2);
}

#[test]
fn trial_wavefunction_composes_ratios_and_logs() {
    let ions = make_ions();
    let n = 8;
    let mut p = make_electrons(n, 37);
    let h_aa = p.add_table_aa(Layout::Soa);
    let h_ab = p.add_table_ab(&ions, Layout::Soa);

    let mut psi = TrialWaveFunction::new();
    psi.add(Box::new(J2Soa::new(&p, h_aa, pair_functors())));
    psi.add(Box::new(J1Soa::new(&p, &ions, h_ab, ion_functors())));
    psi.add(Box::new(DiracDeterminant::new(
        Box::new(CosineSpo::<f64>::new(n / 2, [L, L, L])),
        0,
        n / 2,
    )));
    psi.add(Box::new(DiracDeterminant::new(
        Box::new(CosineSpo::<f64>::new(n / 2, [L, L, L])),
        n / 2,
        n / 2,
    )));

    let log0 = psi.evaluate_log(&mut p);
    assert_eq!(psi.num_components(), 4);

    // Move one electron; the product ratio must match the full-log change.
    let iat = 3;
    let newpos = p.pos(iat) + TinyVector([0.3, 0.1, -0.2]);
    p.prepare_move(iat);
    p.make_move(iat, newpos);
    let (ratio, _grad) = psi.calc_ratio_grad(&p, iat);
    psi.accept_move(&p, iat);
    p.accept_move(iat);
    let log1 = psi.evaluate_log(&mut p);
    assert!(
        (ratio.abs().ln() - (log1 - log0)).abs() < 1e-8,
        "ln|ratio| {} vs dlog {}",
        ratio.abs().ln(),
        log1 - log0
    );
    // Incremental log matches fresh log.
    assert!((psi.log_value() - log1).abs() < 1e-8);
}
