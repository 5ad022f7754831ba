//! Property-based tests of the wavefunction move protocol: for random
//! configurations and random moves, the ratio returned by every component
//! must equal the change of its log value across an accept, and rejects
//! must be perfect no-ops.

use proptest::prelude::*;
use qmc_bspline::CubicBspline1D;
use qmc_containers::{Pos, Real, TinyVector};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{
    traits::WaveFunctionComponent, CosineSpo, DiracDeterminant, J1Soa, J2Ref, J2Soa, PairFunctors,
};

const L: f64 = 7.0;

fn electrons<T: Real>(coords: &[(f64, f64, f64)]) -> ParticleSet<T> {
    let n = coords.len();
    let pos: Vec<Pos<f64>> = coords
        .iter()
        .map(|&(x, y, z)| TinyVector([x * L, y * L, z * L]))
        .collect();
    let half = n / 2;
    ParticleSet::new(
        "e",
        CrystalLattice::cubic(L),
        vec![
            (
                Species {
                    name: "u".into(),
                    charge: -1.0,
                },
                pos[..half].to_vec(),
            ),
            (
                Species {
                    name: "d".into(),
                    charge: -1.0,
                },
                pos[half..].to_vec(),
            ),
        ],
    )
}

fn functors() -> PairFunctors<f64> {
    PairFunctors::new(2, |a, b| {
        let (amp, cusp) = if a == b { (0.3, -0.25) } else { (0.45, -0.5) };
        CubicBspline1D::fit(move |r| amp * (1.0 - r / 3.0).powi(3), cusp, 3.0, 8)
    })
}

/// Generic protocol check: accept path matches log difference; reject path
/// leaves the component exactly where it was.
fn protocol_check(
    p: &mut ParticleSet<f64>,
    c: &mut dyn WaveFunctionComponent<f64>,
    iat: usize,
    delta: Pos<f64>,
) -> Result<(), TestCaseError> {
    p.update_tables();
    let log0 = c.evaluate_log(p);

    // Reject path first: ratio then restore must be a no-op.
    p.prepare_move(iat);
    let newpos = p.pos(iat) + delta;
    p.make_move(iat, newpos);
    let r1 = c.ratio(p, iat);
    prop_assume!(r1.abs() > 1e-6 && r1.is_finite());
    c.restore(iat);
    p.reject_move(iat);
    prop_assert!((c.log_value() - log0).abs() < 1e-12, "reject changed state");

    // Accept path: log must change by ln|ratio|.
    p.prepare_move(iat);
    p.make_move(iat, newpos);
    let mut g = TinyVector::zero();
    let r2 = c.ratio_grad(p, iat, &mut g);
    prop_assert!((r1 - r2).abs() < 1e-9 * (1.0 + r1.abs()), "{r1} vs {r2}");
    c.accept_move(p, iat);
    p.accept_move(iat);
    prop_assert!(
        (c.log_value() - (log0 + r2.abs().ln())).abs() < 1e-8,
        "log {} vs {}",
        c.log_value(),
        log0 + r2.abs().ln()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn j2_soa_protocol(
        coords in prop::collection::vec((0.01f64..0.99, 0.01f64..0.99, 0.01f64..0.99), 6..10),
        iat_frac in 0.0f64..1.0,
        dx in -0.4f64..0.4, dy in -0.4f64..0.4, dz in -0.4f64..0.4,
    ) {
        let mut p = electrons(&coords);
        let h = p.add_table_aa(Layout::Soa);
        let mut c = J2Soa::new(&p, h, functors());
        let iat = ((coords.len() - 1) as f64 * iat_frac) as usize;
        protocol_check(&mut p, &mut c, iat, TinyVector([dx, dy, dz]))?;
    }

    #[test]
    fn j2_ref_protocol(
        coords in prop::collection::vec((0.01f64..0.99, 0.01f64..0.99, 0.01f64..0.99), 6..10),
        iat_frac in 0.0f64..1.0,
        dx in -0.4f64..0.4, dy in -0.4f64..0.4, dz in -0.4f64..0.4,
    ) {
        let mut p = electrons(&coords);
        let h = p.add_table_aa(Layout::Aos);
        let mut c = J2Ref::new(&p, h, functors());
        let iat = ((coords.len() - 1) as f64 * iat_frac) as usize;
        protocol_check(&mut p, &mut c, iat, TinyVector([dx, dy, dz]))?;
    }

    #[test]
    fn determinant_protocol(
        coords in prop::collection::vec((0.01f64..0.99, 0.01f64..0.99, 0.01f64..0.99), 6..9),
        iat_frac in 0.0f64..1.0,
        dx in -0.3f64..0.3, dy in -0.3f64..0.3, dz in -0.3f64..0.3,
    ) {
        let n = coords.len();
        let mut p = electrons(&coords);
        p.add_table_aa(Layout::Soa);
        let mut c = DiracDeterminant::new(
            Box::new(CosineSpo::<f64>::new(n, [L, L, L])),
            0,
            n
        );
        let iat = ((n - 1) as f64 * iat_frac) as usize;
        // Skip pathological nearly-singular random configurations.
        p.update_tables();
        let log0 = c.evaluate_log(&mut p);
        prop_assume!(log0 > -20.0);
        protocol_check(&mut p, &mut c, iat, TinyVector([dx, dy, dz]))?;
    }
}

/// Two-body functor cutoff of [`functors`].
const J2_CUT: f64 = 3.0;

/// Checks `c.ratios_value_only` bit for bit against the per-point cycle of
/// `make_move`, `ratio` and `restore`: `iat` in each spin group, and shells
/// of 1 point, a tail shorter than the determinant's block of eight,
/// exactly one block, blocks plus a tail. Every odd point is thrown ~2.7
/// away, so the shells straddle the J2 cutoff. Returns how many (point,
/// electron) candidate distances fell past it.
fn value_only_matches_per_point<T: Real>(
    p: &mut ParticleSet<T>,
    c: &mut dyn WaveFunctionComponent<T>,
) -> usize {
    p.update_tables();
    let log0 = c.evaluate_log(p);
    let n = p.len();
    let lat = p.lattice.cast::<f64>();
    let mut past_cutoff = 0;
    for iat in [n / 2 - 2, n - 1] {
        for nq in [1usize, 7, 8, 9, 12, 18] {
            let positions: Vec<Pos<T>> = (0..nq)
                .map(|q| {
                    let t = q as f64;
                    let reach = if q % 2 == 1 { 9.0 } else { 1.0 };
                    let d = TinyVector([0.21 * (t + 1.0).sin(), 0.17 * t.cos(), 0.05 * t - 0.3]);
                    (p.pos(iat).cast::<f64>() + d * reach).cast()
                })
                .collect();
            let mut batched = vec![1.0; nq];
            assert!(c.ratios_value_only(p, iat, &positions, &mut batched));
            assert_eq!(c.log_value(), log0, "value-only path moved the state");
            for (q, &r) in positions.iter().enumerate() {
                past_cutoff += (0..n)
                    .filter(|&j| {
                        j != iat && lat.min_image(p.pos(j).cast() - r.cast()).norm() >= J2_CUT
                    })
                    .count();
                p.prepare_move(iat);
                p.make_move(iat, r);
                let per_point = c.ratio(p, iat);
                c.restore(iat);
                p.reject_move(iat);
                assert_eq!(
                    batched[q].to_bits(),
                    per_point.to_bits(),
                    "{} iat={iat} nq={nq} point {q}: {} vs {per_point}",
                    c.name(),
                    batched[q]
                );
            }
        }
    }
    past_cutoff
}

fn value_only_fixture<T: Real>() -> (ParticleSet<T>, ParticleSet<T>) {
    let n = 10;
    let coords: Vec<(f64, f64, f64)> = (0..n)
        .map(|i| {
            let t = i as f64;
            (
                (0.13 + 0.31 * t).fract(),
                (0.71 + 0.17 * t).fract(),
                (0.29 + 0.43 * t).fract(),
            )
        })
        .collect();
    let ions = ParticleSet::new(
        "ion0",
        CrystalLattice::cubic(L),
        vec![(
            Species {
                name: "X".into(),
                charge: 3.0,
            },
            vec![
                TinyVector([1.0, 2.0, 3.0]),
                TinyVector([5.5, 1.5, 4.0]),
                TinyVector([3.0, 6.0, 0.5]),
            ],
        )],
    );
    (electrons(&coords), ions)
}

/// The NLPP shell path of every SoA component — the determinant, which
/// takes its points eight at a time against one inverse row, and J2/J1,
/// which stage every candidate row in one distance-table call — must give
/// `ratio`'s factor bit for bit, in f64 and f32.
fn value_only_components_match_per_point<T: Real>() {
    let (mut p, ions) = value_only_fixture::<T>();
    let n = p.len();
    let h_aa = p.add_table_aa(Layout::Soa);
    let h_ab = p.add_table_ab(&ions, Layout::Soa);

    let pair = PairFunctors::new(2, |a, b| functors().get(a, b).cast::<T>());
    let mut j2 = J2Soa::new(&p, h_aa, pair);
    let past = value_only_matches_per_point(&mut p, &mut j2);
    assert!(past > 0, "no candidate distance past the J2 cutoff");

    let well = CubicBspline1D::<f64>::fit(|r| -0.3 * (1.0 - r / 2.5).powi(2), 0.0, 2.5, 8);
    let mut j1 = J1Soa::new(&p, &ions, h_ab, vec![well.cast::<T>()]);
    value_only_matches_per_point(&mut p, &mut j1);

    let spo = CosineSpo::<T>::new(n, [L, L, L]);
    let mut det = DiracDeterminant::new(Box::new(spo), 0, n);
    value_only_matches_per_point(&mut p, &mut det);
}

#[test]
fn ratios_value_only_equals_per_point_ratio_bitwise() {
    value_only_components_match_per_point::<f64>();
    value_only_components_match_per_point::<f32>();
}
