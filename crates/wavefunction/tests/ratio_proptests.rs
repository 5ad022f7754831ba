//! Property-based tests of the wavefunction move protocol: for random
//! configurations and random moves, the ratio returned by every component
//! must equal the change of its log value across an accept, and rejects
//! must be perfect no-ops.

use proptest::prelude::*;
use qmc_bspline::CubicBspline1D;
use qmc_containers::{Pos, TinyVector};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{
    traits::WaveFunctionComponent, CosineSpo, DetUpdateMode, DiracDeterminant, J2Ref, J2Soa,
    PairFunctors,
};

const L: f64 = 7.0;

fn electrons(coords: &[(f64, f64, f64)]) -> ParticleSet<f64> {
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
            n,
            DetUpdateMode::ShermanMorrison,
        );
        let iat = ((n - 1) as f64 * iat_frac) as usize;
        // Skip pathological nearly-singular random configurations.
        p.update_tables();
        let log0 = c.evaluate_log(&mut p);
        prop_assume!(log0 > -20.0);
        protocol_check(&mut p, &mut c, iat, TinyVector([dx, dy, dz]))?;
    }
}

/// The NLPP fast path takes its quadrature points eight at a time against
/// the one inverse row; every per-point factor must still be `ratio`'s
/// contraction bit for bit — with a single point, a tail shorter than a
/// block, exactly one block, and blocks plus a tail.
#[test]
fn ratios_value_only_equals_per_point_ratio_bitwise() {
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
    let mut p = electrons(&coords);
    p.add_table_aa(Layout::Soa);
    let mut c = DiracDeterminant::new(
        Box::new(CosineSpo::<f64>::new(n, [L, L, L])),
        0,
        n,
        DetUpdateMode::ShermanMorrison,
    );
    p.update_tables();
    c.evaluate_log(&mut p);

    let iat = 3;
    for nq in [1usize, 7, 8, 9, 12, 18] {
        let positions: Vec<Pos<f64>> = (0..nq)
            .map(|q| {
                let t = q as f64;
                p.pos(iat) + TinyVector([0.21 * (t + 1.0).sin(), 0.17 * t.cos(), 0.05 * t - 0.3])
            })
            .collect();
        let mut batched = vec![1.0; nq];
        assert!(c.ratios_value_only(&p, iat, &positions, &mut batched));
        for (q, &r) in positions.iter().enumerate() {
            p.prepare_move(iat);
            p.make_move(iat, r);
            let per_point = c.ratio(&p, iat);
            c.restore(iat);
            p.reject_move(iat);
            assert_eq!(
                batched[q].to_bits(),
                per_point.to_bits(),
                "nq={nq} point {q}: {} vs {per_point}",
                batched[q]
            );
        }
    }
}
