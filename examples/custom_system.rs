//! Building a custom QMC system from the low-level API: a hydrogen-like
//! diatomic toy crystal with B-spline orbitals, one- and two-body Jastrow
//! factors, full Coulomb interactions and a model pseudopotential —
//! everything the bundled workloads do, assembled by hand.
//!
//! This is the template to adapt for your own materials.
//!
//! ```text
//! cargo run --release --example custom_system
//! ```

use qmc::bspline::{CubicBspline1D, MultiBspline3D};
use qmc::prelude::*;
use std::sync::Arc;

fn main() {
    // --- geometry: two "ions" in a cubic cell --------------------------
    let l = 8.0;
    let lattice = CrystalLattice::<f64>::cubic(l);
    let ion_positions = vec![TinyVector([2.0, 4.0, 4.0]), TinyVector([6.0, 4.0, 4.0])];
    let ions = ParticleSet::new(
        "ion0",
        lattice.clone(),
        vec![(
            Species {
                name: "X".into(),
                charge: 2.0,
            },
            ion_positions.clone(),
        )],
    );

    // --- electrons: 2 up + 2 down, seeded near the ions ----------------
    let e_init = vec![
        TinyVector([2.3, 4.2, 3.8]),
        TinyVector([5.7, 3.9, 4.1]),
        TinyVector([1.8, 3.7, 4.3]),
        TinyVector([6.2, 4.4, 3.9]),
    ];
    let mut electrons = ParticleSet::new(
        "e",
        lattice.clone(),
        vec![
            (
                Species {
                    name: "u".into(),
                    charge: -1.0,
                },
                e_init[..2].to_vec(),
            ),
            (
                Species {
                    name: "d".into(),
                    charge: -1.0,
                },
                e_init[2..].to_vec(),
            ),
        ],
    );
    let h_aa = electrons.add_table_aa(Layout::Soa);
    let h_ab = electrons.add_table_ab(&ions, Layout::Soa);

    // --- orbitals: an interpolating spline table (2 orbitals) ----------
    // Smooth bonding/antibonding-like periodic functions sampled on a grid.
    let grid = [16, 16, 16];
    let table = Arc::new(MultiBspline3D::<f64>::interpolating(
        grid,
        2,
        |ix, iy, iz, s| {
            use std::f64::consts::TAU;
            let (x, y, z) = (
                ix as f64 / grid[0] as f64,
                iy as f64 / grid[1] as f64,
                iz as f64 / grid[2] as f64,
            );
            let bond = ((TAU * x).cos() + 1.5) * ((TAU * y).cos() * 0.3 + 1.0);
            match s {
                0 => bond * ((TAU * z).cos() * 0.2 + 1.0),
                _ => (TAU * x).sin() * ((TAU * z).cos() * 0.4 + 1.2),
            }
        },
    ));

    // --- wavefunction: Slater-Jastrow ----------------------------------
    let mut psi = TrialWaveFunction::new();
    let pair = PairFunctors::new(2, |a, b| {
        let (amp, cusp) = if a == b { (0.3, -0.25) } else { (0.45, -0.5) };
        CubicBspline1D::fit(move |r| amp * (1.0 - r / 3.5).powi(3), cusp, 3.5, 8)
    });
    psi.add(Box::new(J2Soa::new(&electrons, h_aa, pair)));
    let j1 = vec![CubicBspline1D::fit(
        |r| -0.4 * (1.0 - r / 3.0).powi(2),
        0.0,
        3.0,
        8,
    )];
    psi.add(Box::new(J1Soa::new(&electrons, &ions, h_ab, j1)));
    for (first, nel) in [(0usize, 2usize), (2, 2)] {
        psi.add(Box::new(DiracDeterminant::new(
            Box::new(BsplineSpo::new(
                Arc::clone(&table),
                lattice.clone(),
                Backend::current(),
            )),
            first,
            nel,
        )));
    }

    // --- hamiltonian: Coulomb + a model non-local pseudopotential -------
    use qmc::hamiltonian::{PpChannel, PseudoSpecies};
    let nlpp = NonLocalPP::new(
        h_ab,
        &ions,
        vec![PseudoSpecies {
            channels: vec![PpChannel {
                l: 0,
                v0: 1.0,
                alpha: 2.0,
            }],
            r_cut: 1.5,
        }],
    );
    let ham = HamiltonianSet::new(
        Some(CoulombEE::new(h_aa)),
        Some(CoulombEI::new(h_ab, &ions)),
        Some(&ions),
        Some(nlpp),
    );

    // --- run -------------------------------------------------------------
    let mut engine = QmcEngine::new(electrons, psi, ham);
    println!("custom system: {}", engine.psi.describe());
    let mut walkers = initial_population::<f64>(&e_init, 6, 19);
    // Serial, uncontrolled run: a crew of one engine, no resume state, no
    // checkpointing (the only way `run_dmc` can fail).
    let (res, _profile) = run_dmc(
        std::slice::from_mut(&mut engine),
        &mut walkers,
        &DmcParams {
            steps: 30,
            warmup: 8,
            tau: 0.01,
            target_population: 6,
            recompute_every: 10,
            seed: 5,
            ..Default::default()
        },
        None,
        &mut RunControl::none(),
    )
    .expect("no checkpoint to write");
    let (e, err, _) = res.energy.blocking();
    println!(
        "DMC energy {e:.4} +- {err:.4} hartree, acceptance {:.2}, population {}",
        res.acceptance,
        walkers.len()
    );
    assert!(e.is_finite());
    println!("custom-system walkthrough completed.");
}
