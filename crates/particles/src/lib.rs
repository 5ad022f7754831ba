//! # qmc-particles
//!
//! Particle-simulation substrate: periodic [`CrystalLattice`]s, the
//! [`ParticleSet`] abstraction with coherent AoS + SoA position storage
//! (§7.3, Fig. 5 of the paper), and the distance tables at the heart of the
//! paper's optimization story — baseline packed-triangle AoS tables versus
//! SoA tables with forward update and compute-on-the-fly rows (§7.4-7.5,
//! Fig. 6).

// Physics crate (DESIGN §5c): its non-test code names none of the types
// and calls none of the methods `clippy.toml` disallows, and each cast it
// makes carries an `#[expect(.., reason)]`.
#![cfg_attr(not(test), warn(clippy::disallowed_types, clippy::disallowed_methods))]
#![cfg_attr(not(test), warn(clippy::cast_possible_truncation))]
#![cfg_attr(not(test), warn(clippy::cast_precision_loss, clippy::cast_lossless))]

pub mod dtable;
pub mod lattice;
pub mod particle_set;
pub mod random;

pub use dtable::{
    DistTableAARef, DistTableAASoA, DistTableABRef, DistTableABSoA, Layout, MwRowStage,
};
pub use lattice::CrystalLattice;
pub use particle_set::{DistTable, ParticleSet, Species};
pub use random::{gaussian, gaussian_pos, random_positions_in_cell};

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;
    use qmc_containers::TinyVector;

    proptest! {
        /// Fast min-image equals the exact 27-image search for orthorhombic
        /// cells, for any displacement.
        #[test]
        fn min_image_exact_orthorhombic(
            x in -30.0f64..30.0, y in -30.0f64..30.0, z in -30.0f64..30.0,
            lx in 2.0f64..12.0, ly in 2.0f64..12.0, lz in 2.0f64..12.0,
        ) {
            let lat = CrystalLattice::<f64>::orthorhombic([lx, ly, lz]);
            let dr = TinyVector([x, y, z]);
            let fast = lat.min_image(dr);
            let exact = lat.min_image_exact(dr);
            prop_assert!((fast.norm() - exact.norm()).abs() < 1e-9,
                "fast {} vs exact {}", fast.norm(), exact.norm());
            // Components bounded by half cell.
            prop_assert!(fast[0].abs() <= lx / 2.0 + 1e-9);
            prop_assert!(fast[1].abs() <= ly / 2.0 + 1e-9);
            prop_assert!(fast[2].abs() <= lz / 2.0 + 1e-9);
        }

        /// AA ref and SoA tables agree after arbitrary accepted moves.
        #[test]
        fn tables_agree_after_random_moves(seed in 0u64..1000) {
            use rand::{RngExt, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let l = 6.0;
            let lat = CrystalLattice::<f64>::cubic(l);
            let n = 8;
            let r0 = random_positions_in_cell(&lat, n, &mut rng);
            let sp = Species { name: "u".into(), charge: -1.0 };
            let mut p = ParticleSet::<f64>::new("e", lat.clone(), vec![(sp, r0)]);
            let href = p.add_table_aa(Layout::Aos);
            let hsoa = p.add_table_aa(Layout::Soa);
            for _ in 0..5 {
                let iat = rng.random_range(0..n);
                let newpos = TinyVector([
                    rng.random::<f64>() * l,
                    rng.random::<f64>() * l,
                    rng.random::<f64>() * l,
                ]);
                p.prepare_move(iat);
                p.make_move(iat, newpos);
                // Candidate rows must agree between layouts.
                let tr = p.table(href).as_aa_ref();
                let ts = p.table(hsoa).as_aa_soa();
                for j in 0..n {
                    if j == iat { continue; }
                    prop_assert!((tr.temp_dist()[j] - ts.temp_dist()[j]).abs() < 1e-10);
                }
                if rng.random::<f64>() < 0.7 {
                    p.accept_move(iat);
                } else {
                    p.reject_move(iat);
                }
            }
            // After the sweep, refresh rows and compare all pairs.
            for i in 0..n {
                p.prepare_move(i);
                let tr = p.table(href).as_aa_ref();
                let ts = p.table(hsoa).as_aa_soa();
                for j in 0..n {
                    if i == j { continue; }
                    prop_assert!((tr.dist(i, j) - ts.dist_row(i)[j]).abs() < 1e-10,
                        "({i},{j}): {} vs {}", tr.dist(i, j), ts.dist_row(i)[j]);
                }
            }
        }
    }
}
