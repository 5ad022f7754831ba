//! The coefficient table itself: `random` pinned bit for bit, and the
//! storage layout every constructor must leave behind (periodic ghost
//! layers, zero pad lanes).

use proptest::prelude::*;
use qmc_bspline::MultiBspline3D;
use qmc_containers::Real;

fn fnv1a(bytes: impl Iterator<Item = u8>) -> u64 {
    bytes.fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a over the raw bits of the whole padded storage (ghosts and pad
/// lanes included), recorded from the scatter-from-a-logical-copy fill
/// this crate had before the in-place one. Every synthetic workload's
/// trajectory depends on these bits; a change here moves every
/// walker-hash in the repo.
#[test]
fn random_tables_keep_their_recorded_bits() {
    // (grid, splines, seed, f32 digest, f64 digest): a non-cubic grid
    // with a spline count that is no multiple of either pad, and a cube.
    let cases = [
        (
            [5, 6, 7],
            19,
            42,
            0xa870_1759_7e42_82c3_u64,
            0xfd31_3bfc_5ecd_6ee8_u64,
        ),
        (
            [8, 8, 8],
            16,
            7,
            0x7058_7bef_782f_f796,
            0xf911_d499_2138_27fd,
        ),
    ];
    for (grid, ns, seed, want32, want64) in cases {
        let t32 = MultiBspline3D::<f32>::random(grid, ns, seed);
        let t64 = MultiBspline3D::<f64>::random(grid, ns, seed);
        let bits32 = t32
            .view()
            .coefs
            .iter()
            .flat_map(|c| c.to_bits().to_le_bytes());
        let bits64 = t64
            .view()
            .coefs
            .iter()
            .flat_map(|c| c.to_bits().to_le_bytes());
        assert_eq!(fnv1a(bits32), want32, "f32 {grid:?} x {ns}, seed {seed}");
        assert_eq!(fnv1a(bits64), want64, "f64 {grid:?} x {ns}, seed {seed}");
    }
}

/// Offset of row `(ix, iy, iz)` in the padded storage.
fn row_of<T: Real>(t: &MultiBspline3D<T>, ix: usize, iy: usize, iz: usize) -> usize {
    let v = t.view();
    ((ix * (v.grid[1] + 3) + iy) * (v.grid[2] + 3) + iz) * v.ns_pad
}

/// Every stored row, ghosts included, equals its periodic image; every
/// pad lane is zero; the interior is not blank.
fn check_layout<T: Real>(t: &MultiBspline3D<T>) -> Result<(), TestCaseError> {
    let v = t.view();
    let [nx, ny, nz] = v.grid;
    let ns = v.num_splines;
    for ix in 0..nx + 3 {
        for iy in 0..ny + 3 {
            for iz in 0..nz + 3 {
                let row = row_of(t, ix, iy, iz);
                let image = row_of(t, ix % nx, iy % ny, iz % nz);
                prop_assert!(
                    v.coefs[row..row + ns] == v.coefs[image..image + ns],
                    "({ix},{iy},{iz}) is not its periodic image"
                );
                prop_assert!(
                    v.coefs[row + ns..row + v.ns_pad]
                        .iter()
                        .all(|&c| c == T::ZERO),
                    "pad lanes of ({ix},{iy},{iz}) were written"
                );
            }
        }
    }
    prop_assert!(v.coefs.iter().any(|&c| c != T::ZERO), "nothing was filled");
    Ok(())
}

fn field(ix: usize, iy: usize, iz: usize, s: usize) -> f64 {
    (ix as f64 * 0.3 + iy as f64 * 0.7 - iz as f64 * 0.2).sin() + 0.1 * s as f64 + 0.05
}

fn check_constructors<T: Real>(
    grid: [usize; 3],
    ns: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    check_layout(&MultiBspline3D::<T>::random(grid, ns, seed))?;
    check_layout(&MultiBspline3D::<T>::interpolating(grid, ns, field))?;

    // `set_control_points` visits each logical point exactly once, in
    // storage order (what ties `random`'s stream to the layout), and
    // stores the converted value there.
    let mut t = MultiBspline3D::<T>::zeros(grid, ns);
    let mut visited = Vec::new();
    t.set_control_points(|ix, iy, iz, s| {
        visited.push((ix, iy, iz, s));
        field(ix, iy, iz, s)
    });
    check_layout(&t)?;
    let mut expected = Vec::with_capacity(visited.len());
    for ix in 0..grid[0] {
        for iy in 0..grid[1] {
            for iz in 0..grid[2] {
                for s in 0..ns {
                    expected.push((ix, iy, iz, s));
                    let got = t.view().coefs[row_of(&t, ix, iy, iz) + s];
                    prop_assert!(got == T::from_f64(field(ix, iy, iz, s)));
                }
            }
        }
    }
    prop_assert!(visited == expected, "fill order is not (ix, iy, iz, s)");
    Ok(())
}

proptest! {
    #[test]
    fn every_constructor_leaves_periodic_ghosts_and_zero_pads(
        nx in 4usize..8, ny in 4usize..8, nz in 4usize..8,
        ns in 1usize..21,
        seed in any::<u64>(),
    ) {
        check_constructors::<f32>([nx, ny, nz], ns, seed)?;
        check_constructors::<f64>([nx, ny, nz], ns, seed)?;
    }
}
