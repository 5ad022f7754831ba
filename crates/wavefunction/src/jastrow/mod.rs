//! Jastrow correlation factors (Eq. 3 of the paper).
//!
//! `log psi_J = -sum u(r)` with cubic-B-spline functors `u`. Each factor
//! exists in two implementations mirroring the paper's ladder:
//!
//! * `*Ref` — the baseline store-everything policy: J2 keeps full `N x N`
//!   matrices of values, gradients (AoS) and Laplacians — the `5 N^2
//!   sizeof(T)` per walker of §6.1 — and updates row+column on acceptance.
//! * `*Soa` — the optimized compute-on-the-fly policy (§7.5): only
//!   per-electron accumulators (`5 N sizeof(T)`) are kept, and the
//!   functor rows below recompute pair terms from the SoA distance-table
//!   rows when needed.
//!
//! ## Why the functor row is masked
//!
//! A functor vanishes beyond its cutoff, and in a periodic cell most
//! partners are beyond it. The workloads' J2 `r_cut` = 3.9 bohr spans a
//! 248 bohr³ sphere: about 13 % of the 1900 bohr³ Graphite-64 and
//! 1964 bohr³ NiO-32 cells, and about 3 % of the 7600 bohr³ Graphite-256
//! cell, so that is the share of partners inside. A per-partner
//! `if d < r_cut` branch mispredicts on a random ~13 % of partners, so
//! [`evaluate_v_row`] / [`evaluate_vgl_row`] instead build one branch-free
//! `d < r_cut` bit mask per 64 partners, zero-fill the outputs, and run the
//! scalar functor only on the set bits (QMCPACK's `BsplineFunctor`
//! compacts the in-cutoff distances for the same reason). On fresh random
//! rows at that density that halves the cost per pair (f32, N = 64, one
//! core of an AVX-512 Xeon: 3.1 → 1.4 ns for `v`, 3.7 → 2.1 ns for
//! `vgl`). The mask spans the whole row rather than each spin or ion
//! group: a row of 64 split into two groups of 32 then pays one mask
//! build and one pass, and the per-group variant measured ~8 % slower for
//! `vgl`.

// Kernel module (DESIGN §5c): its non-test code does not panic.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

pub mod j1_ref;
pub mod j1_soa;
pub mod j2_ref;
pub mod j2_soa;

use qmc_bspline::CubicBspline1D;
use qmc_containers::Real;
use std::ops::Range;

pub use j1_ref::J1Ref;
pub use j1_soa::J1Soa;
pub use j2_ref::J2Ref;
pub use j2_soa::J2Soa;

/// Symmetric per-group-pair functor set for two-body Jastrows.
#[derive(Clone)]
pub struct PairFunctors<T: Real> {
    ngroups: usize,
    /// Row-major `[g1][g2]`, symmetric.
    functors: Vec<CubicBspline1D<T>>,
}

impl<T: Real> PairFunctors<T> {
    /// Builds from a closure giving the functor for each ordered pair;
    /// asserts symmetry is respected by construction (the closure is called
    /// once per unordered pair and mirrored).
    #[expect(clippy::unwrap_used, reason = "setup: the loop fills every pair")]
    pub fn new(ngroups: usize, mut f: impl FnMut(usize, usize) -> CubicBspline1D<T>) -> Self {
        let mut functors: Vec<Option<CubicBspline1D<T>>> = vec![None; ngroups * ngroups];
        for a in 0..ngroups {
            for b in a..ngroups {
                let fu = f(a, b);
                functors[a * ngroups + b] = Some(fu.clone());
                functors[b * ngroups + a] = Some(fu);
            }
        }
        Self {
            ngroups,
            functors: functors.into_iter().map(|o| o.unwrap()).collect(),
        }
    }

    /// Number of particle groups covered.
    pub fn ngroups(&self) -> usize {
        self.ngroups
    }

    /// Functor for the (unordered) group pair `(a, b)`.
    #[inline]
    pub fn get(&self, a: usize, b: usize) -> &CubicBspline1D<T> {
        &self.functors[a * self.ngroups + b]
    }

    /// The functors seen from group `a`, one per partner group.
    #[inline]
    pub fn row(&self, a: usize) -> &[CubicBspline1D<T>] {
        &self.functors[a * self.ngroups..(a + 1) * self.ngroups]
    }
}

/// Calls `visit(functor, j)` for every partner `j` of a distance row with
/// `dists[j]` below the largest cutoff of the row, `functor` being the one
/// of `j`'s group (`groups[g]` pairs with `functors[g]`), in increasing `j`.
///
/// One branch-free mask word is built per 64 partners; each group then
/// walks the set bits inside its range. A partner between its own group's
/// cutoff and the row's largest one is still visited: the functor returns
/// exact zeros there, so callers write the same bits as a skipped partner.
#[inline]
fn for_each_inside<T: Real>(
    functors: &[CubicBspline1D<T>],
    groups: &[Range<usize>],
    dists: &[T],
    mut visit: impl FnMut(&CubicBspline1D<T>, usize),
) {
    let r_cut = functors
        .iter()
        .map(CubicBspline1D::r_cut)
        .fold(T::ZERO, T::max);
    for (w, word) in dists.chunks(64).enumerate() {
        let mask = word
            .iter()
            .enumerate()
            .fold(0u64, |mask, (k, &d)| mask | (u64::from(d < r_cut) << k));
        if mask == 0 {
            continue;
        }
        let base = 64 * w;
        for (f, r) in functors.iter().zip(groups) {
            let (lo, hi) = (r.start.max(base), r.end.min(base + word.len()));
            if lo >= hi {
                continue;
            }
            let mut bits = mask & ((u64::MAX >> (64 - (hi - lo))) << (lo - base));
            while bits != 0 {
                visit(f, base + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }
}

/// Functor row with derivatives: for each partner `j` of a distance row,
/// `u(d)`, `u'(d)/d` and the radial Laplacian term `u''(d) + 2 u'(d)/d`,
/// zero at and beyond the cutoff. `groups[g]` is the index range of the
/// partners `functors[g]` applies to; the ranges tile `0..dists.len()`.
/// The premultiplied `u'/d` form is what the gradient accumulation needs
/// (`grad = (u'/d) * dr`).
pub fn evaluate_vgl_row<T: Real>(
    functors: &[CubicBspline1D<T>],
    groups: &[Range<usize>],
    dists: &[T],
    u: &mut [T],
    du_over_d: &mut [T],
    lap: &mut [T],
) {
    let n = dists.len();
    u[..n].fill(T::ZERO);
    du_over_d[..n].fill(T::ZERO);
    lap[..n].fill(T::ZERO);
    let two = T::from_f64(2.0);
    for_each_inside(functors, groups, dists, |f, j| {
        let d = dists[j];
        let (v, dv, d2v) = f.evaluate_vgl(d);
        let inv_d = T::ONE / d;
        u[j] = v;
        du_over_d[j] = dv * inv_d;
        lap[j] = d2v + two * dv * inv_d;
    });
}

/// Value-only functor row: `u(d[j])`, zero at and beyond the cutoff
/// (groups as in [`evaluate_vgl_row`]).
pub fn evaluate_v_row<T: Real>(
    functors: &[CubicBspline1D<T>],
    groups: &[Range<usize>],
    dists: &[T],
    u: &mut [T],
) {
    u[..dists.len()].fill(T::ZERO);
    for_each_inside(functors, groups, dists, |f, j| u[j] = f.evaluate(dists[j]));
}

#[cfg(test)]
pub(crate) mod test_support {
    use super::*;

    /// Simple repulsive e-e style functor for tests.
    pub fn test_functor(cusp: f64, rcut: f64) -> CubicBspline1D<f64> {
        CubicBspline1D::fit(
            move |r| -cusp * rcut / 2.0 * (1.0 - r / rcut).powi(2) / (1.0 + r),
            cusp,
            rcut,
            10,
        )
    }

    /// Bits of a `T`, through the exact widening to `f64` (injective on
    /// `f32`, so `+0`/`-0` and every rounding difference stay visible).
    fn bits<T: Real>(x: T) -> u64 {
        x.to_f64().to_bits()
    }

    /// The per-partner branch the masked rows replaced: the bit-level
    /// spec of `(u, u'/d, lap)` for one partner.
    fn scalar_vgl<T: Real>(f: &CubicBspline1D<T>, d: T) -> [T; 3] {
        if d < f.r_cut() {
            let (v, dv, d2v) = f.evaluate_vgl(d);
            let inv_d = T::ONE / d;
            [v, dv * inv_d, d2v + T::from_f64(2.0) * dv * inv_d]
        } else {
            [T::ZERO; 3]
        }
    }

    /// Masked rows against the per-partner spec, bit for bit, over row
    /// lengths on both sides of every mask-word edge, one to three groups
    /// with different cutoffs (an empty one, and ranges straddling a word),
    /// and the distances where a mask could disagree with the branch: each
    /// cutoff exactly and one ulp below it, 1e-6, the self-distance
    /// sentinel (`f64::MAX`, `inf` in `f32`), NaN, and the f32 distance
    /// below the cutoff that rounds onto the last knot. Outputs start as
    /// garbage, so a partner the row forgets to zero fails.
    fn rows_match_the_branch<T: Real>(next_down: fn(T) -> T) {
        let rc = [3.9, 2.5, 2.9];
        let functors: Vec<CubicBspline1D<T>> =
            rc.iter().map(|&r| test_functor(-0.5, r).cast()).collect();
        let mut specials = vec![
            T::from_f64(1e-6),
            T::from_f64(f64::MAX),
            T::from_f64(f64::NAN),
        ];
        let mut clamps = 0;
        for (f, r) in functors.iter().zip(rc) {
            let below = next_down(f.r_cut());
            specials.extend([f.r_cut(), below]);
            // `fit` stores inv_h = 9 / r_cut in f64 for its ten knots.
            let inv_h = T::from_f64(9.0 / r);
            if (below * inv_h).floor().to_f64() >= 9.0 {
                clamps += 1;
            }
        }
        if std::mem::size_of::<T>() == 4 {
            assert!(clamps > 0, "no f32 last-knot clamp case among the cutoffs");
        }

        for n in [0usize, 1, 31, 32, 33, 63, 64, 65, 130, 384] {
            let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ n as u64;
            let dists: Vec<T> = (0..n)
                .map(|j| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    if j % 5 == 0 {
                        specials[(j / 5) % specials.len()]
                    } else {
                        T::from_f64((state >> 11) as f64 / (1u64 << 53) as f64 * 4.5)
                    }
                })
                .collect();
            let (third, half) = (n / 3, n / 2);
            let layouts: [Vec<Range<usize>>; 4] = [
                std::iter::once(0..n).collect(),
                vec![0..half, half..n],
                vec![0..third, third..third, third..n],
                vec![0..third, third..2 * third, 2 * third..n],
            ];
            for groups in &layouts {
                let fs = &functors[..groups.len()];
                let garbage = T::from_f64(7.25);
                let (mut u, mut dud, mut lap) =
                    (vec![garbage; n], vec![garbage; n], vec![garbage; n]);
                evaluate_vgl_row(fs, groups, &dists, &mut u, &mut dud, &mut lap);
                let mut v = vec![garbage; n];
                evaluate_v_row(fs, groups, &dists, &mut v);
                for (f, r) in fs.iter().zip(groups) {
                    for j in r.clone() {
                        let want = scalar_vgl(f, dists[j]);
                        let got = [u[j], dud[j], lap[j]];
                        let d = dists[j];
                        assert_eq!(
                            want.map(bits),
                            got.map(bits),
                            "vgl n={n} {groups:?} j={j} d={d:?}"
                        );
                        let want_v = if d < f.r_cut() {
                            f.evaluate(d)
                        } else {
                            T::ZERO
                        };
                        assert_eq!(bits(want_v), bits(v[j]), "v n={n} {groups:?} j={j} d={d:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn masked_rows_are_bitwise_the_per_partner_branch_f64() {
        rows_match_the_branch::<f64>(|x| f64::from_bits(x.to_bits() - 1));
    }

    #[test]
    fn masked_rows_are_bitwise_the_per_partner_branch_f32() {
        rows_match_the_branch::<f32>(|x| f32::from_bits(x.to_bits() - 1));
    }

    #[test]
    fn pair_functors_symmetric() {
        let pf = PairFunctors::new(2, |a, b| {
            test_functor(if a == b { -0.25 } else { -0.5 }, 2.0)
        });
        let d = 1.234;
        assert_eq!(pf.get(0, 1).evaluate(d), pf.get(1, 0).evaluate(d));
        assert_eq!(pf.ngroups(), 2);
    }
}
