//! Two-body Jastrow accumulation kernels behind the [`Backend`] seam.
//!
//! The functor rows (`u(r)`, `u'(r)/r`, Laplacian terms) stay in
//! `qmc-wavefunction::jastrow` — they own the cutoff mask (one `d < r_cut`
//! bit per partner, the scalar functor run only on set bits) and the
//! group dispatch, and have no backend arms. What lives here are the hot
//! row reductions and forward-update
//! slab passes that `J2Soa` runs per electron: contract a finished
//! functor row against the displacement rows into the per-electron
//! accumulators (value, gradient, Laplacian of `log psi`).
//!
//! Verification contract: `reference` and `soa` keep every reduction in
//! the same partner order (`j = 0..n`) and are **bitwise identical**;
//! `simd` splits reductions across [`WideLane`]s and re-associates the
//! sum, so it is guaranteed only **within tolerance** (a few ULP times
//! the row length). Slab (elementwise) updates are bitwise on all three
//! backends. Lane width follows the mixed-precision ladder
//! ([`wide_f32`]): `f64` reduces 8-wide, `f32` takes the 16-wide rung.
//!
//! * `reference` — the interleaved per-partner loops moved from
//!   `J2Soa::{evaluate_log, ratio, ratio_grad, accept_move}`.
//! * `soa` — each accumulator gets its own contiguous pass (slab updates
//!   and reductions separated), the auto-vectorizer-friendly layout.
//! * `simd` — explicit lane blocks: elementwise slab updates plus
//!   lane-split reductions folded with [`Lane::hsum`], scalar tail last.

use crate::lanes::{wide_f32, WideLane};
use crate::Backend;
use qmc_containers::Real;

/// Per-electron accumulator contributions of one Jastrow row: value sum,
/// gradient of `log psi`, and the (unnegated) Laplacian sum.
#[derive(Clone, Copy, Debug)]
pub struct J2RowVgl<T: Real> {
    /// `sum_j u(r_j)`.
    pub v: T,
    /// `sum_j u'(r_j)/r_j * dr_j`, per Cartesian component.
    pub g: [T; 3],
    /// `sum_j lap_j` (caller negates for the `log psi` convention).
    pub l: T,
}

/// Contracts a functor VGL row (`u`, `dud = u'/r`, `lap`) against the
/// displacement rows into value/gradient/Laplacian sums.
pub fn j2_row_vgl<T: Real>(
    backend: Backend,
    u: &[T],
    dud: &[T],
    lap: &[T],
    dx: &[T],
    dy: &[T],
    dz: &[T],
    n: usize,
) -> J2RowVgl<T> {
    assert!(
        u.len() >= n
            && dud.len() >= n
            && lap.len() >= n
            && dx.len() >= n
            && dy.len() >= n
            && dz.len() >= n
    );
    match backend {
        Backend::Reference => {
            // Interleaved per-partner loop (moved from J2Soa::evaluate_log).
            let (mut v, mut gx, mut gy, mut gz, mut l) =
                (T::ZERO, T::ZERO, T::ZERO, T::ZERO, T::ZERO);
            for j in 0..n {
                v += u[j];
                gx = dud[j].mul_add(dx[j], gx);
                gy = dud[j].mul_add(dy[j], gy);
                gz = dud[j].mul_add(dz[j], gz);
                l += lap[j];
            }
            J2RowVgl {
                v,
                g: [gx, gy, gz],
                l,
            }
        }
        Backend::Soa => {
            // One contiguous pass per accumulator, same per-accumulator
            // partner order as reference — bitwise identical.
            let v = sum_scalar(u, n);
            let gx = dot_scalar(dud, dx, n);
            let gy = dot_scalar(dud, dy, n);
            let gz = dot_scalar(dud, dz, n);
            let l = sum_scalar(lap, n);
            J2RowVgl {
                v,
                g: [gx, gy, gz],
                l,
            }
        }
        Backend::Simd => {
            let v = sum_lanes(u, n);
            let gx = dot_lanes(dud, dx, n);
            let gy = dot_lanes(dud, dy, n);
            let gz = dot_lanes(dud, dz, n);
            let l = sum_lanes(lap, n);
            J2RowVgl {
                v,
                g: [gx, gy, gz],
                l,
            }
        }
    }
}

/// Value + gradient contraction of a candidate row (the `ratio_grad`
/// inner loop; no Laplacian term).
pub fn j2_row_vg<T: Real>(
    backend: Backend,
    u: &[T],
    dud: &[T],
    dx: &[T],
    dy: &[T],
    dz: &[T],
    n: usize,
) -> (T, [T; 3]) {
    assert!(u.len() >= n && dud.len() >= n && dx.len() >= n && dy.len() >= n && dz.len() >= n);
    match backend {
        Backend::Reference => {
            let (mut v, mut gx, mut gy, mut gz) = (T::ZERO, T::ZERO, T::ZERO, T::ZERO);
            for j in 0..n {
                v += u[j];
                gx = dud[j].mul_add(dx[j], gx);
                gy = dud[j].mul_add(dy[j], gy);
                gz = dud[j].mul_add(dz[j], gz);
            }
            (v, [gx, gy, gz])
        }
        Backend::Soa => (
            sum_scalar(u, n),
            [
                dot_scalar(dud, dx, n),
                dot_scalar(dud, dy, n),
                dot_scalar(dud, dz, n),
            ],
        ),
        Backend::Simd => (
            sum_lanes(u, n),
            [
                dot_lanes(dud, dx, n),
                dot_lanes(dud, dy, n),
                dot_lanes(dud, dz, n),
            ],
        ),
    }
}

/// Sum of a functor value row (the `ratio` inner loop).
pub fn j2_row_sum<T: Real>(backend: Backend, u: &[T], n: usize) -> T {
    assert!(u.len() >= n);
    match backend {
        Backend::Reference | Backend::Soa => sum_scalar(u, n),
        Backend::Simd => sum_lanes(u, n),
    }
}

/// Forward update of the value/Laplacian accumulators on move acceptance:
/// `vat[j] += cu[j] - ou[j]`, `lat[j] += ol[j] - cl[j]`, returning the
/// moved electron's new sums `(kv = sum cu, kl = sum cl)`. The slab
/// updates are bitwise on every backend; the returned sums follow the
/// reduction contract (`simd` within tolerance).
pub fn j2_accept_value_rows<T: Real>(
    backend: Backend,
    cu: &[T],
    ou: &[T],
    cl: &[T],
    ol: &[T],
    vat: &mut [T],
    lat: &mut [T],
    n: usize,
) -> (T, T) {
    assert!(cu.len() >= n && ou.len() >= n && cl.len() >= n && ol.len() >= n);
    assert!(vat.len() >= n && lat.len() >= n);
    match backend {
        Backend::Reference => {
            // Moved from J2Soa::accept_move: interleaved update+reduce,
            // then the separate Laplacian slab pass.
            let (mut kv, mut kl) = (T::ZERO, T::ZERO);
            for j in 0..n {
                vat[j] += cu[j] - ou[j];
                kv += cu[j];
                kl += cl[j];
            }
            for j in 0..n {
                lat[j] += ol[j] - cl[j];
            }
            (kv, kl)
        }
        Backend::Soa => {
            for j in 0..n {
                vat[j] += cu[j] - ou[j];
            }
            for j in 0..n {
                lat[j] += ol[j] - cl[j];
            }
            (sum_scalar(cu, n), sum_scalar(cl, n))
        }
        Backend::Simd => {
            slab_add_diff_lanes(cu, ou, vat, n);
            slab_add_diff_lanes(ol, cl, lat, n);
            (sum_lanes(cu, n), sum_lanes(cl, n))
        }
    }
}

/// Forward update of one gradient component on move acceptance:
/// `g[j] += od[j] * oldd[j] - cd[j] * newd[j]`, returning the moved
/// electron's component `k = sum_j cd[j] * newd[j]`.
pub fn j2_accept_grad_row<T: Real>(
    backend: Backend,
    od: &[T],
    oldd: &[T],
    cd: &[T],
    newd: &[T],
    g: &mut [T],
    n: usize,
) -> T {
    assert!(od.len() >= n && oldd.len() >= n && cd.len() >= n && newd.len() >= n && g.len() >= n);
    match backend {
        Backend::Reference => {
            // Moved from J2Soa::accept_move per-dimension loop.
            let mut k = T::ZERO;
            for j in 0..n {
                g[j] += od[j] * oldd[j] - cd[j] * newd[j];
                k = cd[j].mul_add(newd[j], k);
            }
            k
        }
        Backend::Soa => {
            for j in 0..n {
                g[j] += od[j] * oldd[j] - cd[j] * newd[j];
            }
            dot_scalar(cd, newd, n)
        }
        Backend::Simd => {
            if wide_f32::<T>() {
                accept_grad_slab_lanes_w::<T, 16>(od, oldd, cd, newd, g, n);
            } else {
                accept_grad_slab_lanes_w::<T, 8>(od, oldd, cd, newd, g, n);
            }
            dot_lanes(cd, newd, n)
        }
    }
}

// -- shared scalar reductions (reference/soa order) -------------------------

#[inline(always)]
fn sum_scalar<T: Real>(x: &[T], n: usize) -> T {
    let mut acc = T::ZERO;
    for j in 0..n {
        acc += x[j];
    }
    acc
}

#[inline(always)]
fn dot_scalar<T: Real>(a: &[T], b: &[T], n: usize) -> T {
    let mut acc = T::ZERO;
    for j in 0..n {
        acc = a[j].mul_add(b[j], acc);
    }
    acc
}

// -- lane-split reductions (simd: tolerance contract) -----------------------
//
// Each reduction has a width-generic body plus a [`wide_f32`] dispatcher
// so `f32` rows run the 16-wide rung of the precision ladder.

#[inline(always)]
fn sum_lanes<T: Real>(x: &[T], n: usize) -> T {
    if wide_f32::<T>() {
        sum_lanes_w::<T, 16>(x, n)
    } else {
        sum_lanes_w::<T, 8>(x, n)
    }
}

#[inline(always)]
fn sum_lanes_w<T: Real, const W: usize>(x: &[T], n: usize) -> T {
    let mut acc = WideLane::<T, W>::zero();
    let mut j0 = 0;
    while j0 + W <= n {
        acc = acc.add(WideLane::load(&x[j0..]));
        j0 += W;
    }
    let mut out = acc.hsum();
    for j in j0..n {
        out += x[j];
    }
    out
}

#[inline(always)]
fn dot_lanes<T: Real>(a: &[T], b: &[T], n: usize) -> T {
    if wide_f32::<T>() {
        dot_lanes_w::<T, 16>(a, b, n)
    } else {
        dot_lanes_w::<T, 8>(a, b, n)
    }
}

#[inline(always)]
fn dot_lanes_w<T: Real, const W: usize>(a: &[T], b: &[T], n: usize) -> T {
    let mut acc = WideLane::<T, W>::zero();
    let mut j0 = 0;
    while j0 + W <= n {
        acc = acc.fma(WideLane::load(&a[j0..]), WideLane::load(&b[j0..]));
        j0 += W;
    }
    let mut out = acc.hsum();
    for j in j0..n {
        out = a[j].mul_add(b[j], out);
    }
    out
}

/// Lane slab update `dst[j] += a[j] - b[j]` (elementwise: bitwise safe).
#[inline(always)]
fn slab_add_diff_lanes<T: Real>(a: &[T], b: &[T], dst: &mut [T], n: usize) {
    if wide_f32::<T>() {
        slab_add_diff_lanes_w::<T, 16>(a, b, dst, n);
    } else {
        slab_add_diff_lanes_w::<T, 8>(a, b, dst, n);
    }
}

#[inline(always)]
fn slab_add_diff_lanes_w<T: Real, const W: usize>(a: &[T], b: &[T], dst: &mut [T], n: usize) {
    let mut j0 = 0;
    while j0 + W <= n {
        let upd = WideLane::<T, W>::load(&a[j0..]).sub(WideLane::load(&b[j0..]));
        WideLane::<T, W>::load(&dst[j0..])
            .add(upd)
            .store(&mut dst[j0..]);
        j0 += W;
    }
    for j in j0..n {
        dst[j] += a[j] - b[j];
    }
}

/// Lane slab update of one gradient component on acceptance:
/// `g[j] += od[j]*oldd[j] - cd[j]*newd[j]` (elementwise: bitwise safe).
#[inline(always)]
fn accept_grad_slab_lanes_w<T: Real, const W: usize>(
    od: &[T],
    oldd: &[T],
    cd: &[T],
    newd: &[T],
    g: &mut [T],
    n: usize,
) {
    let mut j0 = 0;
    while j0 + W <= n {
        let upd = WideLane::<T, W>::load(&od[j0..])
            .mul(WideLane::load(&oldd[j0..]))
            .sub(WideLane::<T, W>::load(&cd[j0..]).mul(WideLane::load(&newd[j0..])));
        WideLane::<T, W>::load(&g[j0..])
            .add(upd)
            .store(&mut g[j0..]);
        j0 += W;
    }
    for j in j0..n {
        g[j] += od[j] * oldd[j] - cd[j] * newd[j];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize, seed: u64) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            })
            .collect()
    }

    #[test]
    fn reference_and_soa_bitwise_identical() {
        let n = 21; // exercises the lane tail too
        let (u, dud, lap) = (row(n, 1), row(n, 2), row(n, 3));
        let (dx, dy, dz) = (row(n, 4), row(n, 5), row(n, 6));
        let a = j2_row_vgl(Backend::Reference, &u, &dud, &lap, &dx, &dy, &dz, n);
        let b = j2_row_vgl(Backend::Soa, &u, &dud, &lap, &dx, &dy, &dz, n);
        assert_eq!(a.v, b.v);
        assert_eq!(a.g, b.g);
        assert_eq!(a.l, b.l);
        assert_eq!(
            j2_row_sum(Backend::Reference, &u, n),
            j2_row_sum(Backend::Soa, &u, n)
        );
    }

    #[test]
    fn simd_within_tolerance() {
        let n = 37;
        let (u, dud, lap) = (row(n, 7), row(n, 8), row(n, 9));
        let (dx, dy, dz) = (row(n, 10), row(n, 11), row(n, 12));
        let a = j2_row_vgl(Backend::Reference, &u, &dud, &lap, &dx, &dy, &dz, n);
        let c = j2_row_vgl(Backend::Simd, &u, &dud, &lap, &dx, &dy, &dz, n);
        let tol = 1e-12 * n as f64;
        assert!((a.v - c.v).abs() < tol);
        assert!((a.l - c.l).abs() < tol);
        for d in 0..3 {
            assert!((a.g[d] - c.g[d]).abs() < tol, "component {d}");
        }
    }

    #[test]
    fn accept_updates_match_across_backends() {
        let n = 19;
        let (cu, ou, cl, ol) = (row(n, 13), row(n, 14), row(n, 15), row(n, 16));
        let mut results = Vec::new();
        for b in Backend::ALL {
            let mut vat = row(n, 17);
            let mut lat = row(n, 18);
            let (kv, kl) = j2_accept_value_rows(b, &cu, &ou, &cl, &ol, &mut vat, &mut lat, n);
            results.push((vat, lat, kv, kl));
        }
        // Slab updates bitwise on all backends.
        assert_eq!(results[0].0, results[1].0);
        assert_eq!(results[0].0, results[2].0);
        assert_eq!(results[0].1, results[2].1);
        // Reductions: reference == soa bitwise, simd within tolerance.
        assert_eq!(results[0].2, results[1].2);
        assert_eq!(results[0].3, results[1].3);
        assert!((results[0].2 - results[2].2).abs() < 1e-12 * n as f64);

        let (od, oldd, cd, newd) = (row(n, 19), row(n, 20), row(n, 21), row(n, 22));
        let mut gs = Vec::new();
        for b in Backend::ALL {
            let mut g = row(n, 23);
            let k = j2_accept_grad_row(b, &od, &oldd, &cd, &newd, &mut g, n);
            gs.push((g, k));
        }
        assert_eq!(gs[0].0, gs[1].0);
        assert_eq!(gs[0].0, gs[2].0);
        assert_eq!(gs[0].1, gs[1].1);
        assert!((gs[0].1 - gs[2].1).abs() < 1e-12 * n as f64);
    }
}
