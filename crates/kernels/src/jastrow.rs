//! Two-body Jastrow accumulation kernels.
//!
//! The functor rows (`u(r)`, `u'(r)/r`, Laplacian terms) stay in
//! `qmc-wavefunction::jastrow` — they own the cutoff mask (one `d < r_cut`
//! bit per partner, the scalar functor run only on set bits) and the
//! group dispatch. What lives here are the hot row reductions and
//! forward-update slab passes that `J2Soa` runs per electron: contract a
//! finished functor row against the displacement rows into the
//! per-electron accumulators (value, gradient, Laplacian of `log psi`).
//!
//! There is one implementation and no [`crate::Backend`]: elementwise
//! slab updates in [`WideLane`] blocks, and reductions split across the
//! lanes of a block, folded with [`WideLane::hsum`] and finished by a
//! scalar tail. Lane width follows the mixed-precision ladder
//! ([`wide_f32`]): `f64` reduces 8-wide, `f32` takes the 16-wide rung.
//! That order fixes every bit of the trajectories that run `J2Soa`.
//!
//! Verification contract (`tests/backend_matrix.rs`): slab updates are
//! bitwise equal to the scalar elementwise formula; each reduction stays
//! within `(n + 1) · ε · Σ_j |term_j|` of the scalar left-to-right sum of
//! the same terms, where `ε` is the precision's machine epsilon. Both
//! orders round each of at most `n` additions once, so each lies within
//! `n · ε/2 · Σ|term|` of the exact sum (to first order).

use crate::lanes::{wide_f32, WideLane};
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
    J2RowVgl {
        v: sum_lanes(u, n),
        g: [
            dot_lanes(dud, dx, n),
            dot_lanes(dud, dy, n),
            dot_lanes(dud, dz, n),
        ],
        l: sum_lanes(lap, n),
    }
}

/// Value + gradient contraction of a candidate row (the `ratio_grad`
/// inner loop; no Laplacian term).
pub fn j2_row_vg<T: Real>(
    u: &[T],
    dud: &[T],
    dx: &[T],
    dy: &[T],
    dz: &[T],
    n: usize,
) -> (T, [T; 3]) {
    assert!(u.len() >= n && dud.len() >= n && dx.len() >= n && dy.len() >= n && dz.len() >= n);
    (
        sum_lanes(u, n),
        [
            dot_lanes(dud, dx, n),
            dot_lanes(dud, dy, n),
            dot_lanes(dud, dz, n),
        ],
    )
}

/// Sum of a functor value row (the `ratio` inner loop).
pub fn j2_row_sum<T: Real>(u: &[T], n: usize) -> T {
    assert!(u.len() >= n);
    sum_lanes(u, n)
}

/// Forward update of the value/Laplacian accumulators on move acceptance:
/// `vat[j] += cu[j] - ou[j]`, `lat[j] += ol[j] - cl[j]`, returning the
/// moved electron's new sums `(kv = sum cu, kl = sum cl)`.
pub fn j2_accept_value_rows<T: Real>(
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
    slab_add_diff_lanes(cu, ou, vat, n);
    slab_add_diff_lanes(ol, cl, lat, n);
    (sum_lanes(cu, n), sum_lanes(cl, n))
}

/// Forward update of one gradient component on move acceptance:
/// `g[j] += od[j] * oldd[j] - cd[j] * newd[j]`, returning the moved
/// electron's component `k = sum_j cd[j] * newd[j]`.
pub fn j2_accept_grad_row<T: Real>(
    od: &[T],
    oldd: &[T],
    cd: &[T],
    newd: &[T],
    g: &mut [T],
    n: usize,
) -> T {
    assert!(od.len() >= n && oldd.len() >= n && cd.len() >= n && newd.len() >= n && g.len() >= n);
    if wide_f32::<T>() {
        accept_grad_slab_lanes_w::<T, 16>(od, oldd, cd, newd, g, n);
    } else {
        accept_grad_slab_lanes_w::<T, 8>(od, oldd, cd, newd, g, n);
    }
    dot_lanes(cd, newd, n)
}

// -- lane-split reductions --------------------------------------------------
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
