//! Tricubic multi-B-spline SPO kernels: v / vgh / fused vgl, single- and
//! multi-walker, behind the [`Backend`] dispatch seam.
//!
//! The coefficient table itself (allocation, interpolation fits, ghost
//! layers) stays in `qmc-bspline`; this module operates on a borrowed
//! [`SplineView`] so the kernel library depends only on `qmc-containers`.
//!
//! All three backends accumulate each orbital over the 64 stencil nodes in
//! the same `(a, b, c)` order with the same `mul_add` placement, and every
//! per-node weight is produced by one shared `#[inline(always)]` helper —
//! so the backends are **bitwise identical** by construction and differ
//! only in loop structure:
//!
//! * `reference` — spline index outermost: per-orbital strided walks over
//!   the table (the baseline the paper's Fig. 8 speedups are against).
//! * `soa` — spline index innermost: contiguous auto-vectorized slabs
//!   streamed through memory once per stencil node (arXiv:1611.02665).
//! * `simd` — explicit lane-struct vectorization with the register
//!   blocking/tiling scheme of the B-spline companion paper (Mathuriya et
//!   al., arXiv:1611.02665): the 64 per-node weights are precomputed once
//!   with the `4x4` `(a, b)` prefactor products hoisted out of the `c`
//!   loop, the splines dimension is the vector loop over contiguous SoA
//!   coefficient rows, and each macro-tile of lane blocks keeps *all* of
//!   its accumulators in [`WideLane`] registers across the whole 64-node
//!   stencil — one store per output slab instead of one read-modify-write
//!   slab pass per node.
//!
//! Lane width follows the mixed-precision ladder ([`wide_f32`]): `f64`
//! runs 8-wide, `f32` runs 16-wide (one 512-bit register either way).
//! Widening never reorders a per-orbital accumulation, so the bitwise
//! contract holds on both rungs.
//!
//! ## Why `vgh` hints and `v` does not
//!
//! On a table far out of cache both `simd` kernels read the same 64 rows,
//! yet `v` streamed them at the one-core DRAM rate while `vgh` reached less
//! than a third of it. `v` keeps four accumulators per tile, so each row
//! visit takes four consecutive lines and the whole 64-node body is short
//! enough that the misses of the next tile start under the current one.
//! `vgh` keeps ten accumulators per block, so each of its `ns / W` passes
//! touches exactly *one* line in each of 64 rows that lie a row, a plane
//! or a slab apart — no stream for a hardware prefetcher to see — and its
//! 64-node FMA body is longer than the reorder window, so the misses of
//! pass `p + 1` cannot begin under pass `p`: latency-bound, not
//! bandwidth-bound. `vgh_simd_w` therefore issues
//! [`qmc_containers::prefetch_read`] for the next pass's line beside each
//! row load (one block ahead measured best; further ahead, the whole
//! stencil up front, or an L2-only hint were each slower). A next-point
//! hint in [`mw_evaluate_v`] and a single-pass twelve-block `v` tile were
//! measured flat: `v` has no latency left to hide, only bytes. The hint is
//! a safe function whose one `unsafe` block lives in `qmc-containers`; this
//! crate keeps `#![forbid(unsafe_code)]`, and the hint cannot move a bit.

use crate::lanes::{wide_f32, WideLane};
use crate::Backend;
use qmc_containers::{prefetch_read, Real};

/// Cubic B-spline basis weights for parameter `u` in `[0, 1)`.
///
/// Returns `(w, dw, d2w)`: value, first and second derivative weights of the
/// four control points spanning the interval. (Moved from
/// `qmc-bspline::cubic1d`, which re-exports it; both the 1D Jastrow
/// functors and the tricubic kernels below share this stencil.)
#[inline]
pub fn bspline_weights<T: Real>(u: T) -> ([T; 4], [T; 4], [T; 4]) {
    let one = T::ONE;
    let half = T::HALF;
    let sixth = T::from_f64(1.0 / 6.0);
    let u2 = u * u;
    let u3 = u2 * u;
    let omu = one - u;
    let w = [
        sixth * omu * omu * omu,
        half * u3 - u2 + T::from_f64(2.0 / 3.0),
        -half * u3 + half * u2 + half * u + sixth,
        sixth * u3,
    ];
    let dw = [
        -half * omu * omu,
        T::from_f64(1.5) * u2 - u - u,
        T::from_f64(-1.5) * u2 + u + half,
        half * u2,
    ];
    let d2w = [
        omu,
        T::from_f64(3.0) * u - one - one,
        one - T::from_f64(3.0) * u,
        u,
    ];
    (w, dw, d2w)
}

/// A borrowed view of a periodic tricubic coefficient table
/// (`qmc_bspline::MultiBspline3D::view`). Layout: `[ix][iy][iz][spline]`
/// with each spatial index padded by +3 periodic ghost layers and the
/// spline index padded to `ns_pad` (a cacheline multiple, so every
/// [`LANES`]-wide block load of a live orbital stays in bounds).
#[derive(Clone, Copy)]
pub struct SplineView<'a, T: Real> {
    /// Logical periodic grid `(nx, ny, nz)`.
    pub grid: [usize; 3],
    /// Number of orbitals stored.
    pub num_splines: usize,
    /// Padded orbital count (innermost stride).
    pub ns_pad: usize,
    /// Coefficient storage, `(nx+3)(ny+3)(nz+3) * ns_pad` scalars.
    pub coefs: &'a [T],
}

impl<T: Real> SplineView<'_, T> {
    #[inline]
    fn idx(&self, ix: usize, iy: usize, iz: usize) -> usize {
        let [_, ny, nz] = self.grid;
        ((ix * (ny + 3) + iy) * (nz + 3) + iz) * self.ns_pad
    }
}

/// Maps a fractional coordinate to (stencil origin, intra-cell offset).
#[inline]
pub fn locate<T: Real>(u: T, n: usize) -> (usize, T) {
    // Wrap fractional coordinate into [0,1) then scale to grid units.
    let mut uf = u - u.floor();
    if uf >= T::ONE {
        uf = T::ZERO;
    }
    let t = uf * T::from_usize(n);
    let i = t.floor();
    let frac = t - i;
    let mut i = i.to_f64() as usize;
    if i >= n {
        i = n - 1; // guards the uf ~ 1.0 rounding edge
    }
    (i, frac)
}

/// The 64 coefficient-row offsets of the `4^3` stencil at `(ix, iy, iz)`,
/// in the canonical `(a, b, c)` node order every backend shares.
#[inline(always)]
fn stencil_bases<T: Real>(t: &SplineView<'_, T>, ix: usize, iy: usize, iz: usize) -> [usize; 64] {
    let mut bases = [0usize; 64];
    let mut k = 0;
    for a in 0..4 {
        for b in 0..4 {
            for c in 0..4 {
                bases[k] = t.idx(ix + a, iy + b, iz + c);
                k += 1;
            }
        }
    }
    bases
}

// ---------------------------------------------------------------------------
// value-only (v)
// ---------------------------------------------------------------------------

/// Value-only evaluation at fractional coordinates `u`, writing
/// `num_splines` values into `psi`. Bitwise identical across backends.
pub fn evaluate_v<T: Real>(backend: Backend, t: &SplineView<'_, T>, u: [T; 3], psi: &mut [T]) {
    match backend {
        Backend::Reference => v_reference(t, u, psi),
        Backend::Soa => v_soa(t, u, psi),
        Backend::Simd => v_simd(t, u, psi),
    }
}

#[inline(always)]
fn v_setup<T: Real>(t: &SplineView<'_, T>, u: [T; 3]) -> ([usize; 3], [[T; 4]; 3]) {
    let (ix, ux) = locate(u[0], t.grid[0]);
    let (iy, uy) = locate(u[1], t.grid[1]);
    let (iz, uz) = locate(u[2], t.grid[2]);
    let (wx, _, _) = bspline_weights(ux);
    let (wy, _, _) = bspline_weights(uy);
    let (wz, _, _) = bspline_weights(uz);
    ([ix, iy, iz], [wx, wy, wz])
}

/// Spline-outermost scalar loops.
fn v_reference<T: Real>(t: &SplineView<'_, T>, u: [T; 3], psi: &mut [T]) {
    assert!(psi.len() >= t.num_splines);
    let ([ix, iy, iz], [wx, wy, wz]) = v_setup(t, u);
    for (s, out) in psi[..t.num_splines].iter_mut().enumerate() {
        let mut acc = T::ZERO;
        for a in 0..4 {
            for b in 0..4 {
                let wab = wx[a] * wy[b];
                for c in 0..4 {
                    let base = t.idx(ix + a, iy + b, iz + c);
                    acc = (wab * wz[c]).mul_add(t.coefs[base + s], acc);
                }
            }
        }
        *out = acc;
    }
}

/// Spline-innermost auto-vectorized slabs.
fn v_soa<T: Real>(t: &SplineView<'_, T>, u: [T; 3], psi: &mut [T]) {
    let ns = t.num_splines;
    assert!(psi.len() >= ns);
    let ([ix, iy, iz], [wx, wy, wz]) = v_setup(t, u);
    psi[..ns].fill(T::ZERO);
    for a in 0..4 {
        for b in 0..4 {
            let wab = wx[a] * wy[b];
            for c in 0..4 {
                let w = wab * wz[c];
                let base = t.idx(ix + a, iy + b, iz + c);
                let coefs = &t.coefs[base..base + ns];
                for (p, &cf) in psi[..ns].iter_mut().zip(coefs) {
                    *p = w.mul_add(cf, *p);
                }
            }
        }
    }
}

/// The 64 value weights with the `(a, b)` prefactor product hoisted out
/// of the `c` loop. Each product is the same left-associated
/// `(wx*wy)*wz` every backend computes, so the table is bitwise
/// identical to per-node evaluation.
#[inline(always)]
fn v_weight_table<T: Real>([wx, wy, wz]: &[[T; 4]; 3]) -> [T; 64] {
    let mut w = [T::ZERO; 64];
    let mut k = 0;
    for a in 0..4 {
        for b in 0..4 {
            let wab = wx[a] * wy[b];
            for c in 0..4 {
                w[k] = wab * wz[c];
                k += 1;
            }
        }
    }
    w
}

/// Width dispatch for the explicit-SIMD value kernel: `f32` takes the
/// 16-wide rung, `f64` the 8-wide one.
fn v_simd<T: Real>(t: &SplineView<'_, T>, u: [T; 3], psi: &mut [T]) {
    if wide_f32::<T>() {
        v_simd_w::<T, 16>(t, u, psi);
    } else {
        v_simd_w::<T, 8>(t, u, psi);
    }
}

/// Register-blocked lane evaluation (arXiv:1611.02665 tiling): the 64
/// node weights are computed once, then a 4-block macro-tile (`4*W`
/// orbitals) keeps four accumulator registers live across the whole
/// stencil — one store per block instead of one read-modify-write slab
/// pass per node, and four independent FMA chains per node to cover the
/// FMA latency.
fn v_simd_w<T: Real, const W: usize>(t: &SplineView<'_, T>, u: [T; 3], psi: &mut [T]) {
    let ns = t.num_splines;
    assert!(psi.len() >= ns);
    let ([ix, iy, iz], w3) = v_setup(t, u);
    let bases = stencil_bases(t, ix, iy, iz);
    let w = v_weight_table(&w3);
    let mut s0 = 0;
    while s0 + 4 * W <= ns {
        let mut a0 = WideLane::<T, W>::zero();
        let mut a1 = WideLane::<T, W>::zero();
        let mut a2 = WideLane::<T, W>::zero();
        let mut a3 = WideLane::<T, W>::zero();
        for k in 0..64 {
            let row = &t.coefs[bases[k] + s0..];
            a0 = a0.fma_scalar(w[k], WideLane::load(row));
            a1 = a1.fma_scalar(w[k], WideLane::load(&row[W..]));
            a2 = a2.fma_scalar(w[k], WideLane::load(&row[2 * W..]));
            a3 = a3.fma_scalar(w[k], WideLane::load(&row[3 * W..]));
        }
        a0.store(&mut psi[s0..]);
        a1.store(&mut psi[s0 + W..]);
        a2.store(&mut psi[s0 + 2 * W..]);
        a3.store(&mut psi[s0 + 3 * W..]);
        s0 += 4 * W;
    }
    while s0 + W <= ns {
        let mut acc = WideLane::<T, W>::zero();
        for k in 0..64 {
            acc = acc.fma_scalar(w[k], WideLane::load(&t.coefs[bases[k] + s0..]));
        }
        acc.store(&mut psi[s0..]);
        s0 += W;
    }
    // Scalar tail: same per-orbital node order as the blocks.
    for s in s0..ns {
        let mut acc = T::ZERO;
        for k in 0..64 {
            acc = w[k].mul_add(t.coefs[bases[k] + s], acc);
        }
        psi[s] = acc;
    }
}

/// Multi-point value-only evaluation, sized for the NLPP quadrature loop:
/// `us.len()` positions (one spherical-quadrature shell, typically 12)
/// against the shared table in one call. Outputs are point-major —
/// point `q` owns `psi[q*ns..(q+1)*ns]`. Per-point results are bitwise
/// identical to [`evaluate_v`] on every backend (each point is an
/// independent accumulation), so the fast path never perturbs the NLPP
/// energies.
// qmclint: allow(timer-coverage) — timed by the caller (BsplineSpo wraps
// the dispatch in Kernel::BsplineV); the kernel library itself stays
// free of instrumentation dependencies.
pub fn mw_evaluate_v<T: Real>(
    backend: Backend,
    t: &SplineView<'_, T>,
    us: &[[T; 3]],
    psi: &mut [T],
) {
    let ns = t.num_splines;
    assert!(psi.len() >= us.len() * ns);
    for (q, &u) in us.iter().enumerate() {
        evaluate_v(backend, t, u, &mut psi[q * ns..(q + 1) * ns]);
    }
}

// ---------------------------------------------------------------------------
// value + gradient + Hessian (vgh)
// ---------------------------------------------------------------------------

#[inline(always)]
fn vgh_setup<T: Real>(t: &SplineView<'_, T>, u: [T; 3]) -> ([usize; 3], [[T; 4]; 9]) {
    let (ix, ux) = locate(u[0], t.grid[0]);
    let (iy, uy) = locate(u[1], t.grid[1]);
    let (iz, uz) = locate(u[2], t.grid[2]);
    let (wx, dwx, d2wx) = bspline_weights(ux);
    let (wy, dwy, d2wy) = bspline_weights(uy);
    let (wz, dwz, d2wz) = bspline_weights(uz);
    ([ix, iy, iz], [wx, wy, wz, dwx, dwy, dwz, d2wx, d2wy, d2wz])
}

/// The ten per-node stencil weights `[v, gx, gy, gz, hxx, hxy, hxz, hyy,
/// hyz, hzz]` — the one definition every vgh backend shares.
#[inline(always)]
fn vgh_node_weights<T: Real>(w9: &[[T; 4]; 9], a: usize, b: usize, c: usize) -> [T; 10] {
    let [wx, wy, wz, dwx, dwy, dwz, d2wx, d2wy, d2wz] = w9;
    [
        wx[a] * wy[b] * wz[c],   // v
        dwx[a] * wy[b] * wz[c],  // gx
        wx[a] * dwy[b] * wz[c],  // gy
        wx[a] * wy[b] * dwz[c],  // gz
        d2wx[a] * wy[b] * wz[c], // hxx
        dwx[a] * dwy[b] * wz[c], // hxy
        dwx[a] * wy[b] * dwz[c], // hxz
        wx[a] * d2wy[b] * wz[c], // hyy
        wx[a] * dwy[b] * dwz[c], // hyz
        wx[a] * wy[b] * d2wz[c], // hzz
    ]
}

/// Converts grid-unit derivatives to fractional-coordinate derivatives.
#[inline]
fn scale_derivatives<T: Real>(grid: [usize; 3], ns: usize, grad: &mut [T], hess: &mut [T]) {
    let n = [
        T::from_usize(grid[0]),
        T::from_usize(grid[1]),
        T::from_usize(grid[2]),
    ];
    for d in 0..3 {
        let g = &mut grad[d * ns..(d + 1) * ns];
        for x in g.iter_mut() {
            *x *= n[d];
        }
    }
    // hess order: xx,xy,xz,yy,yz,zz
    let pairs = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)];
    for (h, (a, b)) in pairs.iter().enumerate() {
        let scale = n[*a] * n[*b];
        for x in &mut hess[h * ns..(h + 1) * ns] {
            *x *= scale;
        }
    }
}

/// Value + gradient + Hessian evaluation. Gradients are w.r.t. fractional
/// coordinates; the Hessian is packed `[xx,xy,xz,yy,yz,zz]` as six slabs
/// of `num_splines` values. Bitwise identical across backends.
pub fn evaluate_vgh<T: Real>(
    backend: Backend,
    t: &SplineView<'_, T>,
    u: [T; 3],
    psi: &mut [T],
    grad: &mut [T],
    hess: &mut [T],
) {
    let ns = t.num_splines;
    assert!(psi.len() >= ns && grad.len() >= 3 * ns && hess.len() >= 6 * ns);
    match backend {
        Backend::Reference => vgh_reference(t, u, psi, grad, hess),
        Backend::Soa => vgh_soa(t, u, psi, grad, hess),
        Backend::Simd => vgh_simd(t, u, psi, grad, hess),
    }
    scale_derivatives(t.grid, ns, grad, hess);
}

/// Spline-outermost scalar loops.
fn vgh_reference<T: Real>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    psi: &mut [T],
    grad: &mut [T],
    hess: &mut [T],
) {
    let ns = t.num_splines;
    let ([ix, iy, iz], w9) = vgh_setup(t, u);
    for s in 0..ns {
        let mut acc = [T::ZERO; 10];
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    let base = t.idx(ix + a, iy + b, iz + c);
                    let cf = t.coefs[base + s];
                    let w = vgh_node_weights(&w9, a, b, c);
                    for q in 0..10 {
                        acc[q] = w[q].mul_add(cf, acc[q]);
                    }
                }
            }
        }
        psi[s] = acc[0];
        for d in 0..3 {
            grad[d * ns + s] = acc[1 + d];
        }
        for h in 0..6 {
            hess[h * ns + s] = acc[4 + h];
        }
    }
}

/// Spline-innermost auto-vectorized slabs.
fn vgh_soa<T: Real>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    psi: &mut [T],
    grad: &mut [T],
    hess: &mut [T],
) {
    let ns = t.num_splines;
    let ([ix, iy, iz], w9) = vgh_setup(t, u);
    psi[..ns].fill(T::ZERO);
    grad[..3 * ns].fill(T::ZERO);
    hess[..6 * ns].fill(T::ZERO);
    for a in 0..4 {
        for b in 0..4 {
            for c in 0..4 {
                let w = vgh_node_weights(&w9, a, b, c);
                let base = t.idx(ix + a, iy + b, iz + c);
                let coefs = &t.coefs[base..base + ns];
                // value
                for (p, &cf) in psi[..ns].iter_mut().zip(coefs) {
                    *p = w[0].mul_add(cf, *p);
                }
                // gradient slabs
                for d in 0..3 {
                    let g = &mut grad[d * ns..(d + 1) * ns];
                    let wd = w[1 + d];
                    for (p, &cf) in g.iter_mut().zip(coefs) {
                        *p = wd.mul_add(cf, *p);
                    }
                }
                // hessian slabs
                for h in 0..6 {
                    let hsl = &mut hess[h * ns..(h + 1) * ns];
                    let wh = w[4 + h];
                    for (p, &cf) in hsl.iter_mut().zip(coefs) {
                        *p = wh.mul_add(cf, *p);
                    }
                }
            }
        }
    }
}

/// The 64x10 vgh weight table with the `4x4` `(a, b)` prefactor products
/// hoisted out of the `c` loop (arXiv:1611.02665): six partial products
/// per `(a, b)` pair, then four multiplies per node instead of the full
/// triple products. Every entry is the same left-associated product
/// [`vgh_node_weights`] computes — `(wx*wy)*wz == wx*wy*wz` as written —
/// so the hoisted table is **bitwise identical** to per-node evaluation
/// (pinned by the cross-backend tests).
#[inline(always)]
fn vgh_weight_table<T: Real>(w9: &[[T; 4]; 9]) -> [[T; 10]; 64] {
    let [wx, wy, wz, dwx, dwy, dwz, d2wx, d2wy, d2wz] = w9;
    let mut w = [[T::ZERO; 10]; 64];
    let mut k = 0;
    for a in 0..4 {
        for b in 0..4 {
            let ab_v = wx[a] * wy[b];
            let ab_gx = dwx[a] * wy[b];
            let ab_gy = wx[a] * dwy[b];
            let ab_hxx = d2wx[a] * wy[b];
            let ab_hxy = dwx[a] * dwy[b];
            let ab_hyy = wx[a] * d2wy[b];
            for c in 0..4 {
                w[k] = [
                    ab_v * wz[c],   // v
                    ab_gx * wz[c],  // gx
                    ab_gy * wz[c],  // gy
                    ab_v * dwz[c],  // gz
                    ab_hxx * wz[c], // hxx
                    ab_hxy * wz[c], // hxy
                    ab_gx * dwz[c], // hxz
                    ab_hyy * wz[c], // hyy
                    ab_gy * dwz[c], // hyz
                    ab_v * d2wz[c], // hzz
                ];
                k += 1;
            }
        }
    }
    w
}

/// Width dispatch for the explicit-SIMD vgh kernel.
fn vgh_simd<T: Real>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    psi: &mut [T],
    grad: &mut [T],
    hess: &mut [T],
) {
    if wide_f32::<T>() {
        vgh_simd_w::<T, 16>(t, u, psi, grad, hess);
    } else {
        vgh_simd_w::<T, 8>(t, u, psi, grad, hess);
    }
}

/// Register-blocked lane evaluation: ten accumulators per lane block stay
/// live across the whole stencil; the ten output slabs are written once.
/// (A 2-block macro-tile was measured *slower* here — twenty live
/// accumulators spill — so vgh keeps one block per pass and takes its
/// tiling win from the hoisted [`vgh_weight_table`] alone.)
///
/// One block per pass means each pass reads exactly one cache line (`W`
/// lanes = 64 bytes on both rungs) in each of the 64 stencil rows, so every
/// pass asks for the next pass's 64 lines while it computes (see the module
/// docs). The hints touch no arithmetic, loop order, weight or store.
fn vgh_simd_w<T: Real, const W: usize>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    psi: &mut [T],
    grad: &mut [T],
    hess: &mut [T],
) {
    let ns = t.num_splines;
    let ([ix, iy, iz], w9) = vgh_setup(t, u);
    let bases = stencil_bases(t, ix, iy, iz);
    // The first pass has no earlier one to hide its lines under: ask for
    // them before the weight table is built.
    if ns > 0 {
        for &base in &bases {
            prefetch_read(&t.coefs[base]);
        }
    }
    let w = vgh_weight_table(&w9);
    let mut s0 = 0;
    while s0 + W <= ns {
        // Lanes `s0 + W..` are read by the next pass or by the scalar tail
        // if an orbital lives there; rows are `ns_pad >= ns` long, so the
        // hinted element is always inside the row.
        let ahead = s0 + W < ns;
        let mut acc = [WideLane::<T, W>::zero(); 10];
        for k in 0..64 {
            let row = &t.coefs[bases[k] + s0..];
            if ahead {
                prefetch_read(&row[W]);
            }
            let cf = WideLane::load(row);
            for q in 0..10 {
                acc[q] = acc[q].fma_scalar(w[k][q], cf);
            }
        }
        acc[0].store(&mut psi[s0..]);
        for d in 0..3 {
            acc[1 + d].store(&mut grad[d * ns + s0..]);
        }
        for h in 0..6 {
            acc[4 + h].store(&mut hess[h * ns + s0..]);
        }
        s0 += W;
    }
    for s in s0..ns {
        let mut acc = [T::ZERO; 10];
        for k in 0..64 {
            let cf = t.coefs[bases[k] + s];
            for q in 0..10 {
                acc[q] = w[k][q].mul_add(cf, acc[q]);
            }
        }
        psi[s] = acc[0];
        for d in 0..3 {
            grad[d * ns + s] = acc[1 + d];
        }
        for h in 0..6 {
            hess[h * ns + s] = acc[4 + h];
        }
    }
}

// ---------------------------------------------------------------------------
// fused value + Cartesian gradient + Laplacian (vgl)
// ---------------------------------------------------------------------------

#[inline(always)]
fn vgl_setup<T: Real>(t: &SplineView<'_, T>, u: [T; 3]) -> ([usize; 3], [[T; 4]; 9]) {
    let (ix, ux) = locate(u[0], t.grid[0]);
    let (iy, uy) = locate(u[1], t.grid[1]);
    let (iz, uz) = locate(u[2], t.grid[2]);
    let (wx, mut dwx, mut d2wx) = bspline_weights(ux);
    let (wy, mut dwy, mut d2wy) = bspline_weights(uy);
    let (wz, mut dwz, mut d2wz) = bspline_weights(uz);
    // Fold grid-unit -> fractional derivative scaling into the 1D
    // weights (grad x n, hess x n^2 per differentiated axis).
    let n = [
        T::from_usize(t.grid[0]),
        T::from_usize(t.grid[1]),
        T::from_usize(t.grid[2]),
    ];
    for k in 0..4 {
        dwx[k] *= n[0];
        dwy[k] *= n[1];
        dwz[k] *= n[2];
        d2wx[k] *= n[0] * n[0];
        d2wy[k] *= n[1] * n[1];
        d2wz[k] *= n[2] * n[2];
    }
    ([ix, iy, iz], [wx, wy, wz, dwx, dwy, dwz, d2wx, d2wy, d2wz])
}

/// The five per-node fused-VGL weights `(value, Cartesian gradient x3,
/// Laplacian)` with the lattice transform precontracted — the one
/// definition every vgl backend shares.
#[inline(always)]
fn vgl_node_weights<T: Real>(
    w9: &[[T; 4]; 9],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
    a: usize,
    b: usize,
    c: usize,
) -> (T, [T; 3], T) {
    let [wx, wy, wz, dwx, dwy, dwz, d2wx, d2wy, d2wz] = w9;
    let wv = wx[a] * wy[b] * wz[c];
    // Fractional gradient weights, grid scaling included.
    let gf = [
        dwx[a] * wy[b] * wz[c],
        wx[a] * dwy[b] * wz[c],
        wx[a] * wy[b] * dwz[c],
    ];
    // Precontracted Cartesian gradient weights.
    let cg = [
        gmat[0][0] * gf[0] + gmat[0][1] * gf[1] + gmat[0][2] * gf[2],
        gmat[1][0] * gf[0] + gmat[1][1] * gf[1] + gmat[1][2] * gf[2],
        gmat[2][0] * gf[0] + gmat[2][1] * gf[1] + gmat[2][2] * gf[2],
    ];
    // Laplacian weight: packed Hessian stencil contracted with the metric
    // (off-diagonals pre-doubled).
    let wl = lapmet[0] * (d2wx[a] * wy[b] * wz[c])
        + lapmet[1] * (dwx[a] * dwy[b] * wz[c])
        + lapmet[2] * (dwx[a] * wy[b] * dwz[c])
        + lapmet[3] * (wx[a] * d2wy[b] * wz[c])
        + lapmet[4] * (wx[a] * dwy[b] * dwz[c])
        + lapmet[5] * (wx[a] * wy[b] * d2wz[c]);
    (wv, cg, wl)
}

/// Fused value + *Cartesian* gradient + Laplacian evaluation: the lattice
/// transform (`gmat` = fractional-to-Cartesian gradient matrix, `lapmet` =
/// packed Laplacian metric with doubled off-diagonals) is precontracted
/// into the per-node stencil weights, so only five accumulation slabs
/// exist instead of ten plus a transform pass. Bitwise identical across
/// backends.
pub fn evaluate_vgl<T: Real>(
    backend: Backend,
    t: &SplineView<'_, T>,
    u: [T; 3],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
    psi: &mut [T],
    grad: &mut [T],
    lap: &mut [T],
) {
    let ns = t.num_splines;
    assert!(psi.len() >= ns && grad.len() >= 3 * ns && lap.len() >= ns);
    match backend {
        Backend::Reference => vgl_reference(t, u, gmat, lapmet, psi, grad, lap),
        Backend::Soa => vgl_soa(t, u, gmat, lapmet, psi, grad, lap),
        Backend::Simd => vgl_simd(t, u, gmat, lapmet, psi, grad, lap),
    }
}

/// Spline-outermost scalar loops.
fn vgl_reference<T: Real>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
    psi: &mut [T],
    grad: &mut [T],
    lap: &mut [T],
) {
    let ns = t.num_splines;
    let ([ix, iy, iz], w9) = vgl_setup(t, u);
    for s in 0..ns {
        let mut av = T::ZERO;
        let mut ag = [T::ZERO; 3];
        let mut al = T::ZERO;
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    let (wv, cg, wl) = vgl_node_weights(&w9, gmat, lapmet, a, b, c);
                    let base = t.idx(ix + a, iy + b, iz + c);
                    let cf = t.coefs[base + s];
                    av = wv.mul_add(cf, av);
                    for d in 0..3 {
                        ag[d] = cg[d].mul_add(cf, ag[d]);
                    }
                    al = wl.mul_add(cf, al);
                }
            }
        }
        psi[s] = av;
        for d in 0..3 {
            grad[d * ns + s] = ag[d];
        }
        lap[s] = al;
    }
}

/// Spline-innermost auto-vectorized slabs.
fn vgl_soa<T: Real>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
    psi: &mut [T],
    grad: &mut [T],
    lap: &mut [T],
) {
    let ns = t.num_splines;
    let ([ix, iy, iz], w9) = vgl_setup(t, u);
    psi[..ns].fill(T::ZERO);
    grad[..3 * ns].fill(T::ZERO);
    lap[..ns].fill(T::ZERO);
    for a in 0..4 {
        for b in 0..4 {
            for c in 0..4 {
                let (wv, cg, wl) = vgl_node_weights(&w9, gmat, lapmet, a, b, c);
                let base = t.idx(ix + a, iy + b, iz + c);
                let coefs = &t.coefs[base..base + ns];
                for (p, &cf) in psi[..ns].iter_mut().zip(coefs) {
                    *p = wv.mul_add(cf, *p);
                }
                for d in 0..3 {
                    let g = &mut grad[d * ns..(d + 1) * ns];
                    let wd = cg[d];
                    for (p, &cf) in g.iter_mut().zip(coefs) {
                        *p = wd.mul_add(cf, *p);
                    }
                }
                for (p, &cf) in lap[..ns].iter_mut().zip(coefs) {
                    *p = wl.mul_add(cf, *p);
                }
            }
        }
    }
}

/// The 64-node fused-VGL weight tables with the `(a, b)` prefactor
/// products hoisted out of the `c` loop (arXiv:1611.02665). Every entry
/// reproduces [`vgl_node_weights`]'s left-associated products bitwise:
/// `(wx*wy)*wz == wx*wy*wz` as Rust parses it, and the `cg`/`wl`
/// contractions keep the identical summation order.
#[inline(always)]
fn vgl_weight_table<T: Real>(
    w9: &[[T; 4]; 9],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
) -> ([T; 64], [[T; 3]; 64], [T; 64]) {
    let [wx, wy, wz, dwx, dwy, dwz, d2wx, d2wy, d2wz] = w9;
    let mut wv = [T::ZERO; 64];
    let mut wg = [[T::ZERO; 3]; 64];
    let mut wl = [T::ZERO; 64];
    let mut k = 0;
    for a in 0..4 {
        for b in 0..4 {
            let ab_v = wx[a] * wy[b];
            let ab_gx = dwx[a] * wy[b];
            let ab_gy = wx[a] * dwy[b];
            let ab_hxx = d2wx[a] * wy[b];
            let ab_hxy = dwx[a] * dwy[b];
            let ab_hyy = wx[a] * d2wy[b];
            for c in 0..4 {
                wv[k] = ab_v * wz[c];
                let gf = [ab_gx * wz[c], ab_gy * wz[c], ab_v * dwz[c]];
                wg[k] = [
                    gmat[0][0] * gf[0] + gmat[0][1] * gf[1] + gmat[0][2] * gf[2],
                    gmat[1][0] * gf[0] + gmat[1][1] * gf[1] + gmat[1][2] * gf[2],
                    gmat[2][0] * gf[0] + gmat[2][1] * gf[1] + gmat[2][2] * gf[2],
                ];
                wl[k] = lapmet[0] * (ab_hxx * wz[c])
                    + lapmet[1] * (ab_hxy * wz[c])
                    + lapmet[2] * (ab_gx * dwz[c])
                    + lapmet[3] * (ab_hyy * wz[c])
                    + lapmet[4] * (ab_gy * dwz[c])
                    + lapmet[5] * (ab_v * d2wz[c]);
                k += 1;
            }
        }
    }
    (wv, wg, wl)
}

/// Width dispatch for the explicit-SIMD vgl kernel.
fn vgl_simd<T: Real>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
    psi: &mut [T],
    grad: &mut [T],
    lap: &mut [T],
) {
    if wide_f32::<T>() {
        vgl_simd_w::<T, 16>(t, u, gmat, lapmet, psi, grad, lap);
    } else {
        vgl_simd_w::<T, 8>(t, u, gmat, lapmet, psi, grad, lap);
    }
}

/// Register-blocked lane evaluation: a 2-block macro-tile keeps ten
/// accumulators (five per block) live across the stencil, one store per
/// output slab per block.
fn vgl_simd_w<T: Real, const W: usize>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
    psi: &mut [T],
    grad: &mut [T],
    lap: &mut [T],
) {
    let ns = t.num_splines;
    let ([ix, iy, iz], w9) = vgl_setup(t, u);
    let bases = stencil_bases(t, ix, iy, iz);
    let (wv, wg, wl) = vgl_weight_table(&w9, gmat, lapmet);
    let mut s0 = 0;
    while s0 + 2 * W <= ns {
        let mut av0 = WideLane::<T, W>::zero();
        let mut av1 = WideLane::<T, W>::zero();
        let mut ag0 = [WideLane::<T, W>::zero(); 3];
        let mut ag1 = [WideLane::<T, W>::zero(); 3];
        let mut al0 = WideLane::<T, W>::zero();
        let mut al1 = WideLane::<T, W>::zero();
        for k in 0..64 {
            let row = &t.coefs[bases[k] + s0..];
            let c0 = WideLane::load(row);
            let c1 = WideLane::load(&row[W..]);
            av0 = av0.fma_scalar(wv[k], c0);
            av1 = av1.fma_scalar(wv[k], c1);
            for d in 0..3 {
                ag0[d] = ag0[d].fma_scalar(wg[k][d], c0);
                ag1[d] = ag1[d].fma_scalar(wg[k][d], c1);
            }
            al0 = al0.fma_scalar(wl[k], c0);
            al1 = al1.fma_scalar(wl[k], c1);
        }
        av0.store(&mut psi[s0..]);
        av1.store(&mut psi[s0 + W..]);
        for d in 0..3 {
            ag0[d].store(&mut grad[d * ns + s0..]);
            ag1[d].store(&mut grad[d * ns + s0 + W..]);
        }
        al0.store(&mut lap[s0..]);
        al1.store(&mut lap[s0 + W..]);
        s0 += 2 * W;
    }
    while s0 + W <= ns {
        let mut av = WideLane::<T, W>::zero();
        let mut ag = [WideLane::<T, W>::zero(); 3];
        let mut al = WideLane::<T, W>::zero();
        for k in 0..64 {
            let cf = WideLane::load(&t.coefs[bases[k] + s0..]);
            av = av.fma_scalar(wv[k], cf);
            for d in 0..3 {
                ag[d] = ag[d].fma_scalar(wg[k][d], cf);
            }
            al = al.fma_scalar(wl[k], cf);
        }
        av.store(&mut psi[s0..]);
        for d in 0..3 {
            ag[d].store(&mut grad[d * ns + s0..]);
        }
        al.store(&mut lap[s0..]);
        s0 += W;
    }
    for s in s0..ns {
        let mut av = T::ZERO;
        let mut ag = [T::ZERO; 3];
        let mut al = T::ZERO;
        for k in 0..64 {
            let cf = t.coefs[bases[k] + s];
            av = wv[k].mul_add(cf, av);
            for d in 0..3 {
                ag[d] = wg[k][d].mul_add(cf, ag[d]);
            }
            al = wl[k].mul_add(cf, al);
        }
        psi[s] = av;
        for d in 0..3 {
            grad[d * ns + s] = ag[d];
        }
        lap[s] = al;
    }
}

/// Multi-walker fused VGL: evaluates `us.len()` positions against the
/// shared coefficient table in one call. Outputs are walker-major —
/// walker `w` owns `psi[w*ns..]`, `grad[w*3*ns..]`, `lap[w*ns..]`.
/// Per-walker results are bitwise identical to [`evaluate_vgl`] on the
/// same backend (each walker is an independent accumulation).
// qmclint: allow(timer-coverage) — timed by the caller: BsplineSpo wraps
// this dispatch in Kernel::BsplineMwVGL; the kernel library itself stays
// free of instrumentation dependencies.
pub fn mw_evaluate_vgl<T: Real>(
    backend: Backend,
    t: &SplineView<'_, T>,
    us: &[[T; 3]],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
    psi: &mut [T],
    grad: &mut [T],
    lap: &mut [T],
) {
    let ns = t.num_splines;
    let nw = us.len();
    assert!(psi.len() >= nw * ns && grad.len() >= nw * 3 * ns && lap.len() >= nw * ns);
    if backend == Backend::Simd {
        if wide_f32::<T>() {
            mw_vgl_simd_w::<T, 16>(t, us, gmat, lapmet, psi, grad, lap);
        } else {
            mw_vgl_simd_w::<T, 8>(t, us, gmat, lapmet, psi, grad, lap);
        }
        return;
    }
    for (w, &u) in us.iter().enumerate() {
        evaluate_vgl(
            backend,
            t,
            u,
            gmat,
            lapmet,
            &mut psi[w * ns..(w + 1) * ns],
            &mut grad[w * 3 * ns..(w + 1) * 3 * ns],
            &mut lap[w * ns..(w + 1) * ns],
        );
    }
}

/// Walkers per cache block of the multi-walker Simd vgl kernel: stencil
/// bases and hoisted weight tables for `MW_CHUNK` walkers are computed
/// once up front (amortizing the prefactor work across the crowd,
/// arXiv:1611.02665), then the spline dimension is tiled with the walker
/// loop inside each tile so overlapping stencil rows stay cache-hot.
const MW_CHUNK: usize = 4;

/// Cache-blocked multi-walker fused VGL. Per-walker output is **bitwise
/// identical** to single-walker [`evaluate_vgl`] on the Simd backend:
/// for every orbital `s` the k = 0..64 accumulation chain uses the same
/// hoisted weights in the same order — only the iteration *interleaving*
/// across walkers and tiles differs, which lane-elementwise math cannot
/// observe.
// qmclint: allow(timer-coverage) — internal width-monomorphized body of
// `mw_evaluate_vgl`; the public entry is wrapped in
// `time_kernel(Kernel::BsplineMwVgl, ...)` by its callers (BsplineSpo),
// so timing here would double-count the same scope.
fn mw_vgl_simd_w<T: Real, const W: usize>(
    t: &SplineView<'_, T>,
    us: &[[T; 3]],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
    psi: &mut [T],
    grad: &mut [T],
    lap: &mut [T],
) {
    let ns = t.num_splines;
    for (chunk_idx, chunk) in us.chunks(MW_CHUNK).enumerate() {
        let w0 = chunk_idx * MW_CHUNK;
        // Per-chunk precompute: one stencil locate + hoisted 64-node
        // weight table per walker, reused by every spline tile below.
        let mut bases = [[0usize; 64]; MW_CHUNK];
        let mut wv = [[T::ZERO; 64]; MW_CHUNK];
        let mut wg = [[[T::ZERO; 3]; 64]; MW_CHUNK];
        let mut wl = [[T::ZERO; 64]; MW_CHUNK];
        for (j, &u) in chunk.iter().enumerate() {
            let ([ix, iy, iz], w9) = vgl_setup(t, u);
            bases[j] = stencil_bases(t, ix, iy, iz);
            (wv[j], wg[j], wl[j]) = vgl_weight_table(&w9, gmat, lapmet);
        }
        // Spline tile outer, walker inner: each tile's coefficient rows
        // are touched back-to-back by all walkers in the chunk.
        let mut s0 = 0;
        while s0 + W <= ns {
            for (j, _) in chunk.iter().enumerate() {
                let w = w0 + j;
                let mut av = WideLane::<T, W>::zero();
                let mut ag = [WideLane::<T, W>::zero(); 3];
                let mut al = WideLane::<T, W>::zero();
                for k in 0..64 {
                    let cf = WideLane::load(&t.coefs[bases[j][k] + s0..]);
                    av = av.fma_scalar(wv[j][k], cf);
                    for d in 0..3 {
                        ag[d] = ag[d].fma_scalar(wg[j][k][d], cf);
                    }
                    al = al.fma_scalar(wl[j][k], cf);
                }
                av.store(&mut psi[w * ns + s0..]);
                for d in 0..3 {
                    ag[d].store(&mut grad[w * 3 * ns + d * ns + s0..]);
                }
                al.store(&mut lap[w * ns + s0..]);
            }
            s0 += W;
        }
        for s in s0..ns {
            for (j, _) in chunk.iter().enumerate() {
                let w = w0 + j;
                let mut av = T::ZERO;
                let mut ag = [T::ZERO; 3];
                let mut al = T::ZERO;
                for k in 0..64 {
                    let cf = t.coefs[bases[j][k] + s];
                    av = wv[j][k].mul_add(cf, av);
                    for d in 0..3 {
                        ag[d] = wg[j][k][d].mul_add(cf, ag[d]);
                    }
                    al = wl[j][k].mul_add(cf, al);
                }
                psi[w * ns + s] = av;
                for d in 0..3 {
                    grad[w * 3 * ns + d * ns + s] = ag[d];
                }
                lap[w * ns + s] = al;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qmc_containers::padded_len;

    /// Builds a padded coefficient buffer with deterministic values and
    /// returns (storage, grid, ns). Ghost layers are filled too — the
    /// kernels never see the periodic replication logic, only the layout.
    fn table(grid: [usize; 3], ns: usize, seed: u64) -> (Vec<f64>, [usize; 3], usize) {
        let ns_pad = padded_len::<f64>(ns);
        let total = (grid[0] + 3) * (grid[1] + 3) * (grid[2] + 3) * ns_pad;
        let mut state = seed.wrapping_mul(2685821657736338717).max(1);
        let mut coefs = vec![0.0f64; total];
        for v in &mut coefs {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let bits = state.wrapping_mul(0x2545F4914F6CDD1D);
            *v = ((bits >> 11) as f64 / (1u64 << 53) as f64) - 0.5;
        }
        (coefs, grid, ns)
    }

    fn view(coefs: &[f64], grid: [usize; 3], ns: usize) -> SplineView<'_, f64> {
        SplineView {
            grid,
            num_splines: ns,
            ns_pad: padded_len::<f64>(ns),
            coefs,
        }
    }

    #[test]
    fn weights_partition_of_unity() {
        for &u in &[0.0f64, 0.25, 0.5, 0.75, 0.999] {
            let (w, dw, d2w) = bspline_weights(u);
            let sw: f64 = w.iter().sum();
            assert!((sw - 1.0).abs() < 1e-14, "sum w = {sw}");
            assert!(dw.iter().sum::<f64>().abs() < 1e-14);
            assert!(d2w.iter().sum::<f64>().abs() < 1e-13);
        }
    }

    #[test]
    fn v_backends_bitwise_identical() {
        // ns = 11 exercises the simd scalar tail (11 = 8 + 3).
        let (coefs, grid, ns) = table([5, 6, 4], 11, 17);
        let t = view(&coefs, grid, ns);
        let u = [0.37, 0.81, 0.12];
        let mut base = vec![0.0; ns];
        evaluate_v(Backend::Reference, &t, u, &mut base);
        for b in [Backend::Soa, Backend::Simd] {
            let mut psi = vec![0.0; ns];
            evaluate_v(b, &t, u, &mut psi);
            assert_eq!(psi, base, "backend {b}");
        }
    }

    #[test]
    fn vgh_backends_bitwise_identical() {
        let (coefs, grid, ns) = table([6, 5, 7], 9, 42);
        let t = view(&coefs, grid, ns);
        let u = [0.9, 0.45, 0.63];
        let mk = || (vec![0.0; ns], vec![0.0; 3 * ns], vec![0.0; 6 * ns]);
        let (mut p0, mut g0, mut h0) = mk();
        evaluate_vgh(Backend::Reference, &t, u, &mut p0, &mut g0, &mut h0);
        for b in [Backend::Soa, Backend::Simd] {
            let (mut p, mut g, mut h) = mk();
            evaluate_vgh(b, &t, u, &mut p, &mut g, &mut h);
            assert_eq!(p, p0, "backend {b} psi");
            assert_eq!(g, g0, "backend {b} grad");
            assert_eq!(h, h0, "backend {b} hess");
        }
    }

    #[test]
    fn vgl_backends_bitwise_identical() {
        let (coefs, grid, ns) = table([5, 5, 5], 13, 7);
        let t = view(&coefs, grid, ns);
        let u = [0.311, 0.742, 0.568];
        let gmat = [[0.5, 0.0, 0.0], [0.0, 0.25, 0.0], [0.0, 0.0, 0.2]];
        let lapmet = [0.25, 0.0, 0.0, 0.0625, 0.0, 0.04];
        let mk = || (vec![0.0; ns], vec![0.0; 3 * ns], vec![0.0; ns]);
        let (mut p0, mut g0, mut l0) = mk();
        evaluate_vgl(
            Backend::Reference,
            &t,
            u,
            &gmat,
            &lapmet,
            &mut p0,
            &mut g0,
            &mut l0,
        );
        for b in [Backend::Soa, Backend::Simd] {
            let (mut p, mut g, mut l) = mk();
            evaluate_vgl(b, &t, u, &gmat, &lapmet, &mut p, &mut g, &mut l);
            assert_eq!(p, p0, "backend {b} psi");
            assert_eq!(g, g0, "backend {b} grad");
            assert_eq!(l, l0, "backend {b} lap");
        }
    }
}
