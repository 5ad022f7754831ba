//! Cross-backend verification matrix over seeded random inputs.
//!
//! Pins the contract documented in the crate root: B-spline and distance
//! kernels are **bitwise identical** across every backend (at both lane
//! widths of the precision ladder — 8-wide f64 and 16-wide f32); J2
//! reductions are bitwise between `reference` and `soa` and within
//! tolerance for `simd`, while J2 slab updates are bitwise everywhere.
//! Each family is exercised at sizes that cover both full lane blocks and
//! scalar tails, plus randomized inputs hugging the stencil edges
//! (fractional coordinates at grid nodes) and the min-image wrap
//! boundaries (half-cell distances), where the branch-free arithmetic is
//! most likely to diverge between a scalar and a vector rewrite.

use qmc_containers::{padded_len, AlignedVec, Real};
use qmc_kernels::bspline::{
    bspline_weights, evaluate_v, evaluate_vgh, evaluate_vgl, locate, mw_evaluate_v, mw_evaluate_vgl,
};
use qmc_kernels::distance::distance_row;
use qmc_kernels::jastrow::{
    j2_accept_grad_row, j2_accept_value_rows, j2_row_sum, j2_row_vg, j2_row_vgl,
};
use qmc_kernels::lanes::WideLane;
use qmc_kernels::{Backend, MinImageCell, SplineView};

// -- seeded input generators ------------------------------------------------

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    /// xorshift64* uniform in [0, 1).
    fn next(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }

    fn signed<T: Real>(&mut self) -> T {
        T::from_f64(self.next() - 0.5)
    }

    fn row<T: Real>(&mut self, n: usize) -> Vec<T> {
        (0..n).map(|_| self.signed()).collect()
    }
}

/// Owned random coefficient table presenting a [`SplineView`].
struct Table<T: Real> {
    grid: [usize; 3],
    ns: usize,
    ns_pad: usize,
    coefs: AlignedVec<T>,
}

impl<T: Real> Table<T> {
    fn random(grid: [usize; 3], ns: usize, seed: u64) -> Self {
        let ns_pad = padded_len::<T>(ns);
        let total = (grid[0] + 3) * (grid[1] + 3) * (grid[2] + 3) * ns_pad;
        let mut coefs = AlignedVec::<T>::zeros(total);
        let mut rng = Rng::new(seed);
        for x in coefs.as_mut_slice() {
            *x = rng.signed();
        }
        Self {
            grid,
            ns,
            ns_pad,
            coefs,
        }
    }

    fn view(&self) -> SplineView<'_, T> {
        SplineView {
            grid: self.grid,
            num_splines: self.ns,
            ns_pad: self.ns_pad,
            coefs: self.coefs.as_slice(),
        }
    }
}

fn positions<T: Real>(n: usize, seed: u64) -> Vec<[T; 3]> {
    let mut rng = Rng::new(seed);
    (0..n)
        .map(|_| {
            [
                T::from_f64(rng.next()),
                T::from_f64(rng.next()),
                T::from_f64(rng.next()),
            ]
        })
        .collect()
}

// -- B-spline family: bitwise across all backends ---------------------------

fn bspline_matrix<T: Real>(ns: usize, seed: u64) {
    let table = Table::<T>::random([5, 6, 7], ns, seed);
    let t = table.view();
    let gmat = [
        [T::from_f64(0.31), T::ZERO, T::ZERO],
        [T::from_f64(0.02), T::from_f64(0.27), T::ZERO],
        [T::ZERO, T::from_f64(0.01), T::from_f64(0.22)],
    ];
    let lapmet = [
        T::from_f64(0.10),
        T::from_f64(0.09),
        T::from_f64(0.05),
        T::from_f64(0.01),
        T::from_f64(0.02),
        T::from_f64(0.005),
    ];
    let us = positions::<T>(4, seed ^ 0xABCD);

    for &u in &us {
        let mut psi_ref = vec![T::ZERO; ns];
        evaluate_v(Backend::Reference, &t, u, &mut psi_ref);
        let mut vgh_ref = (
            vec![T::ZERO; ns],
            vec![T::ZERO; 3 * ns],
            vec![T::ZERO; 6 * ns],
        );
        evaluate_vgh(
            Backend::Reference,
            &t,
            u,
            &mut vgh_ref.0,
            &mut vgh_ref.1,
            &mut vgh_ref.2,
        );
        let mut vgl_ref = (vec![T::ZERO; ns], vec![T::ZERO; 3 * ns], vec![T::ZERO; ns]);
        evaluate_vgl(
            Backend::Reference,
            &t,
            u,
            &gmat,
            &lapmet,
            &mut vgl_ref.0,
            &mut vgl_ref.1,
            &mut vgl_ref.2,
        );
        for b in [Backend::Soa, Backend::Simd] {
            let mut psi = vec![T::ZERO; ns];
            evaluate_v(b, &t, u, &mut psi);
            assert_eq!(psi, psi_ref, "{b}: v not bitwise");

            let mut vgh = (
                vec![T::ZERO; ns],
                vec![T::ZERO; 3 * ns],
                vec![T::ZERO; 6 * ns],
            );
            evaluate_vgh(b, &t, u, &mut vgh.0, &mut vgh.1, &mut vgh.2);
            assert_eq!(vgh.0, vgh_ref.0, "{b}: vgh psi not bitwise");
            assert_eq!(vgh.1, vgh_ref.1, "{b}: vgh grad not bitwise");
            assert_eq!(vgh.2, vgh_ref.2, "{b}: vgh hess not bitwise");

            let mut vgl = (vec![T::ZERO; ns], vec![T::ZERO; 3 * ns], vec![T::ZERO; ns]);
            evaluate_vgl(b, &t, u, &gmat, &lapmet, &mut vgl.0, &mut vgl.1, &mut vgl.2);
            assert_eq!(vgl.0, vgl_ref.0, "{b}: vgl psi not bitwise");
            assert_eq!(vgl.1, vgl_ref.1, "{b}: vgl grad not bitwise");
            assert_eq!(vgl.2, vgl_ref.2, "{b}: vgl lap not bitwise");
        }
    }

    // Multi-walker fused VGL: bitwise across backends AND bitwise equal to
    // the per-walker single calls of the same backend.
    let nw = us.len();
    let mut mw_ref = (
        vec![T::ZERO; nw * ns],
        vec![T::ZERO; 3 * nw * ns],
        vec![T::ZERO; nw * ns],
    );
    mw_evaluate_vgl(
        Backend::Reference,
        &t,
        &us,
        &gmat,
        &lapmet,
        &mut mw_ref.0,
        &mut mw_ref.1,
        &mut mw_ref.2,
    );
    for b in [Backend::Soa, Backend::Simd] {
        let mut mw = (
            vec![T::ZERO; nw * ns],
            vec![T::ZERO; 3 * nw * ns],
            vec![T::ZERO; nw * ns],
        );
        mw_evaluate_vgl(b, &t, &us, &gmat, &lapmet, &mut mw.0, &mut mw.1, &mut mw.2);
        assert_eq!(mw.0, mw_ref.0, "{b}: mw psi not bitwise");
        assert_eq!(mw.1, mw_ref.1, "{b}: mw grad not bitwise");
        assert_eq!(mw.2, mw_ref.2, "{b}: mw lap not bitwise");
    }
}

#[test]
fn bspline_bitwise_f64_lane_multiple() {
    bspline_matrix::<f64>(16, 11);
}

#[test]
fn bspline_bitwise_f64_with_tail() {
    bspline_matrix::<f64>(13, 13);
}

#[test]
fn bspline_bitwise_f32() {
    bspline_matrix::<f32>(19, 17);
}

// -- value-only multi-point batch (the NLPP quadrature shape) ---------------

fn mw_v_matrix<T: Real>(ns: usize, nq: usize, seed: u64) {
    let table = Table::<T>::random([5, 6, 7], ns, seed);
    let t = table.view();
    let us = positions::<T>(nq, seed ^ 0x55AA);

    let mut mw_ref = vec![T::ZERO; nq * ns];
    mw_evaluate_v(Backend::Reference, &t, &us, &mut mw_ref);
    // Per-point parity: the batch must match single-point calls, on every
    // backend.
    for (q, &u) in us.iter().enumerate() {
        for b in Backend::ALL {
            let mut psi = vec![T::ZERO; ns];
            evaluate_v(b, &t, u, &mut psi);
            assert_eq!(
                &mw_ref[q * ns..(q + 1) * ns],
                &psi[..],
                "{b}: evaluate_v at point {q} differs from the reference mw-v, ns={ns}"
            );
        }
    }
    for b in [Backend::Soa, Backend::Simd] {
        let mut mw = vec![T::ZERO; nq * ns];
        mw_evaluate_v(b, &t, &us, &mut mw);
        assert_eq!(mw, mw_ref, "{b}: mw-v not bitwise");
    }
}

#[test]
fn mw_v_bitwise_f64() {
    mw_v_matrix::<f64>(21, 12, 41);
}

#[test]
fn mw_v_bitwise_f32() {
    mw_v_matrix::<f32>(19, 12, 43);
}

/// The simd `v` tiles by orbital count: 4-block tiles, one 2-block tile
/// for a `2W..4W` remainder, single blocks, a scalar tail. These sizes
/// sit on both sides of every switch at the rung's lane width `W` (16 in
/// f32, 8 in f64), so each tile combination runs at least once.
#[test]
fn v_tiles_bitwise_at_every_block_boundary() {
    for ns in [16, 31, 32, 33, 47, 48, 63, 64, 65] {
        mw_v_matrix::<f32>(ns, 3, 700 + ns as u64);
    }
    for ns in [8, 15, 16, 17, 24, 31, 32, 33] {
        mw_v_matrix::<f64>(ns, 3, 800 + ns as u64);
    }
}

// -- stencil-edge positions: fractional coordinates hugging grid nodes ------

/// Randomized fractional positions within ±1e-9 of a grid node in every
/// dimension (including u = 0 and the last interval), where `locate`'s
/// floor/clamp and the 4x4x4 stencil base are most fragile.
fn edge_positions<T: Real>(grid: [usize; 3], count: usize, seed: u64) -> Vec<[T; 3]> {
    let mut rng = Rng::new(seed);
    (0..count)
        .map(|_| {
            let mut u = [T::ZERO; 3];
            for (d, slot) in u.iter_mut().enumerate() {
                let cells = grid[d] as f64;
                let node = (rng.next() * (cells + 1.0)).floor();
                let eps = (rng.next() - 0.5) * 2e-9;
                let frac = (node / cells + eps).clamp(0.0, 1.0 - 1e-9);
                *slot = T::from_f64(frac);
            }
            u
        })
        .collect()
}

fn bspline_edge_matrix<T: Real>(ns: usize, seed: u64) {
    let grid = [5usize, 6, 7];
    let table = Table::<T>::random(grid, ns, seed);
    let t = table.view();
    for &u in &edge_positions::<T>(grid, 24, seed ^ 0xE06E) {
        let mut psi_ref = vec![T::ZERO; ns];
        evaluate_v(Backend::Reference, &t, u, &mut psi_ref);
        assert!(
            psi_ref.iter().all(|p| p.to_f64().is_finite()),
            "edge position produced non-finite values"
        );
        let mut vgh_ref = (
            vec![T::ZERO; ns],
            vec![T::ZERO; 3 * ns],
            vec![T::ZERO; 6 * ns],
        );
        evaluate_vgh(
            Backend::Reference,
            &t,
            u,
            &mut vgh_ref.0,
            &mut vgh_ref.1,
            &mut vgh_ref.2,
        );
        for b in [Backend::Soa, Backend::Simd] {
            let mut psi = vec![T::ZERO; ns];
            evaluate_v(b, &t, u, &mut psi);
            assert_eq!(psi, psi_ref, "{b}: v not bitwise at stencil edge {u:?}");
            let mut vgh = (
                vec![T::ZERO; ns],
                vec![T::ZERO; 3 * ns],
                vec![T::ZERO; 6 * ns],
            );
            evaluate_vgh(b, &t, u, &mut vgh.0, &mut vgh.1, &mut vgh.2);
            assert!(vgh == vgh_ref, "{b}: vgh not bitwise at stencil edge {u:?}");
        }
    }
}

#[test]
fn bspline_stencil_edges_f64() {
    bspline_edge_matrix::<f64>(13, 47);
}

#[test]
fn bspline_stencil_edges_f32() {
    bspline_edge_matrix::<f32>(17, 53);
}

// -- vgh prefetch hints: no bit moved, no index outside the table ------------

/// The simd vgh kernel hints the cache line one lane block ahead of the
/// one it reads. Sizes: no whole block (1, 15), exact multiples of both
/// rungs' block, where the last pass must hint nothing (16, 32, 192), a
/// block plus a tail inside `ns_pad > ns` (17, 33). Positions: every
/// corner combination of u = 0 and the last cell of each axis, whose
/// stencils end on the `+3` ghost layers — the table's slice ends with the
/// last of them, so a hint past it is an index panic here.
fn vgh_hint_matrix<T: Real>() {
    let grid = [5usize, 6, 7];
    let corners: Vec<[T; 3]> = (0..8u32)
        .map(|m| {
            std::array::from_fn(|d| {
                let cells = grid[d] as f64;
                let last_cell = (cells - 0.4) / cells;
                T::from_f64(if m >> d & 1 == 0 { 0.0 } else { last_cell })
            })
        })
        .collect();
    for ns in [1usize, 15, 16, 17, 32, 33, 192] {
        let table = Table::<T>::random(grid, ns, 1000 + ns as u64);
        let t = table.view();
        for &u in corners.iter().chain(&positions::<T>(2, ns as u64)) {
            let eval = |b| {
                let mut out = (
                    vec![T::ZERO; ns],
                    vec![T::ZERO; 3 * ns],
                    vec![T::ZERO; 6 * ns],
                );
                evaluate_vgh(b, &t, u, &mut out.0, &mut out.1, &mut out.2);
                out
            };
            let want = eval(Backend::Reference);
            for b in [Backend::Soa, Backend::Simd] {
                let got = eval(b);
                assert_eq!(got.0, want.0, "{b}: vgh psi, ns={ns} at {u:?}");
                assert_eq!(got.1, want.1, "{b}: vgh grad, ns={ns} at {u:?}");
                assert_eq!(got.2, want.2, "{b}: vgh hess, ns={ns} at {u:?}");
            }
        }
    }
}

#[test]
fn vgh_hints_move_no_bit_and_stay_in_the_table_f64() {
    vgh_hint_matrix::<f64>();
}

#[test]
fn vgh_hints_move_no_bit_and_stay_in_the_table_f32() {
    vgh_hint_matrix::<f32>();
}

/// The simd vgh kernel as it was before it hinted, f32 rung only and for
/// `ns` a multiple of the block: the baseline of the timing gate below,
/// kept here because the library holds the loop once.
fn vgh_simd_unhinted(
    t: &SplineView<'_, f32>,
    u: [f32; 3],
    psi: &mut [f32],
    grad: &mut [f32],
    hess: &mut [f32],
) {
    const W: usize = 16;
    let ns = t.num_splines;
    assert_eq!(ns % W, 0);
    let [nx, ny, nz] = t.grid;
    let (ix, ux) = locate(u[0], nx);
    let (iy, uy) = locate(u[1], ny);
    let (iz, uz) = locate(u[2], nz);
    let (wx, dwx, d2wx) = bspline_weights(ux);
    let (wy, dwy, d2wy) = bspline_weights(uy);
    let (wz, dwz, d2wz) = bspline_weights(uz);
    let mut bases = [0usize; 64];
    let mut w = [[0.0f32; 10]; 64];
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
                bases[k] = (((ix + a) * (ny + 3) + iy + b) * (nz + 3) + iz + c) * t.ns_pad;
                w[k] = [
                    ab_v * wz[c],
                    ab_gx * wz[c],
                    ab_gy * wz[c],
                    ab_v * dwz[c],
                    ab_hxx * wz[c],
                    ab_hxy * wz[c],
                    ab_gx * dwz[c],
                    ab_hyy * wz[c],
                    ab_gy * dwz[c],
                    ab_v * d2wz[c],
                ];
                k += 1;
            }
        }
    }
    for s0 in (0..ns).step_by(W) {
        let mut acc = [WideLane::<f32, W>::zero(); 10];
        for k in 0..64 {
            let cf = WideLane::load(&t.coefs[bases[k] + s0..]);
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
    }
    let n = [nx as f32, ny as f32, nz as f32];
    for d in 0..3 {
        for x in &mut grad[d * ns..(d + 1) * ns] {
            *x *= n[d];
        }
    }
    for (h, (a, b)) in [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        .into_iter()
        .enumerate()
    {
        let scale = n[a] * n[b];
        for x in &mut hess[h * ns..(h + 1) * ns] {
            *x *= scale;
        }
    }
}

/// Timing gate (release mode, `-- --ignored`; `ci.sh` runs it): on a table
/// far out of cache — the NiO-32 shape, 80³ x 192 f32, 419 MiB — the
/// hinted kernel must stay >= 1.5x ahead of the un-hinted loop it replaced
/// (measured 2.4x when the gate was set), with every output bit equal.
#[test]
#[ignore = "timing gate on a 419 MiB table: run in release mode (ci.sh does)"]
fn vgh_hints_pay_on_an_out_of_cache_table() {
    let ns = 192;
    let table = Table::<f32>::random([80, 80, 80], ns, 7);
    let t = table.view();
    let us = positions::<f32>(2048, 99);
    let mut out = (vec![0.0f32; ns], vec![0.0f32; 3 * ns], vec![0.0f32; 6 * ns]);
    let mut want = out.clone();
    for &u in &us[..64] {
        evaluate_vgh(Backend::Simd, &t, u, &mut out.0, &mut out.1, &mut out.2);
        vgh_simd_unhinted(&t, u, &mut want.0, &mut want.1, &mut want.2);
        assert!(
            out == want,
            "hinted vgh differs from the un-hinted loop at {u:?}"
        );
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for (side, slot) in best.iter_mut().enumerate() {
            let t0 = std::time::Instant::now();
            for &u in &us {
                if side == 0 {
                    vgh_simd_unhinted(&t, u, &mut out.0, &mut out.1, &mut out.2);
                } else {
                    evaluate_vgh(Backend::Simd, &t, u, &mut out.0, &mut out.1, &mut out.2);
                }
                std::hint::black_box(&mut out);
            }
            *slot = slot.min(t0.elapsed().as_secs_f64() / us.len() as f64);
        }
    }
    let [unhinted, hinted] = best.map(|s| s * 1e6);
    let gain = unhinted / hinted;
    println!("vgh f32 80^3 x {ns}: {unhinted:.2} -> {hinted:.2} us/point, {gain:.2}x");
    assert!(
        gain >= 1.5,
        "hinted vgh is only {gain:.2}x the un-hinted loop out of cache (>= 1.5x required)"
    );
}

// -- distance family: bitwise across all backends ---------------------------

struct OrthoCell<T: Real> {
    edges: [T; 3],
}

impl<T: Real> MinImageCell<T> for OrthoCell<T> {
    fn ortho_edges(&self) -> Option<[T; 3]> {
        Some(self.edges)
    }

    fn min_image3(&self, dr: [T; 3]) -> [T; 3] {
        let mut out = dr;
        for d in 0..3 {
            let l = self.edges[d];
            out[d] -= l * (out[d] / l + T::HALF).floor();
        }
        out
    }
}

/// Non-orthorhombic mock: forces the general (per-partner) fallback path.
struct SkewCell<T: Real> {
    edges: [T; 3],
}

impl<T: Real> MinImageCell<T> for SkewCell<T> {
    fn ortho_edges(&self) -> Option<[T; 3]> {
        None
    }

    fn min_image3(&self, dr: [T; 3]) -> [T; 3] {
        let mut out = dr;
        for d in 0..3 {
            let l = self.edges[d];
            out[d] -= l * (out[d] / l + T::HALF).floor();
        }
        out
    }
}

fn distance_matrix<T: Real>(n: usize, seed: u64) {
    let edges = [T::from_f64(6.0), T::from_f64(7.0), T::from_f64(8.0)];
    let mut rng = Rng::new(seed);
    let coords = |rng: &mut Rng, l: T| -> Vec<T> {
        (0..n)
            .map(|_| T::from_f64(rng.next()) * l)
            .collect::<Vec<_>>()
    };
    let xs = coords(&mut rng, edges[0]);
    let ys = coords(&mut rng, edges[1]);
    let zs = coords(&mut rng, edges[2]);
    let pos = [T::from_f64(1.1), T::from_f64(5.3), T::from_f64(2.9)];

    let run = |cell_kind: u8, backend: Backend| {
        let mut dist = vec![T::ZERO; n];
        let mut disp = [vec![T::ZERO; n], vec![T::ZERO; n], vec![T::ZERO; n]];
        let [a, b, c] = &mut disp;
        if cell_kind == 0 {
            let cell = OrthoCell { edges };
            distance_row(backend, &cell, &xs, &ys, &zs, pos, n, &mut dist, [a, b, c]);
        } else {
            let cell = SkewCell { edges };
            distance_row(backend, &cell, &xs, &ys, &zs, pos, n, &mut dist, [a, b, c]);
        }
        (dist, disp)
    };

    for cell_kind in [0u8, 1] {
        let (dist_ref, disp_ref) = run(cell_kind, Backend::Reference);
        for b in [Backend::Soa, Backend::Simd] {
            let (dist, disp) = run(cell_kind, b);
            assert_eq!(dist, dist_ref, "{b}: dist not bitwise (cell {cell_kind})");
            for d in 0..3 {
                assert_eq!(
                    disp[d], disp_ref[d],
                    "{b}: disp[{d}] not bitwise (cell {cell_kind})"
                );
            }
        }
        // Sanity: distances really are minimum-imaged (inside half-cell box).
        for j in 0..n {
            let r = dist_ref[j].to_f64();
            assert!(r * r <= 6.0f64.powi(2) + 7.0f64.powi(2) + 8.0f64.powi(2));
        }
    }
}

#[test]
fn distance_bitwise_f64() {
    distance_matrix::<f64>(29, 23);
}

#[test]
fn distance_bitwise_f32() {
    distance_matrix::<f32>(21, 29);
}

/// Partner coordinates jittered ±1e-9 around the min-image wrap points
/// (0, L/2, L): the half-cell boundary is exactly where the branch-free
/// `floor` correction flips between images, so a scalar/vector divergence
/// would surface here first.
fn distance_wrap_matrix<T: Real>(n: usize, seed: u64) {
    let edges_f = [6.0f64, 7.0, 8.0];
    let edges = [
        T::from_f64(edges_f[0]),
        T::from_f64(edges_f[1]),
        T::from_f64(edges_f[2]),
    ];
    let mut rng = Rng::new(seed);
    let mut wrap_coords = |l: f64| -> Vec<T> {
        (0..n)
            .map(|_| {
                let anchor = [0.0, 0.5 * l, l][(rng.next() * 3.0) as usize % 3];
                let eps = (rng.next() - 0.5) * 2e-9;
                T::from_f64((anchor + eps).clamp(0.0, l))
            })
            .collect()
    };
    let xs = wrap_coords(edges_f[0]);
    let ys = wrap_coords(edges_f[1]);
    let zs = wrap_coords(edges_f[2]);
    // Probe position itself on a wrap boundary.
    let pos = [
        T::from_f64(3.0 - 1e-10),
        T::from_f64(3.5 + 1e-10),
        T::from_f64(0.0),
    ];

    let run = |backend: Backend| {
        let mut dist = vec![T::ZERO; n];
        let mut disp = [vec![T::ZERO; n], vec![T::ZERO; n], vec![T::ZERO; n]];
        let [a, b, c] = &mut disp;
        let cell = OrthoCell { edges };
        distance_row(backend, &cell, &xs, &ys, &zs, pos, n, &mut dist, [a, b, c]);
        (dist, disp)
    };
    let (dist_ref, disp_ref) = run(Backend::Reference);
    for b in [Backend::Soa, Backend::Simd] {
        let (dist, disp) = run(b);
        assert_eq!(dist, dist_ref, "{b}: dist not bitwise at wrap boundary");
        for d in 0..3 {
            assert_eq!(
                disp[d], disp_ref[d],
                "{b}: disp[{d}] not bitwise at wrap boundary"
            );
        }
    }
    // Every displacement component must land inside the half-open
    // minimum-image box [-L/2, L/2].
    for d in 0..3 {
        let half = 0.5 * edges_f[d] + 1e-6;
        for j in 0..n {
            assert!(disp_ref[d][j].to_f64().abs() <= half);
        }
    }
}

#[test]
fn distance_wrap_boundaries_f64() {
    distance_wrap_matrix::<f64>(33, 59);
}

#[test]
fn distance_wrap_boundaries_f32() {
    distance_wrap_matrix::<f32>(33, 61);
}

// -- J2 family: reference == soa bitwise, simd within tolerance -------------

#[test]
fn jastrow_reduction_contract() {
    let n = 27; // 3 lane blocks + tail of 3
    let mut rng = Rng::new(31);
    let u: Vec<f64> = rng.row(n);
    let dud: Vec<f64> = rng.row(n);
    let lap: Vec<f64> = rng.row(n);
    let dx: Vec<f64> = rng.row(n);
    let dy: Vec<f64> = rng.row(n);
    let dz: Vec<f64> = rng.row(n);

    let r = j2_row_vgl(Backend::Reference, &u, &dud, &lap, &dx, &dy, &dz, n);
    let s = j2_row_vgl(Backend::Soa, &u, &dud, &lap, &dx, &dy, &dz, n);
    assert_eq!((r.v, r.g, r.l), (s.v, s.g, s.l), "soa not bitwise");

    let c = j2_row_vgl(Backend::Simd, &u, &dud, &lap, &dx, &dy, &dz, n);
    let tol = 1e-12 * n as f64;
    assert!((r.v - c.v).abs() < tol && (r.l - c.l).abs() < tol);
    for d in 0..3 {
        assert!((r.g[d] - c.g[d]).abs() < tol);
    }

    let (rv, rg) = j2_row_vg(Backend::Reference, &u, &dud, &dx, &dy, &dz, n);
    let (sv, sg) = j2_row_vg(Backend::Soa, &u, &dud, &dx, &dy, &dz, n);
    assert_eq!((rv, rg), (sv, sg));
    assert_eq!(
        j2_row_sum(Backend::Reference, &u, n),
        j2_row_sum(Backend::Soa, &u, n)
    );
    assert!((j2_row_sum(Backend::Simd, &u, n) - rv).abs() < tol);
}

#[test]
fn jastrow_slab_updates_bitwise_everywhere() {
    let n = 22;
    let mut rng = Rng::new(37);
    let cu: Vec<f64> = rng.row(n);
    let ou: Vec<f64> = rng.row(n);
    let cl: Vec<f64> = rng.row(n);
    let ol: Vec<f64> = rng.row(n);
    let vat0: Vec<f64> = rng.row(n);
    let lat0: Vec<f64> = rng.row(n);
    let od: Vec<f64> = rng.row(n);
    let oldd: Vec<f64> = rng.row(n);
    let cd: Vec<f64> = rng.row(n);
    let newd: Vec<f64> = rng.row(n);
    let g0: Vec<f64> = rng.row(n);

    let mut slabs = Vec::new();
    let mut ks = Vec::new();
    for b in Backend::ALL {
        let (mut vat, mut lat, mut g) = (vat0.clone(), lat0.clone(), g0.clone());
        let (kv, kl) = j2_accept_value_rows(b, &cu, &ou, &cl, &ol, &mut vat, &mut lat, n);
        let k = j2_accept_grad_row(b, &od, &oldd, &cd, &newd, &mut g, n);
        slabs.push((vat, lat, g));
        ks.push((kv, kl, k));
    }
    // Slab updates: bitwise on every backend.
    assert_eq!(slabs[0], slabs[1]);
    assert_eq!(slabs[0], slabs[2]);
    // Reductions: reference == soa bitwise; simd within tolerance.
    assert_eq!(ks[0].0, ks[1].0);
    assert_eq!(ks[0].1, ks[1].1);
    assert_eq!(ks[0].2, ks[1].2);
    let tol = 1e-12 * n as f64;
    assert!((ks[0].0 - ks[2].0).abs() < tol);
    assert!((ks[0].1 - ks[2].1).abs() < tol);
    assert!((ks[0].2 - ks[2].2).abs() < tol);
}

/// The f32 rung of the J2 family: same contract as f64 (slabs bitwise on
/// every backend, reductions bitwise reference==soa and tolerance for
/// simd), with the tolerance widened to single precision.
#[test]
fn jastrow_contract_f32_rung() {
    let n = 37; // two 16-wide blocks + tail of 5
    let mut rng = Rng::new(67);
    let u: Vec<f32> = rng.row(n);
    let dud: Vec<f32> = rng.row(n);
    let lap: Vec<f32> = rng.row(n);
    let dx: Vec<f32> = rng.row(n);
    let dy: Vec<f32> = rng.row(n);
    let dz: Vec<f32> = rng.row(n);

    let r = j2_row_vgl(Backend::Reference, &u, &dud, &lap, &dx, &dy, &dz, n);
    let s = j2_row_vgl(Backend::Soa, &u, &dud, &lap, &dx, &dy, &dz, n);
    assert_eq!((r.v, r.g, r.l), (s.v, s.g, s.l), "soa f32 not bitwise");
    let c = j2_row_vgl(Backend::Simd, &u, &dud, &lap, &dx, &dy, &dz, n);
    let tol = 1e-5 * n as f32;
    assert!((r.v - c.v).abs() < tol && (r.l - c.l).abs() < tol);
    for d in 0..3 {
        assert!((r.g[d] - c.g[d]).abs() < tol);
    }

    // Accept-path slab updates: elementwise, bitwise on every backend.
    let od: Vec<f32> = rng.row(n);
    let oldd: Vec<f32> = rng.row(n);
    let cd: Vec<f32> = rng.row(n);
    let newd: Vec<f32> = rng.row(n);
    let g0: Vec<f32> = rng.row(n);
    let (cu, ou, cl, ol): (Vec<f32>, Vec<f32>, Vec<f32>, Vec<f32>) =
        (rng.row(n), rng.row(n), rng.row(n), rng.row(n));
    let (vat0, lat0): (Vec<f32>, Vec<f32>) = (rng.row(n), rng.row(n));
    let mut slabs = Vec::new();
    let mut ks = Vec::new();
    for b in Backend::ALL {
        let (mut vat, mut lat, mut g) = (vat0.clone(), lat0.clone(), g0.clone());
        let (kv, kl) = j2_accept_value_rows(b, &cu, &ou, &cl, &ol, &mut vat, &mut lat, n);
        let k = j2_accept_grad_row(b, &od, &oldd, &cd, &newd, &mut g, n);
        slabs.push((vat, lat, g));
        ks.push((kv, kl, k));
    }
    assert_eq!(slabs[0], slabs[1]);
    assert_eq!(slabs[0], slabs[2]);
    assert_eq!((ks[0].0, ks[0].1, ks[0].2), (ks[1].0, ks[1].1, ks[1].2));
    assert!((ks[0].0 - ks[2].0).abs() < tol);
    assert!((ks[0].1 - ks[2].1).abs() < tol);
    assert!((ks[0].2 - ks[2].2).abs() < tol);
}
