//! Cross-backend verification matrix over seeded random inputs.
//!
//! Pins the contract documented in the crate root: B-spline and distance
//! kernels are **bitwise identical** between `reference` and `simd` (at
//! both lane widths of the precision ladder — 8-wide f64 and 16-wide
//! f32). J2 has one implementation: its lane-split reductions are pinned
//! bit for bit to a scalar model of that order and held within the
//! documented tolerance of the scalar left-to-right oracle, and its slab
//! updates are bitwise equal to the scalar elementwise formula.
//! Each family is exercised at sizes that cover both full lane blocks and
//! scalar tails, plus randomized inputs hugging the stencil edges
//! (fractional coordinates at grid nodes) and the min-image wrap
//! boundaries (half-cell distances), where the branch-free arithmetic is
//! most likely to diverge between a scalar and a vector rewrite.

use qmc_containers::{padded_len, AlignedVec, Real};
use qmc_kernels::bspline::{
    bspline_weights, evaluate_v, evaluate_vgh, evaluate_vgh_diag, evaluate_vgl, locate,
    mw_evaluate_v, mw_evaluate_vgl,
};
use qmc_kernels::distance::{distance_only_row, distance_row};
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
        let total = grid[0] * grid[1] * grid[2] * ns_pad;
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

/// The diagonal-Hessian vgh on `b`: psi, grad and the `[xx, yy, zz]` slabs.
fn vgh_diag<T: Real>(b: Backend, t: &SplineView<'_, T>, u: [T; 3]) -> [Vec<T>; 3] {
    let ns = t.num_splines;
    let mut out = [
        vec![T::ZERO; ns],
        vec![T::ZERO; 3 * ns],
        vec![T::ZERO; 3 * ns],
    ];
    let [psi, grad, hess] = &mut out;
    evaluate_vgh_diag(b, t, u, psi, grad, hess);
    out
}

/// Asserts that `diag` (from [`vgh_diag`]) holds the bits of the full
/// vgh's psi, grad and packed `xx`, `yy`, `zz` slabs.
fn assert_diag_of<T: Real>(diag: &[Vec<T>; 3], full: (&[T], &[T], &[T]), what: &str) {
    let ns = full.0.len();
    assert_eq!(diag[0], full.0, "{what}: vgh-diag psi not bitwise");
    assert_eq!(diag[1], full.1, "{what}: vgh-diag grad not bitwise");
    for (slab, packed) in [0, 3, 5].into_iter().enumerate() {
        assert_eq!(
            diag[2][slab * ns..(slab + 1) * ns],
            full.2[packed * ns..(packed + 1) * ns],
            "{what}: vgh-diag hess slab {slab} not bitwise"
        );
    }
}

// -- B-spline family: reference == simd bitwise ------------------------------

/// A triclinic cell's gradient transform and Laplacian metric, as
/// `evaluate_vgl` and `mw_evaluate_vgl` take them.
fn metric<T: Real>() -> ([[T; 3]; 3], [T; 6]) {
    let t = T::from_f64;
    let gmat = [
        [t(0.31), T::ZERO, T::ZERO],
        [t(0.02), t(0.27), T::ZERO],
        [T::ZERO, t(0.01), t(0.22)],
    ];
    (
        gmat,
        [t(0.10), t(0.09), t(0.05), t(0.01), t(0.02), t(0.005)],
    )
}

fn bspline_matrix<T: Real>(grid: [usize; 3], ns: usize, seed: u64) {
    let table = Table::<T>::random(grid, ns, seed);
    let t = table.view();
    let (gmat, lapmet) = metric::<T>();
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
        let b = Backend::Simd;
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
        for b in Backend::ALL {
            let full = (&vgh_ref.0[..], &vgh_ref.1[..], &vgh_ref.2[..]);
            assert_diag_of(&vgh_diag(b, &t, u), full, &format!("{b}"));
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
    let b = Backend::Simd;
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

#[test]
fn bspline_bitwise_f64_lane_multiple() {
    bspline_matrix::<f64>([5, 6, 7], 16, 11);
}

#[test]
fn bspline_bitwise_f64_with_tail() {
    bspline_matrix::<f64>([5, 6, 7], 13, 13);
}

/// Two f64 lane blocks and a tail of 5, on a grid whose x extent is not
/// the smallest.
#[test]
fn bspline_bitwise_f64_two_blocks_and_a_tail() {
    bspline_matrix::<f64>([6, 5, 7], 21, 101);
}

#[test]
fn bspline_bitwise_f32() {
    bspline_matrix::<f32>([5, 6, 7], 19, 17);
}

/// The mixed-precision drift contract: an f32 table rebuilt in f64 (every
/// coefficient widened exactly) evaluates within `1e-4` of the f32 `v` of
/// either backend at the same f32 positions.
#[test]
fn f32_v_stays_within_1e_4_of_its_f64_rebuild() {
    let (grid, ns) = ([6, 5, 7], 21);
    let table32 = Table::<f32>::random(grid, ns, 101);
    let ns_pad = padded_len::<f64>(ns);
    let nodes = table32.coefs.len() / table32.ns_pad;
    let mut coefs = AlignedVec::<f64>::zeros(nodes * ns_pad);
    for node in 0..nodes {
        for s in 0..ns {
            coefs.as_mut_slice()[node * ns_pad + s] =
                f64::from(table32.coefs.as_slice()[node * table32.ns_pad + s]);
        }
    }
    let table64 = Table {
        grid,
        ns,
        ns_pad,
        coefs,
    };
    for u in positions::<f32>(6, 202) {
        let mut psi64 = vec![0.0f64; ns];
        evaluate_v(
            Backend::Reference,
            &table64.view(),
            u.map(f64::from),
            &mut psi64,
        );
        for b in Backend::ALL {
            let mut psi32 = vec![0.0f32; ns];
            evaluate_v(b, &table32.view(), u, &mut psi32);
            for (s, (&lo, &hi)) in psi32.iter().zip(&psi64).enumerate() {
                assert!(
                    (f64::from(lo) - hi).abs() < 1e-4,
                    "{b}: f32 v drifts at spline {s}, {u:?}: {lo} vs {hi}"
                );
            }
        }
    }
}

/// Best of five passes of `calls` calls of `f`, in ns per call.
fn best_of_5_ns(calls: usize, mut f: impl FnMut()) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = std::time::Instant::now();
            for _ in 0..calls {
                f();
            }
            t0.elapsed().as_secs_f64() * 1e9 / calls as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Timing gate (release mode, `-- --ignored`; `ci.sh` runs it): the simd
/// backend must stay >= 1.25x ahead of reference on `v`, `vgh` and
/// `mw_vgl` (f64, ns = 128, 16³ table, cache-hot; measured 7.8x, 6.5x and
/// 16.2x on a 2-vCPU AVX-512 Xeon), or its tiling stopped paying.
/// `bench_kernels` times the same shapes.
#[test]
#[ignore = "timing gate: run in release mode (ci.sh does)"]
fn simd_is_at_least_1_25x_reference_on_the_bspline_kernels() {
    let ns = 128;
    let table = Table::<f64>::random([16, 16, 16], ns, 303);
    let t = table.view();
    let (gmat, lapmet) = metric::<f64>();
    let us = positions::<f64>(16, 404);
    let nw = us.len();
    let time = |b: Backend| -> [f64; 3] {
        let mut psi = vec![0.0; ns];
        let t_v = best_of_5_ns(2000, || {
            for &u in &us[..4] {
                evaluate_v(b, &t, u, &mut psi);
                std::hint::black_box(&mut psi);
            }
        }) / 4.0;
        let (mut p, mut g, mut h) = (vec![0.0; ns], vec![0.0; 3 * ns], vec![0.0; 6 * ns]);
        let t_vgh = best_of_5_ns(1000, || {
            for &u in &us[..4] {
                evaluate_vgh(b, &t, u, &mut p, &mut g, &mut h);
                std::hint::black_box(&mut p);
            }
        }) / 4.0;
        let (mut pw, mut gw, mut lw) = (
            vec![0.0; nw * ns],
            vec![0.0; 3 * nw * ns],
            vec![0.0; nw * ns],
        );
        let t_mw = best_of_5_ns(200, || {
            mw_evaluate_vgl(b, &t, &us, &gmat, &lapmet, &mut pw, &mut gw, &mut lw);
            std::hint::black_box(&mut pw);
        }) / nw as f64;
        [t_v, t_vgh, t_mw]
    };
    let reference = time(Backend::Reference);
    let simd = time(Backend::Simd);
    for (k, name) in ["v", "vgh", "mw_vgl"].into_iter().enumerate() {
        let speedup = reference[k] / simd[k];
        println!(
            "{name} f64 ns={ns}: reference {:.0} ns, simd {:.0} ns, {speedup:.2}x",
            reference[k], simd[k]
        );
        assert!(
            speedup >= 1.25,
            "simd {name} is only {speedup:.2}x reference (>= 1.25x required)"
        );
    }
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
    let b = Backend::Simd;
    let mut mw = vec![T::ZERO; nq * ns];
    mw_evaluate_v(b, &t, &us, &mut mw);
    assert_eq!(mw, mw_ref, "{b}: mw-v not bitwise");
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

/// The value kernel is the ψ slab of the derivative kernels, bit for bit:
/// `evaluate_v` and one `mw_evaluate_v` dispatch against the psi of
/// `evaluate_vgh`, `evaluate_vgh_diag` and `mw_evaluate_vgl`, on both
/// backends. `DiracDeterminant` stores no Slater matrix: every reinvert
/// rebuilds its rows with the value kernel, rows first computed by a
/// derivative kernel, so a walker's trajectory hangs on this. The points
/// are random, within 1e-9 of a grid node, and in cells whose stencils wrap
/// on no axis, one, two and all three.
fn v_is_the_psi_slab<T: Real>(ns: usize, seed: u64) {
    let grid = [4, 5, 6];
    let table = Table::<T>::random(grid, ns, seed);
    let t = table.view();
    let (gmat, lapmet) = metric::<T>();
    let mut us = positions::<T>(3, seed ^ 0x0F0F);
    us.extend(edge_positions::<T>(grid, 3, seed ^ 0xF0F0));
    us.extend([[0, 0, 0], [3, 0, 0], [3, 4, 0], [3, 4, 5]].map(|c| in_cell::<T>(grid, c)));
    let bits = |x: &[T]| x.iter().map(|v| v.to_f64().to_bits()).collect::<Vec<_>>();
    let nw = us.len();
    for b in Backend::ALL {
        let mut mw_v = vec![T::ZERO; nw * ns];
        mw_evaluate_v(b, &t, &us, &mut mw_v);
        let mut mw = (
            vec![T::ZERO; nw * ns],
            vec![T::ZERO; 3 * nw * ns],
            vec![T::ZERO; nw * ns],
        );
        mw_evaluate_vgl(b, &t, &us, &gmat, &lapmet, &mut mw.0, &mut mw.1, &mut mw.2);
        for (q, &u) in us.iter().enumerate() {
            let at = format!("{b}, ns {ns}, point {q} {u:?}");
            let mut psi = vec![T::ZERO; ns];
            evaluate_v(b, &t, u, &mut psi);
            let mut vgh = (
                vec![T::ZERO; ns],
                vec![T::ZERO; 3 * ns],
                vec![T::ZERO; 6 * ns],
            );
            evaluate_vgh(b, &t, u, &mut vgh.0, &mut vgh.1, &mut vgh.2);
            let v = bits(&psi);
            assert_eq!(v, bits(&vgh.0), "{at}: v vs vgh psi");
            assert_eq!(v, bits(&vgh_diag(b, &t, u)[0]), "{at}: v vs vgh-diag psi");
            assert_eq!(v, bits(&mw_v[q * ns..(q + 1) * ns]), "{at}: v vs mw-v");
            assert_eq!(
                v,
                bits(&mw.0[q * ns..(q + 1) * ns]),
                "{at}: v vs mw-vgl psi"
            );
        }
    }
}

/// Every f32 tile edge: 16-wide blocks, 2- and 4-block tiles, scalar tails.
#[test]
fn v_is_the_psi_slab_of_every_vgh_f32() {
    for ns in 16..=65 {
        v_is_the_psi_slab::<f32>(ns, 3000 + ns as u64);
    }
}

/// Every f64 tile edge: 8-wide blocks, 2- and 4-block tiles, scalar tails.
#[test]
fn v_is_the_psi_slab_of_every_vgh_f64() {
    for ns in 8..=33 {
        v_is_the_psi_slab::<f64>(ns, 4000 + ns as u64);
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
        let b = Backend::Simd;
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
        let full = (&vgh_ref.0[..], &vgh_ref.1[..], &vgh_ref.2[..]);
        assert_diag_of(
            &vgh_diag(b, &t, u),
            full,
            &format!("{b} at stencil edge {u:?}"),
        );
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

// -- the periodic wrap: every kernel against a modular-index oracle ----------

/// The table's coefficient `s` at grid node `(i, j, k)` taken mod the grid:
/// the test's own index, written with `%` and the layout's strides.
fn coef_mod<T: Real>(t: &SplineView<'_, T>, [i, j, k]: [usize; 3], s: usize) -> T {
    let [nx, ny, nz] = t.grid;
    t.coefs[((i % nx * ny + j % ny) * nz + k % nz) * t.ns_pad + s]
}

/// What the oracle returns at one point: psi, the fractional gradient and
/// packed Hessian of vgh, and the Cartesian gradient and Laplacian of vgl.
struct OracleOut<T> {
    psi: Vec<T>,
    grad: Vec<T>,
    hess: Vec<T>,
    cgrad: Vec<T>,
    lap: Vec<T>,
}

/// Spline-outermost loops over the 64 nodes in `(a, b, c)` order, each node
/// read at `(i + a) % n`, with the per-node weight products the kernels
/// document (left-associated triple products, one `mul_add` per node) and
/// their grid scaling: vgh scales the finished sums by `n` and `n_a·n_b`,
/// vgl folds `n` and `n²` into the 1D weights first.
fn oracle<T: Real>(
    t: &SplineView<'_, T>,
    u: [T; 3],
    gmat: &[[T; 3]; 3],
    lapmet: &[T; 6],
) -> OracleOut<T> {
    let ns = t.num_splines;
    let n = t.grid.map(T::from_usize);
    let located: [(usize, T); 3] = std::array::from_fn(|d| locate(u[d], t.grid[d]));
    let origin = located.map(|(i, _)| i);
    let [(wx, dwx, d2wx), (wy, dwy, d2wy), (wz, dwz, d2wz)] =
        located.map(|(_, f)| bspline_weights(f));
    // vgl's weights with the grid scaling folded in.
    let scaled = |dw: [T; 4], d2w: [T; 4], n: T| (dw.map(|x| x * n), d2w.map(|x| x * (n * n)));
    let (sdwx, sd2wx) = scaled(dwx, d2wx, n[0]);
    let (sdwy, sd2wy) = scaled(dwy, d2wy, n[1]);
    let (sdwz, sd2wz) = scaled(dwz, d2wz, n[2]);
    let mut out = OracleOut {
        psi: vec![T::ZERO; ns],
        grad: vec![T::ZERO; 3 * ns],
        hess: vec![T::ZERO; 6 * ns],
        cgrad: vec![T::ZERO; 3 * ns],
        lap: vec![T::ZERO; ns],
    };
    for s in 0..ns {
        let mut h = [T::ZERO; 10];
        let (mut v, mut cg, mut l) = (T::ZERO, [T::ZERO; 3], T::ZERO);
        for a in 0..4 {
            for b in 0..4 {
                for c in 0..4 {
                    let cf = coef_mod(t, [origin[0] + a, origin[1] + b, origin[2] + c], s);
                    let node = [
                        wx[a] * wy[b] * wz[c],
                        dwx[a] * wy[b] * wz[c],
                        wx[a] * dwy[b] * wz[c],
                        wx[a] * wy[b] * dwz[c],
                        d2wx[a] * wy[b] * wz[c],
                        wx[a] * d2wy[b] * wz[c],
                        wx[a] * wy[b] * d2wz[c],
                        dwx[a] * dwy[b] * wz[c],
                        dwx[a] * wy[b] * dwz[c],
                        wx[a] * dwy[b] * dwz[c],
                    ];
                    for q in 0..10 {
                        h[q] = node[q].mul_add(cf, h[q]);
                    }
                    let gf = [
                        sdwx[a] * wy[b] * wz[c],
                        wx[a] * sdwy[b] * wz[c],
                        wx[a] * wy[b] * sdwz[c],
                    ];
                    let wl = lapmet[0] * (sd2wx[a] * wy[b] * wz[c])
                        + lapmet[1] * (sdwx[a] * sdwy[b] * wz[c])
                        + lapmet[2] * (sdwx[a] * wy[b] * sdwz[c])
                        + lapmet[3] * (wx[a] * sd2wy[b] * wz[c])
                        + lapmet[4] * (wx[a] * sdwy[b] * sdwz[c])
                        + lapmet[5] * (wx[a] * wy[b] * sd2wz[c]);
                    v = node[0].mul_add(cf, v);
                    for d in 0..3 {
                        let wg = gmat[d][0] * gf[0] + gmat[d][1] * gf[1] + gmat[d][2] * gf[2];
                        cg[d] = wg.mul_add(cf, cg[d]);
                    }
                    l = wl.mul_add(cf, l);
                }
            }
        }
        assert!(h[0] == v, "the vgh and vgl value chains are one chain");
        out.psi[s] = h[0];
        for d in 0..3 {
            out.grad[d * ns + s] = h[1 + d] * n[d];
            out.cgrad[d * ns + s] = cg[d];
        }
        // Sums 4..10 are [xx, yy, zz, xy, xz, yz]; the packed slabs are
        // [xx, xy, xz, yy, yz, zz].
        for (q, (slab, (da, db))) in [
            (0, (0, 0)),
            (3, (1, 1)),
            (5, (2, 2)),
            (1, (0, 1)),
            (2, (0, 2)),
            (4, (1, 2)),
        ]
        .into_iter()
        .enumerate()
        {
            out.hess[slab * ns + s] = h[4 + q] * (n[da] * n[db]);
        }
        out.lap[s] = l;
    }
    out
}

/// One point inside cell `(i, j, k)` of `grid`: a fixed fraction of the
/// way across each cell, so every axis sits off its nodes.
fn in_cell<T: Real>(grid: [usize; 3], cell: [usize; 3]) -> [T; 3] {
    let frac = [0.3, 0.55, 0.8];
    std::array::from_fn(|d| T::from_f64((cell[d] as f64 + frac[d]) / grid[d] as f64))
}

/// Every kernel, on both backends, bitwise equal to [`oracle`] at one point
/// in every cell of the grid. A cell's stencil wraps on axis `d` when its
/// origin is in the last three cells of that axis (by 1, 2 or 3 nodes), so
/// the cells hold stencils that wrap on one axis (the 6 faces of the grid),
/// on two (the 12 edges) and on all three (the 8 corners), and on grids
/// above 4 nodes per axis stencils that do not wrap.
fn wrap_oracle_matrix<T: Real>(grid: [usize; 3], ns: usize, seed: u64) {
    let table = Table::<T>::random(grid, ns, seed);
    let t = table.view();
    let (gmat, lapmet) = metric::<T>();
    let mut cells = Vec::new();
    let mut wrapped_axes = std::collections::BTreeSet::new();
    for i in 0..grid[0] {
        for j in 0..grid[1] {
            for k in 0..grid[2] {
                let cell = [i, j, k];
                cells.push(cell);
                let wraps: Vec<bool> = (0..3).map(|d| cell[d] + 3 >= grid[d]).collect();
                wrapped_axes.insert(wraps);
            }
        }
    }
    assert_eq!(
        wrapped_axes.len(),
        8,
        "{grid:?}: every set of wrapped axes occurs"
    );
    let us: Vec<[T; 3]> = cells.iter().map(|&c| in_cell(grid, c)).collect();
    let want: Vec<OracleOut<T>> = us.iter().map(|&u| oracle(&t, u, &gmat, &lapmet)).collect();
    let nw = us.len();
    for b in Backend::ALL {
        let at = |q: usize| format!("{b}, {grid:?} x {ns}, cell {:?}", cells[q]);
        for (q, (&u, want)) in us.iter().zip(&want).enumerate() {
            let mut psi = vec![T::ZERO; ns];
            evaluate_v(b, &t, u, &mut psi);
            assert_eq!(psi, want.psi, "{}: v", at(q));
            let mut vgh = (
                vec![T::ZERO; ns],
                vec![T::ZERO; 3 * ns],
                vec![T::ZERO; 6 * ns],
            );
            evaluate_vgh(b, &t, u, &mut vgh.0, &mut vgh.1, &mut vgh.2);
            assert_eq!(vgh.0, want.psi, "{}: vgh psi", at(q));
            assert_eq!(vgh.1, want.grad, "{}: vgh grad", at(q));
            assert_eq!(vgh.2, want.hess, "{}: vgh hess", at(q));
            let full = (&want.psi[..], &want.grad[..], &want.hess[..]);
            assert_diag_of(&vgh_diag(b, &t, u), full, &at(q));
            let mut vgl = (vec![T::ZERO; ns], vec![T::ZERO; 3 * ns], vec![T::ZERO; ns]);
            evaluate_vgl(b, &t, u, &gmat, &lapmet, &mut vgl.0, &mut vgl.1, &mut vgl.2);
            assert_eq!(vgl.0, want.psi, "{}: vgl psi", at(q));
            assert_eq!(vgl.1, want.cgrad, "{}: vgl grad", at(q));
            assert_eq!(vgl.2, want.lap, "{}: vgl lap", at(q));
        }
        let mut mw_v = vec![T::ZERO; nw * ns];
        mw_evaluate_v(b, &t, &us, &mut mw_v);
        let mut mw = (
            vec![T::ZERO; nw * ns],
            vec![T::ZERO; 3 * nw * ns],
            vec![T::ZERO; nw * ns],
        );
        mw_evaluate_vgl(b, &t, &us, &gmat, &lapmet, &mut mw.0, &mut mw.1, &mut mw.2);
        for (q, want) in want.iter().enumerate() {
            assert_eq!(mw_v[q * ns..(q + 1) * ns], want.psi, "{}: mw-v", at(q));
            assert_eq!(
                mw.0[q * ns..(q + 1) * ns],
                want.psi,
                "{}: mw-vgl psi",
                at(q)
            );
            assert_eq!(
                mw.1[3 * q * ns..3 * (q + 1) * ns],
                want.cgrad,
                "{}: mw-vgl grad",
                at(q)
            );
            assert_eq!(
                mw.2[q * ns..(q + 1) * ns],
                want.lap,
                "{}: mw-vgl lap",
                at(q)
            );
        }
    }
}

/// Orbital counts: a lone scalar tail, one 16-wide f32 block and either
/// side of it (two f64 blocks at 16), and two blocks plus a tail.
const WRAP_SPLINES: [usize; 5] = [1, 15, 16, 17, 33];

#[test]
fn stencils_wrap_bitwise_as_the_modular_oracle_f64() {
    for ns in WRAP_SPLINES {
        wrap_oracle_matrix::<f64>([4, 4, 4], ns, 900 + ns as u64);
        wrap_oracle_matrix::<f64>([5, 6, 7], ns, 950 + ns as u64);
    }
}

#[test]
fn stencils_wrap_bitwise_as_the_modular_oracle_f32() {
    for ns in WRAP_SPLINES {
        wrap_oracle_matrix::<f32>([4, 4, 4], ns, 1900 + ns as u64);
        wrap_oracle_matrix::<f32>([5, 6, 7], ns, 1950 + ns as u64);
    }
}

/// One kernel call writing into its `(psi, grad, hess or lap)` slabs.
type Kernel<'a> = dyn Fn(&mut [f64], &mut [f64], &mut [f64]) + 'a;

/// A view whose storage is not `nx·ny·nz·ns_pad` long — a table laid out
/// with `+3` ghost layers per axis, say — would read wrong rows without
/// leaving the slice, so every public kernel refuses it, as it refuses a
/// grid axis below 4 nodes and `ns_pad < num_splines`.
#[test]
fn every_kernel_refuses_a_view_of_another_layout() {
    let (grid, ns) = ([5usize, 6, 7], 9);
    let ghosted = Table::<f64>::random([8, 9, 10], ns, 5);
    let logical = Table::<f64>::random(grid, ns, 5);
    let mut views = vec![(
        "the +3 ghost length",
        SplineView {
            grid,
            ..ghosted.view()
        },
    )];
    views.push((
        "an axis of 3 nodes",
        SplineView {
            grid: [3, 6, 7],
            coefs: &logical.coefs.as_slice()[..3 * 6 * 7 * logical.ns_pad],
            ..logical.view()
        },
    ));
    views.push((
        "ns_pad below num_splines",
        SplineView {
            num_splines: logical.ns_pad + 1,
            ..logical.view()
        },
    ));
    let (gmat, lapmet) = metric::<f64>();
    let u = [0.3, 0.6, 0.9];
    let refused = |f: &Kernel| {
        let mut out = [vec![0.0; 6 * 32], vec![0.0; 6 * 32], vec![0.0; 6 * 32]];
        let [p, g, h] = &mut out;
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(p, g, h))).is_err()
    };
    for (what, t) in views {
        for b in Backend::ALL {
            let t = &t;
            let kernels: [(&str, &Kernel); 6] = [
                ("v", &|p, _, _| evaluate_v(b, t, u, p)),
                ("mw_v", &|p, _, _| mw_evaluate_v(b, t, &[u], p)),
                ("vgh", &|p, g, h| evaluate_vgh(b, t, u, p, g, h)),
                ("vgh_diag", &|p, g, h| evaluate_vgh_diag(b, t, u, p, g, h)),
                ("vgl", &|p, g, l| {
                    evaluate_vgl(b, t, u, &gmat, &lapmet, p, g, l);
                }),
                ("mw_vgl", &|p, g, l| {
                    mw_evaluate_vgl(b, t, &[u], &gmat, &lapmet, p, g, l);
                }),
            ];
            for (name, call) in kernels {
                assert!(refused(call), "{b} {name} accepted a view with {what}");
            }
        }
    }
}

// -- vgh prefetch hints: no bit moved, no index outside the table ------------

/// The simd vgh kernel hints the cache line one lane block ahead of the
/// one it reads. Sizes: no whole block (1, 15), exact multiples of both
/// rungs' block, where the last pass must hint nothing (16, 32, 192), a
/// block plus a tail inside `ns_pad > ns` (17, 33). Positions: every
/// corner combination of u = 0 and the last cell of each axis; the
/// stencils of the last cells wrap, and the one at the far corner reads
/// the table's last row, so a hint past it is an index panic here.
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
            let b = Backend::Simd;
            let got = eval(b);
            assert_eq!(got.0, want.0, "{b}: vgh psi, ns={ns} at {u:?}");
            assert_eq!(got.1, want.1, "{b}: vgh grad, ns={ns} at {u:?}");
            assert_eq!(got.2, want.2, "{b}: vgh hess, ns={ns} at {u:?}");
            let full = (&want.0[..], &want.1[..], &want.2[..]);
            assert_diag_of(&vgh_diag(b, &t, u), full, &format!("{b}, ns={ns} at {u:?}"));
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
/// `ns` a multiple of the block: the baseline of the timing gates below,
/// kept here because the library holds the loop once. `DIAG` drops the
/// off-diagonal Hessian sums as `evaluate_vgh_diag` does: `hess` then holds
/// `[xx, yy, zz]`.
fn vgh_simd_unhinted<const DIAG: bool>(
    t: &SplineView<'_, f32>,
    u: [f32; 3],
    psi: &mut [f32],
    grad: &mut [f32],
    hess: &mut [f32],
) {
    const W: usize = 16;
    // Weight columns `[v, gx, gy, gz, hxx, hxy, hxz, hyy, hyz, hzz]`.
    let (sums, hess_sums, pairs): (&[usize], &[usize], &[(usize, usize)]) = if DIAG {
        (
            &[0, 1, 2, 3, 4, 7, 9],
            &[4, 7, 9],
            &[(0, 0), (1, 1), (2, 2)],
        )
    } else {
        (
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9],
            &[4, 5, 6, 7, 8, 9],
            &[(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)],
        )
    };
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
                bases[k] = (((ix + a) % nx * ny + (iy + b) % ny) * nz + (iz + c) % nz) * t.ns_pad;
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
            for &q in sums {
                acc[q] = acc[q].fma_scalar(w[k][q], cf);
            }
        }
        acc[0].store(&mut psi[s0..]);
        for d in 0..3 {
            acc[1 + d].store(&mut grad[d * ns + s0..]);
        }
        for (h, &q) in hess_sums.iter().enumerate() {
            acc[q].store(&mut hess[h * ns + s0..]);
        }
    }
    let n = [nx as f32, ny as f32, nz as f32];
    for d in 0..3 {
        for x in &mut grad[d * ns..(d + 1) * ns] {
            *x *= n[d];
        }
    }
    for (h, &(a, b)) in pairs.iter().enumerate() {
        let scale = n[a] * n[b];
        for x in &mut hess[h * ns..(h + 1) * ns] {
            *x *= scale;
        }
    }
}

/// The hinted simd kernel's gain over [`vgh_simd_unhinted`] on a table far
/// out of cache — the NiO-32 shape, 80³ x 192 f32, 375 MiB — after
/// checking every output bit equal on 64 points. Best of three passes over
/// 2048 random points per side.
fn hint_gain<const DIAG: bool>() -> f64 {
    let ns = 192;
    let table = Table::<f32>::random([80, 80, 80], ns, 7);
    let t = table.view();
    let us = positions::<f32>(2048, 99);
    let nh = if DIAG { 3 } else { 6 };
    let mut out = (
        vec![0.0f32; ns],
        vec![0.0f32; 3 * ns],
        vec![0.0f32; nh * ns],
    );
    let mut want = out.clone();
    let hinted = |u, out: &mut (Vec<f32>, Vec<f32>, Vec<f32>)| {
        if DIAG {
            evaluate_vgh_diag(Backend::Simd, &t, u, &mut out.0, &mut out.1, &mut out.2);
        } else {
            evaluate_vgh(Backend::Simd, &t, u, &mut out.0, &mut out.1, &mut out.2);
        }
    };
    for &u in &us[..64] {
        hinted(u, &mut out);
        vgh_simd_unhinted::<DIAG>(&t, u, &mut want.0, &mut want.1, &mut want.2);
        assert!(
            out == want,
            "hinted vgh (diag: {DIAG}) differs from the un-hinted loop at {u:?}"
        );
    }
    let mut best = [f64::INFINITY; 2];
    for _ in 0..3 {
        for (side, slot) in best.iter_mut().enumerate() {
            let t0 = std::time::Instant::now();
            for &u in &us {
                if side == 0 {
                    vgh_simd_unhinted::<DIAG>(&t, u, &mut out.0, &mut out.1, &mut out.2);
                } else {
                    hinted(u, &mut out);
                }
                std::hint::black_box(&mut out);
            }
            *slot = slot.min(t0.elapsed().as_secs_f64() / us.len() as f64);
        }
    }
    let [unhinted, hinted] = best.map(|s| s * 1e6);
    let gain = unhinted / hinted;
    println!(
        "vgh (diag: {DIAG}) f32 80^3 x {ns}: {unhinted:.2} -> {hinted:.2} us/point, {gain:.2}x"
    );
    gain
}

/// Timing gate (release mode, `-- --ignored`; `ci.sh` runs it): the hinted
/// kernel must stay >= 1.5x ahead of the un-hinted loop it replaced
/// (measured 2.4x when the gate was set), with every output bit equal.
#[test]
#[ignore = "timing gate on a 375 MiB table: run in release mode (ci.sh does)"]
fn vgh_hints_pay_on_an_out_of_cache_table() {
    let gain = hint_gain::<false>();
    assert!(
        gain >= 1.5,
        "hinted vgh is only {gain:.2}x the un-hinted loop out of cache (>= 1.5x required)"
    );
}

/// The same gate on the diagonal-Hessian kernel the sweep runs on
/// orthorhombic cells.
#[test]
#[ignore = "timing gate on a 375 MiB table: run in release mode (ci.sh does)"]
fn vgh_diag_hints_pay_on_an_out_of_cache_table() {
    let gain = hint_gain::<true>();
    assert!(
        gain >= 1.5,
        "hinted vgh-diag is only {gain:.2}x the un-hinted loop out of cache (>= 1.5x required)"
    );
}

// -- distance family: reference == simd bitwise ------------------------------

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
        let b = Backend::Simd;
        let (dist, disp) = run(cell_kind, b);
        assert_eq!(dist, dist_ref, "{b}: dist not bitwise (cell {cell_kind})");
        for d in 0..3 {
            assert_eq!(
                disp[d], disp_ref[d],
                "{b}: disp[{d}] not bitwise (cell {cell_kind})"
            );
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
    let b = Backend::Simd;
    let (dist, disp) = run(b);
    assert_eq!(dist, dist_ref, "{b}: dist not bitwise at wrap boundary");
    for d in 0..3 {
        assert_eq!(
            disp[d], disp_ref[d],
            "{b}: disp[{d}] not bitwise at wrap boundary"
        );
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

/// The distance-only row writes the distances [`distance_row`] writes,
/// bit for bit, on both backends and both cell kinds, at lengths with no
/// whole lane block, exact blocks and blocks plus a tail.
fn distance_only_matrix<T: Real>(seed: u64) {
    let edges = [T::from_f64(6.0), T::from_f64(7.0), T::from_f64(8.0)];
    let mut rng = Rng::new(seed);
    let n_max = 40;
    let [xs, ys, zs]: [Vec<T>; 3] = std::array::from_fn(|d| {
        (0..n_max)
            .map(|_| T::from_f64(rng.next()) * edges[d])
            .collect()
    });
    let pos = [T::from_f64(1.1), T::from_f64(5.3), T::from_f64(2.9)];
    for n in [0, 1, 7, 8, 9, 15, 16, 17, 33, 40] {
        for b in Backend::ALL {
            for ortho in [true, false] {
                let mut want = vec![T::ZERO; n];
                let mut disp = [vec![T::ZERO; n], vec![T::ZERO; n], vec![T::ZERO; n]];
                let [dx, dy, dz] = &mut disp;
                let mut got = vec![T::ZERO; n];
                if ortho {
                    let cell = OrthoCell { edges };
                    distance_row(b, &cell, &xs, &ys, &zs, pos, n, &mut want, [dx, dy, dz]);
                    distance_only_row(b, &cell, &xs, &ys, &zs, pos, n, &mut got);
                } else {
                    let cell = SkewCell { edges };
                    distance_row(b, &cell, &xs, &ys, &zs, pos, n, &mut want, [dx, dy, dz]);
                    distance_only_row(b, &cell, &xs, &ys, &zs, pos, n, &mut got);
                }
                assert_eq!(got, want, "{b}, n = {n}, orthorhombic: {ortho}");
            }
        }
    }
}

#[test]
fn distance_only_rows_equal_distance_rows_f64() {
    distance_only_matrix::<f64>(71);
}

#[test]
fn distance_only_rows_equal_distance_rows_f32() {
    distance_only_matrix::<f32>(73);
}

#[test]
fn distance_wrap_boundaries_f64() {
    distance_wrap_matrix::<f64>(33, 59);
}

#[test]
fn distance_wrap_boundaries_f32() {
    distance_wrap_matrix::<f32>(33, 61);
}

// -- J2 family: one lane order, within tolerance of the scalar oracle -------

/// The scalar left-to-right sum `x[0] + x[1] + ..`: the tolerance oracle
/// of the lane-split J2 reductions.
fn sum_scalar<T: Real>(x: &[T]) -> T {
    let mut acc = T::ZERO;
    for &v in x {
        acc += v;
    }
    acc
}

/// The scalar left-to-right dot product with one `mul_add` per partner.
fn dot_scalar<T: Real>(a: &[T], b: &[T]) -> T {
    let mut acc = T::ZERO;
    for (&x, &y) in a.iter().zip(b) {
        acc = x.mul_add(y, acc);
    }
    acc
}

/// The lane order written out in scalars: `w` lane accumulators fed by
/// `term(j)` (added in order for a sum, fused in for a dot), folded in lane
/// order, then the scalar tail. `w` is 8 in f64 and 16 in f32.
fn lane_model<T: Real>(n: usize, fused: bool, a: &[T], b: &[T]) -> T {
    let w = if std::mem::size_of::<T>() == 4 { 16 } else { 8 };
    let step = |acc: T, j: usize| {
        if fused {
            a[j].mul_add(b[j], acc)
        } else {
            acc + a[j]
        }
    };
    let mut lanes = vec![T::ZERO; w];
    let whole = n / w * w;
    for j in 0..whole {
        lanes[j % w] = step(lanes[j % w], j);
    }
    (whole..n).fold(sum_scalar(&lanes), step)
}

/// `|lane - oracle| <= (n + 1) * eps * sum |term|`, the documented bound.
fn assert_near<T: Real>(lane: T, oracle: T, terms: impl Iterator<Item = T>, n: usize, what: &str) {
    let scale = terms.fold(T::ZERO, |acc, t| acc + t.abs());
    let tol = T::from_usize(n + 1) * T::EPSILON * scale;
    assert!(
        (lane - oracle).abs() <= tol,
        "{what}, n={n}: lane sum {lane:?} vs scalar {oracle:?}, tolerance {tol:?}"
    );
}

fn j2_matrix<T: Real>(n: usize, seed: u64) {
    let mut rng = Rng::new(seed);
    let [u, dud, lap, dx, dy, dz]: [Vec<T>; 6] = std::array::from_fn(|_| rng.row(n));

    let r = j2_row_vgl(&u, &dud, &lap, &dx, &dy, &dz, n);
    let (v, g) = j2_row_vg(&u, &dud, &dx, &dy, &dz, n);
    assert_eq!((v, g), (r.v, r.g), "vg and vgl rows share one order");
    assert_eq!(
        j2_row_sum(&u, n),
        r.v,
        "row sum and vgl row share one order"
    );
    assert_eq!(r.v, lane_model(n, false, &u, &u), "v: lane order, n={n}");
    assert_eq!(
        r.l,
        lane_model(n, false, &lap, &lap),
        "l: lane order, n={n}"
    );
    assert_near(r.v, sum_scalar(&u), u.iter().copied(), n, "v");
    assert_near(r.l, sum_scalar(&lap), lap.iter().copied(), n, "l");
    for (k, d) in [&dx, &dy, &dz].into_iter().enumerate() {
        assert_eq!(
            r.g[k],
            lane_model(n, true, &dud, d),
            "g[{k}]: lane order, n={n}"
        );
        let what = format!("g[{k}]");
        assert_near(r.g[k], dot_scalar(&dud, d), products(&dud, d), n, &what);
    }

    let [cu, ou, cl, ol, vat0, lat0]: [Vec<T>; 6] = std::array::from_fn(|_| rng.row(n));
    let (mut vat, mut lat) = (vat0.clone(), lat0.clone());
    let (kv, kl) = j2_accept_value_rows(&cu, &ou, &cl, &ol, &mut vat, &mut lat, n);
    assert_eq!(
        (kv, kl),
        (
            lane_model(n, false, &cu, &cu),
            lane_model(n, false, &cl, &cl)
        )
    );
    assert_near(kv, sum_scalar(&cu), cu.iter().copied(), n, "kv");
    assert_near(kl, sum_scalar(&cl), cl.iter().copied(), n, "kl");
    for j in 0..n {
        assert_eq!(vat[j], vat0[j] + (cu[j] - ou[j]), "vat slab at {j}, n={n}");
        assert_eq!(lat[j], lat0[j] + (ol[j] - cl[j]), "lat slab at {j}, n={n}");
    }

    let [od, oldd, cd, newd, g0]: [Vec<T>; 5] = std::array::from_fn(|_| rng.row(n));
    let mut g = g0.clone();
    let k = j2_accept_grad_row(&od, &oldd, &cd, &newd, &mut g, n);
    assert_eq!(k, lane_model(n, true, &cd, &newd), "k: lane order, n={n}");
    assert_near(k, dot_scalar(&cd, &newd), products(&cd, &newd), n, "k");
    for j in 0..n {
        assert_eq!(
            g[j],
            g0[j] + (od[j] * oldd[j] - cd[j] * newd[j]),
            "g slab at {j}, n={n}"
        );
    }
}

/// The terms `a[j] * b[j]` of a dot product, for its tolerance scale.
fn products<'a, T: Real>(a: &'a [T], b: &'a [T]) -> impl Iterator<Item = T> + 'a {
    a.iter().zip(b).map(|(&x, &y)| x * y)
}

/// Row lengths: a lone tail, one 16-wide f32 block (two f64 blocks) and
/// either side of it, 64, and the NiO-32 electron count.
const J2_SIZES: [usize; 6] = [1, 15, 16, 17, 64, 384];

#[test]
fn j2_lane_sums_within_tolerance_of_the_scalar_oracle_f64() {
    for n in J2_SIZES {
        j2_matrix::<f64>(n, 31 + n as u64);
    }
}

#[test]
fn j2_lane_sums_within_tolerance_of_the_scalar_oracle_f32() {
    for n in J2_SIZES {
        j2_matrix::<f32>(n, 67 + n as u64);
    }
}
