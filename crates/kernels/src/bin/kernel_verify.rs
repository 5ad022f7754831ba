//! Cross-backend kernel verification and benchmark smoke runner (CI gate).
//!
//! Default mode verifies every [`Backend`] of every kernel family against
//! the reference backend over seeded random inputs and prints one
//! explicit log line per backend; CI greps for those lines so no backend
//! can be skipped silently. `--bench` times the dominant B-spline kernels
//! per backend and prints the simd-vs-reference speedups (run under
//! `--release`; debug timings are meaningless), then one `dram` line: the
//! same kernels on a table far out of cache, with the byte rate they reach.

use qmc_containers::{padded_len, AlignedVec, Real};
use qmc_kernels::bspline::{
    evaluate_v, evaluate_vgh, evaluate_vgh_diag, mw_evaluate_v, mw_evaluate_vgl,
};
use qmc_kernels::distance::distance_row;
use qmc_kernels::jastrow::{j2_accept_value_rows, j2_row_vgl};
use qmc_kernels::{Backend, MinImageCell, SplineView};
use std::time::Instant;

struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.max(1))
    }

    fn next(&mut self) -> f64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        (self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    }
}

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
            *x = T::from_f64(rng.next() - 0.5);
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

struct OrthoCell {
    edges: [f64; 3],
}

impl MinImageCell<f64> for OrthoCell {
    fn ortho_edges(&self) -> Option<[f64; 3]> {
        Some(self.edges)
    }

    fn min_image3(&self, dr: [f64; 3]) -> [f64; 3] {
        let mut out = dr;
        for d in 0..3 {
            let l = self.edges[d];
            out[d] -= l * (out[d] / l + 0.5).floor();
        }
        out
    }
}

struct OrthoCell32 {
    edges: [f32; 3],
}

impl MinImageCell<f32> for OrthoCell32 {
    fn ortho_edges(&self) -> Option<[f32; 3]> {
        Some(self.edges)
    }

    fn min_image3(&self, dr: [f32; 3]) -> [f32; 3] {
        let mut out = dr;
        for d in 0..3 {
            let l = self.edges[d];
            out[d] -= l * (out[d] / l + 0.5).floor();
        }
        out
    }
}

/// `evaluate_vgh_diag` on `backend` against the full vgh outputs `full` of
/// the reference backend: bitwise psi, grad and `xx`, `yy`, `zz` slabs.
/// Returns the number of scalar comparisons.
fn vgh_diag_matches<T: Real>(
    backend: Backend,
    t: &SplineView<'_, T>,
    u: [T; 3],
    full: (&[T], &[T], &[T]),
) -> usize {
    let ns = t.num_splines;
    let (mut p, mut g, mut h) = (
        vec![T::ZERO; ns],
        vec![T::ZERO; 3 * ns],
        vec![T::ZERO; 3 * ns],
    );
    evaluate_vgh_diag(backend, t, u, &mut p, &mut g, &mut h);
    let slabs = [0, 3, 5].into_iter().enumerate().all(|(slab, packed)| {
        h[slab * ns..(slab + 1) * ns] == full.2[packed * ns..(packed + 1) * ns]
    });
    assert!(
        p == full.0 && g == full.1 && slabs,
        "{backend}: bspline vgh-diag ({}) mismatch",
        std::any::type_name::<T>()
    );
    7 * ns
}

/// Verifies one backend against precomputed reference outputs; returns the
/// number of scalar comparisons performed.
fn verify_backend(backend: Backend) -> usize {
    let mut checked = 0usize;

    // B-spline v / vgh / vgh-diag / mw-vgl: bitwise against reference.
    let ns = 21; // two lane blocks + tail of 5
    let table = Table::<f64>::random([6, 5, 7], ns, 101);
    let t = table.view();
    let gmat = [[0.31, 0.0, 0.0], [0.02, 0.27, 0.0], [0.0, 0.01, 0.22]];
    let lapmet = [0.10, 0.09, 0.05, 0.01, 0.02, 0.005];
    let mut rng = Rng::new(202);
    let us: Vec<[f64; 3]> = (0..6)
        .map(|_| [rng.next(), rng.next(), rng.next()])
        .collect();
    for &u in &us {
        let mut psi_ref = vec![0.0; ns];
        evaluate_v(Backend::Reference, &t, u, &mut psi_ref);
        let mut psi = vec![0.0; ns];
        evaluate_v(backend, &t, u, &mut psi);
        assert_eq!(psi, psi_ref, "{backend}: bspline v mismatch");

        let (mut p0, mut g0, mut h0) = (vec![0.0; ns], vec![0.0; 3 * ns], vec![0.0; 6 * ns]);
        evaluate_vgh(Backend::Reference, &t, u, &mut p0, &mut g0, &mut h0);
        let (mut p1, mut g1, mut h1) = (vec![0.0; ns], vec![0.0; 3 * ns], vec![0.0; 6 * ns]);
        evaluate_vgh(backend, &t, u, &mut p1, &mut g1, &mut h1);
        assert!(
            p0 == p1 && g0 == g1 && h0 == h1,
            "{backend}: bspline vgh mismatch"
        );
        checked += 2 * ns + 10 * ns;
        checked += vgh_diag_matches(backend, &t, u, (&p0, &g0, &h0));
    }
    let nw = us.len();
    let (mut p0, mut g0, mut l0) = (
        vec![0.0; nw * ns],
        vec![0.0; 3 * nw * ns],
        vec![0.0; nw * ns],
    );
    mw_evaluate_vgl(
        Backend::Reference,
        &t,
        &us,
        &gmat,
        &lapmet,
        &mut p0,
        &mut g0,
        &mut l0,
    );
    let (mut p1, mut g1, mut l1) = (
        vec![0.0; nw * ns],
        vec![0.0; 3 * nw * ns],
        vec![0.0; nw * ns],
    );
    mw_evaluate_vgl(backend, &t, &us, &gmat, &lapmet, &mut p1, &mut g1, &mut l1);
    assert!(
        p0 == p1 && g0 == g1 && l0 == l1,
        "{backend}: bspline mw-vgl mismatch"
    );
    checked += 5 * nw * ns;

    // Value-only multi-point batch (the NLPP quadrature shape): bitwise
    // against a per-point reference loop.
    let mut psi_mw = vec![0.0; nw * ns];
    mw_evaluate_v(backend, &t, &us, &mut psi_mw);
    for (q, &u) in us.iter().enumerate() {
        let mut psi_ref = vec![0.0; ns];
        evaluate_v(Backend::Reference, &t, u, &mut psi_ref);
        assert_eq!(
            &psi_mw[q * ns..(q + 1) * ns],
            &psi_ref[..],
            "{backend}: bspline mw-v mismatch"
        );
    }
    checked += nw * ns;

    // f32 rung of the lane-width ladder: bitwise across backends (the
    // per-orbital op chain is width-independent) and tolerance-bounded
    // against an f64 shadow table holding the same coefficient values —
    // the mixed-precision drift contract.
    let table32 = Table::<f32>::random([6, 5, 7], ns, 101);
    let t32 = table32.view();
    let nodes = (6 + 3) * (5 + 3) * (7 + 3);
    let ns_pad64 = padded_len::<f64>(ns);
    let mut shadow = AlignedVec::<f64>::zeros(nodes * ns_pad64);
    for node in 0..nodes {
        for s in 0..ns {
            shadow.as_mut_slice()[node * ns_pad64 + s] =
                f64::from(table32.coefs.as_slice()[node * table32.ns_pad + s]);
        }
    }
    let t64 = SplineView {
        grid: [6, 5, 7],
        num_splines: ns,
        ns_pad: ns_pad64,
        coefs: shadow.as_slice(),
    };
    for &u in &us {
        let u32 = [u[0] as f32, u[1] as f32, u[2] as f32];
        let u64s = [f64::from(u32[0]), f64::from(u32[1]), f64::from(u32[2])];
        let mut psi32_ref = vec![0.0f32; ns];
        evaluate_v(Backend::Reference, &t32, u32, &mut psi32_ref);
        let mut psi32 = vec![0.0f32; ns];
        evaluate_v(backend, &t32, u32, &mut psi32);
        assert_eq!(psi32, psi32_ref, "{backend}: bspline f32 v mismatch");
        let mut psi64 = vec![0.0f64; ns];
        evaluate_v(Backend::Reference, &t64, u64s, &mut psi64);
        for (s, (&lo, &hi)) in psi32.iter().zip(psi64.iter()).enumerate() {
            assert!(
                (f64::from(lo) - hi).abs() < 1e-4,
                "{backend}: f32 ladder drift at spline {s}: {lo} vs {hi}"
            );
        }
        let (mut pa, mut ga, mut ha) =
            (vec![0.0f32; ns], vec![0.0f32; 3 * ns], vec![0.0f32; 6 * ns]);
        evaluate_vgh(Backend::Reference, &t32, u32, &mut pa, &mut ga, &mut ha);
        let (mut pb, mut gb, mut hb) =
            (vec![0.0f32; ns], vec![0.0f32; 3 * ns], vec![0.0f32; 6 * ns]);
        evaluate_vgh(backend, &t32, u32, &mut pb, &mut gb, &mut hb);
        assert!(
            pa == pb && ga == gb && ha == hb,
            "{backend}: bspline f32 vgh mismatch"
        );
        checked += 2 * ns + 10 * ns;
        checked += vgh_diag_matches(backend, &t32, u32, (&pa, &ga, &ha));
    }

    // Distance rows: bitwise against reference on an orthorhombic cell.
    let n = 37;
    let cell = OrthoCell {
        edges: [6.0, 7.0, 8.0],
    };
    let xs: Vec<f64> = (0..n).map(|_| rng.next() * 6.0).collect();
    let ys: Vec<f64> = (0..n).map(|_| rng.next() * 7.0).collect();
    let zs: Vec<f64> = (0..n).map(|_| rng.next() * 8.0).collect();
    let pos = [1.2, 5.1, 3.3];
    let run = |b: Backend| {
        let mut dist = vec![0.0; n];
        let mut disp = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let [a2, b2, c2] = &mut disp;
        distance_row(b, &cell, &xs, &ys, &zs, pos, n, &mut dist, [a2, b2, c2]);
        (dist, disp)
    };
    let (dist_ref, disp_ref) = run(Backend::Reference);
    let (dist, disp) = run(backend);
    assert!(
        dist == dist_ref && disp == disp_ref,
        "{backend}: distance row mismatch"
    );
    checked += 4 * n;

    // Distance rows, f32 rung: bitwise against the f32 reference (the
    // branch-free min-image arithmetic is identical per element at any
    // lane width).
    let cell32 = OrthoCell32 {
        edges: [6.0, 7.0, 8.0],
    };
    let xs32: Vec<f32> = xs.iter().map(|&x| x as f32).collect();
    let ys32: Vec<f32> = ys.iter().map(|&y| y as f32).collect();
    let zs32: Vec<f32> = zs.iter().map(|&z| z as f32).collect();
    let pos32 = [1.2f32, 5.1, 3.3];
    let run32 = |b: Backend| {
        let mut dist = vec![0.0f32; n];
        let mut disp = [vec![0.0f32; n], vec![0.0f32; n], vec![0.0f32; n]];
        let [a2, b2, c2] = &mut disp;
        distance_row(
            b,
            &cell32,
            &xs32,
            &ys32,
            &zs32,
            pos32,
            n,
            &mut dist,
            [a2, b2, c2],
        );
        (dist, disp)
    };
    let (dist_ref32, disp_ref32) = run32(Backend::Reference);
    let (dist32, disp32) = run32(backend);
    assert!(
        dist32 == dist_ref32 && disp32 == disp_ref32,
        "{backend}: f32 distance row mismatch"
    );
    checked += 4 * n;

    // J2 has one implementation: its lane-split sums within the documented
    // tolerance of the scalar left-to-right order, its slab updates bitwise
    // equal to the scalar elementwise formula.
    let row = |rng: &mut Rng| -> Vec<f64> { (0..n).map(|_| rng.next() - 0.5).collect() };
    let (u, dud, lap) = (row(&mut rng), row(&mut rng), row(&mut rng));
    let (dx, dy, dz) = (row(&mut rng), row(&mut rng), row(&mut rng));
    let r = j2_row_vgl(&u, &dud, &lap, &dx, &dy, &dz, n);
    let near = |lane: f64, terms: &[f64]| {
        let oracle: f64 = terms.iter().sum();
        let scale: f64 = terms.iter().map(|x| x.abs()).sum();
        (lane - oracle).abs() <= (n + 1) as f64 * f64::EPSILON * scale
    };
    let prods = |d: &[f64]| -> Vec<f64> { dud.iter().zip(d).map(|(a, b)| a * b).collect() };
    assert!(
        near(r.v, &u)
            && near(r.l, &lap)
            && near(r.g[0], &prods(&dx))
            && near(r.g[1], &prods(&dy))
            && near(r.g[2], &prods(&dz)),
        "{backend}: j2 row outside tolerance of the scalar sum"
    );
    let (cu, ou, cl, ol) = (row(&mut rng), row(&mut rng), row(&mut rng), row(&mut rng));
    let base = row(&mut rng);
    let (mut vat, mut lat) = (base.clone(), base.clone());
    j2_accept_value_rows(&cu, &ou, &cl, &ol, &mut vat, &mut lat, n);
    assert!(
        (0..n).all(|j| vat[j] == base[j] + (cu[j] - ou[j]) && lat[j] == base[j] + (ol[j] - cl[j])),
        "{backend}: j2 slab update mismatch"
    );
    checked += 7 * n;

    checked
}

/// Best-of-`reps` wall time of `f` in nanoseconds per call.
fn best_time(reps: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        let elapsed = start.elapsed().as_secs_f64() * 1e9 / calls as f64;
        if elapsed < best {
            best = elapsed;
        }
    }
    best
}

fn bench() {
    // Paper-scale orbital count: the dominant kernels stream ns-wide slabs.
    let ns = 128;
    let table = Table::<f64>::random([16, 16, 16], ns, 303);
    let t = table.view();
    let gmat = [[0.31, 0.0, 0.0], [0.02, 0.27, 0.0], [0.0, 0.01, 0.22]];
    let lapmet = [0.10, 0.09, 0.05, 0.01, 0.02, 0.005];
    let mut rng = Rng::new(404);
    let us: Vec<[f64; 3]> = (0..16)
        .map(|_| [rng.next(), rng.next(), rng.next()])
        .collect();

    let mut times = Vec::new();
    for b in Backend::ALL {
        let mut psi = vec![0.0; ns];
        let t_v = best_time(5, 2000, || {
            for &u in &us[..4] {
                evaluate_v(b, &t, u, &mut psi);
            }
        }) / 4.0;
        let (mut p, mut g, mut h) = (vec![0.0; ns], vec![0.0; 3 * ns], vec![0.0; 6 * ns]);
        let t_vgh = best_time(5, 1000, || {
            for &u in &us[..4] {
                evaluate_vgh(b, &t, u, &mut p, &mut g, &mut h);
            }
        }) / 4.0;
        let t_diag = best_time(5, 1000, || {
            for &u in &us[..4] {
                evaluate_vgh_diag(b, &t, u, &mut p, &mut g, &mut h);
            }
        }) / 4.0;
        let nw = us.len();
        let (mut pw, mut gw, mut lw) = (
            vec![0.0; nw * ns],
            vec![0.0; 3 * nw * ns],
            vec![0.0; nw * ns],
        );
        let t_mw = best_time(5, 200, || {
            mw_evaluate_vgl(b, &t, &us, &gmat, &lapmet, &mut pw, &mut gw, &mut lw);
        }) / nw as f64;
        println!(
            "kernel-bench: backend={b} ns={ns} v_ns={t_v:.0} vgh_ns={t_vgh:.0} vgh_diag_ns={t_diag:.0} mw_vgl_ns_per_walker={t_mw:.0}"
        );
        times.push((t_v, t_vgh, t_mw));
    }
    let speedup = |k: fn(&(f64, f64, f64)) -> f64| k(&times[0]) / k(&times[1]);
    println!(
        "kernel-bench: simd-vs-reference speedup v={:.2}x vgh={:.2}x mw_vgl={:.2}x",
        speedup(|t| t.0),
        speedup(|t| t.1),
        speedup(|t| t.2)
    );
}

/// The rows above run a 7 MiB table at four repeated points — L1/L2-hot,
/// blind to a kernel that waits out every miss. This line runs `simd` v
/// and vgh on the NiO-32 shape (80³ x 192 f32, 419 MiB) at distinct random
/// points and prints the rate over the 64 x `ns` x 4 B each point reads;
/// both read the same rows, so a gap between the two rates is latency.
/// Informational: outside the speedup gate.
fn bench_dram() {
    let ns = 192;
    let table = Table::<f32>::random([80, 80, 80], ns, 505);
    let t = table.view();
    let mut rng = Rng::new(606);
    let us: Vec<[f32; 3]> = (0..2048)
        .map(|_| [rng.next() as f32, rng.next() as f32, rng.next() as f32])
        .collect();
    let (mut p, mut g, mut h) = (vec![0.0f32; ns], vec![0.0f32; 3 * ns], vec![0.0f32; 6 * ns]);
    let points = us.len() as f64;
    let t_v = best_time(3, 1, || {
        for &u in &us {
            evaluate_v(Backend::Simd, &t, u, &mut p);
        }
    }) / points;
    let t_vgh = best_time(3, 1, || {
        for &u in &us {
            evaluate_vgh(Backend::Simd, &t, u, &mut p, &mut g, &mut h);
        }
    }) / points;
    // Bytes per nanosecond is GB/s.
    let bytes = (64 * ns * 4) as f64;
    println!(
        "kernel-bench: dram backend=simd f32 grid=80x80x80 ns={ns} points={points} v_ns={t_v:.0} v_gbs={:.1} vgh_ns={t_vgh:.0} vgh_gbs={:.1}",
        bytes / t_v,
        bytes / t_vgh
    );
}

fn main() {
    let bench_mode = std::env::args().any(|a| a == "--bench");
    for b in Backend::ALL {
        let checked = verify_backend(b);
        println!("kernel-verify: backend={b} families=bspline,bspline-mw-v,bspline-f32,distance,distance-f32,jastrow checked={checked} status=ok");
    }
    if bench_mode {
        bench();
        bench_dram();
    }
}
