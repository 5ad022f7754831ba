//! SoA distance-row kernels: minimum-imaged distances/displacements from
//! one position to a SoA position set, behind the [`Backend`] seam.
//!
//! This is the row primitive under every AA/AB distance-table operation
//! (full rebuild, compute-on-the-fly refresh, candidate row, batched
//! crowd rows). The lattice stays in `qmc-particles`; the kernels see it
//! through the tiny [`MinImageCell`] trait.
//!
//! Both backends apply the identical branch-free arithmetic per partner —
//! multiply-by-inverse min-image `d -= l * (d * (1/l) + 1/2).floor()` and the
//! `dx.mul_add(dx, dy.mul_add(dy, dz*dz)).sqrt()` norm — so they are
//! **bitwise identical**; there is no cross-partner reduction to reorder.
//! They differ in loop structure only:
//!
//! * `reference` — one interleaved pass per partner (the loop moved from
//!   `qmc-particles::dtable::compute_row`).
//! * `simd` — explicit [`WideLane`] blocks with a scalar tail, width
//!   following the mixed-precision ladder (8-wide `f64`, 16-wide `f32`).
//!
//! Non-orthorhombic cells take the same general minimum-image wrap on
//! every backend (one [`MinImageCell::min_image3`] call per partner), so
//! the bitwise guarantee holds there trivially.

use crate::lanes::{wide_f32, WideLane};
use crate::Backend;
use qmc_containers::Real;

/// The lattice surface the distance kernels need: orthorhombic edge
/// lengths when the fast diagonal path applies, and the general
/// minimum-image wrap otherwise. Implemented by
/// `qmc_particles::CrystalLattice`.
pub trait MinImageCell<T: Real> {
    /// `Some([lx, ly, lz])` for a diagonal (orthorhombic) cell, `None`
    /// otherwise.
    fn ortho_edges(&self) -> Option<[T; 3]>;

    /// General-cell minimum-image reduction of one displacement.
    fn min_image3(&self, dr: [T; 3]) -> [T; 3];
}

/// Computes one SoA distance row: minimum-imaged displacements and
/// distances from `pos` to the first `n` entries of the component slices
/// `xs`/`ys`/`zs`, written to `out_disp` / `out_dist`. Bitwise identical
/// across backends.
pub fn distance_row<T: Real, C: MinImageCell<T>>(
    backend: Backend,
    cell: &C,
    xs: &[T],
    ys: &[T],
    zs: &[T],
    pos: [T; 3],
    n: usize,
    out_dist: &mut [T],
    out_disp: [&mut [T]; 3],
) {
    assert!(out_disp.iter().all(|o| o.len() >= n));
    row::<T, C, true>(backend, cell, [xs, ys, zs], pos, n, out_dist, out_disp);
}

/// [`distance_row`] without the displacements: the same distances, bit for
/// bit (one body, the displacement stores compiled out), for callers that
/// read only `out_dist`.
pub fn distance_only_row<T: Real, C: MinImageCell<T>>(
    backend: Backend,
    cell: &C,
    xs: &[T],
    ys: &[T],
    zs: &[T],
    pos: [T; 3],
    n: usize,
    out_dist: &mut [T],
) {
    row::<T, C, false>(
        backend,
        cell,
        [xs, ys, zs],
        pos,
        n,
        out_dist,
        [&mut [], &mut [], &mut []],
    );
}

/// The body of both rows; `DISP` selects whether `out_disp` is written.
#[inline(always)]
fn row<T: Real, C: MinImageCell<T>, const DISP: bool>(
    backend: Backend,
    cell: &C,
    src: [&[T]; 3],
    pos: [T; 3],
    n: usize,
    out_dist: &mut [T],
    out_disp: [&mut [T]; 3],
) {
    assert!(src.iter().all(|c| c.len() >= n) && out_dist.len() >= n);
    let Some(edges) = cell.ortho_edges() else {
        general_row::<T, C, DISP>(cell, src, pos, n, out_dist, out_disp);
        return;
    };
    match backend {
        Backend::Reference => ortho_reference::<T, DISP>(edges, src, pos, n, out_dist, out_disp),
        Backend::Simd => {
            if wide_f32::<T>() {
                ortho_simd_w::<T, 16, DISP>(edges, src, pos, n, out_dist, out_disp);
            } else {
                ortho_simd_w::<T, 8, DISP>(edges, src, pos, n, out_dist, out_disp);
            }
        }
    }
}

/// `|dr|` as every row computes it: `dx.mul_add(dx, dy.mul_add(dy, dz*dz))`
/// under the square root.
#[inline(always)]
fn norm<T: Real>([dx, dy, dz]: [T; 3]) -> T {
    dx.mul_add(dx, dy.mul_add(dy, dz * dz)).sqrt()
}

/// Stores partner `j`'s distance, and under `DISP` its displacement.
#[inline(always)]
fn store_partner<T: Real, const DISP: bool>(
    j: usize,
    dr: [T; 3],
    out_dist: &mut [T],
    out_disp: &mut [&mut [T]; 3],
) {
    if DISP {
        for (o, d) in out_disp.iter_mut().zip(dr) {
            o[j] = d;
        }
    }
    out_dist[j] = norm(dr);
}

/// General (triclinic) cells: every backend runs this same per-partner
/// wrap, keeping the cross-backend bitwise guarantee trivially true.
fn general_row<T: Real, C: MinImageCell<T>, const DISP: bool>(
    cell: &C,
    [xs, ys, zs]: [&[T]; 3],
    pos: [T; 3],
    n: usize,
    out_dist: &mut [T],
    mut out_disp: [&mut [T]; 3],
) {
    for j in 0..n {
        let dr = cell.min_image3([xs[j] - pos[0], ys[j] - pos[1], zs[j] - pos[2]]);
        store_partner::<T, DISP>(j, dr, out_dist, &mut out_disp);
    }
}

/// One orthorhombic partner in scalars, elementwise the arithmetic of
/// [`min_image_lane`]: `d -= l * (d * il + 1/2).floor()` per axis.
#[inline(always)]
fn ortho_partner<T: Real>(edges: [T; 3], inv: [T; 3], d: [T; 3]) -> [T; 3] {
    std::array::from_fn(|k| d[k] - edges[k] * (d[k] * inv[k] + T::HALF).floor())
}

/// Interleaved per-partner loop (moved from `compute_row`).
fn ortho_reference<T: Real, const DISP: bool>(
    edges: [T; 3],
    [xs, ys, zs]: [&[T]; 3],
    pos: [T; 3],
    n: usize,
    out_dist: &mut [T],
    mut out_disp: [&mut [T]; 3],
) {
    let inv = edges.map(|l| T::ONE / l);
    for j in 0..n {
        let dr = ortho_partner(edges, inv, [xs[j] - pos[0], ys[j] - pos[1], zs[j] - pos[2]]);
        store_partner::<T, DISP>(j, dr, out_dist, &mut out_disp);
    }
}

/// One lane of the min-image arithmetic, elementwise identical to the
/// scalar form: `d -= l * (d * il + 1/2).floor()`.
#[inline(always)]
fn min_image_lane<T: Real, const W: usize>(d: WideLane<T, W>, l: T, il: T) -> WideLane<T, W> {
    let wrap = d.mul_scalar(il).add(WideLane::splat(T::HALF)).floor();
    d.sub(wrap.mul_scalar(l))
}

/// Explicit lane blocks with a scalar tail. `f64` runs 8-wide, `f32` takes
/// the 16-wide rung of the precision ladder; widening is elementwise, so
/// both rungs stay bitwise identical to the scalar form.
fn ortho_simd_w<T: Real, const W: usize, const DISP: bool>(
    edges: [T; 3],
    [xs, ys, zs]: [&[T]; 3],
    pos: [T; 3],
    n: usize,
    out_dist: &mut [T],
    mut out_disp: [&mut [T]; 3],
) {
    let [lx, ly, lz] = edges;
    let inv = edges.map(|l| T::ONE / l);
    let [ilx, ily, ilz] = inv;
    let mut j0 = 0;
    while j0 + W <= n {
        let px = WideLane::<T, W>::splat(pos[0]);
        let py = WideLane::<T, W>::splat(pos[1]);
        let pz = WideLane::<T, W>::splat(pos[2]);
        let dx = min_image_lane(WideLane::load(&xs[j0..]).sub(px), lx, ilx);
        let dy = min_image_lane(WideLane::load(&ys[j0..]).sub(py), ly, ily);
        let dz = min_image_lane(WideLane::load(&zs[j0..]).sub(pz), lz, ilz);
        if DISP {
            let [ox, oy, oz] = &mut out_disp;
            dx.store(&mut ox[j0..]);
            dy.store(&mut oy[j0..]);
            dz.store(&mut oz[j0..]);
        }
        // norm(), lane-wise.
        let n2 = dz.mul(dz).fma(dy, dy).fma(dx, dx);
        n2.sqrt().store(&mut out_dist[j0..]);
        j0 += W;
    }
    for j in j0..n {
        let dr = ortho_partner(edges, inv, [xs[j] - pos[0], ys[j] - pos[1], zs[j] - pos[2]]);
        store_partner::<T, DISP>(j, dr, out_dist, &mut out_disp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Ortho([f64; 3]);

    impl MinImageCell<f64> for Ortho {
        fn ortho_edges(&self) -> Option<[f64; 3]> {
            Some(self.0)
        }
        fn min_image3(&self, dr: [f64; 3]) -> [f64; 3] {
            dr
        }
    }

    struct General([f64; 3]);

    impl MinImageCell<f64> for General {
        fn ortho_edges(&self) -> Option<[f64; 3]> {
            None
        }
        fn min_image3(&self, dr: [f64; 3]) -> [f64; 3] {
            // Fractional wrap of a diagonal cell expressed the "general" way.
            let mut out = dr;
            for d in 0..3 {
                let l = self.0[d];
                out[d] -= l * (out[d] / l + 0.5).floor();
            }
            out
        }
    }

    fn coords(n: usize, l: f64, seed: u64) -> Vec<f64> {
        let mut state = seed.max(1);
        (0..n)
            .map(|_| {
                state ^= state >> 12;
                state ^= state << 25;
                state ^= state >> 27;
                (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64 * l
            })
            .collect()
    }

    fn run(backend: Backend, cell: &impl MinImageCell<f64>, n: usize) -> (Vec<f64>, [Vec<f64>; 3]) {
        let (xs, ys, zs) = (coords(n, 7.0, 3), coords(n, 7.0, 5), coords(n, 7.0, 9));
        let pos = [0.4, 6.8, 3.3];
        let mut dist = vec![0.0; n];
        let mut disp = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        {
            let [a, b, c] = &mut disp;
            distance_row(backend, cell, &xs, &ys, &zs, pos, n, &mut dist, [a, b, c]);
        }
        (dist, disp)
    }

    #[test]
    fn ortho_backends_bitwise_identical() {
        // n = 13 exercises the simd scalar tail.
        let cell = Ortho([7.0, 6.0, 5.5]);
        let (d0, x0) = run(Backend::Reference, &cell, 13);
        assert_eq!(run(Backend::Simd, &cell, 13), (d0, x0));
    }

    #[test]
    fn general_cells_fall_back_identically() {
        let cell = General([7.0, 6.0, 5.5]);
        let (d0, x0) = run(Backend::Reference, &cell, 11);
        assert_eq!(run(Backend::Simd, &cell, 11), (d0, x0));
    }

    #[test]
    fn distances_are_min_imaged() {
        let cell = Ortho([7.0, 6.0, 5.5]);
        let (d, _) = run(Backend::Simd, &cell, 16);
        let rmax = 0.5 * (7.0f64 * 7.0 + 6.0 * 6.0 + 5.5 * 5.5).sqrt();
        for (j, &x) in d.iter().enumerate() {
            assert!(x >= 0.0 && x <= rmax, "partner {j}: {x}");
        }
    }
}
