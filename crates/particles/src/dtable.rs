//! Distance tables: the paper's primary hot spot (Fig. 2).
//!
//! Four implementations mirror the optimization ladder:
//!
//! * [`DistTableAARef`] — electron-electron (AA, symmetric) table with the
//!   baseline *packed upper-triangle* storage and AoS displacements
//!   (Fig. 6(a)): minimal memory, but unaligned strided updates that defeat
//!   auto-vectorization.
//! * [`DistTableAASoA`] — the optimized table (Fig. 6(b) plus §7.5): full
//!   `N x Np` aligned rows in SoA layout, *forward update* on acceptance
//!   (only the contiguous row is written), and *compute-on-the-fly* row
//!   refresh before each move (no strided column updates at all).
//! * [`DistTableABRef`] / [`DistTableABSoA`] — electron-ion (AB) tables in
//!   the corresponding layouts; ion positions are fixed for the whole run.
//!
//! Row convention: `dr[i][j] = min_image(r_j - r_i)`, `dist[i][j] = |dr|`.

// Kernel module (DESIGN §5c): its non-test code does not panic.
#![cfg_attr(not(test), warn(clippy::unwrap_used, clippy::expect_used))]
#![cfg_attr(not(test), warn(clippy::panic, clippy::todo, clippy::unimplemented))]

use crate::lattice::CrystalLattice;
use qmc_containers::{AlignedVec, Matrix, Pos, Real, TinyVector, VectorSoaContainer};
use qmc_instrument::{add_flops_bytes, time_kernel, Kernel};
use qmc_kernels::Backend;

/// Data layout / algorithm selector for distance tables (and the components
/// built on them).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layout {
    /// Baseline array-of-structures storage and algorithms.
    Aos,
    /// Optimized structure-of-arrays storage with forward updates.
    Soa,
}

/// Packed index of pair `(i, j)` with `i < j` in the upper triangle.
#[inline]
fn tri_index(i: usize, j: usize) -> usize {
    debug_assert!(i < j);
    j * (j - 1) / 2 + i
}

// ---------------------------------------------------------------------------
// AA (electron-electron) reference table: packed triangle, AoS.
// ---------------------------------------------------------------------------

/// Baseline symmetric distance table (Fig. 6(a)).
pub struct DistTableAARef<T: Real> {
    n: usize,
    lattice: CrystalLattice<T>,
    /// Packed upper-triangle distances, `N(N-1)/2` scalars.
    dist: Vec<T>,
    /// Packed upper-triangle displacements (AoS).
    disp: Vec<Pos<T>>,
    /// Candidate distances to every particle (index = partner).
    temp_dist: Vec<T>,
    /// Candidate displacements `r_j - r_cand`.
    temp_disp: Vec<Pos<T>>,
}

impl<T: Real> DistTableAARef<T> {
    /// Allocates a table for `n` particles.
    pub fn new(n: usize, lattice: CrystalLattice<T>) -> Self {
        Self {
            n,
            lattice,
            dist: vec![T::ZERO; n * (n - 1) / 2],
            disp: vec![TinyVector::zero(); n * (n - 1) / 2],
            temp_dist: vec![T::ZERO; n],
            temp_disp: vec![TinyVector::zero(); n],
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the table covers no particles.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Full rebuild from AoS positions (scalar pair loop).
    pub fn evaluate(&mut self, r: &[Pos<T>]) {
        assert_eq!(r.len(), self.n);
        time_kernel(Kernel::DistTableAA, || {
            for j in 1..self.n {
                for i in 0..j {
                    let dr = self.lattice.min_image(r[j] - r[i]);
                    let idx = tri_index(i, j);
                    self.disp[idx] = dr;
                    self.dist[idx] = dr.norm();
                }
            }
        });
        let pairs = (self.n * (self.n - 1) / 2) as u64;
        add_flops_bytes(
            Kernel::DistTableAA,
            18 * pairs,
            7 * std::mem::size_of::<T>() as u64 * pairs,
        );
    }

    /// Computes candidate distances from `newpos` to every particle.
    pub fn move_candidate(&mut self, r: &[Pos<T>], iat: usize, newpos: Pos<T>) {
        time_kernel(Kernel::DistTableAA, || {
            for j in 0..self.n {
                if j == iat {
                    self.temp_dist[j] = T::ZERO;
                    self.temp_disp[j] = TinyVector::zero();
                    continue;
                }
                let dr = self.lattice.min_image(r[j] - newpos);
                self.temp_disp[j] = dr;
                self.temp_dist[j] = dr.norm();
            }
        });
        add_flops_bytes(
            Kernel::DistTableAA,
            18 * self.n as u64,
            7 * std::mem::size_of::<T>() as u64 * self.n as u64,
        );
    }

    /// Commits the candidate move of particle `iat`: scatters the temp row
    /// into the packed triangle (the strided update of Fig. 6(a)).
    pub fn accept(&mut self, iat: usize) {
        time_kernel(Kernel::DistTableAA, || {
            for i in 0..iat {
                let idx = tri_index(i, iat);
                // disp convention: r_iat - r_i = -(r_i - r_new)
                self.dist[idx] = self.temp_dist[i];
                self.disp[idx] = -self.temp_disp[i];
            }
            for j in iat + 1..self.n {
                let idx = tri_index(iat, j);
                self.dist[idx] = self.temp_dist[j];
                self.disp[idx] = self.temp_disp[j];
            }
        });
    }

    /// Current distance between particles `i` and `j` (`i != j`).
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> T {
        if i < j {
            self.dist[tri_index(i, j)]
        } else {
            self.dist[tri_index(j, i)]
        }
    }

    /// Current displacement `r_j - r_i`.
    #[inline]
    pub fn displ(&self, i: usize, j: usize) -> Pos<T> {
        if i < j {
            self.disp[tri_index(i, j)]
        } else {
            -self.disp[tri_index(j, i)]
        }
    }

    /// Candidate distances from the proposed position (index = partner).
    pub fn temp_dist(&self) -> &[T] {
        &self.temp_dist
    }

    /// Candidate displacements `r_j - r_cand`.
    pub fn temp_displ(&self) -> &[Pos<T>] {
        &self.temp_disp
    }

    /// Bytes of storage (for the memory ledger).
    pub fn bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<T>()
            + self.disp.len() * std::mem::size_of::<Pos<T>>()
            + self.temp_dist.len() * std::mem::size_of::<T>()
            + self.temp_disp.len() * std::mem::size_of::<Pos<T>>()
    }
}

// ---------------------------------------------------------------------------
// AA SoA table: full padded rows, forward update, compute-on-the-fly.
// ---------------------------------------------------------------------------

/// Optimized symmetric distance table (Fig. 6(b) + §7.5).
pub struct DistTableAASoA<T: Real> {
    n: usize,
    lattice: CrystalLattice<T>,
    /// Full `N x Np` distances (padding holds +inf so cutoff tests fail).
    dist: Matrix<T>,
    /// Displacement components, one `N x Np` matrix per dimension.
    disp: [Matrix<T>; 3],
    /// Candidate row.
    temp_dist: AlignedVec<T>,
    temp_disp: [AlignedVec<T>; 3],
    /// Kernel backend captured at construction (see `qmc_kernels::Backend`).
    backend: Backend,
}

/// Computes one SoA distance row: distances/displacements from `pos` to all
/// positions in `rsoa`, minimum-imaged. The loops themselves live in
/// `qmc-kernels::distance` behind the backend seam; every backend is
/// bitwise identical here (branch-free min-image arithmetic, no
/// cross-partner reduction).
#[inline]
fn compute_row<T: Real>(
    backend: Backend,
    lattice: &CrystalLattice<T>,
    rsoa: &VectorSoaContainer<T, 3>,
    pos: Pos<T>,
    n: usize,
    out_dist: &mut [T],
    out_disp: [&mut [T]; 3],
) {
    qmc_kernels::distance::distance_row(
        backend,
        lattice,
        rsoa.dim(0),
        rsoa.dim(1),
        rsoa.dim(2),
        [pos[0], pos[1], pos[2]],
        n,
        out_dist,
        out_disp,
    );
}

impl<T: Real> DistTableAASoA<T> {
    /// Allocates a table for `n` particles with padded aligned rows.
    pub fn new(n: usize, lattice: CrystalLattice<T>) -> Self {
        let mut dist = Matrix::zeros(n, n);
        // Poison padding so cutoff comparisons on full padded rows fail.
        let stride = dist.stride();
        for i in 0..n {
            let row = dist.row_padded_mut(i);
            for x in &mut row[n..stride] {
                *x = T::from_f64(f64::MAX);
            }
        }
        Self {
            n,
            lattice,
            dist,
            disp: [
                Matrix::zeros(n, n),
                Matrix::zeros(n, n),
                Matrix::zeros(n, n),
            ],
            temp_dist: AlignedVec::zeros(qmc_containers::padded_len::<T>(n)),
            temp_disp: [
                AlignedVec::zeros(qmc_containers::padded_len::<T>(n)),
                AlignedVec::zeros(qmc_containers::padded_len::<T>(n)),
                AlignedVec::zeros(qmc_containers::padded_len::<T>(n)),
            ],
            backend: Backend::current(),
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the table covers no particles.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Full rebuild: every row recomputed with the vectorized kernel.
    pub fn evaluate(&mut self, rsoa: &VectorSoaContainer<T, 3>) {
        assert_eq!(rsoa.len(), self.n);
        let backend = self.backend;
        let Self {
            n,
            lattice,
            dist,
            disp,
            ..
        } = self;
        let n = *n;
        time_kernel(Kernel::DistTableAA, || {
            for i in 0..n {
                let pos = rsoa.get(i);
                let [a, b, c] = disp;
                let d = dist.row_mut(i);
                compute_row(
                    backend,
                    lattice,
                    rsoa,
                    pos,
                    n,
                    d,
                    [a.row_mut(i), b.row_mut(i), c.row_mut(i)],
                );
                d[i] = T::from_f64(f64::MAX); // self-distance sentinel
            }
        });
        add_flops_bytes(
            Kernel::DistTableAA,
            18 * (n * n) as u64,
            7 * std::mem::size_of::<T>() as u64 * (n * n) as u64,
        );
    }

    /// Compute-on-the-fly refresh of row `iat` against current positions
    /// (§7.5: "compute the row k with the current position r_k before
    /// making the move" — this removes the strided column updates).
    pub fn prepare_move(&mut self, rsoa: &VectorSoaContainer<T, 3>, iat: usize) {
        let backend = self.backend;
        let Self {
            n,
            lattice,
            dist,
            disp,
            ..
        } = self;
        let n = *n;
        time_kernel(Kernel::DistTableAA, || {
            let pos = rsoa.get(iat);
            let [a, b, c] = disp;
            let d = dist.row_mut(iat);
            compute_row(
                backend,
                lattice,
                rsoa,
                pos,
                n,
                d,
                [a.row_mut(iat), b.row_mut(iat), c.row_mut(iat)],
            );
            d[iat] = T::from_f64(f64::MAX);
        });
        add_flops_bytes(
            Kernel::DistTableAA,
            18 * self.n as u64,
            7 * std::mem::size_of::<T>() as u64 * self.n as u64,
        );
    }

    /// Computes the candidate row for a proposed position of `iat`.
    pub fn move_candidate(&mut self, rsoa: &VectorSoaContainer<T, 3>, iat: usize, newpos: Pos<T>) {
        time_kernel(Kernel::DistTableAA, || {
            let n = self.n;
            let d = &mut self.temp_dist.as_mut_slice()[..n];
            let [a, b, c] = &mut self.temp_disp;
            compute_row(
                self.backend,
                &self.lattice,
                rsoa,
                newpos,
                n,
                d,
                [
                    &mut a.as_mut_slice()[..n],
                    &mut b.as_mut_slice()[..n],
                    &mut c.as_mut_slice()[..n],
                ],
            );
            d[iat] = T::from_f64(f64::MAX);
        });
        add_flops_bytes(
            Kernel::DistTableAA,
            18 * self.n as u64,
            7 * std::mem::size_of::<T>() as u64 * self.n as u64,
        );
    }

    /// Candidate rows for particle `iat` moved to each of `positions` (one
    /// NLPP quadrature shell): row `q` of `stage` is exactly the `temp`
    /// distances [`Self::move_candidate`] would leave for `positions[q]` —
    /// the same distance arithmetic on the captured backend, self-distance
    /// poisoned — all under **one** timer scope. The table itself is not
    /// touched.
    pub fn candidate_rows(
        &self,
        rsoa: &VectorSoaContainer<T, 3>,
        iat: usize,
        positions: &[Pos<T>],
        stage: &mut MwRowStage<T>,
    ) {
        stage_rows(
            self.backend,
            &self.lattice,
            rsoa,
            positions,
            Some(iat),
            Kernel::DistTableAA,
            stage,
        );
    }

    /// Crowd-batched [`Self::prepare_move`]: refreshes row `iat` of every
    /// walker's table back-to-back under **one** timer scope. Per walker
    /// this runs the identical `compute_row` call, so results are bitwise
    /// identical to the per-walker path — what changes is the schedule:
    /// the tiny row kernels of a crowd are no longer interleaved with each
    /// walker's (much larger) wavefunction working set, which is where the
    /// crowd-vs-per-walker DistTable-AA regression came from.
    pub fn mw_prepare(tables: &mut [&mut Self], rsoas: &[&VectorSoaContainer<T, 3>], iat: usize) {
        assert_eq!(tables.len(), rsoas.len());
        let nw = tables.len();
        let total: u64 = tables.iter().map(|t| t.n as u64).sum();
        time_kernel(Kernel::DistTableAA, || {
            for w in 0..nw {
                let t = &mut *tables[w];
                let backend = t.backend;
                let n = t.n;
                let pos = rsoas[w].get(iat);
                let [a, b, c] = &mut t.disp;
                let d = t.dist.row_mut(iat);
                compute_row(
                    backend,
                    &t.lattice,
                    rsoas[w],
                    pos,
                    n,
                    d,
                    [a.row_mut(iat), b.row_mut(iat), c.row_mut(iat)],
                );
                d[iat] = T::from_f64(f64::MAX);
            }
        });
        add_flops_bytes(
            Kernel::DistTableAA,
            18 * total,
            7 * std::mem::size_of::<T>() as u64 * total,
        );
    }

    /// Crowd-batched [`Self::move_candidate`]: computes every walker's
    /// candidate row for its own proposed position under **one** timer
    /// scope, each into that walker's own `temp` row. Bitwise identical
    /// per walker to the scalar call.
    pub fn mw_move_candidates(
        tables: &mut [&mut Self],
        rsoas: &[&VectorSoaContainer<T, 3>],
        iat: usize,
        newpos: &[Pos<T>],
    ) {
        assert_eq!(tables.len(), rsoas.len());
        assert_eq!(tables.len(), newpos.len());
        let nw = tables.len();
        let total: u64 = tables.iter().map(|t| t.n as u64).sum();
        time_kernel(Kernel::DistTableAA, || {
            for w in 0..nw {
                let t = &mut *tables[w];
                let n = t.n;
                let d = &mut t.temp_dist.as_mut_slice()[..n];
                let [a, b, c] = &mut t.temp_disp;
                compute_row(
                    t.backend,
                    &t.lattice,
                    rsoas[w],
                    newpos[w],
                    n,
                    d,
                    [
                        &mut a.as_mut_slice()[..n],
                        &mut b.as_mut_slice()[..n],
                        &mut c.as_mut_slice()[..n],
                    ],
                );
                d[iat] = T::from_f64(f64::MAX);
            }
        });
        add_flops_bytes(
            Kernel::DistTableAA,
            18 * total,
            7 * std::mem::size_of::<T>() as u64 * total,
        );
    }

    /// Forward update (Fig. 6(b)): the accepted candidate row is copied into
    /// the aligned row storage; columns are *not* touched.
    pub fn accept(&mut self, iat: usize) {
        time_kernel(Kernel::DistTableAA, || {
            let n = self.n;
            self.dist
                .row_mut(iat)
                .copy_from_slice(&self.temp_dist.as_slice()[..n]);
            for d in 0..3 {
                self.disp[d]
                    .row_mut(iat)
                    .copy_from_slice(&self.temp_disp[d].as_slice()[..n]);
            }
            self.dist[(iat, iat)] = T::from_f64(f64::MAX);
        });
    }

    /// Current distances from particle `i` to all others (row `i`; entry
    /// `i` itself holds a large sentinel).
    #[inline]
    pub fn dist_row(&self, i: usize) -> &[T] {
        self.dist.row(i)
    }

    /// Displacement-component row `d` of particle `i`.
    #[inline]
    pub fn disp_row(&self, d: usize, i: usize) -> &[T] {
        self.disp[d].row(i)
    }

    /// Candidate distances (row for the proposed position).
    pub fn temp_dist(&self) -> &[T] {
        &self.temp_dist.as_slice()[..self.n]
    }

    /// Candidate displacement component `d`.
    pub fn temp_disp(&self, d: usize) -> &[T] {
        &self.temp_disp[d].as_slice()[..self.n]
    }

    /// Bytes of storage (for the memory ledger).
    pub fn bytes(&self) -> usize {
        self.dist.bytes()
            + self
                .disp
                .iter()
                .map(qmc_containers::Matrix::bytes)
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Staged candidate rows: crowd batches and NLPP quadrature shells.
// ---------------------------------------------------------------------------

/// Staging buffer for batched candidate distance rows, one padded aligned
/// row per candidate position.
///
/// Rows are point-major: one NLPP quadrature shell of a single electron,
/// row `q` = point `q`, filled by the tables' `candidate_rows`. Each row is
/// exactly the distance slab a scalar `move_candidate` would have
/// produced. The shell's readers (the Jastrow value-only ratios) need no
/// displacements, so none are staged.
pub struct MwRowStage<T: Real> {
    n: usize,
    stride: usize,
    rows: usize,
    dist: AlignedVec<T>,
}

impl<T: Real> MwRowStage<T> {
    /// Allocates `rows` staging rows of `n` partners each.
    pub fn new(n: usize, rows: usize) -> Self {
        let stride = qmc_containers::padded_len::<T>(n);
        Self {
            n,
            stride,
            rows,
            dist: AlignedVec::zeros(stride * rows.max(1)),
        }
    }

    /// Number of partners per row.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when rows have no partners.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of row slots.
    pub fn num_rows(&self) -> usize {
        self.rows
    }

    /// Candidate distances of row `r`.
    #[inline]
    pub fn dist_row(&self, r: usize) -> &[T] {
        &self.dist.as_slice()[r * self.stride..r * self.stride + self.n]
    }

    /// Bytes of staging storage (memory ledger).
    pub fn bytes(&self) -> usize {
        self.dist.len() * std::mem::size_of::<T>()
    }
}

/// Fills row `r` of `stage` with the candidate distances from
/// `positions[r]` to every position in `src` — the distances `compute_row`
/// writes on `backend`, the self-distance sentinel written into column
/// `iat` when `poison_self = Some(iat)` — for every `r`, under one `kernel`
/// timer scope.
fn stage_rows<T: Real>(
    backend: Backend,
    lattice: &CrystalLattice<T>,
    src: &VectorSoaContainer<T, 3>,
    positions: &[Pos<T>],
    poison_self: Option<usize>,
    kernel: Kernel,
    stage: &mut MwRowStage<T>,
) {
    let rows = positions.len();
    assert!(rows <= stage.num_rows());
    let (n, stride) = (stage.n, stage.stride);
    assert_eq!(src.len(), n);
    time_kernel(kernel, || {
        for (r, &pos) in positions.iter().enumerate() {
            let base = r * stride;
            let d = &mut stage.dist.as_mut_slice()[base..base + n];
            qmc_kernels::distance::distance_only_row(
                backend,
                lattice,
                src.dim(0),
                src.dim(1),
                src.dim(2),
                [pos[0], pos[1], pos[2]],
                n,
                d,
            );
            if let Some(iat) = poison_self {
                d[iat] = T::from_f64(f64::MAX);
            }
        }
    });
    // Three coordinates read and one distance written per partner.
    add_flops_bytes(
        kernel,
        18 * (rows * n) as u64,
        4 * std::mem::size_of::<T>() as u64 * (rows * n) as u64,
    );
}

// ---------------------------------------------------------------------------
// AB (electron-ion) tables.
// ---------------------------------------------------------------------------

/// Baseline electron-ion table: AoS rows, scalar loops.
pub struct DistTableABRef<T: Real> {
    nel: usize,
    nion: usize,
    lattice: CrystalLattice<T>,
    /// Fixed ion positions (AoS copy).
    ions: Vec<Pos<T>>,
    /// `nel x nion` distances (unpadded) and AoS displacements.
    dist: Matrix<T>,
    disp: Vec<Pos<T>>,
    temp_dist: Vec<T>,
    temp_disp: Vec<Pos<T>>,
}

impl<T: Real> DistTableABRef<T> {
    /// Builds a table from fixed ion positions for `nel` electrons.
    pub fn new(nel: usize, ions: &[Pos<T>], lattice: CrystalLattice<T>) -> Self {
        let nion = ions.len();
        Self {
            nel,
            nion,
            lattice,
            ions: ions.to_vec(),
            dist: Matrix::zeros_unpadded(nel, nion),
            disp: vec![TinyVector::zero(); nel * nion],
            temp_dist: vec![T::ZERO; nion],
            temp_disp: vec![TinyVector::zero(); nion],
        }
    }

    /// Number of electrons (rows).
    pub fn num_electrons(&self) -> usize {
        self.nel
    }

    /// Number of ions (columns).
    pub fn num_ions(&self) -> usize {
        self.nion
    }

    /// The fixed ion (source) positions this table was built against.
    pub fn source_positions(&self) -> Vec<Pos<T>> {
        self.ions.clone()
    }

    /// Full rebuild from electron positions.
    pub fn evaluate(&mut self, r: &[Pos<T>]) {
        assert_eq!(r.len(), self.nel);
        time_kernel(Kernel::DistTableAB, || {
            for i in 0..self.nel {
                for a in 0..self.nion {
                    let dr = self.lattice.min_image(self.ions[a] - r[i]);
                    self.disp[i * self.nion + a] = dr;
                    self.dist[(i, a)] = dr.norm();
                }
            }
        });
        add_flops_bytes(
            Kernel::DistTableAB,
            18 * (self.nel * self.nion) as u64,
            7 * std::mem::size_of::<T>() as u64 * (self.nel * self.nion) as u64,
        );
    }

    /// Candidate distances from a proposed electron position to every ion.
    pub fn move_candidate(&mut self, iat: usize, newpos: Pos<T>) {
        let _ = iat;
        time_kernel(Kernel::DistTableAB, || {
            for a in 0..self.nion {
                let dr = self.lattice.min_image(self.ions[a] - newpos);
                self.temp_disp[a] = dr;
                self.temp_dist[a] = dr.norm();
            }
        });
        add_flops_bytes(
            Kernel::DistTableAB,
            18 * self.nion as u64,
            7 * std::mem::size_of::<T>() as u64 * self.nion as u64,
        );
    }

    /// Commits the candidate row for electron `iat`.
    pub fn accept(&mut self, iat: usize) {
        time_kernel(Kernel::DistTableAB, || {
            self.dist.row_mut(iat).copy_from_slice(&self.temp_dist);
            self.disp[iat * self.nion..(iat + 1) * self.nion].copy_from_slice(&self.temp_disp);
        });
    }

    /// Current distance from electron `i` to ion `a`.
    #[inline]
    pub fn dist(&self, i: usize, a: usize) -> T {
        self.dist[(i, a)]
    }

    /// Current displacement `r_ion - r_el`.
    #[inline]
    pub fn displ(&self, i: usize, a: usize) -> Pos<T> {
        self.disp[i * self.nion + a]
    }

    /// Candidate distances.
    pub fn temp_dist(&self) -> &[T] {
        &self.temp_dist
    }

    /// Candidate displacements.
    pub fn temp_displ(&self) -> &[Pos<T>] {
        &self.temp_disp
    }

    /// Bytes of storage.
    pub fn bytes(&self) -> usize {
        self.dist.bytes()
            + self.disp.len() * std::mem::size_of::<Pos<T>>()
            + self.temp_dist.len() * std::mem::size_of::<T>()
            + self.temp_disp.len() * std::mem::size_of::<Pos<T>>()
    }
}

/// Optimized electron-ion table: SoA ion storage, padded aligned rows.
pub struct DistTableABSoA<T: Real> {
    nel: usize,
    nion: usize,
    lattice: CrystalLattice<T>,
    /// Fixed ion positions in SoA layout (reused for the entire run).
    ions_soa: VectorSoaContainer<T, 3>,
    dist: Matrix<T>,
    disp: [Matrix<T>; 3],
    temp_dist: AlignedVec<T>,
    temp_disp: [AlignedVec<T>; 3],
    /// Kernel backend captured at construction (see `qmc_kernels::Backend`).
    backend: Backend,
}

impl<T: Real> DistTableABSoA<T> {
    /// Builds a table from fixed ion positions for `nel` electrons.
    pub fn new(nel: usize, ions: &[Pos<T>], lattice: CrystalLattice<T>) -> Self {
        let nion = ions.len();
        let mut ions_soa = VectorSoaContainer::new(nion);
        ions_soa.copy_from_aos(ions);
        let np = qmc_containers::padded_len::<T>(nion);
        let mut dist = Matrix::zeros(nel, nion);
        let stride = dist.stride();
        for i in 0..nel {
            let row = dist.row_padded_mut(i);
            for x in &mut row[nion..stride] {
                *x = T::from_f64(f64::MAX);
            }
        }
        Self {
            nel,
            nion,
            lattice,
            ions_soa,
            dist,
            disp: [
                Matrix::zeros(nel, nion),
                Matrix::zeros(nel, nion),
                Matrix::zeros(nel, nion),
            ],
            temp_dist: AlignedVec::zeros(np),
            temp_disp: [
                AlignedVec::zeros(np),
                AlignedVec::zeros(np),
                AlignedVec::zeros(np),
            ],
            backend: Backend::current(),
        }
    }

    /// Number of electrons (rows).
    pub fn num_electrons(&self) -> usize {
        self.nel
    }

    /// Number of ions (columns).
    pub fn num_ions(&self) -> usize {
        self.nion
    }

    /// The fixed ion (source) positions this table was built against
    /// (reconstructed from the SoA copy).
    pub fn source_positions(&self) -> Vec<Pos<T>> {
        (0..self.nion).map(|a| self.ions_soa.get(a)).collect()
    }

    /// Full rebuild from electron SoA positions.
    pub fn evaluate(&mut self, rsoa: &VectorSoaContainer<T, 3>) {
        assert_eq!(rsoa.len(), self.nel);
        let backend = self.backend;
        let Self {
            nel,
            nion,
            lattice,
            ions_soa,
            dist,
            disp,
            ..
        } = self;
        let (nel, nion) = (*nel, *nion);
        time_kernel(Kernel::DistTableAB, || {
            for i in 0..nel {
                let pos = rsoa.get(i);
                let [a, b, c] = disp;
                compute_row(
                    backend,
                    lattice,
                    ions_soa,
                    pos,
                    nion,
                    dist.row_mut(i),
                    [a.row_mut(i), b.row_mut(i), c.row_mut(i)],
                );
            }
        });
        add_flops_bytes(
            Kernel::DistTableAB,
            18 * (nel * nion) as u64,
            7 * std::mem::size_of::<T>() as u64 * (nel * nion) as u64,
        );
    }

    /// Candidate row from a proposed electron position (vectorized).
    pub fn move_candidate(&mut self, iat: usize, newpos: Pos<T>) {
        let _ = iat;
        time_kernel(Kernel::DistTableAB, || {
            let nion = self.nion;
            let d = &mut self.temp_dist.as_mut_slice()[..nion];
            let [a, b, c] = &mut self.temp_disp;
            compute_row(
                self.backend,
                &self.lattice,
                &self.ions_soa,
                newpos,
                nion,
                d,
                [
                    &mut a.as_mut_slice()[..nion],
                    &mut b.as_mut_slice()[..nion],
                    &mut c.as_mut_slice()[..nion],
                ],
            );
        });
        add_flops_bytes(
            Kernel::DistTableAB,
            18 * self.nion as u64,
            7 * std::mem::size_of::<T>() as u64 * self.nion as u64,
        );
    }

    /// Candidate electron-ion rows for one electron moved to each of
    /// `positions` (one NLPP quadrature shell): row `q` of `stage` is
    /// exactly the `temp` distances [`Self::move_candidate`] would leave for
    /// `positions[q]`, all under **one** timer scope. The table itself is
    /// not touched.
    pub fn candidate_rows(&self, positions: &[Pos<T>], stage: &mut MwRowStage<T>) {
        stage_rows(
            self.backend,
            &self.lattice,
            &self.ions_soa,
            positions,
            None,
            Kernel::DistTableAB,
            stage,
        );
    }

    /// Crowd-batched [`Self::move_candidate`]: every walker's candidate
    /// electron-ion row computed back-to-back under **one** timer scope.
    /// Bitwise identical per walker to the scalar call.
    pub fn mw_move_candidates(tables: &mut [&mut Self], newpos: &[Pos<T>]) {
        assert_eq!(tables.len(), newpos.len());
        let nw = tables.len();
        let total: u64 = tables.iter().map(|t| t.nion as u64).sum();
        time_kernel(Kernel::DistTableAB, || {
            for w in 0..nw {
                let t = &mut *tables[w];
                let nion = t.nion;
                let d = &mut t.temp_dist.as_mut_slice()[..nion];
                let [a, b, c] = &mut t.temp_disp;
                compute_row(
                    t.backend,
                    &t.lattice,
                    &t.ions_soa,
                    newpos[w],
                    nion,
                    d,
                    [
                        &mut a.as_mut_slice()[..nion],
                        &mut b.as_mut_slice()[..nion],
                        &mut c.as_mut_slice()[..nion],
                    ],
                );
            }
        });
        add_flops_bytes(
            Kernel::DistTableAB,
            18 * total,
            7 * std::mem::size_of::<T>() as u64 * total,
        );
    }

    /// Forward update: contiguous row copy.
    pub fn accept(&mut self, iat: usize) {
        time_kernel(Kernel::DistTableAB, || {
            self.dist
                .row_mut(iat)
                .copy_from_slice(&self.temp_dist.as_slice()[..self.nion]);
            for d in 0..3 {
                self.disp[d]
                    .row_mut(iat)
                    .copy_from_slice(&self.temp_disp[d].as_slice()[..self.nion]);
            }
        });
    }

    /// Distances from electron `i` to all ions.
    #[inline]
    pub fn dist_row(&self, i: usize) -> &[T] {
        self.dist.row(i)
    }

    /// Displacement component `d` from electron `i` to all ions.
    #[inline]
    pub fn disp_row(&self, d: usize, i: usize) -> &[T] {
        self.disp[d].row(i)
    }

    /// Candidate distances.
    pub fn temp_dist(&self) -> &[T] {
        &self.temp_dist.as_slice()[..self.nion]
    }

    /// Candidate displacement component `d`.
    pub fn temp_disp(&self, d: usize) -> &[T] {
        &self.temp_disp[d].as_slice()[..self.nion]
    }

    /// Bytes of storage.
    pub fn bytes(&self) -> usize {
        self.dist.bytes()
            + self
                .disp
                .iter()
                .map(qmc_containers::Matrix::bytes)
                .sum::<usize>()
            + self.ions_soa.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn positions(n: usize, l: f64, seed: u64) -> Vec<Pos<f64>> {
        let mut state = seed.max(1);
        let mut next = move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545F4914F6CDD1D) >> 11) as f64 / (1u64 << 53) as f64
        };
        (0..n)
            .map(|_| TinyVector([next() * l, next() * l, next() * l]))
            .collect()
    }

    fn soa_of(r: &[Pos<f64>]) -> VectorSoaContainer<f64, 3> {
        let mut s = VectorSoaContainer::new(r.len());
        s.copy_from_aos(r);
        s
    }

    #[test]
    fn aa_ref_matches_brute_force() {
        let l = 8.0;
        let lat = CrystalLattice::<f64>::cubic(l);
        let r = positions(13, l, 3);
        let mut t = DistTableAARef::new(13, lat.clone());
        t.evaluate(&r);
        for i in 0..13 {
            for j in 0..13 {
                if i == j {
                    continue;
                }
                let expect = lat.min_image(r[j] - r[i]).norm();
                assert!((t.dist(i, j) - expect).abs() < 1e-12);
                assert!((t.displ(i, j).norm() - expect).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn aa_soa_matches_ref() {
        let l = 7.0;
        let lat = CrystalLattice::<f64>::cubic(l);
        let n = 17;
        let r = positions(n, l, 5);
        let rsoa = soa_of(&r);
        let mut tref = DistTableAARef::new(n, lat.clone());
        let mut tsoa = DistTableAASoA::new(n, lat);
        tref.evaluate(&r);
        tsoa.evaluate(&rsoa);
        for i in 0..n {
            let row = tsoa.dist_row(i);
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert!(
                    (row[j] - tref.dist(i, j)).abs() < 1e-12,
                    "({i},{j}): {} vs {}",
                    row[j],
                    tref.dist(i, j)
                );
                // Displacement sign: dr = r_j - r_i.
                let dj = TinyVector([
                    tsoa.disp_row(0, i)[j],
                    tsoa.disp_row(1, i)[j],
                    tsoa.disp_row(2, i)[j],
                ]);
                assert!((dj - tref.displ(i, j)).norm() < 1e-12);
            }
        }
    }

    #[test]
    fn move_accept_cycle_consistent() {
        let l = 6.0;
        let lat = CrystalLattice::<f64>::cubic(l);
        let n = 9;
        let mut r = positions(n, l, 7);
        let mut rsoa = soa_of(&r);
        let mut tref = DistTableAARef::new(n, lat.clone());
        let mut tsoa = DistTableAASoA::new(n, lat.clone());
        tref.evaluate(&r);
        tsoa.evaluate(&rsoa);

        let iat = 4;
        let newpos = TinyVector([0.5, 5.9, 3.3]);
        tref.move_candidate(&r, iat, newpos);
        tsoa.move_candidate(&rsoa, iat, newpos);
        for j in 0..n {
            if j == iat {
                continue;
            }
            assert!((tref.temp_dist()[j] - tsoa.temp_dist()[j]).abs() < 1e-12);
        }

        // Accept and check ref table fully consistent with brute force.
        tref.accept(iat);
        tsoa.accept(iat);
        r[iat] = newpos;
        rsoa.set(iat, newpos);
        for j in 0..n {
            if j == iat {
                continue;
            }
            let expect = lat.min_image(r[j] - r[iat]).norm();
            assert!((tref.dist(iat, j) - expect).abs() < 1e-12);
            assert!((tsoa.dist_row(iat)[j] - expect).abs() < 1e-12);
        }

        // Forward update: row iat is fresh; other rows of the SoA table may
        // be stale (their column iat was deliberately not updated) until
        // prepare_move refreshes them.
        tsoa.prepare_move(&rsoa, 2);
        let expect = lat.min_image(r[iat] - r[2]).norm();
        assert!((tsoa.dist_row(2)[iat] - expect).abs() < 1e-12);
    }

    #[test]
    fn ab_tables_match_each_other_and_brute_force() {
        let l = 9.0;
        let lat = CrystalLattice::<f64>::cubic(l);
        let nel = 11;
        let nion = 5;
        let r = positions(nel, l, 11);
        let ions = positions(nion, l, 13);
        let rsoa = soa_of(&r);
        let mut tref = DistTableABRef::new(nel, &ions, lat.clone());
        let mut tsoa = DistTableABSoA::new(nel, &ions, lat.clone());
        tref.evaluate(&r);
        tsoa.evaluate(&rsoa);
        for i in 0..nel {
            for a in 0..nion {
                let expect = lat.min_image(ions[a] - r[i]).norm();
                assert!((tref.dist(i, a) - expect).abs() < 1e-12);
                assert!((tsoa.dist_row(i)[a] - expect).abs() < 1e-12);
            }
        }
        // Move/accept cycle.
        let newpos = TinyVector([1.0, 2.0, 3.0]);
        tref.move_candidate(3, newpos);
        tsoa.move_candidate(3, newpos);
        for a in 0..nion {
            assert!((tref.temp_dist()[a] - tsoa.temp_dist()[a]).abs() < 1e-12);
            let expect = lat.min_image(ions[a] - newpos).norm();
            assert!((tref.temp_dist()[a] - expect).abs() < 1e-12);
        }
        tref.accept(3);
        tsoa.accept(3);
        assert!((tref.dist(3, 0) - tsoa.dist_row(3)[0]).abs() < 1e-12);
    }

    #[test]
    fn shell_candidate_rows_bitwise_match_move_candidate() {
        let l = 6.5;
        let lat = CrystalLattice::<f64>::cubic(l);
        let (n, nion, iat) = (11, 4, 7);
        let rsoa = soa_of(&positions(n, l, 41));
        let ions = positions(nion, l, 43);
        let mut aa = DistTableAASoA::new(n, lat.clone());
        let mut ab = DistTableABSoA::new(n, &ions, lat);
        aa.evaluate(&rsoa);
        ab.evaluate(&rsoa);
        let shell = positions(9, l, 47);
        let (mut saa, mut sab) = (MwRowStage::new(n, 12), MwRowStage::new(nion, 12));
        aa.candidate_rows(&rsoa, iat, &shell, &mut saa);
        ab.candidate_rows(&shell, &mut sab);
        for (q, &pos) in shell.iter().enumerate() {
            aa.move_candidate(&rsoa, iat, pos);
            ab.move_candidate(iat, pos);
            assert_eq!(saa.dist_row(q), aa.temp_dist(), "AA point {q}");
            assert_eq!(sab.dist_row(q), ab.temp_dist(), "AB point {q}");
        }
    }

    #[test]
    fn soa_padding_is_poisoned() {
        let lat = CrystalLattice::<f64>::cubic(5.0);
        let t = DistTableAASoA::new(5, lat);
        let full = t.dist.row_padded(0);
        assert!(full[5..].iter().all(|&x| x > 1e300));
    }

    #[test]
    fn tri_index_layout() {
        // (0,1)=0, (0,2)=1, (1,2)=2, (0,3)=3 ...
        assert_eq!(tri_index(0, 1), 0);
        assert_eq!(tri_index(0, 2), 1);
        assert_eq!(tri_index(1, 2), 2);
        assert_eq!(tri_index(0, 3), 3);
        assert_eq!(tri_index(2, 3), 5);
    }

    #[test]
    fn f32_soa_tracks_f64() {
        let l = 6.0;
        let lat64 = CrystalLattice::<f64>::cubic(l);
        let lat32: CrystalLattice<f32> = lat64.cast();
        let n = 8;
        let r = positions(n, l, 17);
        let r32: Vec<Pos<f32>> = r.iter().map(qmc_containers::TinyVector::cast).collect();
        let rsoa = soa_of(&r);
        let mut rsoa32 = VectorSoaContainer::<f32, 3>::new(n);
        rsoa32.copy_from_aos(&r32);
        let mut t64 = DistTableAASoA::new(n, lat64);
        let mut t32 = DistTableAASoA::new(n, lat32);
        t64.evaluate(&rsoa);
        t32.evaluate(&rsoa32);
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                assert!(
                    (t64.dist_row(i)[j] - t32.dist_row(i)[j] as f64).abs() < 1e-5,
                    "({i},{j})"
                );
            }
        }
    }
}
