//! Benchmark workload specifications (Table 1 of the paper).
//!
//! Four benchmarks: a graphite throughput benchmark (CORAL), beryllium
//! (same electron count, no pseudopotentials), and 32/64-atom NiO
//! supercells. The `paper_*` fields reproduce Table 1 verbatim; the
//! geometric fields define the synthetic systems we actually construct
//! (orthorhombic supercells — see DESIGN.md substitutions).
#![expect(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    reason = "problem-spec arithmetic (particle counts, cell edges, tilings) is exact at setup"
)]

/// The four paper benchmarks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Benchmark {
    /// Crystalline graphite (C, 256 electrons, CORAL throughput benchmark).
    Graphite,
    /// Beryllium, 64 atoms — all-electron (no pseudopotential).
    Be64,
    /// 32-atom NiO supercell (384 electrons).
    NiO32,
    /// 64-atom NiO supercell (768 electrons).
    NiO64,
}

/// Problem size selector: the paper-sized problem or a laptop-scaled one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// Paper-sized (Table 1 electron counts).
    Full,
    /// Scaled-down for quick runs (¼ to ⅓ of the electrons).
    Scaled,
}

/// One ion species in a workload.
#[derive(Clone, Debug)]
pub struct IonSpec {
    /// Species label.
    pub name: &'static str,
    /// Valence charge `Z*` (Table 1).
    pub z: f64,
    /// Fractional positions within the unit cell.
    pub frac_in_cell: Vec<[f64; 3]>,
    /// True when the species carries a non-local pseudopotential.
    pub has_pp: bool,
}

/// Full workload specification.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    /// Benchmark identity.
    pub benchmark: Benchmark,
    /// Display name.
    pub name: &'static str,
    /// Orthorhombic unit-cell edges in bohr.
    pub cell: [f64; 3],
    /// Ion species and their in-cell positions.
    pub species: Vec<IonSpec>,
    /// Supercell tiling (full size).
    pub tiling_full: [usize; 3],
    /// Supercell tiling (scaled size).
    pub tiling_scaled: [usize; 3],
    /// Spline grid at full size (per supercell).
    pub grid_full: [usize; 3],
    /// Spline grid at scaled size.
    pub grid_scaled: [usize; 3],
    // ---- Table 1 metadata (paper values, reproduced verbatim) ----
    /// Electrons, `N` (Table 1).
    pub paper_n: usize,
    /// Ions, `N_ion` (Table 1).
    pub paper_nion: usize,
    /// Ions per unit cell (Table 1).
    pub paper_ions_per_cell: usize,
    /// Number of unit cells (Table 1).
    pub paper_num_cells: usize,
    /// Ion types with `Z*` (Table 1).
    pub paper_ion_types: &'static str,
    /// Unique SPOs (Table 1).
    pub paper_unique_spos: usize,
    /// FFT grid (Table 1).
    pub paper_fft_grid: &'static str,
    /// B-spline table size in GB (Table 1).
    pub paper_bspline_gb: f64,
}

impl Benchmark {
    /// All four benchmarks in Table 1 order.
    pub fn all() -> [Benchmark; 4] {
        [
            Benchmark::Graphite,
            Benchmark::Be64,
            Benchmark::NiO32,
            Benchmark::NiO64,
        ]
    }

    /// The workload specification for this benchmark.
    pub fn spec(self) -> WorkloadSpec {
        match self {
            Benchmark::Graphite => WorkloadSpec {
                benchmark: self,
                name: "Graphite",
                // Orthorhombic 4-atom graphite-like cell (a, sqrt(3) a, c).
                cell: [4.65, 8.054, 12.68],
                species: vec![IonSpec {
                    name: "C",
                    z: 4.0,
                    frac_in_cell: vec![
                        [0.0, 0.0, 0.25],
                        [0.5, 0.5, 0.25],
                        [0.0, 1.0 / 3.0, 0.75],
                        [0.5, 5.0 / 6.0, 0.75],
                    ],
                    has_pp: true,
                }],
                tiling_full: [4, 2, 2],
                tiling_scaled: [2, 2, 1],
                grid_full: [28, 28, 80],
                grid_scaled: [14, 14, 40],
                paper_n: 256,
                paper_nion: 64,
                paper_ions_per_cell: 4,
                paper_num_cells: 16,
                paper_ion_types: "C (4)",
                paper_unique_spos: 80,
                paper_fft_grid: "28x28x80",
                paper_bspline_gb: 0.1,
            },
            Benchmark::Be64 => WorkloadSpec {
                benchmark: self,
                name: "Be-64",
                // Orthorhombic 2-atom hcp-like beryllium cell.
                cell: [4.33, 7.49, 6.78],
                species: vec![IonSpec {
                    name: "Be",
                    z: 4.0,
                    frac_in_cell: vec![[0.0, 0.0, 0.0], [0.5, 1.0 / 3.0, 0.5]],
                    // All-electron benchmark: no pseudopotential (§4.1).
                    has_pp: false,
                }],
                tiling_full: [4, 4, 2],
                tiling_scaled: [2, 2, 2],
                grid_full: [84, 84, 144],
                grid_scaled: [28, 28, 48],
                paper_n: 256,
                paper_nion: 64,
                paper_ions_per_cell: 2,
                paper_num_cells: 32,
                paper_ion_types: "Be (4)",
                paper_unique_spos: 81,
                paper_fft_grid: "84x84x144",
                paper_bspline_gb: 1.4,
            },
            Benchmark::NiO32 => {
                nio_spec(self, "NiO-32", [2, 2, 1], [1, 1, 1], 384, 32, 8, 144, 1.3)
            }
            Benchmark::NiO64 => {
                nio_spec(self, "NiO-64", [2, 2, 2], [2, 1, 1], 768, 64, 16, 240, 2.1)
            }
        }
    }
}

#[expect(clippy::too_many_arguments, reason = "one argument per Table 1 column")]
fn nio_spec(
    benchmark: Benchmark,
    name: &'static str,
    tiling_full: [usize; 3],
    tiling_scaled: [usize; 3],
    paper_n: usize,
    paper_nion: usize,
    paper_num_cells: usize,
    paper_unique_spos: usize,
    paper_bspline_gb: f64,
) -> WorkloadSpec {
    // Rock-salt NiO, cubic cell a0 = 7.8885 bohr, 4 Ni + 4 O per cube.
    let a = 7.8885;
    WorkloadSpec {
        benchmark,
        name,
        cell: [a, a, a],
        species: vec![
            IonSpec {
                name: "Ni",
                z: 18.0,
                frac_in_cell: vec![
                    [0.0, 0.0, 0.0],
                    [0.5, 0.5, 0.0],
                    [0.5, 0.0, 0.5],
                    [0.0, 0.5, 0.5],
                ],
                has_pp: true,
            },
            IonSpec {
                name: "O",
                z: 6.0,
                frac_in_cell: vec![
                    [0.5, 0.0, 0.0],
                    [0.0, 0.5, 0.0],
                    [0.0, 0.0, 0.5],
                    [0.5, 0.5, 0.5],
                ],
                has_pp: true,
            },
        ],
        tiling_full,
        tiling_scaled,
        grid_full: [80, 80, 80],
        grid_scaled: [24, 24, 24],
        paper_n,
        paper_nion,
        paper_ions_per_cell: 4,
        paper_num_cells,
        paper_ion_types: "Ni(18), O(6)",
        paper_unique_spos,
        paper_fft_grid: "80x80x80",
        paper_bspline_gb,
    }
}

impl WorkloadSpec {
    /// Tiling for the given size.
    pub fn tiling(&self, size: Size) -> [usize; 3] {
        match size {
            Size::Full => self.tiling_full,
            Size::Scaled => self.tiling_scaled,
        }
    }

    /// Spline grid for the given size.
    pub fn grid(&self, size: Size) -> [usize; 3] {
        match size {
            Size::Full => self.grid_full,
            Size::Scaled => self.grid_scaled,
        }
    }

    /// Number of ions the constructed supercell contains at `size`.
    pub fn num_ions(&self, size: Size) -> usize {
        let t = self.tiling(size);
        let per_cell: usize = self.species.iter().map(|s| s.frac_in_cell.len()).sum();
        per_cell * t[0] * t[1] * t[2]
    }

    /// Number of electrons at `size` (sum of valences).
    pub fn num_electrons(&self, size: Size) -> usize {
        let t = self.tiling(size);
        let per_cell: f64 = self
            .species
            .iter()
            .map(|s| s.z * s.frac_in_cell.len() as f64)
            .sum();
        (per_cell * (t[0] * t[1] * t[2]) as f64) as usize
    }

    /// Supercell edges in bohr at `size`.
    pub fn supercell(&self, size: Size) -> [f64; 3] {
        let t = self.tiling(size);
        [
            self.cell[0] * t[0] as f64,
            self.cell[1] * t[1] as f64,
            self.cell[2] * t[2] as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_electron_counts_match_paper_at_full_size() {
        for b in Benchmark::all() {
            let s = b.spec();
            assert_eq!(
                s.num_electrons(Size::Full),
                s.paper_n,
                "{}: electrons",
                s.name
            );
            assert_eq!(s.num_ions(Size::Full), s.paper_nion, "{}: ions", s.name);
        }
    }

    #[test]
    fn scaled_sizes_are_smaller() {
        for b in Benchmark::all() {
            let s = b.spec();
            assert!(s.num_electrons(Size::Scaled) < s.num_electrons(Size::Full));
            assert!(s.num_electrons(Size::Scaled) >= 64, "{}", s.name);
            // Even electron counts so spins split evenly.
            assert_eq!(s.num_electrons(Size::Scaled) % 2, 0);
            assert_eq!(s.num_electrons(Size::Full) % 2, 0);
        }
    }

    #[test]
    fn nio_charge_balance() {
        let s = Benchmark::NiO32.spec();
        // 16 Ni * 18 + 16 O * 6 = 384.
        assert_eq!(s.num_electrons(Size::Full), 384);
        let s = Benchmark::NiO64.spec();
        assert_eq!(s.num_electrons(Size::Full), 768);
    }

    #[test]
    fn be64_has_no_pseudopotential() {
        let s = Benchmark::Be64.spec();
        assert!(s.species.iter().all(|sp| !sp.has_pp));
        let g = Benchmark::Graphite.spec();
        assert!(g.species.iter().all(|sp| sp.has_pp));
    }
}
