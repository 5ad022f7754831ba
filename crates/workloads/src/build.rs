//! Workload construction: turns a [`WorkloadSpec`] into particle sets,
//! spline tables, Jastrow functors and fully assembled [`QmcEngine`]s for
//! any code version of the paper's optimization ladder.
#![expect(
    clippy::cast_precision_loss,
    clippy::cast_possible_truncation,
    reason = "workload construction lays out ion/tile geometry in f64 from small counts"
)]

use crate::spec::{Benchmark, Size, WorkloadSpec};
use qmc_bspline::{CubicBspline1D, MultiBspline3D};
use qmc_containers::{Pos, Real, TinyVector};
use qmc_drivers::{HamiltonianSet, QmcEngine};
use qmc_hamiltonian::{CoulombEE, CoulombEI, NonLocalPP, PpChannel, PseudoSpecies};
use qmc_kernels::Backend;
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{
    BsplineSpo, DiracDeterminant, J1Ref, J1Soa, J2Ref, J2Soa, PairFunctors, TrialWaveFunction,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, OnceLock};

/// The code-version ladder of the paper (§6-§7): the independent variable
/// of every experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CodeVersion {
    /// Baseline: AoS layout, double precision, store-everything Jastrow.
    Ref,
    /// Baseline algorithms with expanded single precision (§7.2).
    RefMp,
    /// SoA layout + forward update + compute-on-the-fly, still double
    /// precision (ablation step).
    SoaDouble,
    /// The paper's final version: SoA + on-the-fly + mixed precision.
    Current,
}

impl CodeVersion {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> String {
        match self {
            CodeVersion::Ref => "Ref".into(),
            CodeVersion::RefMp => "Ref+MP".into(),
            CodeVersion::SoaDouble => "SoA(dp)".into(),
            CodeVersion::Current => "Current".into(),
        }
    }

    /// True for single-precision kernel variants.
    pub fn single_precision(&self) -> bool {
        matches!(self, CodeVersion::RefMp | CodeVersion::Current)
    }

    /// Data layout used by this version.
    pub fn layout(&self) -> Layout {
        match self {
            CodeVersion::Ref | CodeVersion::RefMp => Layout::Aos,
            _ => Layout::Soa,
        }
    }

    /// B-spline kernel backend: the AoS versions pin the scalar reference
    /// loops; the SoA versions take the process-wide selection
    /// (`--backend`, default `simd`), captured when an engine is built.
    fn spo_backend(self) -> Backend {
        match self.layout() {
            Layout::Aos => Backend::Reference,
            Layout::Soa => Backend::current(),
        }
    }

    /// The three versions benchmarked in the paper's figures.
    pub fn paper_ladder() -> [CodeVersion; 3] {
        [CodeVersion::Ref, CodeVersion::RefMp, CodeVersion::Current]
    }
}

/// A fully specified benchmark instance: geometry, orbitals, Jastrow
/// parameters and shared spline tables. One `Workload` serves any number of
/// engines (threads) and code versions.
pub struct Workload {
    /// The benchmark specification.
    pub spec: WorkloadSpec,
    /// Problem size.
    pub size: Size,
    /// Master seed.
    pub seed: u64,
    ion_positions: Vec<Vec<Pos<f64>>>,
    electron_init: Vec<Pos<f64>>,
    table_f32: OnceLock<Arc<MultiBspline3D<f32>>>,
    table_f64: OnceLock<Arc<MultiBspline3D<f64>>>,
}

impl Workload {
    /// Builds a workload for the benchmark at the given size.
    pub fn new(benchmark: Benchmark, size: Size, seed: u64) -> Self {
        let spec = benchmark.spec();
        let t = spec.tiling(size);
        // Tile ion positions per species.
        let mut ion_positions = Vec::new();
        for sp in &spec.species {
            let mut pos = Vec::new();
            for ix in 0..t[0] {
                for iy in 0..t[1] {
                    for iz in 0..t[2] {
                        for f in &sp.frac_in_cell {
                            pos.push(TinyVector([
                                (f[0] + ix as f64) * spec.cell[0],
                                (f[1] + iy as f64) * spec.cell[1],
                                (f[2] + iz as f64) * spec.cell[2],
                            ]));
                        }
                    }
                }
            }
            ion_positions.push(pos);
        }
        // Electrons: Gaussian clouds around the ions (Z* electrons each),
        // wrapped into the cell — a physical starting configuration that
        // keeps early local energies sane.
        let cell = spec.supercell(size);
        let lat = CrystalLattice::<f64>::orthorhombic(cell);
        let n = spec.num_electrons(size);
        let mut rng = StdRng::seed_from_u64(seed);
        let mut electron_init: Vec<Pos<f64>> = Vec::with_capacity(n);
        'fill: loop {
            for (sp, positions) in spec.species.iter().zip(&ion_positions) {
                for ion in positions {
                    for _ in 0..sp.z.round() as usize {
                        let kick = TinyVector([
                            qmc_particles::gaussian(&mut rng),
                            qmc_particles::gaussian(&mut rng),
                            qmc_particles::gaussian(&mut rng),
                        ]);
                        electron_init.push(lat.wrap_into_cell(*ion + kick));
                        if electron_init.len() == n {
                            break 'fill;
                        }
                    }
                }
            }
            if electron_init.len() >= n {
                break;
            }
        }
        Self {
            spec,
            size,
            seed,
            ion_positions,
            electron_init,
            table_f32: OnceLock::new(),
            table_f64: OnceLock::new(),
        }
    }

    /// Number of electrons in this instance.
    pub fn num_electrons(&self) -> usize {
        self.electron_init.len()
    }

    /// Number of ions in this instance.
    pub fn num_ions(&self) -> usize {
        self.ion_positions.iter().map(std::vec::Vec::len).sum()
    }

    /// Initial electron configuration (walker seed positions).
    pub fn initial_positions(&self) -> &[Pos<f64>] {
        &self.electron_init
    }

    /// Number of orbitals per spin determinant.
    pub fn num_orbitals(&self) -> usize {
        self.num_electrons() / 2
    }

    fn grid(&self) -> [usize; 3] {
        self.spec.grid(self.size)
    }

    /// Shared single-precision spline table (built on first use).
    pub fn table_f32(&self) -> Arc<MultiBspline3D<f32>> {
        Arc::clone(self.table_f32.get_or_init(|| {
            Arc::new(MultiBspline3D::random(
                self.grid(),
                self.num_orbitals(),
                self.seed ^ 0x5B11,
            ))
        }))
    }

    /// Shared double-precision spline table (built on first use).
    pub fn table_f64(&self) -> Arc<MultiBspline3D<f64>> {
        Arc::clone(self.table_f64.get_or_init(|| {
            Arc::new(MultiBspline3D::random(
                self.grid(),
                self.num_orbitals(),
                self.seed ^ 0x5B11,
            ))
        }))
    }

    /// Bytes of the shared coefficient table at the given precision.
    pub fn table_bytes(&self, single: bool) -> usize {
        if single {
            self.table_f32().bytes()
        } else {
            self.table_f64().bytes()
        }
    }

    fn lattice<T: Real>(&self) -> CrystalLattice<T> {
        CrystalLattice::orthorhombic(self.spec.supercell(self.size))
    }

    fn ions<T: Real>(&self) -> ParticleSet<T> {
        let groups = self
            .spec
            .species
            .iter()
            .zip(&self.ion_positions)
            .map(|(sp, pos)| {
                (
                    Species {
                        name: sp.name.to_string(),
                        charge: sp.z,
                    },
                    pos.clone(),
                )
            })
            .collect();
        ParticleSet::new("ion0", self.lattice(), groups)
    }

    fn electrons<T: Real>(&self) -> ParticleSet<T> {
        let n = self.num_electrons();
        let up = self.electron_init[..n / 2].to_vec();
        let dn = self.electron_init[n / 2..].to_vec();
        ParticleSet::new(
            "e",
            self.lattice(),
            vec![
                (
                    Species {
                        name: "u".into(),
                        charge: -1.0,
                    },
                    up,
                ),
                (
                    Species {
                        name: "d".into(),
                        charge: -1.0,
                    },
                    dn,
                ),
            ],
        )
    }

    /// Largest admissible functor cutoff for this cell.
    fn max_cutoff(&self) -> f64 {
        let lat: CrystalLattice<f64> = self.lattice();
        0.99 * lat.simulation_cell_radius()
    }

    /// NiO-like two-body Jastrow functors (Fig. 3 shapes): deeper
    /// antiparallel correlation with the e-e cusp conditions.
    fn pair_functors(&self) -> PairFunctors<f64> {
        let rc = self.max_cutoff().min(3.9);
        PairFunctors::new(2, |a, b| {
            let (amp, cusp) = if a == b { (0.35, -0.25) } else { (0.5, -0.5) };
            CubicBspline1D::fit(
                move |r| amp * (1.0 - r / rc).powi(3) / (1.0 + 0.4 * r),
                cusp,
                rc,
                10,
            )
        })
    }

    /// One-body functors per ion species (attractive wells, Fig. 3).
    fn ion_functors(&self) -> Vec<CubicBspline1D<f64>> {
        self.spec
            .species
            .iter()
            .map(|sp| {
                let rc = self.max_cutoff().min(2.0 + sp.z / 10.0);
                let amp = -0.08 * sp.z.sqrt();
                CubicBspline1D::fit(move |r| amp * (1.0 - r / rc).powi(2), 0.0, rc, 8)
            })
            .collect()
    }

    /// Model non-local pseudopotentials per ion species.
    fn pseudo_species(&self) -> Option<Vec<PseudoSpecies>> {
        if self.spec.species.iter().all(|sp| !sp.has_pp) {
            return None;
        }
        Some(
            self.spec
                .species
                .iter()
                .map(|sp| {
                    if sp.has_pp {
                        PseudoSpecies {
                            channels: vec![
                                PpChannel {
                                    l: 0,
                                    v0: 0.3 * sp.z,
                                    alpha: 2.0,
                                },
                                PpChannel {
                                    l: 1,
                                    v0: -0.15 * sp.z,
                                    alpha: 2.5,
                                },
                            ],
                            r_cut: 1.2 + 4.0 / sp.z,
                        }
                    } else {
                        PseudoSpecies {
                            channels: Vec::new(),
                            r_cut: 0.0,
                        }
                    }
                })
                .collect(),
        )
    }

    /// Assembles one engine at precision `T` with the given shared table.
    fn assemble<T: Real>(&self, table: &Arc<MultiBspline3D<T>>, code: CodeVersion) -> QmcEngine<T> {
        let layout = code.layout();
        let ions: ParticleSet<T> = self.ions();
        let mut e: ParticleSet<T> = self.electrons();
        let h_aa = e.add_table_aa(layout);
        let h_ab = e.add_table_ab(&ions, layout);

        let mut psi = TrialWaveFunction::new();
        // Jastrow factors in the matching layout.
        match layout {
            Layout::Aos => {
                let pf = PairFunctors::new(2, |a, b| self.pair_functors().get(a, b).cast::<T>());
                psi.add(Box::new(J2Ref::new(&e, h_aa, pf)));
                let fs = self
                    .ion_functors()
                    .iter()
                    .map(qmc_bspline::CubicBspline1D::cast::<T>)
                    .collect();
                psi.add(Box::new(J1Ref::new(&e, &ions, h_ab, fs)));
            }
            Layout::Soa => {
                let pf = PairFunctors::new(2, |a, b| self.pair_functors().get(a, b).cast::<T>());
                psi.add(Box::new(J2Soa::new(&e, h_aa, pf)));
                let fs = self
                    .ion_functors()
                    .iter()
                    .map(qmc_bspline::CubicBspline1D::cast::<T>)
                    .collect();
                psi.add(Box::new(J1Soa::new(&e, &ions, h_ab, fs)));
            }
        }
        // Spin determinants sharing the spline table.
        let n = e.len();
        let lat: CrystalLattice<T> = self.lattice();
        for (first, nel) in [(0, n / 2), (n / 2, n - n / 2)] {
            let spo = BsplineSpo::new(Arc::clone(table), lat.clone(), code.spo_backend());
            psi.add(Box::new(DiracDeterminant::new(Box::new(spo), first, nel)));
        }

        let nlpp = self
            .pseudo_species()
            .map(|sp| NonLocalPP::new(h_ab, &ions, sp));
        let ham = HamiltonianSet::new(
            Some(CoulombEE::new(h_aa)),
            Some(CoulombEI::new(h_ab, &ions)),
            Some(&ions),
            nlpp,
        );
        QmcEngine::new(e, psi, ham)
    }

    /// Builds a double-precision engine (`Ref` or `SoaDouble`).
    pub fn build_engine_f64(&self, code: CodeVersion) -> QmcEngine<f64> {
        assert!(
            !code.single_precision(),
            "{code:?} is a single-precision version"
        );
        self.assemble(&self.table_f64(), code)
    }

    /// Builds a single-precision engine (`RefMp`, `Current`, ...).
    pub fn build_engine_f32(&self, code: CodeVersion) -> QmcEngine<f32> {
        assert!(
            code.single_precision(),
            "{code:?} is a double-precision version"
        );
        self.assemble(&self.table_f32(), code)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn code_version_properties() {
        assert_eq!(CodeVersion::Ref.layout(), Layout::Aos);
        assert!(!CodeVersion::Ref.single_precision());
        assert!(CodeVersion::RefMp.single_precision());
        assert_eq!(CodeVersion::RefMp.layout(), Layout::Aos);
        assert_eq!(CodeVersion::Current.layout(), Layout::Soa);
        assert!(CodeVersion::Current.single_precision());
        assert_eq!(CodeVersion::Current.label(), "Current");
    }

    #[test]
    fn workload_counts_consistent() {
        let w = Workload::new(Benchmark::NiO32, Size::Scaled, 1);
        assert_eq!(w.num_electrons(), 96);
        assert_eq!(w.num_ions(), 8);
        assert_eq!(w.num_orbitals(), 48);
        assert_eq!(w.initial_positions().len(), 96);
    }

    #[test]
    fn tables_are_shared() {
        let w = Workload::new(Benchmark::NiO32, Size::Scaled, 1);
        let a = w.table_f32();
        let b = w.table_f32();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(w.table_bytes(true) * 2 == w.table_bytes(false));
    }

    #[test]
    fn engines_build_for_every_version() {
        let w = Workload::new(Benchmark::NiO32, Size::Scaled, 3);
        let e64 = w.build_engine_f64(CodeVersion::Ref);
        assert_eq!(e64.pset.len(), 96);
        let e64b = w.build_engine_f64(CodeVersion::SoaDouble);
        assert_eq!(e64b.pset.len(), 96);
        let e32 = w.build_engine_f32(CodeVersion::RefMp);
        assert_eq!(e32.pset.len(), 96);
        let e32b = w.build_engine_f32(CodeVersion::Current);
        assert_eq!(e32b.pset.len(), 96);
    }

    #[test]
    fn be64_engine_has_no_nlpp() {
        let w = Workload::new(Benchmark::Be64, Size::Scaled, 5);
        let e = w.build_engine_f64(CodeVersion::Ref);
        assert!(e.ham.nlpp.is_none());
        let g = Workload::new(Benchmark::Graphite, Size::Scaled, 5);
        let e = g.build_engine_f64(CodeVersion::Ref);
        assert!(e.ham.nlpp.is_some());
    }

    #[test]
    #[should_panic(expected = "single-precision")]
    fn wrong_precision_rejected() {
        let w = Workload::new(Benchmark::NiO32, Size::Scaled, 1);
        let _ = w.build_engine_f64(CodeVersion::Current);
    }
}
