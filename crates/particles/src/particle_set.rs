//! [`ParticleSet`]: the central physics abstraction (Fig. 4 / Fig. 5).
//!
//! Holds the AoS positions `R` used by high-level physics code *and* the
//! SoA mirror `Rsoa` introduced by the paper (§7.3), keeps them coherent
//! through the particle-by-particle move protocol, and owns the distance
//! tables that the Jastrow/Hamiltonian components consume.
//!
//! Move protocol per PbyP step of Algorithm 1:
//! 1. [`ParticleSet::prepare_move`] — compute-on-the-fly refresh of the
//!    active row in SoA AA tables (§7.5);
//! 2. [`ParticleSet::make_move`] — candidate rows in every table;
//! 3. components evaluate ratios against the candidate rows;
//! 4. [`ParticleSet::accept_move`] (forward update + the "6 floats" position
//!    update) or [`ParticleSet::reject_move`].

use crate::dtable::{DistTableAARef, DistTableAASoA, DistTableABRef, DistTableABSoA, Layout};
use crate::lattice::CrystalLattice;
use qmc_containers::{Pos, Real, TinyVector, VectorSoaContainer};

/// One distance table owned by a [`ParticleSet`].
pub enum DistTable<T: Real> {
    /// Symmetric (electron-electron) baseline table.
    AaRef(DistTableAARef<T>),
    /// Symmetric optimized table.
    AaSoa(DistTableAASoA<T>),
    /// Electron-ion baseline table.
    AbRef(DistTableABRef<T>),
    /// Electron-ion optimized table.
    AbSoa(DistTableABSoA<T>),
}

impl<T: Real> DistTable<T> {
    /// Storage bytes for the memory ledger.
    pub fn bytes(&self) -> usize {
        match self {
            DistTable::AaRef(t) => t.bytes(),
            DistTable::AaSoa(t) => t.bytes(),
            DistTable::AbRef(t) => t.bytes(),
            DistTable::AbSoa(t) => t.bytes(),
        }
    }

    /// Downcast to the baseline AA table.
    pub fn as_aa_ref(&self) -> &DistTableAARef<T> {
        match self {
            DistTable::AaRef(t) => t,
            _ => panic!("expected AA-ref distance table"),
        }
    }

    /// Downcast to the optimized AA table.
    pub fn as_aa_soa(&self) -> &DistTableAASoA<T> {
        match self {
            DistTable::AaSoa(t) => t,
            _ => panic!("expected AA-SoA distance table"),
        }
    }

    /// Downcast to the baseline AB table.
    pub fn as_ab_ref(&self) -> &DistTableABRef<T> {
        match self {
            DistTable::AbRef(t) => t,
            _ => panic!("expected AB-ref distance table"),
        }
    }

    /// Downcast to the optimized AB table.
    pub fn as_ab_soa(&self) -> &DistTableABSoA<T> {
        match self {
            DistTable::AbSoa(t) => t,
            _ => panic!("expected AB-SoA distance table"),
        }
    }
}

/// A group of identical particles (species) within a set.
#[derive(Clone, Debug)]
pub struct Species {
    /// Species name ("u", "d", "Ni", "O", ...).
    pub name: String,
    /// Charge `Z*` (negative -1 for electrons, pseudopotential valence for
    /// ions).
    pub charge: f64,
}

/// A set of point particles in a periodic cell, with grouped species,
/// coherent AoS+SoA position storage and attached distance tables.
pub struct ParticleSet<T: Real> {
    /// Set name ("e" for electrons, "ion0" for ions).
    pub name: String,
    /// Simulation cell.
    pub lattice: CrystalLattice<T>,
    /// Per-particle gradient accumulator (filled by the wavefunction),
    /// always double precision per the paper's mixed-precision rules.
    pub g: Vec<Pos<f64>>,
    /// Per-particle Laplacian accumulator (double precision).
    pub l: Vec<f64>,
    r: Vec<Pos<T>>,
    rsoa: VectorSoaContainer<T, 3>,
    species: Vec<Species>,
    species_of: Vec<usize>,
    group_offsets: Vec<usize>,
    tables: Vec<DistTable<T>>,
    active: Option<(usize, Pos<T>)>,
}

impl<T: Real> ParticleSet<T> {
    /// Builds a particle set from species groups, each with its positions
    /// (given in `f64`, converted to the working precision).
    pub fn new(
        name: &str,
        lattice: CrystalLattice<T>,
        groups: Vec<(Species, Vec<Pos<f64>>)>,
    ) -> Self {
        let total: usize = groups.iter().map(|(_, p)| p.len()).sum();
        assert!(total > 0, "empty particle set");
        let mut r = Vec::with_capacity(total);
        let mut species = Vec::new();
        let mut species_of = Vec::with_capacity(total);
        let mut group_offsets = vec![0usize];
        for (gi, (sp, positions)) in groups.into_iter().enumerate() {
            species.push(sp);
            for p in &positions {
                r.push(p.cast::<T>());
                species_of.push(gi);
            }
            group_offsets.push(r.len());
        }
        let mut rsoa = VectorSoaContainer::new(total);
        rsoa.copy_from_aos(&r);
        Self {
            name: name.to_string(),
            lattice,
            g: vec![TinyVector::zero(); total],
            l: vec![0.0; total],
            r,
            rsoa,
            species,
            species_of,
            group_offsets,
            tables: Vec::new(),
            active: None,
        }
    }

    /// Number of particles.
    pub fn len(&self) -> usize {
        self.r.len()
    }

    /// True when the set is empty (never: constructor forbids it).
    pub fn is_empty(&self) -> bool {
        self.r.is_empty()
    }

    /// Number of species groups.
    pub fn num_groups(&self) -> usize {
        self.species.len()
    }

    /// Particle index range `[start, end)` of group `g`.
    pub fn group_range(&self, g: usize) -> std::ops::Range<usize> {
        self.group_offsets[g]..self.group_offsets[g + 1]
    }

    /// Species metadata of group `g`.
    pub fn species(&self, g: usize) -> &Species {
        &self.species[g]
    }

    /// Group index of particle `i`.
    pub fn group_of(&self, i: usize) -> usize {
        self.species_of[i]
    }

    /// Charge of particle `i`.
    pub fn charge_of(&self, i: usize) -> f64 {
        self.species[self.species_of[i]].charge
    }

    /// AoS positions.
    pub fn positions(&self) -> &[Pos<T>] {
        &self.r
    }

    /// SoA position mirror.
    pub fn rsoa(&self) -> &VectorSoaContainer<T, 3> {
        &self.rsoa
    }

    /// Position of particle `i`.
    pub fn pos(&self, i: usize) -> Pos<T> {
        self.r[i]
    }

    /// Replaces all positions (the `loadWalker` AoS-to-SoA assignment of
    /// Fig. 5) and rebuilds every distance table.
    pub fn load_positions(&mut self, r: &[Pos<f64>]) {
        assert_eq!(r.len(), self.r.len());
        for (dst, src) in self.r.iter_mut().zip(r) {
            *dst = src.cast();
        }
        self.rsoa.copy_from_aos(&self.r);
        self.active = None;
        self.update_tables();
    }

    /// Copies positions out in `f64` (the `storeWalker` direction).
    pub fn store_positions(&self, out: &mut [Pos<f64>]) {
        assert_eq!(out.len(), self.r.len());
        for (dst, src) in out.iter_mut().zip(&self.r) {
            *dst = src.cast();
        }
    }

    /// Attaches a symmetric (AA) distance table over this set; returns its
    /// handle.
    pub fn add_table_aa(&mut self, layout: Layout) -> usize {
        let t = match layout {
            Layout::Aos => DistTable::AaRef(DistTableAARef::new(self.len(), self.lattice.clone())),
            Layout::Soa => DistTable::AaSoa(DistTableAASoA::new(self.len(), self.lattice.clone())),
        };
        self.tables.push(t);
        self.refresh_table(self.tables.len() - 1);
        self.tables.len() - 1
    }

    /// Attaches an electron-ion (AB) table with fixed source positions;
    /// returns its handle. The ions' SoA positions are copied once and
    /// reused for the whole run (§7.3).
    pub fn add_table_ab(&mut self, ions: &ParticleSet<T>, layout: Layout) -> usize {
        let t = match layout {
            Layout::Aos => DistTable::AbRef(DistTableABRef::new(
                self.len(),
                ions.positions(),
                self.lattice.clone(),
            )),
            Layout::Soa => DistTable::AbSoa(DistTableABSoA::new(
                self.len(),
                ions.positions(),
                self.lattice.clone(),
            )),
        };
        self.tables.push(t);
        self.refresh_table(self.tables.len() - 1);
        self.tables.len() - 1
    }

    /// Distance table by handle.
    pub fn table(&self, handle: usize) -> &DistTable<T> {
        &self.tables[handle]
    }

    /// Number of attached tables.
    pub fn num_tables(&self) -> usize {
        self.tables.len()
    }

    /// Rebuilds every attached table from the current positions.
    pub fn update_tables(&mut self) {
        for i in 0..self.tables.len() {
            self.refresh_table(i);
        }
    }

    fn refresh_table(&mut self, i: usize) {
        let Self {
            r, rsoa, tables, ..
        } = self;
        match &mut tables[i] {
            DistTable::AaRef(t) => t.evaluate(r),
            DistTable::AaSoa(t) => t.evaluate(rsoa),
            DistTable::AbRef(t) => t.evaluate(r),
            DistTable::AbSoa(t) => t.evaluate(rsoa),
        }
    }

    /// Compute-on-the-fly refresh of the active rows before moving particle
    /// `iat` (no-op for baseline tables, which keep their storage current).
    pub fn prepare_move(&mut self, iat: usize) {
        let Self { rsoa, tables, .. } = self;
        for t in tables.iter_mut() {
            if let DistTable::AaSoa(t) = t {
                t.prepare_move(rsoa, iat);
            }
        }
    }

    /// Proposes moving particle `iat` to `newpos`: fills the candidate rows
    /// of every table and records the active move.
    pub fn make_move(&mut self, iat: usize, newpos: Pos<T>) {
        let Self {
            r, rsoa, tables, ..
        } = self;
        for t in tables.iter_mut() {
            match t {
                DistTable::AaRef(t) => t.move_candidate(r, iat, newpos),
                DistTable::AaSoa(t) => t.move_candidate(rsoa, iat, newpos),
                DistTable::AbRef(t) => t.move_candidate(iat, newpos),
                DistTable::AbSoa(t) => t.move_candidate(iat, newpos),
            }
        }
        self.active = Some((iat, newpos));
    }

    /// Crowd-batched [`Self::prepare_move`] across walker-aligned particle
    /// sets: for each table slot whose every walker holds an SoA AA table,
    /// all walkers' row refreshes run back-to-back through
    /// [`DistTableAASoA::mw_prepare`] (one timer scope, same per-walker
    /// arithmetic — bitwise identical to the scalar loop); mixed slots fall
    /// back to the per-walker call.
    pub fn mw_prepare_moves(psets: &mut [&mut Self], iat: usize) {
        let nt = psets.first().map_or(0, |p| p.tables.len());
        for ti in 0..nt {
            if psets
                .iter()
                .all(|p| matches!(p.tables[ti], DistTable::AaSoa(_)))
            {
                let mut tabs: Vec<&mut DistTableAASoA<T>> = Vec::with_capacity(psets.len());
                let mut rsoas: Vec<&VectorSoaContainer<T, 3>> = Vec::with_capacity(psets.len());
                for p in psets.iter_mut() {
                    let Self { rsoa, tables, .. } = &mut **p;
                    if let DistTable::AaSoa(t) = &mut tables[ti] {
                        tabs.push(t);
                        rsoas.push(rsoa);
                    }
                }
                DistTableAASoA::mw_prepare(&mut tabs, &rsoas, iat);
            } else {
                for p in psets.iter_mut() {
                    let Self { rsoa, tables, .. } = &mut **p;
                    if let DistTable::AaSoa(t) = &mut tables[ti] {
                        t.prepare_move(rsoa, iat);
                    }
                }
            }
        }
    }

    /// Crowd-batched [`Self::make_move`]: `newpos[w]` is walker `w`'s
    /// proposed position for particle `iat`. Table slots that are uniformly
    /// SoA (AA or AB) across the crowd compute all walkers' candidate rows
    /// under one timer scope via the `mw_move_candidates` batched kernels;
    /// mixed slots fall back per walker. Each set's active move is recorded
    /// exactly as the scalar call does.
    pub fn mw_make_moves(psets: &mut [&mut Self], iat: usize, newpos: &[Pos<T>]) {
        assert_eq!(psets.len(), newpos.len());
        let nt = psets.first().map_or(0, |p| p.tables.len());
        for ti in 0..nt {
            if psets
                .iter()
                .all(|p| matches!(p.tables[ti], DistTable::AaSoa(_)))
            {
                let mut tabs: Vec<&mut DistTableAASoA<T>> = Vec::with_capacity(psets.len());
                let mut rsoas: Vec<&VectorSoaContainer<T, 3>> = Vec::with_capacity(psets.len());
                for p in psets.iter_mut() {
                    let Self { rsoa, tables, .. } = &mut **p;
                    if let DistTable::AaSoa(t) = &mut tables[ti] {
                        tabs.push(t);
                        rsoas.push(rsoa);
                    }
                }
                DistTableAASoA::mw_move_candidates(&mut tabs, &rsoas, iat, newpos);
            } else if psets
                .iter()
                .all(|p| matches!(p.tables[ti], DistTable::AbSoa(_)))
            {
                let mut tabs: Vec<&mut DistTableABSoA<T>> = Vec::with_capacity(psets.len());
                for p in psets.iter_mut() {
                    if let DistTable::AbSoa(t) = &mut p.tables[ti] {
                        tabs.push(t);
                    }
                }
                DistTableABSoA::mw_move_candidates(&mut tabs, newpos);
            } else {
                for (p, &np) in psets.iter_mut().zip(newpos) {
                    let Self {
                        r, rsoa, tables, ..
                    } = &mut **p;
                    match &mut tables[ti] {
                        DistTable::AaRef(t) => t.move_candidate(r, iat, np),
                        DistTable::AaSoa(t) => t.move_candidate(rsoa, iat, np),
                        DistTable::AbRef(t) => t.move_candidate(iat, np),
                        DistTable::AbSoa(t) => t.move_candidate(iat, np),
                    }
                }
            }
        }
        for (p, &np) in psets.iter_mut().zip(newpos) {
            p.active = Some((iat, np));
        }
    }

    /// Commits the active move: forward-updates every table and writes the
    /// new position into both `R` and `Rsoa` (6 scalars).
    pub fn accept_move(&mut self, iat: usize) {
        let (act, newpos) = self.active.take().expect("no active move");
        assert_eq!(act, iat, "accept_move for a different particle");
        for t in &mut self.tables {
            match t {
                DistTable::AaRef(t) => t.accept(iat),
                DistTable::AaSoa(t) => t.accept(iat),
                DistTable::AbRef(t) => t.accept(iat),
                DistTable::AbSoa(t) => t.accept(iat),
            }
        }
        self.r[iat] = newpos;
        self.rsoa.set(iat, newpos);
    }

    /// Discards the active move.
    pub fn reject_move(&mut self, iat: usize) {
        if let Some((act, _)) = self.active.take() {
            debug_assert_eq!(act, iat);
        }
    }

    /// The proposed position of the active move, if any.
    pub fn active_pos(&self) -> Option<(usize, Pos<T>)> {
        self.active
    }

    /// Zeroes the gradient/Laplacian accumulators.
    pub fn reset_gl(&mut self) {
        self.g.iter_mut().for_each(|g| *g = TinyVector::zero());
        self.l.iter_mut().for_each(|l| *l = 0.0);
    }

    /// Total bytes of position + table storage (memory ledger).
    pub fn bytes(&self) -> usize {
        self.r.len() * std::mem::size_of::<Pos<T>>()
            + self.rsoa.bytes()
            + self.tables.iter().map(DistTable::bytes).sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_group_set() -> ParticleSet<f64> {
        let lat = CrystalLattice::cubic(10.0);
        ParticleSet::new(
            "e",
            lat,
            vec![
                (
                    Species {
                        name: "u".into(),
                        charge: -1.0,
                    },
                    vec![TinyVector([1.0, 1.0, 1.0]), TinyVector([2.0, 2.0, 2.0])],
                ),
                (
                    Species {
                        name: "d".into(),
                        charge: -1.0,
                    },
                    vec![TinyVector([3.0, 3.0, 3.0])],
                ),
            ],
        )
    }

    #[test]
    fn groups_and_species() {
        let p = two_group_set();
        assert_eq!(p.len(), 3);
        assert_eq!(p.num_groups(), 2);
        assert_eq!(p.group_range(0), 0..2);
        assert_eq!(p.group_range(1), 2..3);
        assert_eq!(p.group_of(2), 1);
        assert_eq!(p.charge_of(0), -1.0);
        assert_eq!(p.species(1).name, "d");
    }

    #[test]
    fn soa_mirror_stays_coherent() {
        let mut p = two_group_set();
        let h = p.add_table_aa(Layout::Soa);
        let newpos = TinyVector([5.0, 5.0, 5.0]);
        p.prepare_move(1);
        p.make_move(1, newpos);
        assert_eq!(p.active_pos(), Some((1, newpos)));
        p.accept_move(1);
        assert_eq!(p.pos(1), newpos);
        assert_eq!(p.rsoa().get(1), newpos);
        // Table row 1 must hold the fresh distances.
        let d01 = p.table(h).as_aa_soa().dist_row(1)[0];
        assert!((d01 - (newpos - p.pos(0)).norm()).abs() < 1e-12);
    }

    #[test]
    fn reject_leaves_state_untouched() {
        let mut p = two_group_set();
        p.add_table_aa(Layout::Aos);
        let old = p.pos(0);
        p.make_move(0, TinyVector([9.0, 9.0, 9.0]));
        p.reject_move(0);
        assert_eq!(p.pos(0), old);
        assert_eq!(p.rsoa().get(0), old);
        assert!(p.active_pos().is_none());
    }

    #[test]
    fn load_store_roundtrip() {
        let mut p = two_group_set();
        p.add_table_aa(Layout::Soa);
        let newr = vec![
            TinyVector([0.5, 0.5, 0.5]),
            TinyVector([4.0, 4.0, 4.0]),
            TinyVector([8.0, 8.0, 8.0]),
        ];
        p.load_positions(&newr);
        let mut out = vec![TinyVector::zero(); 3];
        p.store_positions(&mut out);
        assert_eq!(out, newr);
        // Tables rebuilt.
        let d = p.table(0).as_aa_soa().dist_row(0)[1];
        let expect = p.lattice.min_image(newr[1] - newr[0]).norm();
        assert!((d - expect).abs() < 1e-12);
    }

    #[test]
    fn ab_table_attaches() {
        let lat = CrystalLattice::cubic(10.0);
        let ions = ParticleSet::<f64>::new(
            "ion0",
            lat.clone(),
            vec![(
                Species {
                    name: "C".into(),
                    charge: 4.0,
                },
                vec![TinyVector([0.0, 0.0, 0.0]), TinyVector([5.0, 5.0, 5.0])],
            )],
        );
        let mut e = two_group_set();
        let h = e.add_table_ab(&ions, Layout::Soa);
        let d = e.table(h).as_ab_soa().dist_row(0)[1];
        let expect = lat.min_image(ions.pos(1) - e.pos(0)).norm();
        assert!((d - expect).abs() < 1e-12);
    }
}
