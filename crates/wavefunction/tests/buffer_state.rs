//! Walker-buffer state tests: `save_state`/`load_state` must capture the
//! complete PbyP state of every component — after restoring, ratios,
//! gradients and log values must be indistinguishable from the moment the
//! snapshot was taken, no matter what happened in between.

use qmc_bspline::CubicBspline1D;
use qmc_containers::{Pos, TinyVector};
use qmc_particles::{CrystalLattice, Layout, ParticleSet, Species};
use qmc_wavefunction::{
    traits::WaveFunctionComponent, CosineSpo, DiracDeterminant, J1Ref, J1Soa, J2Ref, J2Soa,
    PairFunctors, WalkerBuffer,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

const L: f64 = 7.0;

fn electrons(n: usize, seed: u64) -> ParticleSet<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let lat = CrystalLattice::cubic(L);
    let pos: Vec<Pos<f64>> = (0..n)
        .map(|_| {
            TinyVector([
                rng.random::<f64>() * L,
                rng.random::<f64>() * L,
                rng.random::<f64>() * L,
            ])
        })
        .collect();
    let half = n / 2;
    ParticleSet::new(
        "e",
        lat,
        vec![
            (
                Species {
                    name: "u".into(),
                    charge: -1.0,
                },
                pos[..half].to_vec(),
            ),
            (
                Species {
                    name: "d".into(),
                    charge: -1.0,
                },
                pos[half..].to_vec(),
            ),
        ],
    )
}

fn ions() -> ParticleSet<f64> {
    ParticleSet::new(
        "ion0",
        CrystalLattice::cubic(L),
        vec![(
            Species {
                name: "X".into(),
                charge: 4.0,
            },
            vec![TinyVector([1.0, 1.0, 1.0]), TinyVector([4.0, 4.0, 4.0])],
        )],
    )
}

fn functors() -> PairFunctors<f64> {
    PairFunctors::new(2, |a, b| {
        let (amp, cusp) = if a == b { (0.3, -0.25) } else { (0.45, -0.5) };
        CubicBspline1D::fit(move |r| amp * (1.0 - r / 3.0).powi(3), cusp, 3.0, 8)
    })
}

/// Snapshot, scramble with accepted moves, restore at the snapshot
/// positions, and verify observables match the snapshot.
fn roundtrip_under_scramble(
    p: &mut ParticleSet<f64>,
    c: &mut dyn WaveFunctionComponent<f64>,
    seed: u64,
) {
    let n = p.len();
    p.update_tables();
    c.evaluate_log(p);

    // Take the snapshot: positions + component state + observables.
    let mut snap_pos = vec![TinyVector::zero(); n];
    p.store_positions(&mut snap_pos);
    let mut buf = WalkerBuffer::new();
    c.save_state(&mut buf);
    let log0 = c.log_value();
    let grads0: Vec<Pos<f64>> = (0..n).map(|i| c.eval_grad(p, i)).collect();

    // Scramble: a sweep of accepted moves.
    let mut rng = StdRng::seed_from_u64(seed);
    for iat in 0..n {
        p.prepare_move(iat);
        let newpos = p.pos(iat)
            + TinyVector([
                rng.random::<f64>() - 0.5,
                rng.random::<f64>() - 0.5,
                rng.random::<f64>() - 0.5,
            ]);
        p.make_move(iat, newpos);
        let mut g = TinyVector::zero();
        c.ratio_grad(p, iat, &mut g);
        c.accept_move(p, iat);
        p.accept_move(iat);
    }
    assert!(
        (c.log_value() - log0).abs() > 1e-6,
        "scramble had no effect"
    );

    // Restore: positions back, tables rebuilt, state from buffer.
    p.load_positions(&snap_pos);
    buf.rewind();
    c.load_state(&mut buf);
    assert!(buf.fully_consumed(), "buffer layout mismatch");
    // Save → perturb → load → save: nothing of the scrambled state may
    // survive the load, so the second buffer is the first bit for bit
    // (the determinant reads its inverse straight into its own matrix).
    let mut resaved = WalkerBuffer::new();
    c.save_state(&mut resaved);
    let bits = |b: &WalkerBuffer<f64>| -> Vec<u64> {
        let all = b.reals().iter().chain(b.doubles());
        all.map(|x| x.to_bits()).collect()
    };
    assert_eq!(bits(&buf), bits(&resaved), "load then save is not identity");
    assert!(
        (c.log_value() - log0).abs() < 1e-12,
        "log after restore: {} vs {}",
        c.log_value(),
        log0
    );
    for (i, g0) in grads0.iter().enumerate() {
        let g = c.eval_grad(p, i);
        assert!(
            (g - *g0).norm() < 1e-9,
            "grad[{i}] after restore: {g:?} vs {g0:?}"
        );
    }
    // Ratios from the restored state match a fresh component built at the
    // same configuration (the ultimate consistency check).
    let fresh_log = c.evaluate_log(p);
    assert!(
        (fresh_log - log0).abs() < 1e-9,
        "fresh {fresh_log} vs snapshot {log0}"
    );
}

#[test]
fn j2_soa_state_roundtrip() {
    let mut p = electrons(8, 1);
    let h = p.add_table_aa(Layout::Soa);
    let mut c = J2Soa::new(&p, h, functors());
    roundtrip_under_scramble(&mut p, &mut c, 100);
}

#[test]
fn j2_ref_state_roundtrip() {
    let mut p = electrons(8, 2);
    let h = p.add_table_aa(Layout::Aos);
    let mut c = J2Ref::new(&p, h, functors());
    roundtrip_under_scramble(&mut p, &mut c, 200);
}

#[test]
fn j1_soa_state_roundtrip() {
    let ions = ions();
    let mut p = electrons(6, 3);
    p.add_table_aa(Layout::Soa);
    let h = p.add_table_ab(&ions, Layout::Soa);
    let fs = vec![CubicBspline1D::fit(
        |r| -0.4 * (1.0 - r / 2.5).powi(2),
        0.0,
        2.5,
        8,
    )];
    let mut c = J1Soa::new(&p, &ions, h, fs);
    roundtrip_under_scramble(&mut p, &mut c, 300);
}

#[test]
fn j1_ref_state_roundtrip() {
    let ions = ions();
    let mut p = electrons(6, 4);
    p.add_table_aa(Layout::Aos);
    let h = p.add_table_ab(&ions, Layout::Aos);
    let fs = vec![CubicBspline1D::fit(
        |r| -0.4 * (1.0 - r / 2.5).powi(2),
        0.0,
        2.5,
        8,
    )];
    let mut c = J1Ref::new(&p, &ions, h, fs);
    roundtrip_under_scramble(&mut p, &mut c, 400);
}

#[test]
fn determinant_state_roundtrip_sm() {
    let mut p = electrons(6, 5);
    p.add_table_aa(Layout::Soa);
    let mut c = DiracDeterminant::new(Box::new(CosineSpo::<f64>::new(6, [L, L, L])), 0, 6);
    roundtrip_under_scramble(&mut p, &mut c, 500);
}

/// FNV-1a over the bit patterns of a save buffer, working-precision stream
/// first, then the double stream.
fn buffer_digest<T: qmc_containers::Real>(buf: &WalkerBuffer<T>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let reals = buf.reals().iter().map(|x| x.to_f64().to_bits());
    for word in reals.chain(buf.doubles().iter().map(|x| x.to_bits())) {
        for byte in word.to_le_bytes() {
            h = (h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A fixed `CosineSpo` determinant driven through a fixed accept/reject
/// sequence (long enough to cross one in-sweep recompute), then saved.
fn driven_determinant_digest<T: qmc_containers::Real>(nel: usize, recompute: usize) -> u64 {
    let pos: Vec<Pos<f64>> = (0..nel)
        .map(|i| {
            let t = i as f64;
            TinyVector([
                (0.9 + 1.37 * t) % L,
                (6.1 + 0.83 * t * t) % L,
                (2.3 * t + 0.4) % L,
            ])
        })
        .collect();
    let species = Species {
        name: "u".into(),
        charge: -1.0,
    };
    let mut p = ParticleSet::<T>::new("e", CrystalLattice::cubic(L), vec![(species, pos)]);
    p.add_table_aa(Layout::Soa);
    p.update_tables();
    let mut det = DiracDeterminant::new(Box::new(CosineSpo::<T>::new(nel, [L, L, L])), 0, nel);
    det.set_recompute_period(recompute);
    det.evaluate_log(&mut p);
    for m in 0..3 * nel {
        let iat = (5 * m + 2) % nel;
        let s = m as f64;
        p.prepare_move(iat);
        let step = TinyVector([
            T::from_f64(0.31 * (1.0 + s).sin()),
            T::from_f64(-0.27 * (2.0 + 0.7 * s).cos()),
            T::from_f64(0.19 * (0.3 * s).sin()),
        ]);
        p.make_move(iat, p.pos(iat) + step);
        det.eval_grad(&p, iat);
        det.ratio_grad(&p, iat, &mut TinyVector::zero());
        if m % 3 == 2 {
            det.restore(iat);
            p.reject_move(iat);
        } else {
            det.accept_move(&p, iat);
            p.accept_move(iat);
        }
    }
    let mut buf = WalkerBuffer::new();
    det.save_state(&mut buf);
    buffer_digest(&buf)
}

/// The serialized order of the determinant's state (inverse written row =
/// electron) and every bit in it are pinned: these digests were recorded on
/// the parent of the PR that turned the engine's storage into `A⁻¹`, before
/// any edit. The checkpoint format and every walker hash hang on them.
#[test]
fn determinant_save_buffer_digest_is_pinned() {
    assert_eq!(
        driven_determinant_digest::<f64>(6, 1000),
        0xb470_1966_90fc_a199,
        "f64, nel = 6, no recompute"
    );
    assert_eq!(
        driven_determinant_digest::<f32>(19, 11),
        0x1ce7_7e86_d7df_a93c,
        "f32, nel = 19 (one 16-lane block + tail), recompute every 11 accepts"
    );
}
