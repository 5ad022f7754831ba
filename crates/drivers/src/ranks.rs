//! Simulated multi-rank (MPI-like) DMC execution for the strong-scaling
//! study of Fig. 1.
//!
//! Each "rank" is a thread with its own engine and walker sub-population.
//! Per generation, ranks synchronize at a barrier, allreduce the weighted
//! energy and population (mirroring the paper's `allreduce` for `E_L`),
//! and rebalance walkers through a shared exchange pool (the `send/recv of
//! serialized Walker objects` in §8). The allreduce gathers rank-indexed
//! partials and reduces them with [`crate::reduce::det_sum_by`], so rank
//! arrival order cannot perturb the trial-energy bits. The paper's observation — that the
//! optimizations leave communication untouched and near-ideal scaling
//! intact — is what this module lets the harness demonstrate.

// qmclint: allow-file(precision-cast) — rank-aggregation statistics (means, weights,
// counts) are f64 by definition of the run report.
use crate::branch::BranchController;
use crate::engine::QmcEngine;
use crate::serialize::{deserialize_walker, reseed_for_migration, serialize_walker};
use parking_lot::Mutex;
use qmc_containers::Real;
use std::sync::Barrier;

/// Parameters for a simulated multi-rank DMC run.
#[derive(Clone, Copy, Debug)]
pub struct MultiRankParams {
    /// Number of simulated ranks (threads).
    pub ranks: usize,
    /// Total target population across ranks.
    pub total_population: usize,
    /// Generations to run.
    pub steps: usize,
    /// Generations discarded from statistics.
    pub warmup: usize,
    /// Imaginary time step.
    pub tau: f64,
    /// Master seed.
    pub seed: u64,
}

/// Outcome of a multi-rank run.
#[derive(Clone, Debug)]
pub struct MultiRankResult {
    /// Wall-clock seconds of the generation loop.
    pub seconds: f64,
    /// Monte Carlo samples generated after warmup (sum of populations).
    pub samples: u64,
    /// Mean energy over measured generations.
    pub energy: f64,
    /// Walkers exchanged between ranks (load-balance traffic).
    pub exchanged: u64,
    /// Bytes of serialized walker messages moved between ranks — the
    /// quantity the paper's Jastrow memory reduction shrinks by 22.5 MB
    /// per walker on NiO-64.
    pub bytes_exchanged: u64,
}

impl MultiRankResult {
    /// Throughput `P = samples / seconds`, the paper's figure of merit.
    pub fn throughput(&self) -> f64 {
        self.samples as f64 / self.seconds
    }
}

struct SharedGen {
    pops: usize,
    e_trial: f64,
    pool_moved: u64,
    bytes_moved: u64,
}

/// Runs DMC over `params.ranks` simulated ranks. `build_engine(rank)`
/// constructs each rank's engine; `initial_positions` seeds the walkers.
pub fn run_multi_rank<T, F>(
    build_engine: F,
    initial_positions: &[qmc_containers::Pos<f64>],
    params: &MultiRankParams,
) -> MultiRankResult
where
    T: Real,
    F: Fn(usize) -> QmcEngine<T> + Sync,
{
    let ranks = params.ranks.max(1);
    let per_rank = (params.total_population / ranks).max(1);
    let barrier = Barrier::new(ranks);
    let shared = Mutex::new(SharedGen {
        pops: 0,
        e_trial: 0.0,
        pool_moved: 0,
        bytes_moved: 0,
    });
    // Rank-indexed `(sum w*E, sum w)` partials for the allreduce: each
    // rank writes its own slot, so barrier arrival order cannot perturb
    // the deterministic rank-order reduction rank 0 performs.
    let slots: Mutex<Vec<(f64, f64)>> = Mutex::new(vec![(0.0, 0.0); ranks]);
    // The exchange pool holds *serialized* walker messages, exactly what
    // an MPI implementation would send/recv (§8).
    let pool: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());
    let energies = Mutex::new(Vec::<(f64, f64)>::new());
    let samples = Mutex::new(0u64);

    let t0 = std::time::Instant::now();
    std::thread::scope(|scope| {
        for rank in 0..ranks {
            let build_engine = &build_engine;
            let barrier = &barrier;
            let shared = &shared;
            let slots = &slots;
            let pool = &pool;
            let energies = &energies;
            let samples = &samples;
            scope.spawn(move || {
                qmc_instrument::enable_ftz();
                let mut engine = build_engine(rank);
                let mut walkers = crate::walker::initial_population::<T>(
                    initial_positions,
                    per_rank,
                    params.seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15),
                );
                for w in &mut walkers {
                    engine.init_walker(w);
                }
                let e0 = walkers.iter().map(|w| w.e_local).sum::<f64>() / walkers.len() as f64;
                let mut branch = BranchController::new(
                    per_rank,
                    e0,
                    params.tau,
                    params.seed ^ 0xABCD ^ rank as u64,
                );

                for step in 0..params.steps {
                    // The shared DMC walker advance for the local block
                    // (no refresh cadence on ranks), then the deterministic
                    // walker-order partial for this rank's contribution to
                    // the allreduce.
                    crate::dmc::advance(
                        rank as u64,
                        &mut engine,
                        &mut walkers,
                        params.tau,
                        false,
                        &branch,
                    );
                    let esum = crate::reduce::det_sum_by(walkers.len(), |i| {
                        walkers[i].weight * walkers[i].e_local
                    });
                    let wsum = crate::reduce::det_sum_by(walkers.len(), |i| walkers[i].weight);
                    branch.branch(&mut walkers);

                    // --- allreduce of E_L and population ---
                    slots.lock()[rank] = (esum, wsum);
                    {
                        let mut s = shared.lock();
                        s.pops += walkers.len();
                    }
                    barrier.wait();
                    // Rank 0 reduces the rank-indexed partials in rank
                    // order (fixed tree shape — arrival order cannot
                    // change the bits) and computes the trial energy.
                    if rank == 0 {
                        let (g_esum, g_wsum) = {
                            let sl = slots.lock();
                            (
                                crate::reduce::det_sum_by(sl.len(), |r| sl[r].0),
                                crate::reduce::det_sum_by(sl.len(), |r| sl[r].1),
                            )
                        };
                        let mut s = shared.lock();
                        let e_avg = if g_wsum > 0.0 { g_esum / g_wsum } else { e0 };
                        let ratio = s.pops as f64 / params.total_population as f64;
                        s.e_trial = e_avg - (1.0 / params.tau) * ratio.ln().clamp(-1.0, 1.0);
                        if step >= params.warmup {
                            energies.lock().push((e_avg, g_wsum));
                            *samples.lock() += s.pops as u64;
                        }
                    }
                    barrier.wait();
                    branch.e_trial = shared.lock().e_trial;

                    // --- load balance: surplus ranks push, deficit pull ---
                    let avg = (shared.lock().pops / ranks).max(1);
                    if walkers.len() > avg {
                        let surplus = walkers.len() - avg;
                        let mut msgs = Vec::with_capacity(surplus);
                        let mut bytes = 0u64;
                        for mut w in walkers.drain(walkers.len() - surplus..) {
                            // Migration policy: decorrelate the stream
                            // before the walker leaves this rank.
                            reseed_for_migration(&mut w);
                            let msg = serialize_walker(&w);
                            bytes += msg.len() as u64;
                            msgs.push(msg);
                        }
                        pool.lock().extend(msgs);
                        let mut s = shared.lock();
                        s.pool_moved += surplus as u64;
                        s.bytes_moved += bytes;
                    }
                    barrier.wait();
                    if walkers.len() < avg {
                        let mut p = pool.lock();
                        while walkers.len() < avg {
                            match p.pop() {
                                Some(msg) => walkers.push(deserialize_walker(&msg)),
                                None => break,
                            }
                        }
                    }
                    barrier.wait();
                    if rank == 0 {
                        shared.lock().pops = 0;
                    }
                    barrier.wait();
                }
            });
        }
    });
    let seconds = t0.elapsed().as_secs_f64();

    let energies = energies.into_inner();
    let shared = shared.into_inner();
    MultiRankResult {
        seconds,
        samples: samples.into_inner(),
        energy: crate::reduce::det_weighted_mean(&energies, 0.0),
        exchanged: shared.pool_moved,
        bytes_exchanged: shared.bytes_moved,
    }
}
