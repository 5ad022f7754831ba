//! Simulated multi-rank (MPI-like) DMC execution for the strong-scaling
//! study of Fig. 1.
//!
//! Each "rank" is an engine, a walker sub-population and a rank-local
//! branch controller. A coordinator loop on the calling thread runs one
//! generation as one fork-join over the ranks ([`fan_out_tasks`]: the
//! shared [`crate::dmc::advance`], the rank's walker-order partials, the
//! rank-local branch) and does the population-level steps serially between
//! fan-outs, in rank order: the allreduce of the weighted energy and
//! population (mirroring the paper's `allreduce` for `E_L`) through
//! [`det_sum_by`] over the rank-indexed partials, the trial-energy update,
//! and the rebalancing of walkers through an exchange pool (the `send/recv
//! of serialized Walker objects` in §8). Nothing a rank computes depends
//! on when another rank ran, so the result is bitwise the same for any
//! rank count, thread schedule and repeat. The paper's observation — that
//! the optimizations leave communication untouched and near-ideal scaling
//! intact — is what this module lets the harness demonstrate.

// qmclint: allow-file(precision-cast) — rank-aggregation statistics (means, weights,
// counts) are f64 by definition of the run report.
use crate::branch::BranchController;
use crate::crew::fan_out_tasks;
use crate::engine::QmcEngine;
use crate::reduce::{det_sum_by, det_weighted_mean};
use crate::serialize::{deserialize_walker, reseed_for_migration, serialize_walker};
use crate::walker::{initial_population, Walker};
use qmc_containers::Real;
use qmc_instrument::ProfileSet;

/// Parameters for a simulated multi-rank DMC run.
#[derive(Clone, Copy, Debug)]
pub struct MultiRankParams {
    /// Number of simulated ranks (one worker thread each).
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

/// One simulated rank: what an MPI process would own.
struct Rank<T: Real> {
    engine: QmcEngine<T>,
    walkers: Vec<Walker<T>>,
    branch: BranchController,
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
    let n = params.ranks.max(1);
    let per_rank = (params.total_population / n).max(1);
    // Kernel profiles of the ranks are drained per task and not reported.
    let mut profile = ProfileSet::with_groups(n);
    let mut ranks = fan_out_tasks((0..n).collect(), "rank init", &mut profile, |_, rank| {
        let mut engine = build_engine(rank);
        let mut walkers = initial_population::<T>(
            initial_positions,
            per_rank,
            params.seed ^ (rank as u64).wrapping_mul(0x9E3779B97F4A7C15),
        );
        for w in &mut walkers {
            engine.init_walker(w);
        }
        let e0 = walkers.iter().map(|w| w.e_local).sum::<f64>() / walkers.len() as f64;
        let seed = params.seed ^ 0xABCD ^ rank as u64;
        Rank {
            engine,
            walkers,
            branch: BranchController::new(per_rank, e0, params.tau, seed),
        }
    });
    let e0 = ranks[0].branch.e_trial;
    // The exchange pool holds *serialized* walker messages, exactly what
    // an MPI implementation would send/recv (§8); what a generation leaves
    // in it stays for the next.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    let mut energies = Vec::<(f64, f64)>::new();
    let (mut samples, mut exchanged, mut bytes_exchanged) = (0u64, 0u64, 0u64);

    let t0 = std::time::Instant::now();
    for step in 0..params.steps {
        // The shared DMC walker advance for the local block (no refresh
        // cadence on ranks), the rank's `(sum w*E, sum w)` contribution to
        // the allreduce in walker order, then the rank-local branch.
        let tasks = ranks.iter_mut().collect();
        let partials = fan_out_tasks(tasks, "rank", &mut profile, |lane, r: &mut Rank<T>| {
            crate::dmc::advance(
                lane,
                &mut r.engine,
                &mut r.walkers,
                params.tau,
                false,
                &r.branch,
            );
            let w = &r.walkers;
            let esum = det_sum_by(w.len(), |i| w[i].weight * w[i].e_local);
            let wsum = det_sum_by(w.len(), |i| w[i].weight);
            r.branch.branch(&mut r.walkers);
            (esum, wsum)
        });

        // --- allreduce of E_L and population, then the trial energy ---
        let g_esum = det_sum_by(n, |r| partials[r].0);
        let g_wsum = det_sum_by(n, |r| partials[r].1);
        let pops: usize = ranks.iter().map(|r| r.walkers.len()).sum();
        let e_avg = if g_wsum > 0.0 { g_esum / g_wsum } else { e0 };
        let ratio = pops as f64 / params.total_population as f64;
        let e_trial = e_avg - (1.0 / params.tau) * ratio.ln().clamp(-1.0, 1.0);
        if step >= params.warmup {
            energies.push((e_avg, g_wsum));
            samples += pops as u64;
        }

        // --- load balance: surplus ranks push, then deficit ranks pull,
        // each by ascending rank ---
        let avg = (pops / n).max(1);
        for r in &mut ranks {
            r.branch.e_trial = e_trial;
            let surplus = r.walkers.len().saturating_sub(avg);
            for mut w in r.walkers.drain(r.walkers.len() - surplus..) {
                // Migration policy: decorrelate the stream before the
                // walker leaves this rank.
                reseed_for_migration(&mut w);
                let msg = serialize_walker(&w);
                bytes_exchanged += msg.len() as u64;
                pool.push(msg);
            }
            exchanged += surplus as u64;
        }
        for r in &mut ranks {
            while r.walkers.len() < avg {
                let Some(msg) = pool.pop() else { break };
                r.walkers.push(deserialize_walker(&msg));
            }
        }
    }
    let seconds = t0.elapsed().as_secs_f64();

    MultiRankResult {
        seconds,
        samples,
        energy: det_weighted_mean(&energies, 0.0),
        exchanged,
        bytes_exchanged,
    }
}
