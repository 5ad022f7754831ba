//! Simulated multi-rank (MPI-like) DMC execution for the strong-scaling
//! study of Fig. 1.
//!
//! Each "rank" is one of the caller's engines, a walker sub-population and
//! a rank-local branching stream. [`run_multi_rank`] runs the program's
//! DMC generation — the shared [`crate::dmc::advance`] with its refresh
//! cadence, and the [`DmcState`] books — with two things kept apart,
//! because they are what Fig. 1 measures: each rank branches its own
//! walkers inside the fork-join ([`fan_out_tasks`]) under the one global
//! trial energy, and between fork-joins the coordinator rebalances the
//! ranks by moving serialized walkers (the `send/recv of serialized Walker
//! objects` in §8). The allreduce of the weighted energy and population
//! (the paper's `allreduce` for `E_L`) runs [`det_sum_by`] over the
//! rank-indexed partials, and the exchange moves walkers by ascending
//! rank, so nothing a rank computes depends on when another rank ran: the
//! result is bitwise the same for any thread schedule and repeat, and on
//! one rank it is bitwise [`crate::run_dmc`] on one engine.

use crate::branch::BranchController;
use crate::crew::{chunk_len, fan_out_tasks, init_walkers};
use crate::dmc::{advance, mean_local_energy, DmcParams, DmcResult, DmcState};
use crate::engine::QmcEngine;
use crate::reduce::det_sum_by;
use crate::serialize::{deserialize_walker, reseed_for_migration, serialize_walker};
use crate::walker::Walker;
use qmc_containers::Real;
use qmc_instrument::{drain_thread_profile, ProfileSet};

/// Load-balance traffic of a multi-rank run: the serialized walker
/// messages the ranks sent each other.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Exchange {
    /// Walkers moved between ranks.
    pub walkers: u64,
    /// Bytes of serialized walker messages moved — the quantity the
    /// paper's Jastrow memory reduction shrinks by 22.5 MB per walker on
    /// NiO-64.
    pub bytes: u64,
}

/// What one simulated rank owns besides its engine.
struct Rank<T: Real> {
    walkers: Vec<Walker<T>>,
    /// Rank-local branching stream; its trial energy is the global one.
    branch: BranchController,
}

/// One rank's share of a generation, for the allreduce.
struct Partial {
    esum: f64,
    wsum: f64,
    accepted: usize,
    attempted: usize,
    /// Walkers before the rank branched.
    population: usize,
}

/// Runs DMC over one simulated rank per engine in `ranks` (one worker
/// thread each). Rank `r` starts with contiguous chunk `r` of `walkers`;
/// on return `walkers` holds the ranks' populations in rank order. The
/// branching stream of rank 0 is seeded from `params.seed`, those of
/// ranks `r > 0` from `params.seed` and `r`. Returns the result, the
/// kernel profile (one group per rank) and the exchange traffic.
pub fn run_multi_rank<T: Real>(
    ranks: &mut [QmcEngine<T>],
    walkers: &mut Vec<Walker<T>>,
    params: &DmcParams,
) -> (DmcResult, ProfileSet, Exchange) {
    assert!(!ranks.is_empty(), "a run needs at least one rank");
    qmc_instrument::enable_ftz();
    let n = ranks.len();
    let mut profile = ProfileSet::with_groups(n);
    init_walkers(ranks, walkers, "rank init", &mut profile);
    let e0 = mean_local_energy(walkers);
    let mut state = DmcState::fresh(e0, params);
    let total = walkers.len();
    let mut rest = std::mem::take(walkers).into_iter();
    let mut books: Vec<Rank<T>> = (0..n)
        .map(|r| {
            let seed = params.seed ^ (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            Rank {
                walkers: rest.by_ref().take(chunk_len(total, n, r)).collect(),
                branch: BranchController::new(params.target_population, e0, params.tau, seed),
            }
        })
        .collect();
    let mut traffic = Exchange::default();

    while state.step < params.steps {
        let refresh = params.refreshes_at(state.step);
        let tasks = ranks.iter_mut().zip(books.iter_mut()).collect();
        let partials = fan_out_tasks(tasks, "rank", &mut profile, |lane, (engine, rank)| {
            let (accepted, attempted) = advance(
                lane,
                engine,
                &mut rank.walkers,
                params.tau,
                refresh,
                &rank.branch,
            );
            let w = &rank.walkers;
            let partial = Partial {
                esum: det_sum_by(w.len(), |i| w[i].weight * w[i].e_local),
                wsum: det_sum_by(w.len(), |i| w[i].weight),
                accepted,
                attempted,
                population: w.len(),
            };
            rank.branch.branch(&mut rank.walkers);
            partial
        });

        // The allreduce of E_L, weight and population, then the feedback
        // on the global trial energy, which every rank's reweighting and
        // branching then reads.
        let e_avg = state.record(
            partials.iter().map(|p| p.population).sum(),
            params.warmup,
            det_sum_by(n, |r| partials[r].esum),
            det_sum_by(n, |r| partials[r].wsum),
            partials.iter().map(|p| p.accepted).sum(),
            partials.iter().map(|p| p.attempted).sum(),
        );
        state.feedback(e_avg, books.iter().map(|r| r.walkers.len()).sum());
        for rank in &mut books {
            rank.branch.e_trial = state.branch.e_trial;
        }
        rebalance(&mut books, &mut traffic);
    }

    profile.merge_total(&drain_thread_profile());
    walkers.extend(books.into_iter().flat_map(|r| r.walkers));
    (state.into_result(), profile, traffic)
}

/// Moves walkers until the ranks hold the contiguous chunk shape of the
/// whole population: surplus ranks send their tail walkers, then deficit
/// ranks receive, each by ascending rank. A walker leaves its rank as a
/// serialized message with a re-keyed stream.
fn rebalance<T: Real>(ranks: &mut [Rank<T>], traffic: &mut Exchange) {
    let n = ranks.len();
    let total = ranks.iter().map(|r| r.walkers.len()).sum();
    let mut pool: Vec<Vec<u8>> = Vec::new();
    for (r, rank) in ranks.iter_mut().enumerate() {
        let keep = chunk_len(total, n, r);
        if rank.walkers.len() > keep {
            for mut w in rank.walkers.drain(keep..) {
                // Migration policy: decorrelate the stream before the
                // walker leaves this rank.
                reseed_for_migration(&mut w);
                let msg = serialize_walker(&w);
                traffic.walkers += 1;
                traffic.bytes += msg.len() as u64;
                pool.push(msg);
            }
        }
    }
    for (r, rank) in ranks.iter_mut().enumerate() {
        while rank.walkers.len() < chunk_len(total, n, r) {
            let Some(msg) = pool.pop() else { break };
            rank.walkers.push(deserialize_walker(&msg));
        }
    }
}
