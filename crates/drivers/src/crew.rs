//! The walker crew: the one executor abstraction under both drivers (the
//! OpenMP level of Fig. 4 mapped onto scoped threads).
//!
//! A crew is a slice of [`Crew`] members, one per worker thread. A member
//! advances a lock-step block of up to [`Crew::width`] walkers: a
//! [`QmcEngine`] is the width-1 member (its scalar [`QmcEngine::sweep`],
//! one walker at a time); `qmc_crowd::Crowd` is the width-`W` member whose
//! sweep hands the wavefunction layer multi-walker batches. [`fan_out`]
//! splits the walkers into contiguous chunks, one per member, and hands the
//! member/chunk pairs to [`fan_out_tasks`], the generic fork-join the
//! simulated ranks of [`crate::ranks`] run on as well; a single task runs
//! on the calling thread.
//!
//! [`fan_out_tasks`] is the only function in the workspace that names
//! `rayon::scope` (the in-tree shim), so every thread the program starts is
//! subject to the deterministic schedules the `qmcsched` harness installs
//! via `rayon::schedule` — the lever behind the schedule-independence
//! (bitwise parity) checks — and the scope join is the only
//! synchronisation: no locks, no barriers.

use crate::engine::{QmcEngine, SweepStats};
use crate::walker::Walker;
use qmc_containers::Real;
use qmc_instrument::{drain_thread_profile, span, Profile, ProfileSet};

/// One member of a walker crew: engines for [`Crew::width`] walkers that
/// advance through the PbyP sweep together. Per-walker RNG streams and
/// floating-point sequences are the same for every implementation, so
/// results are bit-identical across crew kinds, widths and crew sizes.
pub trait Crew<T: Real>: Send {
    /// Trace-span name of this member's share of a DMC generation.
    const SPAN: &'static str;
    /// Whether each lock-step block gets its own `block N` trace span (a
    /// width-1 engine's block is a single walker and opens none).
    const BLOCK_SPANS: bool;

    /// Walkers advanced per lock-step block.
    fn width(&self) -> usize;

    /// The engine walker `s` of the current block is resident in.
    fn slot_mut(&mut self, s: usize) -> &mut QmcEngine<T>;

    /// From-scratch mixed-precision refresh of the first `nw` loaded slots.
    fn refresh_block(&mut self, nw: usize);

    /// One drift-diffusion sweep over the loaded `block` (`block[s]` is
    /// resident in slot `s`); writes each slot's statistics to `stats[s]`.
    fn sweep_block(&mut self, block: &mut [Walker<T>], tau: f64, stats: &mut [SweepStats]);
}

impl<T: Real> Crew<T> for QmcEngine<T> {
    const SPAN: &'static str = "worker block";
    const BLOCK_SPANS: bool = false;

    fn width(&self) -> usize {
        1
    }

    fn slot_mut(&mut self, _s: usize) -> &mut QmcEngine<T> {
        self
    }

    fn refresh_block(&mut self, _nw: usize) {
        self.refresh_from_scratch();
    }

    fn sweep_block(&mut self, block: &mut [Walker<T>], tau: f64, stats: &mut [SweepStats]) {
        stats[0] = self.sweep(tau, &mut block[0].rng);
    }
}

/// Splits `items` into `parts` contiguous chunks of near-equal size.
/// An empty slice yields no chunks at all (no idle worker threads).
fn chunks_mut<I>(items: &mut [I], parts: usize) -> Vec<&mut [I]> {
    let n = items.len();
    if n == 0 {
        return Vec::new();
    }
    let parts = parts.max(1).min(n);
    let base = n / parts;
    let extra = n % parts;
    let mut out = Vec::with_capacity(parts);
    let mut rest = items;
    for t in 0..parts {
        let take = base + usize::from(t < extra);
        let (head, tail) = rest.split_at_mut(take);
        out.push(head);
        rest = tail;
    }
    out
}

/// Runs `work(lane, task)` for every task (lane = task index) and returns
/// the results in task order. Tasks run on scoped worker threads; a single
/// task runs on the calling thread. Each task's kernel profile drains into
/// its own group of `profile` (group index = task index), so anything a
/// caller reduces from the returned values is independent of thread count
/// and task schedule. The only spawn site in the workspace.
pub(crate) fn fan_out_tasks<K: Send, R: Send>(
    tasks: Vec<K>,
    span_name: &'static str,
    profile: &mut ProfileSet,
    work: impl Fn(u64, K) -> R + Sync,
) -> Vec<R> {
    let run = |t: usize, task: K| -> (R, Profile) {
        qmc_instrument::enable_ftz();
        let _span = span(span_name, t as u64);
        let r = work(t as u64, task);
        (r, drain_thread_profile())
    };
    let mut done: Vec<Option<(R, Profile)>> = tasks.iter().map(|_| None).collect();
    if tasks.len() == 1 {
        // What the calling thread timed so far is the coordinator's.
        profile.merge_total(&drain_thread_profile());
        done[0] = tasks.into_iter().next().map(|task| run(0, task));
    } else {
        rayon::scope(|scope| {
            for (t, (task, slot)) in tasks.into_iter().zip(done.iter_mut()).enumerate() {
                let run = &run;
                #[expect(clippy::disallowed_methods, reason = "the program's one spawn site")]
                scope.spawn(move || *slot = Some(run(t, task)));
            }
        });
    }
    let mut results = Vec::with_capacity(done.len());
    for (t, (r, p)) in done.into_iter().flatten().enumerate() {
        profile.merge_group(t, &p);
        results.push(r);
    }
    results
}

/// Runs `work(lane, member, chunk)` for every crew member over its
/// contiguous chunk of `walkers` and returns the results in crew order
/// ([`fan_out_tasks`] over the member/chunk pairs), so anything a caller
/// reduces from the returned values or the stored walker fields is
/// independent of thread count, chunking and task schedule.
pub(crate) fn fan_out<T, C, R>(
    crew: &mut [C],
    walkers: &mut [Walker<T>],
    span_name: &'static str,
    profile: &mut ProfileSet,
    work: impl Fn(u64, &mut C, &mut [Walker<T>]) -> R + Sync,
) -> Vec<R>
where
    T: Real,
    C: Crew<T>,
    R: Send,
{
    let parts = crew.len();
    let tasks: Vec<_> = crew.iter_mut().zip(chunks_mut(walkers, parts)).collect();
    fan_out_tasks(tasks, span_name, profile, |lane, (member, chunk)| {
        work(lane, member, chunk)
    })
}

/// Initializes fresh walkers over the crew (slot 0 of each member).
pub(crate) fn init_walkers<T: Real, C: Crew<T>>(
    crew: &mut [C],
    walkers: &mut [Walker<T>],
    span_name: &'static str,
    profile: &mut ProfileSet,
) {
    fan_out(crew, walkers, span_name, profile, |_, member, chunk| {
        for w in chunk.iter_mut() {
            member.slot_mut(0).init_walker(w);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunking_covers_all_items() {
        let mut v: Vec<usize> = (0..10).collect();
        let chunks = chunks_mut(&mut v, 3);
        assert_eq!(chunks.len(), 3);
        let sizes: Vec<usize> = chunks.iter().map(|c| c.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 10);
        assert_eq!(sizes, vec![4, 3, 3]);
    }

    #[test]
    fn chunking_more_parts_than_items() {
        let mut v: Vec<usize> = (0..2).collect();
        let chunks = chunks_mut(&mut v, 8);
        assert_eq!(chunks.len(), 2);
    }

    #[test]
    fn chunking_empty_items_yields_no_chunks() {
        let mut v: Vec<usize> = Vec::new();
        assert!(chunks_mut(&mut v, 4).is_empty());
        assert!(chunks_mut(&mut v, 0).is_empty());
    }

    #[test]
    fn empty_population_fans_out_to_nothing() {
        let mut crew: Vec<QmcEngine<f64>> = Vec::new();
        let mut walkers: Vec<Walker<f64>> = Vec::new();
        let mut profile = ProfileSet::default();
        let out = fan_out(&mut crew, &mut walkers, "test", &mut profile, |_, _, _| 1);
        assert!(out.is_empty());
    }

    #[test]
    fn task_results_come_back_in_task_order_under_any_schedule() {
        use rayon::schedule::{with_schedule, Order, Schedule};
        let mut profile = ProfileSet::with_groups(5);
        let out = with_schedule(Schedule::Serial(Order::Reverse), || {
            fan_out_tasks((0..5u64).collect(), "test", &mut profile, |lane, k| {
                (lane, 10 * k)
            })
        });
        assert_eq!(out, [(0, 0), (1, 10), (2, 20), (3, 30), (4, 40)]);
    }

    #[test]
    fn a_single_task_runs_on_the_calling_thread() {
        let here = std::thread::current().id();
        let mut profile = ProfileSet::with_groups(2);
        let one = fan_out_tasks(vec![()], "test", &mut profile, |_, ()| {
            std::thread::current().id()
        });
        assert_eq!(one, [here]);
        let two = fan_out_tasks(vec![(), ()], "test", &mut profile, |_, ()| {
            std::thread::current().id()
        });
        assert!(two.iter().all(|id| *id != here), "two tasks fork");
    }
}
