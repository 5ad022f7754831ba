//! Deterministic task scheduling: the `qmcsched` seam.
//!
//! Every `scope` task set of this shim funnels its work through
//! [`run_tasks`]. By default tasks run concurrently on one OS thread each —
//! the behaviour real rayon's work-stealing pool approximates for our
//! coarse task sets. Installing a
//! [`Schedule`] via [`with_schedule`] replaces that free-running execution
//! with an explicitly enumerated thread interleaving: tasks still run on
//! distinct OS threads (so cross-thread memory effects stay real), but a
//! turn gate forces the order in which they start — and, for serialized
//! schedules, the order in which they run to completion.
//!
//! This is the loom-style lever the `qmcsched` harness uses to prove the
//! drivers are bitwise schedule-independent: the same run is repeated under
//! many permutations/interleavings and every per-walker result must come
//! out identical.

use std::sync::{Condvar, Mutex, PoisonError};

/// A total order over a task set, abstract in the task count: the concrete
/// permutation is derived per `run_tasks` call via [`Order::permutation`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Order {
    /// Spawn order: `0, 1, 2, ...`.
    Forward,
    /// Reversed spawn order.
    Reverse,
    /// Rotated by `k`: `k, k+1, ..., 0, ..., k-1`.
    Rotate(usize),
    /// All even ranks first, then the odd ranks.
    EvenOdd,
    /// Seeded Fisher–Yates shuffle (splitmix64 stream).
    Shuffle(u64),
}

impl Order {
    /// The concrete permutation for `n` tasks: `perm[k]` is the task index
    /// that takes the `k`-th turn.
    pub fn permutation(self, n: usize) -> Vec<usize> {
        let mut perm: Vec<usize> = (0..n).collect();
        match self {
            Order::Forward => {}
            Order::Reverse => perm.reverse(),
            Order::Rotate(k) => {
                if n > 0 {
                    perm.rotate_left(k % n);
                }
            }
            Order::EvenOdd => {
                let evens = (0..n).step_by(2);
                let odds = (1..n).step_by(2);
                perm = evens.chain(odds).collect();
            }
            Order::Shuffle(seed) => {
                let mut state = seed;
                let mut next = move || -> u64 {
                    // splitmix64: tiny, seedable, dependency-free.
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    z ^ (z >> 31)
                };
                for i in (1..n).rev() {
                    let j = (next() % (i as u64 + 1)) as usize;
                    perm.swap(i, j);
                }
            }
        }
        perm
    }
}

/// How a task set is mapped onto threads and time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Schedule {
    /// One OS thread per task, all released at once (the default; the OS
    /// scheduler decides the interleaving).
    Concurrent,
    /// One OS thread per task, but only one task runs at a time, in the
    /// given order: task `perm[k+1]` starts only after `perm[k]` returns.
    Serial(Order),
    /// One OS thread per task, all run concurrently, but the *starts* are
    /// released one by one in the given order.
    Staggered(Order),
}

impl Schedule {
    /// Short stable label for reports and test output.
    pub fn label(self) -> String {
        match self {
            Schedule::Concurrent => "concurrent".to_string(),
            Schedule::Serial(o) => format!("serial-{o:?}").to_lowercase(),
            Schedule::Staggered(o) => format!("staggered-{o:?}").to_lowercase(),
        }
    }
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

static ACTIVE: Mutex<Option<Schedule>> = Mutex::new(None);
static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// The schedule tasks currently execute under.
pub fn active() -> Schedule {
    lock(&ACTIVE).unwrap_or(Schedule::Concurrent)
}

struct Restore;
impl Drop for Restore {
    fn drop(&mut self) {
        *lock(&ACTIVE) = None;
    }
}

/// Runs `f` with `schedule` installed for every scope of this shim,
/// process-wide. Concurrent callers serialize on an internal guard so
/// explorations from different tests cannot interleave their installs.
pub fn with_schedule<R>(schedule: Schedule, f: impl FnOnce() -> R) -> R {
    let _excl = lock(&EXCLUSIVE);
    *lock(&ACTIVE) = Some(schedule);
    let _restore = Restore;
    f()
}

/// A turn gate: thread `k` blocks until the ticket reaches `k`.
struct TurnGate {
    ticket: Mutex<usize>,
    turned: Condvar,
}

impl TurnGate {
    fn new() -> Self {
        Self {
            ticket: Mutex::new(0),
            turned: Condvar::new(),
        }
    }

    fn wait_for(&self, rank: usize) {
        let mut t = lock(&self.ticket);
        while *t < rank {
            t = self.turned.wait(t).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn advance(&self) {
        *lock(&self.ticket) += 1;
        self.turned.notify_all();
    }
}

/// Executes a set of tasks under the active schedule. Tasks always run on
/// dedicated scoped OS threads; the schedule only controls their release
/// and completion order. Returns once every task has finished.
pub(crate) fn run_tasks<'env>(tasks: Vec<Box<dyn FnOnce() + Send + 'env>>) {
    let n = tasks.len();
    if n == 0 {
        return;
    }
    let sched = active();
    let order = match sched {
        Schedule::Concurrent => {
            std::thread::scope(|scope| {
                for t in tasks {
                    scope.spawn(t);
                }
            });
            return;
        }
        Schedule::Serial(o) | Schedule::Staggered(o) => o,
    };
    let serial = matches!(sched, Schedule::Serial(_));
    let perm = order.permutation(n);
    // rank[i] = turn at which task i runs.
    let mut rank = vec![0usize; n];
    for (k, &i) in perm.iter().enumerate() {
        rank[i] = k;
    }
    let gate = TurnGate::new();
    std::thread::scope(|scope| {
        for (i, task) in tasks.into_iter().enumerate() {
            let gate = &gate;
            let r = rank[i];
            scope.spawn(move || {
                gate.wait_for(r);
                if serial {
                    task();
                    gate.advance();
                } else {
                    gate.advance();
                    task();
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn observed_order(sched: Schedule, n: usize) -> Vec<usize> {
        let log = Mutex::new(Vec::new());
        with_schedule(sched, || {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..n)
                .map(|i| {
                    let log = &log;
                    Box::new(move || log.lock().unwrap().push(i)) as Box<dyn FnOnce() + Send>
                })
                .collect();
            run_tasks(tasks);
        });
        log.into_inner().unwrap()
    }

    #[test]
    fn serial_orders_are_enforced_exactly() {
        assert_eq!(
            observed_order(Schedule::Serial(Order::Reverse), 5),
            vec![4, 3, 2, 1, 0]
        );
        assert_eq!(
            observed_order(Schedule::Serial(Order::Rotate(2)), 5),
            vec![2, 3, 4, 0, 1]
        );
        assert_eq!(
            observed_order(Schedule::Serial(Order::EvenOdd), 5),
            vec![0, 2, 4, 1, 3]
        );
        let s = observed_order(Schedule::Serial(Order::Shuffle(7)), 6);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn permutations_are_deterministic() {
        assert_eq!(
            Order::Shuffle(11).permutation(8),
            Order::Shuffle(11).permutation(8)
        );
        assert_ne!(
            Order::Shuffle(11).permutation(8),
            Order::Shuffle(12).permutation(8)
        );
    }

    #[test]
    fn staggered_releases_every_task() {
        let count = AtomicUsize::new(0);
        with_schedule(Schedule::Staggered(Order::Reverse), || {
            let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = (0..7)
                .map(|_| {
                    let count = &count;
                    Box::new(move || {
                        count.fetch_add(1, Ordering::SeqCst);
                    }) as Box<dyn FnOnce() + Send>
                })
                .collect();
            run_tasks(tasks);
        });
        assert_eq!(count.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn active_restores_after_panic_free_run() {
        with_schedule(Schedule::Serial(Order::Forward), || {
            assert_eq!(active(), Schedule::Serial(Order::Forward));
        });
        // Sibling tests install schedules of their own on parallel threads;
        // with the install guard held none is in flight, so what `active`
        // reads is what the last `with_schedule` left behind.
        let _excl = lock(&EXCLUSIVE);
        assert_eq!(active(), Schedule::Concurrent);
    }
}
