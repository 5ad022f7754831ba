// fixture-path: crates/drivers/src/parallel_fixture.rs
// fixture-silences: shared-mutable-capture, parallel-reduction-order, rng-capture, schedule-coverage
//! The legal shapes of a parallel generation, all four concurrency rules
//! exercised and silent: mutations stay on task-local targets (the loop's
//! per-iteration chunk, closure `let`s), integer tallies merge under a
//! lock, every draw goes through the walker's own stream, the float
//! reduction flows through the deterministic pairwise tree, and the entry
//! point is registered with a live `qmcsched` case.

/// A registered parallel fan-out doing everything the blessed way.
pub fn fan_out(chunks: Vec<Chunk>, terms: &[f64], counts: &Mutex<Counts>) -> f64 {
    rayon::scope(|scope| {
        for (t, chunk) in chunks.into_iter().enumerate() {
            scope.spawn(move || {
                let mut moved = 0usize;
                for w in chunk.iter_mut() {
                    w.age = t;
                    let step: f64 = w.rng.random();
                    w.weight = step;
                    moved += 1;
                }
                let mut c = counts.lock();
                c.0 += moved;
            });
        }
    });
    det_sum_by(terms.len(), |i| terms[i])
}
