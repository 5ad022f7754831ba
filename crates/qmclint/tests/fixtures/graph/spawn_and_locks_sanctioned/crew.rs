// fixture-path: crates/drivers/src/crew.rs
// fixture-silences: determinism
//! The one sanctioned spawn site: the crew fan-out may start threads, and
//! a `#[cfg(test)]` item may name any of the policed tokens.

/// Forks one task per job and joins them at the end of the scope.
pub fn fan_out_tasks(jobs: Vec<Job>) {
    rayon::scope(|scope| {
        for job in jobs {
            scope.spawn(move || job.run());
        }
    });
}

#[cfg(test)]
mod tests {
    use std::sync::{Barrier, Mutex};

    #[test]
    fn tests_may_lock_and_spawn() {
        let log = Mutex::new(Vec::new());
        let gate = Barrier::new(1);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.wait();
                log.lock().unwrap().push(1);
            });
        });
    }
}
