// fixture-path: crates/instrument/src/par_capture_fixture.rs
//! Seeded bug: every spawned task writes its result through the same
//! captured `&mut` scalar. The tasks run concurrently (one spawn per loop
//! iteration), so the final value depends on which task finishes last —
//! a data race under real rayon, a schedule-dependent value under the
//! serialized shim. What fires is the spawn itself: threads start only in
//! the crew fan-out, whose schedules `qmcsched` sweeps, and the declared
//! path is outside the physics crates, so this also shows the spawn check
//! reaches every linted file.

/// Fans jobs out and lets them fight over one output slot.
pub fn fan_out_totals(jobs: &[Job], total: &mut f64) {
    rayon::scope(|scope| {
        for job in jobs {
            scope.spawn(move || { //~ determinism
                *total = job.run();
            });
        }
    });
}
