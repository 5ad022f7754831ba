//! Minimal offline stand-in for `rayon`.
//!
//! Provides the scoped task API the workspace uses (`scope(|s|
//! s.spawn(...))`) on top of `std::thread::scope`: one OS thread per
//! spawned task, joined when the scope returns. Closures must be `Send`
//! exactly as with real rayon, so swapping the registry crate back in is a
//! one-line manifest change.
//!
//! Unlike real rayon, a scope routes its task set through
//! [`schedule::run_tasks`], so the `qmcsched` harness can replace the free
//! OS interleaving with explicitly enumerated deterministic schedules (see
//! [`schedule`]).

// Vendored stand-in: the API shape (names, signatures, by-value arguments)
// mirrors the external crate verbatim, so pedantic style lints don't apply.
#![allow(clippy::pedantic)]
#![forbid(unsafe_code)]

pub mod schedule;

/// The scoped-spawn entry points this shim exposes, re-stated as data.
/// `qmclint`'s `determinism` rule recognizes thread spawns lexically (this
/// crate is lint-exempt), so its `config::SPAWN_METHODS` list must mirror
/// the real API surface — the mirror test below pins the two together.
/// Extending the spawn API without extending both lists is a test
/// failure, not a silent analysis gap.
pub const SPAWN_METHODS: [&str; 1] = ["spawn"];

/// A scoped task set, after `rayon::Scope`: tasks spawned here are
/// guaranteed to complete before [`scope`] returns.
///
/// Tasks are collected and launched together when the scope closure
/// returns, so the active [`schedule::Schedule`] sees the whole task set at
/// once (real rayon starts them eagerly; none of our call sites observe the
/// difference — the spawning loop does no other work).
pub struct Scope<'scope> {
    tasks: std::cell::RefCell<Vec<Box<dyn FnOnce() + Send + 'scope>>>,
}

impl<'scope> Scope<'scope> {
    /// Queues `body` for execution within this scope.
    pub fn spawn<F>(&self, body: F)
    where
        F: FnOnce() + Send + 'scope,
    {
        self.tasks.borrow_mut().push(Box::new(body));
    }
}

/// Creates a scope for spawning borrowing tasks; all spawned tasks finish
/// before the call returns. Mirrors `rayon::scope` for the no-argument
/// closure shape the workspace uses.
pub fn scope<'scope, F, R>(f: F) -> R
where
    F: FnOnce(&Scope<'scope>) -> R,
{
    let s = Scope {
        tasks: std::cell::RefCell::new(Vec::new()),
    };
    let r = f(&s);
    schedule::run_tasks(s.tasks.into_inner());
    r
}

#[cfg(test)]
mod tests {
    #[test]
    fn spawn_api_mirrors_qmclint_config() {
        // The linter recognizes spawn calls lexically; this is the pin that
        // keeps its method list equal to the API this shim actually
        // exposes.
        assert_eq!(crate::SPAWN_METHODS, qmclint::config::SPAWN_METHODS);
    }
}
