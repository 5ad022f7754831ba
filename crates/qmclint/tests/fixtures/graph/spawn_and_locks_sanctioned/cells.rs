// fixture-path: crates/instrument/src/cells_fixture.rs
// fixture-silences: determinism
//! Observability is not a physics crate: the timer keeps its per-thread
//! cells (nothing they hold enters the Monte Carlo estimate).

use std::cell::{Cell, RefCell};

/// A per-thread call counter and event log.
pub struct Ledger {
    calls: Cell<u64>,
    events: RefCell<Vec<u64>>,
}

impl Ledger {
    /// Counts one call and records its event through a `&` receiver.
    pub fn record(&self, event: u64) {
        self.calls.set(self.calls.get() + 1);
        self.events.borrow_mut().push(event);
    }
}
