// fixture-path: crates/instrument/src/ledger_fixture.rs
// fixture-silences: determinism
//! Observability is not a physics crate: the trace and the ledger keep
//! their `Mutex`es (nothing they guard enters the Monte Carlo estimate).

use std::sync::Mutex;

/// Appends one event under the ledger lock.
pub fn record(ledger: &Mutex<Vec<u64>>, event: u64) {
    if let Ok(mut events) = ledger.lock() {
        events.push(event);
    }
}
