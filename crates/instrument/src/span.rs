//! Scoped spans and Chrome `trace_event` export.
//!
//! Complements the flat per-kernel timers in [`crate::timer`] with a
//! timeline view: drivers open a span per generation/step, crowds and
//! worker threads open spans per walker block, and the whole run can be
//! dumped as a Chrome `trace_event` JSON loadable in `chrome://tracing` or
//! Perfetto. Collection is off by default behind a single relaxed atomic
//! load, so the disabled path costs one branch per span site and the
//! lock-step determinism of the crowd drivers is untouched (spans never
//! consume randomness or reorder work).
//!
//! Spans are coarse (per block / per generation, not per kernel call), so
//! they push into one global mutex-protected buffer. Worker threads in the
//! drivers are scoped and die each generation, which rules out
//! thread-local buffers drained at exit; the lock is touched only a few
//! times per generation per thread.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock, PoisonError};
use std::time::Instant;

use crate::json::JsonWriter;

/// One completed span on a lane.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Span name shown in the trace viewer.
    pub name: Cow<'static, str>,
    /// Lane (exported as `tid`): worker/crowd index, or the group count
    /// for driver-level spans.
    pub lane: u64,
    /// Start, nanoseconds since the trace epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static EVENTS: Mutex<Vec<TraceEvent>> = Mutex::new(Vec::new());

/// The event buffer. A span pushes one event and cannot leave it half
/// written, so a poisoned lock still guards whole events.
fn events() -> MutexGuard<'static, Vec<TraceEvent>> {
    EVENTS.lock().unwrap_or_else(PoisonError::into_inner)
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Turns span collection on or off. Off (the default) reduces every span
/// site to one relaxed atomic load.
pub fn enable_tracing(on: bool) {
    if on {
        epoch(); // pin the epoch before the first span
    }
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether span collection is currently on.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Takes and clears all collected events.
pub fn take_trace_events() -> Vec<TraceEvent> {
    std::mem::take(&mut *events())
}

/// An open span; records itself on drop. Cheap no-op when tracing is off.
pub struct Span(Option<(Cow<'static, str>, u64, Instant)>);

impl Span {
    fn open(name: Cow<'static, str>, lane: u64) -> Self {
        Span(Some((name, lane, Instant::now())))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((name, lane, start)) = self.0.take() {
            let dur_ns = start.elapsed().as_nanos() as u64;
            let start_ns = start.duration_since(epoch()).as_nanos() as u64;
            events().push(TraceEvent {
                name,
                lane,
                start_ns,
                dur_ns,
            });
        }
    }
}

/// Opens a span with a static name on `lane`. Returns a drop guard.
#[inline]
pub fn span(name: &'static str, lane: u64) -> Span {
    if tracing_enabled() {
        Span::open(Cow::Borrowed(name), lane)
    } else {
        Span(None)
    }
}

/// Opens a span whose name is built only when tracing is on (avoids
/// `format!` allocations on the disabled path).
#[inline]
pub fn span_lazy(lane: u64, name: impl FnOnce() -> String) -> Span {
    if tracing_enabled() {
        Span::open(Cow::Owned(name()), lane)
    } else {
        Span(None)
    }
}

/// Renders events as Chrome `trace_event` JSON (the "JSON Array Format"
/// wrapped in an object). Each span becomes a complete (`ph: "X"`) event;
/// lanes map to `tid` so each worker/crowd gets its own row.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("traceEvents");
    w.begin_arr();
    // Name the process once; viewers show it as the track group header.
    w.begin_obj();
    w.key("name").str_val("process_name");
    w.key("ph").str_val("M");
    w.key("pid").u64_val(1);
    w.key("tid").u64_val(0);
    w.key("args");
    w.begin_obj();
    w.key("name").str_val("qmc");
    w.end_obj();
    w.end_obj();
    for e in events {
        w.begin_obj();
        w.key("name").str_val(&e.name);
        w.key("cat").str_val("qmc");
        w.key("ph").str_val("X");
        // trace_event timestamps are microseconds (fractional allowed).
        w.key("ts").f64_val(e.start_ns as f64 / 1e3);
        w.key("dur").f64_val(e.dur_ns as f64 / 1e3);
        w.key("pid").u64_val(1);
        w.key("tid").u64_val(e.lane);
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    #[test]
    fn disabled_spans_record_nothing() {
        enable_tracing(false);
        take_trace_events();
        {
            let _s = span("should not appear", 0);
        }
        assert!(take_trace_events().is_empty());
    }

    #[test]
    fn enabled_spans_record_and_export() {
        enable_tracing(true);
        take_trace_events();
        {
            let _g = span("generation", 2);
            let _b = span_lazy(0, || format!("block {}", 7));
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        enable_tracing(false);
        let events = take_trace_events();
        assert_eq!(events.len(), 2);
        // Inner span drops first.
        assert_eq!(events[0].name, "block 7");
        assert_eq!(events[1].name, "generation");
        assert_eq!(events[1].lane, 2);
        assert!(events[1].dur_ns >= 500_000);

        let text = chrome_trace_json(&events);
        let v = json::parse(&text).expect("valid JSON");
        let evs = v.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata record + 2 spans.
        assert_eq!(evs.len(), 3);
        let gen = &evs[2];
        assert_eq!(gen.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(gen.get("tid").unwrap().as_f64(), Some(2.0));
        assert!(gen.get("dur").unwrap().as_f64().unwrap() >= 500.0);
    }
}
