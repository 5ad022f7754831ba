//! Scoped spans and Chrome `trace_event` export.
//!
//! Complements the flat per-kernel timers in [`crate::timer`] with a
//! timeline view: drivers open a span per generation/step, crowds and
//! worker threads open spans per walker block, and the whole run can be
//! dumped as a Chrome `trace_event` JSON loadable in `chrome://tracing` or
//! Perfetto. Spans never consume randomness or reorder work, so tracing
//! leaves every result bit unchanged.
//!
//! Tracing is per-thread state, collected like the kernel
//! [`crate::Profile`]: [`enable_tracing`] sets the calling thread's trace
//! epoch, and a span pushes into the buffer of the thread that closes it.
//! The crew fan-out hands each worker the coordinator's epoch
//! ([`trace_epoch`], [`trace_worker`]) and, after the join, appends each
//! worker's spans to the coordinator's buffer in task order
//! ([`append_trace_events`]). So a run's trace comes out in crew order,
//! a run on a thread that never enabled tracing records nothing, and the
//! disabled path is one thread-local read per span site.

use std::borrow::Cow;
use std::cell::{Cell, RefCell};
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

thread_local! {
    /// The calling thread's trace epoch; `None` while tracing is off.
    static EPOCH: Cell<Option<Instant>> = const { Cell::new(None) };
    /// The spans closed on this thread, oldest first.
    static EVENTS: RefCell<Vec<TraceEvent>> = const { RefCell::new(Vec::new()) };
}

/// Turns span collection on or off for the runs the calling thread
/// coordinates. Turning it on again keeps the epoch, so one trace file
/// stays on one timeline.
pub fn enable_tracing(on: bool) {
    EPOCH.set(on.then(|| EPOCH.get().unwrap_or_else(Instant::now)));
}

/// The calling thread's trace epoch (`None`: tracing off), for a fan-out
/// to hand to its workers.
pub fn trace_epoch() -> Option<Instant> {
    EPOCH.get()
}

/// Runs `f` on a fresh worker thread under the coordinator's `epoch` and
/// returns its result together with the spans it closed, for the
/// coordinator to [`append_trace_events`] after the join.
pub fn trace_worker<R>(epoch: Option<Instant>, f: impl FnOnce() -> R) -> (R, Vec<TraceEvent>) {
    EPOCH.set(epoch);
    let r = f();
    (r, take_trace_events())
}

/// Appends a worker's spans to the calling thread's buffer.
pub fn append_trace_events(events: Vec<TraceEvent>) {
    EVENTS.with_borrow_mut(|e| e.extend(events));
}

/// Takes and clears the calling thread's spans.
pub fn take_trace_events() -> Vec<TraceEvent> {
    EVENTS.take()
}

/// An open span; records itself on drop if tracing is still on. Cheap
/// no-op when tracing is off.
pub struct Span(Option<(Cow<'static, str>, u64, Instant)>);

impl Span {
    #[inline]
    fn open(name: impl FnOnce() -> Cow<'static, str>, lane: u64) -> Self {
        Span(EPOCH.get().map(|_| (name(), lane, Instant::now())))
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some((name, lane, start)), Some(epoch)) = (self.0.take(), EPOCH.get()) {
            let dur_ns = start.elapsed().as_nanos() as u64;
            let start_ns = start.duration_since(epoch).as_nanos() as u64;
            EVENTS.with_borrow_mut(|e| {
                e.push(TraceEvent {
                    name,
                    lane,
                    start_ns,
                    dur_ns,
                });
            });
        }
    }
}

/// Opens a span with a static name on `lane`. Returns a drop guard.
#[inline]
pub fn span(name: &'static str, lane: u64) -> Span {
    Span::open(|| Cow::Borrowed(name), lane)
}

/// Opens a span whose name is built only when tracing is on (avoids
/// `format!` allocations on the disabled path).
#[inline]
pub fn span_lazy(lane: u64, name: impl FnOnce() -> String) -> Span {
    Span::open(|| Cow::Owned(name()), lane)
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

    #[test]
    fn workers_trace_under_the_handed_epoch_and_come_back_in_task_order() {
        enable_tracing(true);
        take_trace_events();
        let epoch = trace_epoch();
        let workers: Vec<_> = std::thread::scope(|s| {
            let a = s.spawn(|| trace_worker(epoch, || drop(span("a", 0))));
            let b = s.spawn(|| trace_worker(epoch, || drop(span("b", 1))));
            let off = s.spawn(|| trace_worker(None, || drop(span("off", 2))));
            [b, a, off].map(|h| h.join().unwrap().1).into()
        });
        assert!(
            take_trace_events().is_empty(),
            "workers record on their own threads"
        );
        assert!(workers[2].is_empty(), "no epoch, no spans");
        for spans in workers {
            append_trace_events(spans);
        }
        enable_tracing(false);
        let names: Vec<_> = take_trace_events().into_iter().map(|e| e.name).collect();
        assert_eq!(names, ["b", "a"]);
    }
}
