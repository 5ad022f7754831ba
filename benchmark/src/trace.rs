//! The benchmark's own span recorder: one span around every call the traced
//! pass makes into a layer. Spans stay in memory until the pass ends; the
//! per-layer table is computed from self times (a span's duration minus
//! what its child spans cover) and the spans are written once as a Chrome
//! `trace_event` file.

use crate::layers::json::JsonWriter;
use std::collections::BTreeMap;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the tracer was created.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanRec {
    /// `layer.call` name; the layer prefix is the crate the call enters.
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Index of the span that caused this one, or [`NO_PARENT`].
    pub parent: u32,
    /// Walker the work belongs to (the identifier spans of one walker-step
    /// share); `u32::MAX` for population-level work.
    pub walker: u32,
    /// Work items the call covers: 1, or the walkers of a batched call.
    pub units: u32,
}

impl SpanRec {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Single-threaded span recorder with an explicit open-span stack.
pub struct Tracer {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// Fresh recorder; span times count from now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, walker: u32) {
        self.open_units(name, walker, 1);
    }

    /// Opens a span around one batched call that covers `units` walkers.
    pub fn open_batch(&mut self, name: &'static str, units: usize) {
        self.open_units(name, u32::MAX, u32::try_from(units).unwrap_or(u32::MAX));
    }

    fn open_units(&mut self, name: &'static str, walker: u32, units: u32) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let index = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        self.open.push(index);
        let start_ns = self.now_ns();
        self.spans.push(SpanRec {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            walker,
            units,
        });
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        let end_ns = self.now_ns();
        let index = self.open.pop().expect("close without a matching open");
        self.spans[index as usize].end_ns = end_ns;
    }

    /// Recorded spans in open order (parents before their children).
    pub fn spans(&self) -> &[SpanRec] {
        debug_assert!(self.open.is_empty(), "spans still open");
        &self.spans
    }
}

/// Aggregate of every span sharing one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameTotal {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Work items those spans covered (equal to `calls` unless batched).
    pub units: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times.
    pub self_ns: u64,
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once, so a partially covering or
/// misreported child can never push a self time below zero. `spans` must
/// be in open order, as [`Tracer::spans`] returns them: a parent before
/// its children, siblings by start time.
pub fn self_times(spans: &[SpanRec]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    // Per parent, the end of the child coverage counted so far.
    let mut frontier: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = s.parent as usize;
        let start = s.start_ns.max(frontier[p]);
        let end = s.end_ns.min(spans[p].end_ns);
        if end > start {
            covered[p] += end - start;
            frontier[p] = end;
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.dur_ns() - c)
        .collect()
}

/// Per-name totals, ordered by name. The self times of all spans sum to
/// the duration of the root spans, so the `self_ns` column sums to the
/// traced wall.
pub fn totals_by_name(spans: &[SpanRec]) -> BTreeMap<&'static str, NameTotal> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.units += u64::from(s.units);
        t.total_ns += s.dur_ns();
        t.self_ns += self_ns;
    }
    out
}

/// Sum of the durations of the root spans: the traced wall.
pub fn root_wall_ns(spans: &[SpanRec]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == NO_PARENT)
        .map(SpanRec::dur_ns)
        .sum()
}

/// Renders at most `limit` spans (the earliest) as Chrome `trace_event`
/// JSON: complete (`ph: "X"`) events, `tid` = walker, with the causing
/// span's index in `args.parent`. `args.dropped` on the metadata record
/// says how many later spans were left out.
pub fn chrome_trace_json(process: &str, spans: &[SpanRec], limit: usize) -> String {
    let kept = &spans[..spans.len().min(limit)];
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("traceEvents");
    w.begin_arr();
    w.begin_obj();
    w.key("name").str_val("process_name");
    w.key("ph").str_val("M");
    w.key("pid").u64_val(1);
    w.key("tid").u64_val(0);
    w.key("args");
    w.begin_obj();
    w.key("name").str_val(process);
    w.key("spans").u64_val(spans.len() as u64);
    w.key("dropped").u64_val((spans.len() - kept.len()) as u64);
    w.end_obj();
    w.end_obj();
    for (index, s) in kept.iter().enumerate() {
        w.begin_obj();
        w.key("name").str_val(s.name);
        w.key("cat")
            .str_val(s.name.split('.').next().unwrap_or(s.name));
        w.key("ph").str_val("X");
        // trace_event timestamps are microseconds (fractional allowed).
        w.key("ts").f64_val(s.start_ns as f64 / 1e3);
        w.key("dur").f64_val(s.dur_ns() as f64 / 1e3);
        w.key("pid").u64_val(1);
        // Population-level spans share lane 0; walker `i` gets lane `i + 1`.
        w.key("tid").u64_val(u64::from(s.walker.wrapping_add(1)));
        w.key("args");
        w.begin_obj();
        w.key("id").u64_val(index as u64);
        if s.parent != NO_PARENT {
            w.key("parent").u64_val(u64::from(s.parent));
        }
        w.end_obj();
        w.end_obj();
    }
    w.end_arr();
    w.end_obj();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::json;

    fn rec(name: &'static str, start_ns: u64, end_ns: u64, parent: u32) -> SpanRec {
        SpanRec {
            name,
            start_ns,
            end_ns,
            parent,
            walker: 0,
            units: 1,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            rec("gen", 0, 100, NO_PARENT),
            rec("sweep", 10, 70, 0),
            rec("ratio", 20, 40, 1),
            rec("measure", 70, 90, 0),
        ];
        // gen: 100 - (60 + 20); sweep: 60 - 20; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![20, 40, 20, 20]);
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        assert_eq!(root_wall_ns(&spans), 100);
    }

    #[test]
    fn self_time_clips_partial_and_overlapping_children() {
        let spans = [
            rec("parent", 100, 200, NO_PARENT),
            // Starts before the parent: only [100, 120) counts.
            rec("early", 80, 120, 0),
            // Overlaps the previous child: only [120, 150) is new.
            rec("overlap", 110, 150, 0),
            // Runs past the parent's end: only [190, 200) counts.
            rec("late", 190, 260, 0),
            // Entirely outside: ignored.
            rec("outside", 300, 400, 0),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 20 - 30 - 10);
    }

    #[test]
    fn totals_sum_to_the_traced_wall() {
        let mut t = Tracer::new();
        t.open("drivers.generation", u32::MAX);
        for w in 0..3 {
            t.open("drivers.sweep", w);
            t.open("wavefunction.eval_grad", w);
            std::hint::black_box((0..1000).sum::<u64>());
            t.close();
            t.close();
        }
        t.close();
        let totals = totals_by_name(t.spans());
        assert_eq!(totals["drivers.sweep"].calls, 3);
        assert_eq!(totals["wavefunction.eval_grad"].calls, 3);
        let self_sum: u64 = totals.values().map(|n| n.self_ns).sum();
        assert_eq!(self_sum, root_wall_ns(t.spans()));
        assert_eq!(t.spans()[2].parent, 1);
        assert_eq!(t.spans()[0].parent, NO_PARENT);
    }

    #[test]
    fn chrome_trace_parses_back_and_reports_dropped_spans() {
        let spans = [
            rec("drivers.sweep", 0, 5000, NO_PARENT),
            rec("particles.make_move", 1000, 2500, 0),
            rec("particles.accept_move", 3000, 4000, 0),
        ];
        let text = chrome_trace_json("qmcbench \"t\"", &spans, 2);
        let v = json::parse(&text).expect("valid JSON");
        let events = v.get("traceEvents").unwrap().as_arr().unwrap();
        assert_eq!(events.len(), 3, "metadata + two kept spans");
        let meta = events[0].get("args").unwrap();
        assert_eq!(meta.get("dropped").unwrap().as_f64(), Some(1.0));
        assert_eq!(meta.get("name").unwrap().as_str(), Some("qmcbench \"t\""));
        let child = &events[2];
        assert_eq!(child.get("ph").unwrap().as_str(), Some("X"));
        assert_eq!(child.get("cat").unwrap().as_str(), Some("particles"));
        assert_eq!(child.get("ts").unwrap().as_f64(), Some(1.0));
        assert_eq!(child.get("dur").unwrap().as_f64(), Some(1.5));
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent").unwrap().as_f64(), Some(0.0));
        assert!(events[1].get("args").unwrap().get("parent").is_none());
    }
}
