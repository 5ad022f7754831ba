//! Streaming run telemetry: `qmc-run-report-stream/1`.
//!
//! The end-of-run [`crate::RunReport`] is useless to a supervisor watching
//! a long production job — by the time it exists, the job is over. This
//! module streams the same observability data incrementally: one JSON
//! record per line (NDJSON), appended and flushed as each driver
//! block/generation completes, so `tail -f` (or the supervisor that
//! decides when to kill and resume a job) sees progress live.
//!
//! Record kinds, discriminated by the `"event"` key:
//!
//! * `start` — run identity: driver, benchmark, code, backend, shape, and
//!   the step a resumed run continues from. Carries the schema tag.
//! * `block` — one completed block/generation: the [`BlockEvent`] delta.
//! * `trace` — one Chrome-style span ([`TraceEvent`]), when tracing is on.
//! * `checkpoint` — a checkpoint file was written at this step.
//! * `end` — final scalars (the run-report headline numbers) plus the
//!   FNV-1a population hash the resume-parity gates compare.
//!
//! Every line is a complete JSON object; a reader can join a stream at
//! any point and resynchronize at the next newline.

use crate::json::JsonWriter;
use crate::span::TraceEvent;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Write};

/// Schema tag carried by the `start` record of every stream.
pub const RUN_STREAM_SCHEMA: &str = "qmc-run-report-stream/1";

/// Per-block delta a driver reports as the block completes. Cumulative
/// counters (samples, accepted/attempted) let a reader that joined late
/// still compute rates; NaN-valued fields (e.g. `e_trial` for VMC, which
/// has no trial energy) serialize as `null`.
#[derive(Clone, Copy, Debug)]
pub struct BlockEvent {
    /// Driver kind: `"vmc"` or `"dmc"`.
    pub driver: &'static str,
    /// Completed steps/blocks so far (this event reports step `step - 1`).
    pub step: u64,
    /// Total steps/blocks the run will execute.
    pub steps_total: u64,
    /// Walker population after this block's branching.
    pub population: u64,
    /// Cumulative Monte Carlo samples (post-warmup).
    pub samples: u64,
    /// Cumulative accepted single-particle moves.
    pub accepted: u64,
    /// Cumulative attempted single-particle moves.
    pub attempted: u64,
    /// This block's energy estimate.
    pub e_block: f64,
    /// Trial energy after this block's feedback update (NaN for VMC).
    pub e_trial: f64,
    /// This block's total statistical weight (NaN for VMC).
    pub weight: f64,
}

/// Newline-delimited JSON sink for streaming run telemetry. Every record
/// is written and flushed immediately — the cost is negligible next to a
/// DMC generation, and it is what makes the stream watchable live.
pub struct StreamWriter {
    out: BufWriter<File>,
}

impl StreamWriter {
    /// Creates (truncating) a stream at `path` — a fresh run.
    pub fn create(path: &str) -> std::io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(File::create(path)?),
        })
    }

    /// Opens `path` for append — a resumed run continues its stream.
    pub fn append(path: &str) -> std::io::Result<Self> {
        Ok(Self {
            out: BufWriter::new(OpenOptions::new().create(true).append(true).open(path)?),
        })
    }

    fn emit(&mut self, line: &str) -> std::io::Result<()> {
        self.out.write_all(line.as_bytes())?;
        self.out.write_all(b"\n")?;
        self.out.flush()
    }

    /// Writes the `start` record identifying the run.
    #[expect(clippy::too_many_arguments, reason = "one argument per record field")]
    pub fn start(
        &mut self,
        driver: &str,
        benchmark: &str,
        code: &str,
        backend: &str,
        threads: usize,
        walkers: usize,
        steps: usize,
        resumed_from_step: Option<u64>,
    ) -> std::io::Result<()> {
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("schema").str_val(RUN_STREAM_SCHEMA);
        j.key("event").str_val("start");
        j.key("driver").str_val(driver);
        j.key("benchmark").str_val(benchmark);
        j.key("code").str_val(code);
        j.key("kernel_backend").str_val(backend);
        j.key("threads").u64_val(threads as u64);
        j.key("walkers").u64_val(walkers as u64);
        j.key("steps").u64_val(steps as u64);
        if let Some(step) = resumed_from_step {
            j.key("resumed_from_step").u64_val(step);
        }
        j.end_obj();
        self.emit(&j.finish())
    }

    /// Writes one `block` record.
    pub fn block(&mut self, ev: &BlockEvent) -> std::io::Result<()> {
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("event").str_val("block");
        j.key("driver").str_val(ev.driver);
        j.key("step").u64_val(ev.step);
        j.key("steps_total").u64_val(ev.steps_total);
        j.key("population").u64_val(ev.population);
        j.key("samples").u64_val(ev.samples);
        j.key("accepted").u64_val(ev.accepted);
        j.key("attempted").u64_val(ev.attempted);
        j.key("e_block").f64_val(ev.e_block);
        j.key("e_trial").f64_val(ev.e_trial);
        j.key("weight").f64_val(ev.weight);
        j.end_obj();
        self.emit(&j.finish())
    }

    /// Writes one `trace` record per span (same fields as the Chrome
    /// trace export, microsecond units).
    pub fn trace_events(&mut self, events: &[TraceEvent]) -> std::io::Result<()> {
        for ev in events {
            let mut j = JsonWriter::new();
            j.begin_obj();
            j.key("event").str_val("trace");
            j.key("name").str_val(&ev.name);
            j.key("lane").u64_val(ev.lane);
            j.key("ts_us").f64_val(ev.start_ns as f64 / 1000.0);
            j.key("dur_us").f64_val(ev.dur_ns as f64 / 1000.0);
            j.end_obj();
            self.emit(&j.finish())?;
        }
        Ok(())
    }

    /// Writes a `checkpoint` record: a checkpoint landed at `step`.
    pub fn checkpoint(&mut self, step: u64, path: &str) -> std::io::Result<()> {
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("event").str_val("checkpoint");
        j.key("step").u64_val(step);
        j.key("path").str_val(path);
        j.end_obj();
        self.emit(&j.finish())
    }

    /// Writes the `end` record with the run's headline scalars and the
    /// final population hash.
    pub fn end(
        &mut self,
        seconds: f64,
        samples: u64,
        energy_mean: f64,
        energy_err: f64,
        acceptance: f64,
        walker_hash: u64,
    ) -> std::io::Result<()> {
        let mut j = JsonWriter::new();
        j.begin_obj();
        j.key("event").str_val("end");
        j.key("seconds").f64_val(seconds);
        j.key("samples").u64_val(samples);
        j.key("energy_mean").f64_val(energy_mean);
        j.key("energy_err").f64_val(energy_err);
        j.key("acceptance").f64_val(acceptance);
        j.key("walker_hash").str_val(&format!("{walker_hash:016x}"));
        j.end_obj();
        self.emit(&j.finish())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    #[test]
    fn stream_lines_are_valid_json_records() {
        let dir = std::env::temp_dir();
        let path = dir.join("qmc_stream_test.ndjson");
        let path = path.to_str().expect("utf-8 temp path").to_string();
        let mut s = StreamWriter::create(&path).expect("create stream");
        s.start("dmc", "graphite", "current", "simd", 2, 4, 6, None)
            .expect("start");
        s.block(&BlockEvent {
            driver: "dmc",
            step: 1,
            steps_total: 6,
            population: 4,
            samples: 0,
            accepted: 10,
            attempted: 12,
            e_block: -1.5,
            e_trial: -1.4,
            weight: 4.0,
        })
        .expect("block");
        s.checkpoint(1, "ck.qmc").expect("checkpoint");
        s.end(0.25, 16, -1.5, 0.01, 0.9, 0xDEAD_BEEF).expect("end");
        drop(s);

        let text = std::fs::read_to_string(&path).expect("read back");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let events: Vec<String> = lines
            .iter()
            .map(|l| {
                let v = parse(l).expect("line parses");
                v.get("event")
                    .and_then(|e| e.as_str())
                    .expect("has event")
                    .to_string()
            })
            .collect();
        assert_eq!(events, ["start", "block", "checkpoint", "end"]);
        let first = parse(lines[0]).expect("start parses");
        assert_eq!(
            first.get("schema").and_then(|s| s.as_str()),
            Some(RUN_STREAM_SCHEMA)
        );
        let last = parse(lines[3]).expect("end parses");
        assert_eq!(
            last.get("walker_hash").and_then(|s| s.as_str()),
            Some("00000000deadbeef")
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn vmc_nan_fields_serialize_as_null() {
        let dir = std::env::temp_dir();
        let path = dir.join("qmc_stream_nan_test.ndjson");
        let path = path.to_str().expect("utf-8 temp path").to_string();
        let mut s = StreamWriter::create(&path).expect("create stream");
        s.block(&BlockEvent {
            driver: "vmc",
            step: 1,
            steps_total: 2,
            population: 3,
            samples: 9,
            accepted: 1,
            attempted: 2,
            e_block: -0.5,
            e_trial: f64::NAN,
            weight: f64::NAN,
        })
        .expect("block");
        drop(s);
        let text = std::fs::read_to_string(&path).expect("read back");
        assert!(text.contains("\"e_trial\":null"), "{text}");
        parse(text.trim()).expect("null fields still parse");
        std::fs::remove_file(&path).ok();
    }
}
