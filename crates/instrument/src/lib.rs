//! # qmc-instrument
//!
//! Measurement infrastructure replacing the paper's tooling stack:
//!
//! * [`timer`] — per-kernel scoped timers for the hot-spot profiles of
//!   Fig. 2 / Fig. 7 (QMCPACK timer framework / Intel VTune).
//! * FLOP/byte counters on the same profile for the roofline's arithmetic
//!   intensity axis (Intel Advisor).
//! * [`roofline`] — a microbenchmark probe of the host's compute and
//!   bandwidth ceilings.
//! * [`memory`] — an allocation ledger plus process RSS for the footprint
//!   studies of Fig. 8 / Fig. 9.
//! * [`span`] — scoped per-thread/per-crowd/per-block spans exportable as
//!   Chrome `trace_event` JSON.
//! * [`report`] — the [`report::RunReport`] aggregate every front-end
//!   serializes (hand-rolled JSON via [`json`]).
//! * [`stream`] — newline-delimited streaming telemetry
//!   (`qmc-run-report-stream/1`): per-block deltas, trace spans and
//!   checkpoint markers appended live as a run progresses.

// Threads start only in the crew fan-out: no `spawn` here (`clippy.toml`).
#![cfg_attr(not(test), warn(clippy::disallowed_methods))]

pub mod ftz;
pub mod json;
pub mod memory;
pub mod report;
pub mod roofline;
pub mod sanitize;
pub mod span;
pub mod stream;
pub mod timer;

pub use ftz::enable_ftz;
pub use memory::{anon_huge_bytes, current_rss_bytes, MemoryLedger};
pub use report::{
    record_refresh_drift, take_drift_stats, DriftStats, RunReport, RUN_REPORT_SCHEMA,
};
pub use roofline::{probe_machine, RooflineMachine};
pub use sanitize::{
    check_drift, check_finite, sanitizer_enabled, sanitizer_stats, set_drift_tolerance,
    take_sanitizer_stats, CheckKind, SanitizerStats, ALL_CHECKS, NUM_CHECKS,
};
pub use span::{
    chrome_trace_json, enable_tracing, span, span_lazy, take_trace_events, tracing_enabled, Span,
    TraceEvent,
};
pub use stream::{BlockEvent, StreamWriter, RUN_STREAM_SCHEMA};
pub use timer::{
    add_flops_bytes, drain_thread_profile, merge_thread_profile, time_kernel, Kernel, KernelStats,
    Profile, ProfileSet, ALL_KERNELS, NUM_KERNELS,
};
