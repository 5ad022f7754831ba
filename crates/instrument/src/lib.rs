//! # qmc-instrument
//!
//! Measurement infrastructure replacing the paper's tooling stack:
//!
//! * [`timer`] — per-kernel scoped timers for the hot-spot profiles of
//!   Fig. 2 / Fig. 7 (QMCPACK timer framework / Intel VTune).
//! * [`sanitize`] — finite checks at the accumulator boundaries and the
//!   mixed-precision drift counters, counted in the same per-thread
//!   profile as the timers.
//! * FLOP/byte counters on the same profile for the roofline's arithmetic
//!   intensity axis (Intel Advisor).
//! * [`roofline`] — a microbenchmark probe of the host's compute and
//!   bandwidth ceilings.
//! * [`memory`] — process RSS and huge-page backing for the footprint
//!   studies of Fig. 8 / Fig. 9.
//! * [`span`] — scoped per-crowd/per-block/per-step spans, collected per
//!   thread like the profile and exportable as Chrome `trace_event` JSON.
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
pub use memory::{anon_huge_bytes, current_rss_bytes};
pub use report::{RunReport, RUN_REPORT_SCHEMA};
pub use roofline::{probe_machine, RooflineMachine};
pub use sanitize::{
    check_drift, check_finite, record_refresh_drift, set_drift_tolerance, CheckKind, DriftStats,
    SanitizerStats, ALL_CHECKS, NUM_CHECKS,
};
pub use span::{
    append_trace_events, chrome_trace_json, enable_tracing, span, span_lazy, take_trace_events,
    trace_epoch, trace_worker, Span, TraceEvent,
};
pub use stream::{BlockEvent, StreamWriter, RUN_STREAM_SCHEMA};
pub use timer::{
    add_flops_bytes, drain_thread_profile, merge_thread_profile, time_kernel, Kernel, KernelStats,
    Profile, ProfileSet, ALL_KERNELS, NUM_KERNELS,
};
