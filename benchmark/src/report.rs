//! Metric names, units and bounds (mirrored by `BENCHMARK.json`), the
//! per-layer metrics computed from a traced run, and the output formats.

use crate::layers::json::{self, JsonValue, JsonWriter};
use crate::layers::{KernelRow, LinalgTimes, Machine, SetUp, TracedPass};
use crate::trace::NameTotal;
use std::collections::BTreeMap;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    /// Name, as printed and as in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str, bound: Option<f64>) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound,
    }
}

/// The end-to-end metrics. `failed_share` is carried by the `failed` /
/// `attempted` counts of the result line: it is 0 on a correct run, and
/// the contract admits no metric that can be 0. The 90th-percentile
/// walker-step is a per-layer metric (`drivers.walker_step_ms_p90`): its
/// run-to-run spread on the memory-bound workload exceeded any bound the
/// contract allows.
pub fn end_to_end_defs() -> Vec<MetricDef> {
    vec![
        def("setup_s", "s", "lower", Some(0.25)),
        def("samples_per_s", "1/s", "higher", Some(0.25)),
        def("walker_step_ms_p50", "ms", "lower", Some(0.25)),
        def("peak_rss_mib", "MiB", "lower", Some(0.25)),
        def("walker_kib", "KiB", "lower", Some(0.01)),
    ]
}

const LOWER: &str = "lower";
const HIGHER: &str = "higher";

/// The per-layer metrics, in report order. `kernels` are the labels of the
/// program's kernel categories.
pub fn per_layer_defs(kernels: &[&'static str]) -> Vec<MetricDef> {
    let fixed: [(&str, &'static str, &'static str); 55] = [
        ("workloads.new_s", "s", LOWER),
        ("workloads.engine_build_s", "s", LOWER),
        ("workloads.engine_mib", "MiB", LOWER),
        ("workloads.ref_speedup", "x", HIGHER),
        ("bspline.table_build_s", "s", LOWER),
        ("bspline.table_mib", "MiB", LOWER),
        ("drivers.init_walker_ms", "ms", LOWER),
        ("drivers.load_walker_us", "us", LOWER),
        ("drivers.store_walker_us", "us", LOWER),
        ("drivers.refresh_ms", "ms", LOWER),
        ("drivers.sweep_ms", "ms", LOWER),
        ("drivers.sweep_self_share", "share", LOWER),
        ("drivers.measure_ms", "ms", LOWER),
        ("drivers.walker_step_ms_p90", "ms", LOWER),
        ("drivers.branch_us", "us", LOWER),
        ("drivers.branch_copies", "count", LOWER),
        ("drivers.reduce_us", "us", LOWER),
        ("drivers.unattributed_share", "share", LOWER),
        ("drivers.thread_efficiency", "share", HIGHER),
        ("drivers.accept_ratio", "share", HIGHER),
        ("drivers.population_min", "count", HIGHER),
        ("drivers.population_max", "count", LOWER),
        ("drivers.checkpoint_write_ms", "ms", LOWER),
        ("drivers.checkpoint_read_ms", "ms", LOWER),
        ("drivers.checkpoint_mib", "MiB", LOWER),
        ("crowd.sweep_ms", "ms", LOWER),
        ("crowd.refresh_block_ms", "ms", LOWER),
        ("crowd.generation_ms", "ms", LOWER),
        ("crowd.per_walker_ratio", "x", HIGHER),
        ("particles.prepare_move_ns", "ns", LOWER),
        ("particles.make_move_ns", "ns", LOWER),
        ("particles.accept_move_ns", "ns", LOWER),
        ("particles.reject_move_ns", "ns", LOWER),
        ("particles.load_positions_us", "us", LOWER),
        ("wavefunction.eval_grad_ns", "ns", LOWER),
        ("wavefunction.calc_ratio_grad_ns", "ns", LOWER),
        ("wavefunction.accept_move_ns", "ns", LOWER),
        ("wavefunction.reject_move_ns", "ns", LOWER),
        ("wavefunction.evaluate_log_ms", "ms", LOWER),
        ("wavefunction.update_gl_ms", "ms", LOWER),
        ("wavefunction.save_state_us", "us", LOWER),
        ("wavefunction.load_state_us", "us", LOWER),
        ("linalg.invert_ms", "ms", LOWER),
        ("linalg.det_ratio_row_ns", "ns", LOWER),
        ("linalg.sm_update_us", "us", LOWER),
        ("linalg.delayed_accept_us", "us", LOWER),
        ("hamiltonian.kinetic_us", "us", LOWER),
        ("hamiltonian.coulomb_ee_us", "us", LOWER),
        ("hamiltonian.coulomb_ei_us", "us", LOWER),
        ("hamiltonian.nlpp_ms", "ms", LOWER),
        ("instrument.peak_gflops", "GFLOP/s", HIGHER),
        ("instrument.stream_gbs", "GB/s", HIGHER),
        ("instrument.timer_scope_ns", "ns", LOWER),
        ("instrument.trace_overhead_ratio", "x", LOWER),
        ("trace.parity", "count", HIGHER),
    ];
    let mut defs: Vec<MetricDef> = fixed
        .iter()
        .map(|&(name, unit, better)| def(name, unit, better, None))
        .collect();
    for k in kernels {
        defs.push(def(
            &format!("kernels.{k}.busy_share"),
            "share",
            LOWER,
            None,
        ));
        defs.push(def(&format!("kernels.{k}.ns_per_call"), "ns", LOWER, None));
        defs.push(def(&format!("kernels.{k}.calls"), "count", LOWER, None));
        defs.push(def(
            &format!("kernels.{k}.roofline_frac"),
            "share",
            HIGHER,
            None,
        ));
    }
    defs
}

/// Measured values by metric name.
pub type Values = BTreeMap<String, f64>;

/// Span totals by name, absent names reading as zero.
pub struct Spans<'a>(pub &'a BTreeMap<&'static str, NameTotal>);

impl Spans<'_> {
    fn get(&self, name: &str) -> NameTotal {
        self.0.get(name).copied().unwrap_or_default()
    }

    /// Mean nanoseconds per work item over the spans of all `names`.
    fn unit_ns(&self, names: &[&str]) -> f64 {
        let (ns, units) = names.iter().fold((0u64, 0u64), |(ns, units), n| {
            let t = self.get(n);
            (ns + t.total_ns, units + t.units)
        });
        if units == 0 {
            0.0
        } else {
            ns as f64 / units as f64
        }
    }

    /// Share of the named spans' time that no child span covers.
    fn self_share(&self, names: &[&str]) -> f64 {
        let (self_ns, total) = names.iter().fold((0u64, 0u64), |(s, t), n| {
            let x = self.get(n);
            (s + x.self_ns, t + x.total_ns)
        });
        if total == 0 {
            0.0
        } else {
            self_ns as f64 / total as f64
        }
    }
}

/// What the untraced rounds of a traced run contribute.
#[derive(Clone, Copy, Debug, Default)]
pub struct RoundFacts {
    /// The traced loops ended on the real driver's population digest.
    pub parity: bool,
    /// Throughput of the end-to-end configuration.
    pub samples_per_s: f64,
    /// Throughput of the same system on a crew of `CREW_THREADS` threads
    /// (0 for the serial VMC driver).
    pub crew_samples_per_s: f64,
    /// 90th percentile over the real-driver run's generations of wall /
    /// walker-steps per thread.
    pub walker_step_ms_p90: f64,
    /// Worker threads of the end-to-end configuration.
    pub threads: usize,
    /// Wall seconds of the end-to-end round's driver call.
    pub loop_seconds: f64,
    /// Acceptance ratio.
    pub acceptance: f64,
    /// Smallest population seen.
    pub population_min: usize,
    /// Largest population seen.
    pub population_max: usize,
    /// Per-walker throughput of the same system (crowd workloads), else 0.
    pub per_walker_samples_per_s: f64,
    /// `Ref` code throughput of the same shape (Table 2), else 0.
    pub ref_samples_per_s: f64,
}

/// Everything a traced run measured, folded into the per-layer values.
pub fn per_layer_values(
    spans: &Spans<'_>,
    set_up: &SetUp,
    pass: &TracedPass,
    facts: &RoundFacts,
    kernels: &[KernelRow],
    machine: &Machine,
    linalg: &LinalgTimes,
) -> Values {
    const MIB: f64 = 1024.0 * 1024.0;
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut v = Values::new();
    let mut put = |name: &str, value: f64| {
        v.insert(name.to_string(), value);
    };
    put("workloads.new_s", set_up.new_s);
    put("workloads.engine_build_s", set_up.engines_s);
    put("workloads.engine_mib", set_up.engine_bytes as f64 / MIB);
    put(
        "workloads.ref_speedup",
        ratio(facts.samples_per_s, facts.ref_samples_per_s),
    );
    put("bspline.table_build_s", set_up.table_s);
    put("bspline.table_mib", set_up.table_bytes as f64 / MIB);

    // Whole calls come from undissected generations only, so span overhead
    // inside them does not inflate the driver-level numbers.
    put(
        "drivers.init_walker_ms",
        spans.unit_ns(&["drivers.init_walker"]) / 1e6,
    );
    put(
        "drivers.load_walker_us",
        spans.unit_ns(&["drivers.load_walker"]) / 1e3,
    );
    put(
        "drivers.store_walker_us",
        spans.unit_ns(&["drivers.store_walker"]) / 1e3,
    );
    put(
        "drivers.refresh_ms",
        spans.unit_ns(&["drivers.refresh"]) / 1e6,
    );
    put("drivers.sweep_ms", spans.unit_ns(&["drivers.sweep"]) / 1e6);
    put(
        "drivers.sweep_self_share",
        spans.self_share(&["drivers.sweep_dissected", "crowd.sweep_dissected"]),
    );
    put(
        "drivers.measure_ms",
        spans.unit_ns(&["drivers.measure"]) / 1e6,
    );
    put("drivers.walker_step_ms_p90", facts.walker_step_ms_p90);
    put(
        "drivers.branch_us",
        spans.unit_ns(&["drivers.branch"]) / 1e3,
    );
    put("drivers.branch_copies", pass.branch_copies as f64);
    put(
        "drivers.reduce_us",
        spans.unit_ns(&["drivers.reduce"]) / 1e3,
    );
    let busy: f64 = kernels.iter().map(|k| k.seconds).sum();
    let thread_seconds = facts.loop_seconds * facts.threads as f64;
    put(
        "drivers.unattributed_share",
        1.0 - ratio(busy, thread_seconds),
    );
    put(
        "drivers.thread_efficiency",
        ratio(
            facts.crew_samples_per_s,
            crate::layers::CREW_THREADS as f64 * facts.samples_per_s,
        ),
    );
    put("drivers.accept_ratio", facts.acceptance);
    put("drivers.population_min", facts.population_min as f64);
    put("drivers.population_max", facts.population_max as f64);
    put(
        "drivers.checkpoint_write_ms",
        spans.unit_ns(&["drivers.checkpoint_write"]) / 1e6,
    );
    put(
        "drivers.checkpoint_read_ms",
        spans.unit_ns(&["drivers.checkpoint_read"]) / 1e6,
    );
    put("drivers.checkpoint_mib", pass.checkpoint_bytes as f64 / MIB);

    put("crowd.sweep_ms", spans.unit_ns(&["crowd.sweep"]) / 1e6);
    // Refresh generations (every 16th) are even, hence always dissected;
    // the dissected refresh is one batched call under one extra span.
    put(
        "crowd.refresh_block_ms",
        spans.unit_ns(&["crowd.refresh_block", "crowd.refresh_block_dissected"]) / 1e6,
    );
    put(
        "crowd.generation_ms",
        spans.unit_ns(&["crowd.generation"]) / 1e6,
    );
    put(
        "crowd.per_walker_ratio",
        ratio(facts.samples_per_s, facts.per_walker_samples_per_s),
    );

    for call in ["prepare_move", "make_move", "accept_move", "reject_move"] {
        put(
            &format!("particles.{call}_ns"),
            spans.unit_ns(&[&format!("particles.{call}")]),
        );
    }
    put(
        "particles.load_positions_us",
        spans.unit_ns(&["particles.load_positions"]) / 1e3,
    );
    for call in ["eval_grad", "calc_ratio_grad", "accept_move", "reject_move"] {
        put(
            &format!("wavefunction.{call}_ns"),
            spans.unit_ns(&[&format!("wavefunction.{call}")]),
        );
    }
    put(
        "wavefunction.evaluate_log_ms",
        spans.unit_ns(&["wavefunction.evaluate_log"]) / 1e6,
    );
    put(
        "wavefunction.update_gl_ms",
        spans.unit_ns(&["wavefunction.update_gl"]) / 1e6,
    );
    put(
        "wavefunction.save_state_us",
        spans.unit_ns(&["wavefunction.save_state"]) / 1e3,
    );
    put(
        "wavefunction.load_state_us",
        spans.unit_ns(&["wavefunction.load_state"]) / 1e3,
    );

    put("linalg.invert_ms", linalg.invert_ms);
    put("linalg.det_ratio_row_ns", linalg.det_ratio_row_ns);
    put("linalg.sm_update_us", linalg.sm_update_us);
    put("linalg.delayed_accept_us", linalg.delayed_accept_us);

    put(
        "hamiltonian.kinetic_us",
        spans.unit_ns(&["hamiltonian.kinetic"]) / 1e3,
    );
    put(
        "hamiltonian.coulomb_ee_us",
        spans.unit_ns(&["hamiltonian.coulomb_ee"]) / 1e3,
    );
    put(
        "hamiltonian.coulomb_ei_us",
        spans.unit_ns(&["hamiltonian.coulomb_ei"]) / 1e3,
    );
    put(
        "hamiltonian.nlpp_ms",
        spans.unit_ns(&["hamiltonian.nlpp"]) / 1e6,
    );

    put("instrument.peak_gflops", machine.peak_gflops);
    put("instrument.stream_gbs", machine.stream_gbs);
    put("instrument.timer_scope_ns", machine.timer_scope_ns);
    let whole =
        spans.unit_ns(&["drivers.sweep", "crowd.sweep"]) + spans.unit_ns(&["drivers.measure"]);
    let dissected = spans.unit_ns(&["drivers.sweep_dissected", "crowd.sweep_dissected"])
        + spans.unit_ns(&["drivers.measure_dissected"]);
    put("instrument.trace_overhead_ratio", ratio(dissected, whole));
    put("trace.parity", if facts.parity { 1.0 } else { 0.0 });

    for k in kernels {
        put(
            &format!("kernels.{}.busy_share", k.label),
            ratio(k.seconds, thread_seconds),
        );
        put(
            &format!("kernels.{}.ns_per_call", k.label),
            ratio(k.seconds * 1e9, k.calls as f64),
        );
        put(&format!("kernels.{}.calls", k.label), k.calls as f64);
        put(
            &format!("kernels.{}.roofline_frac", k.label),
            roofline_frac(k, machine),
        );
    }
    v
}

/// Achieved GFLOP/s over the roofline bound `min(peak, intensity x
/// bandwidth)`. FLOPs and bytes are the program's model counts (computed,
/// cache misses ignored); the ceilings were measured in this process. 0
/// for a kernel that counts neither.
pub fn roofline_frac(k: &KernelRow, machine: &Machine) -> f64 {
    if k.flops == 0 || k.bytes == 0 || k.seconds <= 0.0 {
        return 0.0;
    }
    let achieved = k.flops as f64 / k.seconds / 1e9;
    let intensity = k.flops as f64 / k.bytes as f64;
    achieved / machine.peak_gflops.min(intensity * machine.stream_gbs)
}

/// The result line: one JSON object with exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`, one entry per definition.
/// Panics when a defined metric has no value — a missing metric must not
/// pass silently as a shorter line.
pub fn result_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    defs: &[MetricDef],
    values: &Values,
) -> String {
    let mut w = JsonWriter::new();
    w.begin_obj();
    w.key("correct").bool_val(correct);
    w.key("attempted").u64_val(attempted as u64);
    w.key("failed").u64_val(failed as u64);
    w.key("metrics");
    w.begin_obj();
    for d in defs {
        let value = values
            .get(&d.name)
            .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
        w.key(&d.name);
        w.begin_obj();
        w.key("value").f64_val(*value);
        w.key("unit").str_val(d.unit);
        w.end_obj();
    }
    w.end_obj();
    w.end_obj();
    w.finish()
}

/// A parsed result line.
#[derive(Clone, Debug, PartialEq)]
pub struct Parsed {
    /// The run's outputs were correct.
    pub correct: bool,
    /// Generations run.
    pub attempted: u64,
    /// Generations failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: Values,
}

/// Parses a result line back.
pub fn parse_result_line(line: &str) -> Result<Parsed, String> {
    let v = json::parse(line)?;
    let count = |key: &str| {
        v.get(key)
            .and_then(JsonValue::as_f64)
            .map(|x| x as u64)
            .ok_or_else(|| format!("result line has no number '{key}'"))
    };
    let correct = match v.get("correct") {
        Some(JsonValue::Bool(b)) => *b,
        _ => return Err("result line has no boolean 'correct'".to_string()),
    };
    let metrics = v
        .get("metrics")
        .and_then(JsonValue::as_obj)
        .ok_or("result line has no object 'metrics'")?;
    let mut values = Values::new();
    for (name, m) in metrics {
        let value = m
            .get("value")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| format!("metric {name} has no numeric value"))?;
        values.insert(name.clone(), value);
    }
    Ok(Parsed {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        values,
    })
}

/// Worsening of `b` against `a` as a share of `a`, in the metric's bad
/// direction (negative when `b` is better).
pub fn worsening(d: &MetricDef, a: f64, b: f64) -> f64 {
    let change = (b - a) / a;
    if d.better == "higher" {
        -change
    } else {
        change
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn listed(section: &JsonValue) -> Vec<(String, String, String, Option<f64>)> {
        section
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).unwrap().as_str().unwrap().to_string();
                (
                    s("name"),
                    s("unit"),
                    s("better"),
                    m.get("bound").and_then(JsonValue::as_f64),
                )
            })
            .collect()
    }

    fn as_listed(defs: &[MetricDef]) -> Vec<(String, String, String, Option<f64>)> {
        defs.iter()
            .map(|d| {
                (
                    d.name.clone(),
                    d.unit.to_string(),
                    d.better.to_string(),
                    d.bound,
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics_and_workloads() {
        let m = manifest();
        assert_eq!(
            listed(m.get("end_to_end").unwrap()),
            as_listed(&end_to_end_defs())
        );
        let kernels = crate::layers::kernel_labels();
        assert_eq!(
            listed(m.get("per_layer").unwrap()),
            as_listed(&per_layer_defs(&kernels))
        );
        let workloads: Vec<(String, String)> = m
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| {
                let s = |k: &str| w.get(k).unwrap().as_str().unwrap().to_string();
                (s("name"), s("why"))
            })
            .collect();
        let ours: Vec<(String, String)> = crate::layers::WORKLOADS
            .iter()
            .map(|s| (s.name.to_string(), s.why.to_string()))
            .collect();
        assert_eq!(workloads, ours);
        assert_eq!(
            m.get("run_seconds").unwrap().as_f64(),
            Some(f64::from(crate::RUN_SECONDS))
        );
    }

    #[test]
    fn per_layer_list_fits_the_contract() {
        let defs = per_layer_defs(&crate::layers::kernel_labels());
        assert!(defs.len() <= 128, "{} per-layer metrics", defs.len());
        let mut names: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), defs.len(), "names are used once");
        for d in &defs {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
    }

    #[test]
    fn result_line_round_trips_through_the_parser() {
        let defs = end_to_end_defs();
        let values: Values = defs
            .iter()
            .enumerate()
            .map(|(i, d)| (d.name.clone(), 1.5 + i as f64))
            .collect();
        let line = result_line(true, 120, 0, &defs, &values);
        assert!(!line.contains('\n'));
        let parsed = parse_result_line(&line).expect("well-formed");
        assert_eq!(
            (parsed.correct, parsed.attempted, parsed.failed),
            (true, 120, 0)
        );
        assert_eq!(parsed.values, values);
        let v = json::parse(&line).unwrap();
        let keys: Vec<&str> = v
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = v.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        let defs = end_to_end_defs();
        let throughput = defs.iter().find(|d| d.name == "samples_per_s").unwrap();
        let latency = defs
            .iter()
            .find(|d| d.name == "walker_step_ms_p50")
            .unwrap();
        assert!((worsening(throughput, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(latency, 100.0, 90.0) + 0.1).abs() < 1e-12);
    }

    #[test]
    fn roofline_fraction_uses_the_lower_ceiling() {
        let machine = Machine {
            peak_gflops: 100.0,
            stream_gbs: 10.0,
            timer_scope_ns: 0.0,
        };
        let k = KernelRow {
            label: "k",
            calls: 1,
            seconds: 1.0,
            flops: 2_000_000_000,
            bytes: 1_000_000_000,
        };
        // Intensity 2 FLOP/byte: bound 20 GFLOP/s, achieved 2.
        assert!((roofline_frac(&k, &machine) - 0.1).abs() < 1e-12);
        let uncounted = KernelRow { flops: 0, ..k };
        assert_eq!(roofline_frac(&uncounted, &machine), 0.0);
    }
}
