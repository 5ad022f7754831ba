//! CI helper: reads JSON from stdin, validates it with the in-tree
//! parser, and exits nonzero (with a message) when it is empty or
//! malformed. Used by `ci.sh` to smoke-test `miniqmc --profile json`:
//! a `qmc-run-report/1` document must also attribute no more time to
//! kernels than the run had, and carry no sanitizer violations.
//!
//! ```text
//! miniqmc --benchmark graphite --profile json | json_check
//! ```

use qmc_instrument::json::JsonValue;
use qmc_instrument::RUN_REPORT_SCHEMA;
use std::io::Read;

fn member<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key)
        .ok_or_else(|| format!("report missing `{key}`"))
}

fn number(obj: &JsonValue, key: &str) -> Result<f64, String> {
    member(obj, key)?
        .as_f64()
        .ok_or_else(|| format!("report `{key}` is not a number"))
}

/// Checks a run report's time attribution: every kernel's `seconds` is a
/// finite number ≥ 0, and together they fit in the run's thread time,
/// Σ `kernels.*.seconds` ≤ `seconds` × `threads` (busy shares sum to at
/// most 1). Kernel seconds are sampled estimates, so the sum gate is only
/// as tight as the run is long; `ci.sh` sizes its smoke runs for that.
fn check_run_report(v: &JsonValue) -> Result<(), String> {
    let kernels = member(v, "kernels")?
        .as_obj()
        .ok_or("report `kernels` is not an object")?;
    let mut sum = 0.0;
    for (label, stats) in kernels {
        let s = stats
            .get("seconds")
            .and_then(JsonValue::as_f64)
            .filter(|s| s.is_finite() && *s >= 0.0)
            .ok_or_else(|| format!("kernel `{label}` seconds is not a finite number >= 0"))?;
        sum += s;
    }
    let (wall, threads) = (number(v, "seconds")?, number(v, "threads")?);
    if sum > wall * threads {
        return Err(format!(
            "kernel seconds sum to {sum:.6} s, more than the run's {wall:.6} s x {threads} \
             thread(s): busy shares add up to more than 1"
        ));
    }
    Ok(())
}

fn main() {
    let mut input = String::new();
    if let Err(e) = std::io::stdin().read_to_string(&mut input) {
        eprintln!("json_check: cannot read stdin: {e}");
        std::process::exit(1);
    }
    if input.trim().is_empty() {
        eprintln!("json_check: empty input");
        std::process::exit(1);
    }
    match qmc_instrument::json::parse(&input) {
        Ok(v) => {
            // A run report must at least carry its schema tag; plain JSON
            // from other producers (e.g. Chrome traces) just passes.
            if let Some(schema) = v.get("schema").and_then(|s| s.as_str()) {
                let checked = if schema == RUN_REPORT_SCHEMA {
                    check_run_report(&v)
                } else {
                    Ok(())
                };
                if let Err(msg) = checked {
                    eprintln!("json_check: {msg}");
                    std::process::exit(1);
                }
                // Gate on the runtime sanitizer: a `checked` build that
                // observed non-finite accumulator values or out-of-bound
                // drift must fail CI, not just note it in the report.
                let violations = v
                    .get("sanitizer")
                    .and_then(|s| s.get("total_violations"))
                    .and_then(JsonValue::as_f64)
                    .unwrap_or(0.0);
                if violations > 0.0 {
                    eprintln!("json_check: sanitizer reported {violations} invariant violation(s)");
                    std::process::exit(1);
                }
                println!("json_check: ok (schema {schema})");
            } else {
                println!("json_check: ok");
            }
        }
        Err(e) => {
            eprintln!("json_check: invalid JSON: {e}");
            std::process::exit(1);
        }
    }
}
