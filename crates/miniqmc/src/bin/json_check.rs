//! CI helper: reads JSON from stdin, validates it with the in-tree
//! parser, and exits nonzero (with a message) when it is empty or
//! malformed. Used by `ci.sh` to smoke-test `miniqmc --profile json`
//! and the qmclint report.
//!
//! ```text
//! miniqmc --benchmark graphite --profile json | json_check
//! json_check < QMCLINT.json
//! ```

use std::io::Read;

/// Schema-specific checks for qmclint reports. `qmclint/3` is the one
/// version the analyzer has ever written to disk; any other version is a
/// hard error so a silent format bump cannot sail through CI.
fn check_qmclint(schema: &str, v: &qmc_instrument::json::JsonValue) {
    if schema != "qmclint/3" {
        eprintln!("json_check: unsupported qmclint schema `{schema}` (only qmclint/3 is accepted)");
        std::process::exit(1);
    }
    for key in ["files_scanned", "diagnostics_total", "by_rule"] {
        if v.get(key).is_none() {
            eprintln!("json_check: {schema} report missing `{key}`");
            std::process::exit(1);
        }
    }
    let blocks: [(&str, &[&str]); 2] = [
        (
            "effects",
            &[
                "pure_roots",
                "rng_draw_sites",
                "checkpointed_structs",
                "rules",
            ],
        ),
        (
            "par",
            &[
                "spawn_sites",
                "parallel_fns",
                "sched_cases",
                "det_reduce_calls",
                "rules",
            ],
        ),
    ];
    for (name, keys) in blocks {
        let Some(block) = v.get(name) else {
            eprintln!("json_check: {schema} report missing `{name}` block");
            std::process::exit(1);
        };
        for key in keys {
            if block.get(key).is_none() {
                eprintln!("json_check: {schema} `{name}` block missing `{key}`");
                std::process::exit(1);
            }
        }
    }
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
                if schema.starts_with("qmclint/") {
                    check_qmclint(schema, &v);
                }
                // Gate on the runtime sanitizer: a `checked` build that
                // observed non-finite accumulator values or out-of-bound
                // drift must fail CI, not just note it in the report.
                let violations = v
                    .get("sanitizer")
                    .and_then(|s| s.get("total_violations"))
                    .and_then(qmc_instrument::json::JsonValue::as_f64)
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
