//! CI helper: reads JSON from stdin, validates it with the in-tree
//! parser, and exits nonzero (with a message) when it is empty or
//! malformed. Used by `ci.sh` to smoke-test `miniqmc --profile json`
//! and the qmclint report.
//!
//! ```text
//! miniqmc --benchmark graphite --profile json | json_check
//! json_check < QMCLINT.json
//! ```

use qmc_instrument::json::JsonValue;
use std::io::Read;

fn member<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a JsonValue, String> {
    obj.get(key)
        .ok_or_else(|| format!("qmclint report missing `{key}`"))
}

/// Checks a qmclint report. `qmclint/4` is the one version accepted — any
/// other is a hard error naming it, so a silent format bump cannot sail
/// through CI — and the report must be clean: `diagnostics_total` and
/// every `by_rule` count zero, with the `effects` inventory present.
fn check_qmclint(schema: &str, v: &JsonValue) -> Result<(), String> {
    if schema != "qmclint/4" {
        return Err(format!(
            "unsupported qmclint schema `{schema}` (only qmclint/4 is accepted)"
        ));
    }
    member(v, "files_scanned")?;
    if member(v, "diagnostics_total")?.as_f64() != Some(0.0) {
        return Err("qmclint report has diagnostics".into());
    }
    let by_rule = member(v, "by_rule")?
        .as_obj()
        .ok_or("qmclint `by_rule` is not an object")?;
    for (rule, count) in by_rule {
        if count.as_f64() != Some(0.0) {
            return Err(format!("qmclint rule `{rule}` is not at zero"));
        }
    }
    let effects = member(v, "effects")?;
    for key in [
        "pure_roots",
        "rng_draw_sites",
        "checkpointed_structs",
        "rules",
    ] {
        member(effects, key)?;
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
                if schema.starts_with("qmclint/") {
                    if let Err(msg) = check_qmclint(schema, &v) {
                        eprintln!("json_check: {msg}");
                        std::process::exit(1);
                    }
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
