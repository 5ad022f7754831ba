//! Minimal command-line option parsing shared by the miniapps
//! ("Command-line options are used to change the problems for fast
//! prototyping, debugging and analysis" — §7.1).

use std::collections::BTreeMap;

/// Parsed command-line options: flags with values plus positional args.
#[derive(Clone, Debug, Default)]
pub struct Options {
    values: BTreeMap<String, String>,
    flags: Vec<String>,
    /// The binary name (`argv[0]`).
    pub program: String,
}

impl Options {
    /// Parses `--key value`, `--key=value`, `-k value` and bare `--flag`
    /// arguments from an iterator (usually `std::env::args()`).
    pub fn parse(mut args: impl Iterator<Item = String>) -> Self {
        let program = args.next().unwrap_or_default();
        let mut out = Self {
            program,
            ..Self::default()
        };
        let rest: Vec<String> = args.collect();
        let mut i = 0;
        while i < rest.len() {
            let a = &rest[i];
            if let Some(stripped) = a.strip_prefix('-') {
                let key = stripped.trim_start_matches('-').to_string();
                if let Some((k, v)) = key.split_once('=') {
                    out.values.insert(k.to_string(), v.to_string());
                } else if i + 1 < rest.len() && !rest[i + 1].starts_with('-') {
                    out.values.insert(key, rest[i + 1].clone());
                    i += 1;
                } else {
                    out.flags.push(key);
                }
            }
            i += 1;
        }
        out
    }

    /// Convenience constructor from the process arguments.
    pub fn from_env() -> Self {
        Self::parse(std::env::args())
    }

    /// Value of `key` parsed as `T`, `default` when the option is absent,
    /// and a one-line error naming the option when its value is missing
    /// or does not parse.
    pub fn try_get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        let expected = std::any::type_name::<T>();
        match self.values.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key}: cannot use '{v}' (valid: a {expected} value)")),
            None if self.has_flag(key) => Err(format!("--{key} needs a {expected} value")),
            None => Ok(default),
        }
    }

    /// Raw string value of `key`.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(std::string::String::as_str)
    }

    /// True when the bare flag was given.
    pub fn has_flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Reports a usage error — one line, `program: msg`, on stderr — and
    /// exits 2: a bad invocation must not panic with a backtrace.
    pub fn fail_usage(&self, msg: &str) -> ! {
        eprintln!("{}: {msg}", self.program);
        std::process::exit(2);
    }
}

/// Lower bound on a size or count, to chain after [`Options::try_get`]
/// with `and_then`: values below `min` become an error in `try_get`'s
/// format naming the option, so they are refused before anything is built
/// from them.
pub fn at_least(key: &str, min: usize) -> impl Fn(usize) -> Result<usize, String> + '_ {
    move |v| {
        if v >= min {
            Ok(v)
        } else {
            Err(format!("--{key}: cannot use '{v}' (valid: at least {min})"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Options {
        Options::parse(
            std::iter::once("prog".to_string())
                .chain(args.iter().map(std::string::ToString::to_string)),
        )
    }

    #[test]
    fn long_short_and_equals_forms() {
        let o = parse(&["--nel", "64", "-i=10", "--verbose", "--layout", "soa"]);
        assert_eq!(o.try_get("nel", 0usize), Ok(64));
        assert_eq!(o.try_get("i", 0usize), Ok(10));
        assert!(o.has_flag("verbose"));
        assert_eq!(o.get_str("layout"), Some("soa"));
        assert_eq!(o.program, "prog");
    }

    #[test]
    fn defaults_apply() {
        let o = parse(&[]);
        assert_eq!(o.try_get("nel", 48usize), Ok(48));
        assert_eq!(o.try_get("tau", 0.01f64), Ok(0.01));
        assert!(!o.has_flag("verbose"));
    }

    #[test]
    fn try_get_rejects_unusable_values() {
        let o = parse(&["--steps", "abc", "--walkers", "4", "--warmup"]);
        let err = o.try_get("steps", 10usize).unwrap_err();
        assert!(err.contains("--steps") && err.contains("abc"), "{err}");
        assert!(o
            .try_get("warmup", 2usize)
            .unwrap_err()
            .contains("--warmup"));
        assert_eq!(o.try_get("walkers", 8usize), Ok(4));
        assert_eq!(o.try_get("threads", 2usize), Ok(2));
    }

    #[test]
    fn at_least_names_the_option_and_the_bound() {
        let o = parse(&["--grid", "2", "--splines", "8"]);
        let err = o.try_get("grid", 48).and_then(at_least("grid", 4));
        assert_eq!(
            err,
            Err("--grid: cannot use '2' (valid: at least 4)".into())
        );
        let ok = o.try_get("splines", 1).and_then(at_least("splines", 1));
        assert_eq!(ok, Ok(8));
    }

    #[test]
    fn negative_numbers_are_not_eaten_as_flags() {
        // `--shift -1.5`: the value starts with '-', so it becomes a flag;
        // the documented way is `--shift=-1.5`.
        let o = parse(&["--shift=-1.5"]);
        assert_eq!(o.try_get("shift", 0.0f64), Ok(-1.5));
    }
}
