//! In-source project configuration: which files play which role.
//!
//! There is deliberately no `qmclint.toml` — the file classification is
//! part of the linter itself so that changing the set of mixed-precision
//! or kernel modules is a reviewed code change, not a config drive-by.
//! Paths are matched repo-relative with forward slashes.

/// How a file is treated by the rules.
// Not a state machine: the flags are orthogonal classification facts and
// every combination is meaningful (e.g. kernel + physics + mixed).
#[allow(clippy::struct_excessive_bools)]
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FileClass {
    /// Skipped entirely (tests, benches, binaries, vendored shims, ...).
    pub exempt: bool,
    /// Designated mixed-precision module: raw `f32`/`f64` casts are legal.
    pub mixed_precision: bool,
    /// Hot kernel module: the hot-path and timer rules apply.
    pub kernel: bool,
    /// Physics crate: the determinism rule applies.
    pub physics: bool,
}

/// Paths (prefixes or substrings) that are never linted.
///
/// * `shims/` — vendored minimal API stubs for offline builds, not ours.
/// * test / bench / example / bin targets — CLI front-ends and test code
///   are allowed to allocate, unwrap and cast freely.
/// * `crates/qmclint/` — the linter itself (its fixtures are deliberate
///   violations; its sources are full of rule-name strings).
const EXEMPT_MARKERS: [&str; 8] = [
    "shims/",
    "/tests/",
    "/benches/",
    "/examples/",
    "/src/bin/",
    "crates/qmclint/",
    "crates/bench/",
    "target/",
];

/// Top-level (workspace-root) directories that are exempt as a whole.
const EXEMPT_PREFIXES: [&str; 2] = ["tests/", "examples/"];

/// Directory *names* the workspace walk never descends into. Part of the
/// reviewed configuration (like every other list here) rather than
/// hard-coded in the walker: `shims/` is vendored third-party API surface,
/// the rest is build/VCS noise. The walker also carries a visited set of
/// canonical paths, so symlink cycles terminate.
pub const SKIP_DIRS: [&str; 4] = ["target", ".git", "node_modules", "shims"];

/// Designated mixed-precision modules (ISSUE rule 1): the only places a
/// raw `as f32`/`as f64` cast or suffixed float literal is legal without a
/// justification. Everything else must go through the `Real` trait
/// boundary (`T::from_f64` / `.to_f64()`) or carry an allow marker.
const MIXED_PRECISION: [&str; 3] = [
    "crates/containers/src/real.rs",
    "crates/bspline/src/",
    "crates/wavefunction/src/buffer.rs",
];

/// Hot kernel modules (ISSUE rule 2/4): distance tables, B-splines,
/// Jastrow factors, SPO/determinant kernels and the swappable-backend
/// kernel library (every backend's entry points are kernel roots, so a
/// slow-path regression in any backend fires here).
const KERNEL_MODULES: [&str; 6] = [
    "crates/particles/src/dtable.rs",
    "crates/bspline/src/",
    "crates/wavefunction/src/jastrow/",
    "crates/wavefunction/src/spo.rs",
    "crates/linalg/src/",
    "crates/kernels/src/",
];

/// Physics crates (ISSUE rule 5): anything whose results enter the Monte
/// Carlo estimate. Observability (`instrument`), front-ends (`miniqmc`)
/// and the bench harness are excluded — wall-clock time there is fine.
const PHYSICS_CRATES: [&str; 11] = [
    "crates/core/",
    "crates/containers/",
    "crates/linalg/",
    "crates/bspline/",
    "crates/particles/",
    "crates/wavefunction/",
    "crates/hamiltonian/",
    "crates/drivers/",
    "crates/crowd/",
    "crates/workloads/",
    "crates/kernels/",
];

/// Classifies a repo-relative path (forward slashes).
pub fn classify(path: &str) -> FileClass {
    let p = path.trim_start_matches("./");
    if EXEMPT_MARKERS.iter().any(|m| p.contains(m))
        || EXEMPT_PREFIXES.iter().any(|m| p.starts_with(m))
    {
        return FileClass {
            exempt: true,
            ..FileClass::default()
        };
    }
    FileClass {
        exempt: false,
        mixed_precision: MIXED_PRECISION.iter().any(|m| p.starts_with(m)),
        kernel: KERNEL_MODULES.iter().any(|m| p.starts_with(m)),
        physics: PHYSICS_CRATES.iter().any(|m| p.starts_with(m)),
    }
}

/// Function names exempt from the hot-path rule: constructors and other
/// setup/conversion entry points that legitimately allocate. Hot functions
/// that must allocate for a good reason use a `// qmclint: cold — <why>`
/// marker instead.
pub fn is_cold_fn_name(name: &str) -> bool {
    matches!(
        name,
        "new" | "default" | "random" | "zeros" | "from_fn" | "clone" | "convert" | "bytes"
    ) || name.starts_with("from_")
        || name.starts_with("with_")
        || name.starts_with("build")
        || name.starts_with("set_")
        || name.starts_with("clone_")
}

// ---------------------------------------------------------------------------
// RNG-discipline configuration
// ---------------------------------------------------------------------------

/// RNG draw methods on the vendored `shims/rand` `StdRng` (and the `Rng`
/// trait it implements). The shim itself is exempt from linting, so draw
/// *sites* are recognized lexically: a method call spelled with one of
/// these names advances the caller's RNG stream. The list is the reviewed
/// annotation surface for the shim — extending the shim's draw API
/// without extending this list is caught by the shim-side `DRAW_METHODS`
/// mirror test.
pub const RNG_DRAW_METHODS: [&str; 4] = ["random", "random_range", "random_bool", "next_u64"];

/// Sanctioned RNG territory: files (path prefixes) whose non-test
/// functions may draw from an RNG stream — the DMC/VMC drivers, the crowd
/// drive, the particle move machinery and workload/population
/// construction. A draw site in any other non-test function is an
/// `rng-discipline` diagnostic, whoever calls it: code elsewhere receives
/// drawn values, or calls into this territory to draw.
pub const SANCTIONED_RNG_PATHS: [&str; 4] = [
    "crates/drivers/src/",
    "crates/crowd/src/",
    "crates/particles/src/random.rs",
    "crates/workloads/src/",
];

/// The only functions allowed to re-key an RNG stream (`.rng = ...`): the
/// explicit migration re-seed marker. The checkpoint decoder installs the
/// restored stream in a struct literal, so a re-key anywhere else — a
/// serializer "refreshing" the stream, say — fires `rng-discipline`.
pub const SANCTIONED_REKEY_FNS: [&str; 1] = ["reseed_for_migration"];

// ---------------------------------------------------------------------------
// Thread-spawn configuration
// ---------------------------------------------------------------------------

/// Methods that start a thread on the vendored `shims/rayon` scope (and on
/// `std::thread::scope`, which spells the spawn identically). The shim
/// itself is exempt from linting, so spawn sites are recognized lexically;
/// the shim-side `SPAWN_METHODS` mirror test keeps this list honest.
pub const SPAWN_METHODS: [&str; 1] = ["spawn"];

/// The one linted file that may call a [`SPAWN_METHODS`] method: the crew
/// fan-out (`fan_out_tasks`) every driver forks through, swept across
/// schedules by `qmcsched`. A spawn anywhere else — physics crate or not —
/// is a `determinism` diagnostic.
pub const SPAWN_SITE: &str = "crates/drivers/src/crew.rs";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_examples() {
        assert!(classify("shims/rand/src/lib.rs").exempt);
        assert!(classify("crates/drivers/tests/physics.rs").exempt);
        assert!(classify("crates/miniqmc/src/bin/miniqmc.rs").exempt);
        assert!(classify("tests/determinism.rs").exempt);
        assert!(classify("crates/qmclint/src/rules.rs").exempt);

        let spline = classify("crates/bspline/src/spline3d.rs");
        assert!(spline.mixed_precision && spline.kernel && spline.physics);

        let dtable = classify("crates/particles/src/dtable.rs");
        assert!(dtable.kernel && dtable.physics && !dtable.mixed_precision);

        let report = classify("crates/instrument/src/report.rs");
        assert!(!report.physics && !report.kernel && !report.exempt);

        let estimator = classify("crates/drivers/src/estimator.rs");
        assert!(estimator.physics && !estimator.kernel);

        // The kernel library: every backend file is a hot kernel root and
        // physics, but not a designated mixed-precision module.
        let kernels = classify("crates/kernels/src/bspline.rs");
        assert!(kernels.kernel && kernels.physics && !kernels.mixed_precision);
        assert!(classify("crates/kernels/src/bin/kernel_verify.rs").exempt);
    }

    /// Every configured path names a file or directory of the workspace, so
    /// deleting or moving a module cannot leave an entry that silently
    /// matches nothing.
    #[test]
    fn every_configured_path_exists() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let lists: [(&str, &[&str]); 6] = [
            ("MIXED_PRECISION", &MIXED_PRECISION),
            ("KERNEL_MODULES", &KERNEL_MODULES),
            ("PHYSICS_CRATES", &PHYSICS_CRATES),
            ("SANCTIONED_RNG_PATHS", &SANCTIONED_RNG_PATHS),
            ("EXEMPT_PREFIXES", &EXEMPT_PREFIXES),
            ("SPAWN_SITE", &[SPAWN_SITE]),
        ];
        for (name, paths) in lists {
            for path in paths {
                assert!(
                    root.join(path).exists(),
                    "{name} entry `{path}` matches nothing in the workspace"
                );
            }
        }
    }

    #[test]
    fn cold_names() {
        assert!(is_cold_fn_name("new"));
        assert!(is_cold_fn_name("from_coefficients"));
        assert!(is_cold_fn_name("set_control_points"));
        assert!(!is_cold_fn_name("evaluate_vgl"));
        assert!(!is_cold_fn_name("mw_evaluate_vgl"));
    }
}
