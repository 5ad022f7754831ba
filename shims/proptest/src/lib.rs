//! Minimal offline stand-in for `proptest`.
//!
//! Provides the `proptest!` macro, range/tuple/vec strategies, `any::<T>()`,
//! `prop_assert*` / `prop_assume!`, `ProptestConfig`, and `TestCaseError` —
//! the exact surface the workspace's property tests use. Cases are generated
//! from a deterministic per-test seed (hash of test name and case index), so
//! failures reproduce exactly on re-run; there is no shrinking, the failing
//! case's seed is printed instead.

#![allow(
    clippy::pedantic,
    reason = "vendored stand-in: names, signatures and by-value arguments mirror the external crate"
)]

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// Why a test case did not pass: a hard failure or a filtered (rejected)
/// input from `prop_assume!`.
#[derive(Debug, Clone)]
pub enum TestCaseError {
    Fail(String),
    Reject(String),
}

impl TestCaseError {
    pub fn fail(msg: impl Into<String>) -> Self {
        TestCaseError::Fail(msg.into())
    }

    pub fn reject(msg: impl Into<String>) -> Self {
        TestCaseError::Reject(msg.into())
    }
}

impl std::fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TestCaseError::Fail(m) => write!(f, "test case failed: {m}"),
            TestCaseError::Reject(m) => write!(f, "input rejected: {m}"),
        }
    }
}

#[derive(Debug, Clone)]
pub struct ProptestConfig {
    pub cases: u32,
}

impl Default for ProptestConfig {
    /// 64 cases by default (env `PROPTEST_CASES` overrides): tier-1 runs the
    /// property suites in debug profile, so the default favors fast feedback.
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        ProptestConfig { cases }
    }
}

impl ProptestConfig {
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

/// A generator of values for one macro argument.
pub trait Strategy {
    type Value;
    fn generate(&self, rng: &mut StdRng) -> Self::Value;
}

impl Strategy for std::ops::Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut StdRng) -> f64 {
        self.start + (self.end - self.start) * rng.random::<f64>()
    }
}

impl Strategy for std::ops::Range<f32> {
    type Value = f32;
    fn generate(&self, rng: &mut StdRng) -> f32 {
        self.start + (self.end - self.start) * rng.random::<f32>()
    }
}

macro_rules! int_strategy {
    ($($t:ty => $wide:ty),*) => {$(
        impl Strategy for std::ops::Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut StdRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as $wide - self.start as $wide) as u64;
                let off = rng.random::<u64>() % span;
                (self.start as $wide + off as $wide) as $t
            }
        }
    )*};
}

int_strategy!(usize => u128, u64 => u128, u32 => u64, i32 => i64, i64 => i128);

macro_rules! tuple_strategy {
    ($(($($s:ident / $idx:tt),+))*) => {$(
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut StdRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    )*};
}

tuple_strategy! {
    (A / 0)
    (A / 0, B / 1)
    (A / 0, B / 1, C / 2)
    (A / 0, B / 1, C / 2, D / 3)
}

/// Types with a canonical whole-domain strategy (`any::<T>()`).
pub trait Arbitrary: Sized {
    fn arbitrary(rng: &mut StdRng) -> Self;
}

impl Arbitrary for bool {
    fn arbitrary(rng: &mut StdRng) -> bool {
        rng.random::<bool>()
    }
}

impl Arbitrary for u64 {
    fn arbitrary(rng: &mut StdRng) -> u64 {
        rng.random::<u64>()
    }
}

impl Arbitrary for f64 {
    fn arbitrary(rng: &mut StdRng) -> f64 {
        rng.random::<f64>()
    }
}

pub struct ArbitraryStrategy<T>(std::marker::PhantomData<T>);

impl<T: Arbitrary> Strategy for ArbitraryStrategy<T> {
    type Value = T;
    fn generate(&self, rng: &mut StdRng) -> T {
        T::arbitrary(rng)
    }
}

pub fn any<T: Arbitrary>() -> ArbitraryStrategy<T> {
    ArbitraryStrategy(std::marker::PhantomData)
}

pub mod collection {
    use super::{StdRng, Strategy};
    use rand::RngExt;

    /// Length specifications accepted by [`vec`]: an exact length or an
    /// end-exclusive range.
    pub trait IntoSizeRange {
        fn pick(&self, rng: &mut StdRng) -> usize;
    }

    impl IntoSizeRange for usize {
        fn pick(&self, _rng: &mut StdRng) -> usize {
            *self
        }
    }

    impl IntoSizeRange for std::ops::Range<usize> {
        fn pick(&self, rng: &mut StdRng) -> usize {
            assert!(self.start < self.end, "empty vec size range");
            rng.random_range(self.start..self.end)
        }
    }

    pub struct VecStrategy<S, L> {
        element: S,
        len: L,
    }

    pub fn vec<S: Strategy, L: IntoSizeRange>(element: S, len: L) -> VecStrategy<S, L> {
        VecStrategy { element, len }
    }

    impl<S: Strategy, L: IntoSizeRange> Strategy for VecStrategy<S, L> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut StdRng) -> Vec<S::Value> {
            let n = self.len.pick(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// Deterministic per-case seed: FNV-1a over the test identity, mixed with
/// the case index, so every test gets an independent reproducible stream.
fn case_seed(test: &str, file: &str, case: u32) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in test.bytes().chain(file.bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h ^ ((case as u64) << 32 | case as u64)
}

/// Driver behind the `proptest!` macro: runs `config.cases` accepted cases,
/// skipping rejected inputs (with a global attempt cap) and panicking with a
/// reproducible case identifier on failure.
pub fn run_proptest<F>(config: ProptestConfig, test: &str, file: &str, mut body: F)
where
    F: FnMut(&mut StdRng) -> Result<(), TestCaseError>,
{
    let max_attempts = (config.cases as u64).saturating_mul(20).max(1000);
    let mut accepted = 0u32;
    let mut attempt = 0u64;
    while accepted < config.cases {
        assert!(
            attempt < max_attempts,
            "proptest '{test}': too many rejected inputs ({attempt} attempts for \
             {accepted}/{} cases)",
            config.cases
        );
        let seed = case_seed(test, file, attempt as u32);
        let mut rng = StdRng::seed_from_u64(seed);
        match body(&mut rng) {
            Ok(()) => accepted += 1,
            Err(TestCaseError::Reject(_)) => {}
            Err(TestCaseError::Fail(msg)) => {
                panic!("proptest '{test}' failed at case {attempt} (seed {seed:#x}): {msg}")
            }
        }
        attempt += 1;
    }
}

#[macro_export]
macro_rules! proptest {
    (
        #![proptest_config($cfg:expr)]
        $($rest:tt)*
    ) => {
        $crate::__proptest_impl! { config = $cfg; $($rest)* }
    };
    ( $($rest:tt)* ) => {
        $crate::__proptest_impl! { config = $crate::ProptestConfig::default(); $($rest)* }
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_impl {
    (
        config = $cfg:expr;
        $(
            $(#[$meta:meta])*
            fn $name:ident( $($arg:ident in $strat:expr),+ $(,)? ) $body:block
        )+
    ) => {
        $(
            $(#[$meta])*
            fn $name() {
                let config = $cfg;
                $crate::run_proptest(config, stringify!($name), file!(), |__rng| {
                    $( let $arg = $crate::Strategy::generate(&($strat), __rng); )+
                    #[allow(unused_mut, reason = "a test body need not mutate its bindings")]
                    let mut __body = move || -> ::std::result::Result<(), $crate::TestCaseError> {
                        $body
                        #[allow(unreachable_code, reason = "a test body may return early")]
                        ::std::result::Result::Ok(())
                    };
                    __body()
                });
            }
        )+
    };
}

#[macro_export]
macro_rules! prop_assert {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}",
                stringify!($cond)
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {}: {}",
                stringify!($cond),
                format!($($fmt)+)
            )));
        }
    };
}

#[macro_export]
macro_rules! prop_assert_eq {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
                stringify!($left),
                stringify!($right),
                __l,
                __r
            )));
        }
    }};
    ($left:expr, $right:expr, $($fmt:tt)+) => {{
        let (__l, __r) = (&$left, &$right);
        if !(*__l == *__r) {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {:?} == {:?}: {}",
                __l,
                __r,
                format!($($fmt)+)
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assert_ne {
    ($left:expr, $right:expr $(,)?) => {{
        let (__l, __r) = (&$left, &$right);
        if *__l == *__r {
            return ::std::result::Result::Err($crate::TestCaseError::fail(format!(
                "assertion failed: {} != {}\n  both: {:?}",
                stringify!($left),
                stringify!($right),
                __l
            )));
        }
    }};
}

#[macro_export]
macro_rules! prop_assume {
    ($cond:expr $(,)?) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(stringify!(
                $cond
            )));
        }
    };
    ($cond:expr, $($fmt:tt)+) => {
        if !($cond) {
            return ::std::result::Result::Err($crate::TestCaseError::reject(format!(
                $($fmt)+
            )));
        }
    };
}

pub mod prelude {
    pub use crate::{any, Arbitrary, ProptestConfig, Strategy, TestCaseError};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, prop_assume, proptest};

    pub mod prop {
        pub use crate::collection;
    }
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        /// Ranges respect their bounds and tuples compose.
        #[test]
        fn ranges_in_bounds(
            x in -2.0f64..3.0,
            n in 1usize..10,
            pair in (0.0f64..1.0, -5i32..5),
        ) {
            prop_assert!((-2.0..3.0).contains(&x));
            prop_assert!((1..10).contains(&n));
            prop_assert!(pair.0 >= 0.0 && pair.0 < 1.0);
            prop_assert!(pair.1 >= -5 && pair.1 < 5);
        }

        /// Vec strategies honor exact and ranged lengths.
        #[test]
        fn vec_lengths(
            exact in prop::collection::vec(0.0f64..1.0, 7),
            ranged in prop::collection::vec(any::<bool>(), 2..6),
        ) {
            prop_assert_eq!(exact.len(), 7);
            prop_assert!(ranged.len() >= 2 && ranged.len() < 6);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(5))]

        /// prop_assume rejections are skipped, not failed.
        #[test]
        fn assume_filters(v in 0usize..100) {
            prop_assume!(v % 2 == 0);
            prop_assert_eq!(v % 2, 0);
        }
    }
}
