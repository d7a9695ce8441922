//! In-repo stand-in for the `proptest` crate.
//!
//! The build environment cannot reach the crates.io registry, so this crate
//! vendors the subset of the proptest API the workspace's property tests
//! use, and nothing more: the [`proptest!`] macro, [`Strategy`] with
//! `prop_map` / `prop_flat_map` / `prop_shuffle`, `any::<T>()` for `bool`,
//! `u8`, `u32`, `u64` and `usize`, ranges over those integers and `f64`,
//! tuples of two to five strategies, [`collection::vec`] and
//! [`collection::btree_set`], and the `prop_assert!` / `prop_assert_eq!` /
//! `prop_assume!` macros.
//!
//! Differences from real proptest, on purpose:
//!
//! * **No shrinking.** A failing case reports the case index and the seed
//!   derivation (test path), which is deterministic, so failures replay by
//!   re-running the test.
//! * **`prop_assume!` passes instead of resampling.** Assumption failures
//!   count as successful cases rather than being retried.
//! * Case generation is seeded from the test's module path and name, so
//!   runs are fully deterministic (override the case count with the
//!   `PROPTEST_CASES` environment variable).

#![warn(missing_docs)]

use std::fmt;

pub mod collection;
mod strategy;
mod test_runner;

pub use strategy::{any, Just, Strategy};
pub use test_runner::TestRng;

/// A failed property within a test case.
#[derive(Debug)]
pub struct TestCaseError {
    message: String,
}

impl TestCaseError {
    /// A failure carrying `message`.
    pub fn fail(message: impl Into<String>) -> Self {
        TestCaseError {
            message: message.into(),
        }
    }
}

impl fmt::Display for TestCaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

/// Per-test configuration accepted via `#![proptest_config(...)]`.
#[derive(Clone, Debug)]
pub struct ProptestConfig {
    /// Number of random cases to run.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases.
    pub fn with_cases(cases: u32) -> Self {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    #[expect(
        clippy::disallowed_methods,
        reason = "PROPTEST_CASES sizes the test run; it never feeds a simulation"
    )]
    fn default() -> Self {
        let cases = std::env::var("PROPTEST_CASES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(256);
        ProptestConfig { cases }
    }
}

/// The customary glob import for test files.
pub mod prelude {
    pub use crate::strategy::{any, Just, Strategy};
    pub use crate::{
        prop_assert, prop_assert_eq, prop_assume, proptest, ProptestConfig, TestCaseError,
    };
}

/// Fails the current case unless `cond` holds.
#[macro_export]
macro_rules! prop_assert {
    ($cond:expr) => {
        $crate::prop_assert!($cond, concat!("assertion failed: ", stringify!($cond)))
    };
    ($cond:expr, $($fmt:tt)*) => {
        if !($cond) {
            return ::core::result::Result::Err($crate::TestCaseError::fail(format!($($fmt)*)));
        }
    };
}

/// Fails the current case unless the two expressions compare equal.
#[macro_export]
macro_rules! prop_assert_eq {
    ($a:expr, $b:expr $(,)?) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(
            a == b,
            "assertion failed: {} == {}\n  left: {:?}\n right: {:?}",
            stringify!($a),
            stringify!($b),
            a,
            b
        );
    }};
    ($a:expr, $b:expr, $($fmt:tt)*) => {{
        let (a, b) = (&$a, &$b);
        $crate::prop_assert!(a == b, $($fmt)*);
    }};
}

/// Skips the rest of the current case when `cond` does not hold.
///
/// Unlike real proptest this counts the case as passed instead of
/// resampling — good enough for the low rejection rates these tests have.
#[macro_export]
macro_rules! prop_assume {
    ($cond:expr) => {
        if !($cond) {
            return ::core::result::Result::Ok(());
        }
    };
}

/// Declares property tests. See the crate docs for supported syntax:
/// each `fn` parameter is either `name: Type` (an `any::<Type>()` value) or
/// `pattern in strategy`.
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($cfg:expr)] $($rest:tt)*) => {
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
    ($($rest:tt)*) => {
        $crate::__proptest_tests!(($crate::ProptestConfig::default()) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_tests {
    (($cfg:expr)) => {};
    (($cfg:expr) $(#[$meta:meta])* fn $name:ident($($params:tt)*) $body:block $($rest:tt)*) => {
        $crate::__proptest_one!(($cfg) [$(#[$meta])*] $name [] ($($params)*) $body);
        $crate::__proptest_tests!(($cfg) $($rest)*);
    };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __proptest_one {
    // Munch one `pattern in strategy` parameter.
    (($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*] ($p:pat in $s:expr, $($rest:tt)*) $body:block) => {
        $crate::__proptest_one!(($cfg) [$($meta)*] $name [$($acc)* {$p} {$s}] ($($rest)*) $body);
    };
    (($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*] ($p:pat in $s:expr) $body:block) => {
        $crate::__proptest_one!(($cfg) [$($meta)*] $name [$($acc)* {$p} {$s}] () $body);
    };
    // Munch one `name: Type` parameter (sugar for `name in any::<Type>()`).
    (($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*] ($p:ident : $t:ty, $($rest:tt)*) $body:block) => {
        $crate::__proptest_one!(($cfg) [$($meta)*] $name [$($acc)* {$p} {$crate::any::<$t>()}] ($($rest)*) $body);
    };
    (($cfg:expr) [$($meta:tt)*] $name:ident [$($acc:tt)*] ($p:ident : $t:ty) $body:block) => {
        $crate::__proptest_one!(($cfg) [$($meta)*] $name [$($acc)* {$p} {$crate::any::<$t>()}] () $body);
    };
    // All parameters munched: emit the test.
    (($cfg:expr) [$($meta:tt)*] $name:ident [$({$p:pat} {$s:expr})*] () $body:block) => {
        $($meta)*
        fn $name() {
            let cfg: $crate::ProptestConfig = $cfg;
            let mut rng = $crate::TestRng::deterministic(concat!(
                module_path!(),
                "::",
                stringify!($name)
            ));
            for case in 0..cfg.cases {
                $(let $p = $crate::Strategy::generate(&($s), &mut rng);)*
                let result: ::core::result::Result<(), $crate::TestCaseError> = (move || {
                    $body
                    ::core::result::Result::Ok(())
                })();
                if let ::core::result::Result::Err(e) = result {
                    panic!(
                        "proptest {} failed at case {}/{}: {}",
                        stringify!($name),
                        case,
                        cfg.cases,
                        e
                    );
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use crate::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn ranges_stay_in_bounds(x in 3u64..10, y in 2usize..=4, f in 0.25f64..0.75) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((2..=4).contains(&y));
            prop_assert!((0.25..0.75).contains(&f));
        }

        #[test]
        fn typed_params_and_tuples(a: u64, b: u8, (lo, hi) in (0u32..5, 10u32..15)) {
            let _ = (a, b);
            prop_assert!(lo < hi);
        }

        #[test]
        fn vec_and_map_and_shuffle(v in crate::collection::vec(0u64..100, 3..8).prop_shuffle()) {
            prop_assert!(v.len() >= 3 && v.len() < 8);
            prop_assert!(v.iter().all(|&x| x < 100));
        }

        #[test]
        fn flat_map_dependent(pair in (1usize..6).prop_flat_map(|n| (Just(n), crate::collection::vec(any::<u8>(), n..n + 1)))) {
            let (n, v) = pair;
            prop_assert_eq!(v.len(), n);
        }

        #[test]
        fn assume_short_circuits(x in 0u64..10) {
            prop_assume!(x != 5);
            prop_assert!(x != 5);
        }
    }

    #[test]
    fn determinism_same_name_same_stream() {
        let mut a = crate::TestRng::deterministic("x");
        let mut b = crate::TestRng::deterministic("x");
        for _ in 0..10 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn btree_set_sizes() {
        let mut rng = crate::TestRng::deterministic("sets");
        let s = crate::collection::btree_set(crate::any::<u64>(), 1..50);
        for _ in 0..32 {
            let v = crate::Strategy::generate(&s, &mut rng);
            assert!(!v.is_empty() && v.len() < 50);
        }
    }
}
